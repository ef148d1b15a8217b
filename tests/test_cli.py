import csv
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floqdyn import cli
from floqdyn.cli import (
    RUN_SCHEMA,
    canonical_run_dict,
    canonical_scenario_dict,
    main,
    scenario_from_dict,
    scenario_to_dict,
    validate_schema,
)
from floqdyn.baths import BathSpec, LambIntegralParams, OhmicSpec
from floqdyn.errors import ConfigError
from floqdyn.floquet import DriveSpec
from floqdyn.generators import GENERATOR_KINDS
from floqdyn.scenarios import PRESETS, ScenarioConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfigRoundTrip:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_scenario_round_trip_identity(self, preset):
        d1 = scenario_to_dict(PRESETS[preset]())
        d2 = scenario_to_dict(scenario_from_dict(d1))
        assert d1 == d2

    def test_minimal_custom_scenario_takes_dataclass_defaults(self):
        bath = BathSpec("b", beta=1.0, spectral=OhmicSpec(1e-3, 1.0), transitions=((1, 0),))
        full = scenario_to_dict(ScenarioConfig(label="custom", energies=(0.0, 1.0),
                                               target_level=1, baths=(bath,), kind="lindblad"))
        minimal = {key: full[key] for key in ("energies", "target_level", "kind", "baths")}
        assert canonical_scenario_dict(minimal) == full

    def test_preset_expansion_rejects_unknown(self):
        with pytest.raises(ConfigError):
            canonical_scenario_dict({"preset": "no_such_preset"})

    def test_unknown_keys_rejected(self):
        run = canonical_run_dict({"scenario": {"preset": "three_level_nondriven"},
                                  "integration": {"t_final": 1.0}})
        run["scenario"]["mystery"] = 1
        with pytest.raises(ConfigError):
            validate_schema(run, RUN_SCHEMA)

    @pytest.mark.parametrize("path,value", [
        (("scenario", "mystery"), 1),
        (("scenario", "kind"), "no_such_kind"),
        (("integration", "t_final"), "long"),
        (("scenario", "drive", "mu"), [0.1]),
        (("outputs", "formats"), ["csv", 3]),
    ])
    def test_rejection_message_matches_jsonschema_validate(self, path, value):
        import jsonschema

        run = canonical_run_dict({"scenario": {"preset": "three_level_v0"},
                                  "integration": {"t_final": 1.0}})
        node = run
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(run, RUN_SCHEMA)
        for _ in range(2):  # the validator built on first use gives the same error
            with pytest.raises(ConfigError) as got:
                validate_schema(run, RUN_SCHEMA)
            assert str(got.value) == f"config schema violation: {want.value.message}"

    def test_period_nodes_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "scenario": {"preset": "four_level_degenerate_driven", "period_nodes": 512},
            "integration": {"t_final": 1.0}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "'period_nodes' was unexpected" in capsys.readouterr().err

    def test_period_nodes_override_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "four_level_degenerate_driven",
                     "--set", "scenario.period_nodes=512", "--set", "integration.t_final=1",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "'period_nodes' was unexpected" in capsys.readouterr().err

    def test_partial_override_merges_into_preset(self):
        d = canonical_scenario_dict({"preset": "three_level_v0", "drive": {"mu": 0.0}})
        assert d["drive"]["mu"] == 0.0
        assert d["drive"]["pair"] == [0, 2]


finite = st.floats(-10.0, 10.0, allow_nan=False)
positive = st.floats(1e-3, 1e3, allow_nan=False)


@st.composite
def scenarios(draw):
    """Random valid scenarios over every field, nested ones included."""
    dim = draw(st.integers(2, 4))
    level = st.integers(0, dim - 1)
    pairs = st.tuples(level, level).filter(lambda p: p[0] != p[1])
    baths = st.lists(st.builds(
        BathSpec, name=st.text(max_size=5), beta=positive,
        spectral=st.builds(OhmicSpec, j0=st.floats(0.0, 1.0), omega_cutoff=positive),
        transitions=st.lists(pairs, max_size=3, unique=True).map(tuple)), max_size=2)
    drive = st.none() | st.builds(DriveSpec, mu=st.floats(0.0, 1.0), omega_drive=positive,
                                  pair=pairs)
    w_cutoff = draw(st.floats(10.0, 1e5))
    lamb = st.builds(LambIntegralParams, w_cutoff=st.just(w_cutoff),
                     quadrature_points=st.integers(64, 256),
                     pv_window=st.floats(1e-3, w_cutoff / 20))
    return draw(st.builds(
        ScenarioConfig, energies=st.lists(finite, min_size=dim, max_size=dim).map(tuple),
        target_level=level, baths=baths.map(tuple), kind=st.sampled_from(GENERATOR_KINDS),
        label=st.text(max_size=8), drive=drive, lamb_shift=st.booleans(),
        q_max=st.integers(0, 30), lamb_params=lamb, initial_level=level,
        grid_m=st.integers(1, 2048), substeps=st.integers(1, 32), dt=st.none() | positive))


def _canonical_run():
    return canonical_run_dict({"scenario": {"preset": "three_level_v0"},
                               "integration": {"t_final": 1.0}})


_DELETE = object()


class TestDerivedConfig:
    """The scenario schema and (de)serialisers are derived from the dataclasses."""

    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_random_scenario_round_trips_and_validates(self, config):
        data = scenario_to_dict(config)
        assert scenario_from_dict(json.loads(json.dumps(data))) == config
        validate_schema(canonical_run_dict({"scenario": data, "integration": {"t_final": 1.0}}),
                        RUN_SCHEMA)

    @pytest.mark.parametrize("path,key,value,message", [
        (("scenario",), "mystery", 1, "('mystery' was unexpected)"),
        (("scenario",), "q_max", 2.5, "2.5 is not of type 'integer'"),
        (("scenario",), "kind", "no_such_kind", "'no_such_kind' is not one of ['lindblad', "),
        (("scenario",), "grid_m", _DELETE, "'grid_m' is a required property"),
        (("scenario", "drive"), "mystery", 1, "('mystery' was unexpected)"),
        (("scenario", "drive"), "omega", "fast", "'fast' is not of type 'number'"),
        (("scenario", "drive"), "pair", [0, 1, 2], "[0, 1, 2] is too long"),
        (("scenario", "drive"), "pair", [0], "[0] is too short"),
        (("scenario", "drive"), "omega", _DELETE, "'omega' is a required property"),
        (("scenario", "baths", 0), "mystery", 1, "('mystery' was unexpected)"),
        (("scenario", "baths", 0), "beta", "hot", "'hot' is not of type 'number'"),
        (("scenario", "baths", 0), "transitions", [[1, 0, 2]], "[1, 0, 2] is too long"),
        (("scenario", "baths", 0), "j0", _DELETE, "'j0' is a required property"),
        (("scenario", "lamb_params"), "mystery", 1, "('mystery' was unexpected)"),
        (("scenario", "lamb_params"), "quadrature_points", 96.5,
         "96.5 is not of type 'integer'"),
        (("scenario", "lamb_params"), "pv_window", _DELETE,
         "'pv_window' is a required property"),
    ])
    def test_rejections_at_every_nesting_level(self, path, key, value, message):
        run = _canonical_run()
        node = run
        for step in path:
            node = node[step]
        if value is _DELETE:
            del node[key]
        else:
            node[key] = value
        with pytest.raises(ConfigError, match="^config schema violation: ") as err:
            validate_schema(run, RUN_SCHEMA)
        assert message in str(err.value)

    def test_walker_follows_a_new_dataclass_without_edits(self):
        @dataclass(frozen=True)
        class Inner:
            count: int
            scale: float | None = None

        @dataclass(frozen=True)
        class Outer:
            name: str
            inner: Inner
            links: tuple[tuple[int, int], ...] = ()
            flag: bool = True

        value = Outer("x", Inner(3, 0.5), links=((0, 1), (2, 3)))
        data = cli._to_json(value)
        assert data == {"name": "x", "inner": {"count": 3, "scale": 0.5},
                        "links": [[0, 1], [2, 3]], "flag": True}
        assert cli._from_json(data, Outer) == value
        schema = cli._json_schema(Outer)
        assert schema["required"] == ["name", "inner", "links", "flag"]
        assert schema["properties"]["inner"]["properties"]["scale"] == {
            "type": ["number", "null"]}
        assert schema["properties"]["links"]["items"]["maxItems"] == 2
        validate_schema(data, schema)
        with pytest.raises(ConfigError, match="'extra' was unexpected"):
            validate_schema({**data, "extra": 1}, schema)

    @pytest.mark.parametrize("field_type", [list[int], dict, tuple[int, str], complex])
    def test_walker_rejects_a_type_without_json_form(self, field_type):
        Odd = dataclass(type("Odd", (), {"__annotations__": {"x": field_type}}))
        with pytest.raises(TypeError, match="no JSON form"):
            cli._json_schema(Odd)


class TestMalformedSections:
    @pytest.mark.parametrize("command,config", [
        ("simulate", {"scenario": {"preset": "three_level_nondriven"}}),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"}, "integration": 5}),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1.0}, "outputs": None}),
        ("compare", {"a": {"preset": "three_level_nondriven"}, "b": 7,
                     "integration": {"t_final": 1.0}}),
    ], ids=["no_integration", "integration_not_object", "outputs_null", "compare_side_not_object"])
    def test_exit_2_and_no_output(self, tmp_path, capsys, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    def test_sweep_base_without_integration_fails_every_point(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": {"preset": "three_level_nondriven"}},
                                   "axes": {"scenario.lamb_shift": [True, False]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert [r["status"] for r in read_csv(tmp_path / "sweep.csv")] == ["error:2"] * 2


class TestSimulate:
    def test_csv_schema_and_summary(self, tmp_path):
        code = main(["simulate", "--preset", "three_level_nondriven",
                     "--set", "integration.t_final=50", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        d = 3
        assert len(rows[0]) == 2 + d * (d + 1)
        assert rows[0]["t"] == "0"
        coh = [abs(float(r["rho_02_re"])) + abs(float(r["rho_02_im"])) for r in rows]
        assert max(coh) < 1e-10  # no coherence generated without a drive
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0 <= summary["eta"] <= 1

    def test_malformed_config_exit_2_no_files(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "scenario": {"energies": [0, 3], "target_level": 1, "kind": "lindblad",
                         "baths": [{"name": "h", "j0": 1e-4, "omega_cutoff": 1.0,
                                    "transitions": [[1, 0]]}]},
            "integration": {"t_final": 5},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())

    def test_input_config_not_mutated(self, tmp_path):
        cfg = tmp_path / "run.json"
        payload = {"scenario": {"preset": "three_level_nondriven"},
                   "integration": {"t_final": 5.0}}
        cfg.write_text(json.dumps(payload))
        before = cfg.read_text()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert cfg.read_text() == before


class TestFloquetCommand:
    def test_v1_outputs(self, tmp_path):
        code = main(["floquet", "--preset", "three_level_v1",
                     "--set", "integration.t_final=10", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "floquet.json").read_text())
        hbar = np.array(data["hbar_floquet"]["re"]) + 1j * np.array(data["hbar_floquet"]["im"])
        assert hbar.shape == (3, 3)
        assert data["q_range"] == [-3, 3]
        assert len(data["quasienergies"]) == 3
        assert "hot:(1, 0)" in data["lamb_shift_per_channel"]
        bench = read_csv(tmp_path / "benchmark.csv")
        assert min(float(r["fidelity_propagator"]) for r in bench) > 0.97
        assert min(float(r["fidelity_periodicity"]) for r in bench) > 0.96

    def test_nondriven_exits_2(self, tmp_path):
        code = main(["floquet", "--preset", "three_level_nondriven",
                     "--set", "integration.t_final=10", "--out", str(tmp_path)])
        assert code == 2

    def test_mu_zero_override_gives_h0(self, tmp_path):
        code = main(["floquet", "--preset", "three_level_v0",
                     "--set", "scenario.drive.mu=0.0",
                     "--set", "scenario.q_max=2",
                     "--set", "integration.t_final=10", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "floquet.json").read_text())
        hbar = np.array(data["hbar_floquet"]["re"])
        assert np.allclose(hbar, np.diag([0.0, 3.0, 2.5]), atol=1e-9)


class TestCompare:
    def test_identical_configs_zero_difference(self, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "a": {"preset": "three_level_nondriven"},
            "b": {"preset": "three_level_nondriven"},
            "integration": {"t_final": 20.0},
            "metric": "eta_series",
        }))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert max(abs(float(r["difference"])) for r in rows) == 0.0
        summary = json.loads((tmp_path / "compare_summary.json").read_text())
        assert summary["relative_gain_a_over_b"] == 0.0

    def test_trace_distance_metric(self, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "a": {"preset": "three_level_nondriven"},
            "b": {"preset": "three_level_nondriven", "kind": "redfield"},
            "integration": {"t_final": 20.0, "dt": 0.02},
            "metric": "trace_distance",
        }))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "compare.csv")
        assert "trace_distance" in rows[0]
        # calibrated kinds agree closely on the shared grid
        assert max(float(r["trace_distance"]) for r in rows) < 1e-3

    @staticmethod
    def _shared_step(sides, dt):
        # the given dt, or else the smaller default of the two sides
        if dt is not None:
            return dt
        return min(scenario_from_dict(side).default_dt() for side in sides)

    def test_periodic_and_static_kinds_share_the_periodic_grid(self, tmp_path):
        sides = {"a": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2},
                 "b": {"preset": "three_level_v1", "q_max": 2}}
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({**sides, "integration": {"t_final": 5.0, "dt": 0.05}}))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        times = np.array([float(r["t"]) for r in read_csv(tmp_path / "compare.csv")])
        # both sides record on the given dt; the last record is t_final
        step = self._shared_step(sides.values(), 0.05)
        assert_allclose(times[:-1], np.arange(len(times) - 1) * step, rtol=1e-15, atol=0)
        assert times[-1] == 5.0

    def test_incommensurate_drive_periods_share_one_grid(self, tmp_path):
        sides = {"a": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2},
                 "b": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2,
                       "drive": {"omega": 2.0}}}
        for dt in (0.05, None):
            cfg = tmp_path / "cmp.json"
            cfg.write_text(json.dumps({**sides, "integration": {"t_final": 2.0, "dt": dt}}))
            assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            rows = read_csv(tmp_path / "compare.csv")
            times = np.array([float(r["t"]) for r in rows])
            step = self._shared_step(sides.values(), dt)
            assert_allclose(times[:-1], np.arange(len(times) - 1) * step, rtol=1e-15, atol=0)
            assert times[-1] == 2.0
            assert all(np.isfinite(float(r["difference"])) for r in rows)

    def test_dimension_mismatch_exit_2(self, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "a": {"preset": "three_level_nondriven"},
            "b": {"preset": "four_level_degenerate"},
            "integration": {"t_final": 5.0},
        }))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 2


class TestSweep:
    def test_grid_cardinality_and_order(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "base": {"scenario": {"preset": "three_level_nondriven"},
                     "integration": {"t_final": 20.0}},
            "axes": {"scenario.preset": ["three_level_nondriven", "three_level_v1"],
                     "scenario.lamb_shift": [True, False]},
            "parallelism": 1,
        }))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 4
        assert [r["scenario.lamb_shift"] for r in rows] == ["true", "true", "false", "false"]
        assert all(r["status"] == "ok" for r in rows)

    def test_singleton_sweep_reproduces_baseline(self, tmp_path):
        run = {"scenario": {"preset": "three_level_nondriven"},
               "integration": {"t_final": 30.0}}
        out_run = tmp_path / "run"
        assert main(["simulate", "--config", str(self._write(tmp_path, "r.json", run)),
                     "--out", str(out_run)]) == 0
        eta_base = json.loads((out_run / "summary.json").read_text())["eta"]
        sweep = {"base": run, "axes": {"scenario.lamb_shift": [True]}}
        assert main(["sweep", "--config", str(self._write(tmp_path, "s.json", sweep)),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert float(rows[0]["eta"]) == eta_base

    def test_mu_zero_rows_match_static_kind(self, tmp_path):
        sweep = {
            "base": {"scenario": {"preset": "three_level_v1", "q_max": 2},
                     "integration": {"t_final": 40.0, "dt": 0.01}},
            "axes": {"scenario.drive.mu": [0.0, 0.1]},
        }
        assert main(["sweep", "--config", str(self._write(tmp_path, "s.json", sweep)),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        eta_mu0 = float(rows[0]["eta"])
        static = {"scenario": {"preset": "three_level_v1", "kind": "lindblad",
                               "drive": None},
                  "integration": {"t_final": 40.0, "dt": 0.01}}
        out_run = tmp_path / "static"
        assert main(["simulate", "--config", str(self._write(tmp_path, "st.json", static)),
                     "--out", str(out_run)]) == 0
        eta_static = json.loads((out_run / "summary.json").read_text())["eta"]
        assert eta_mu0 == pytest.approx(eta_static, abs=1e-4)

    def test_failed_point_recorded_not_fatal(self, tmp_path):
        sweep = {
            "base": {"scenario": {"preset": "three_level_nondriven"},
                     "integration": {"t_final": 10.0}},
            "axes": {"scenario.kind": ["lindblad", "redfield"]},
        }
        # redfield on the J-coupled preset works (dipoles are derived), but an
        # invalid kind string fails schema per point
        sweep["axes"]["scenario.kind"] = ["lindblad", "not_a_kind"]
        assert main(["sweep", "--config", str(self._write(tmp_path, "s.json", sweep)),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        statuses = {r["scenario.kind"]: r["status"] for r in rows}
        assert statuses["lindblad"] == "ok"
        assert statuses["not_a_kind"].startswith("error")

    def test_list_valued_axis(self, tmp_path):
        energies = [[0.0, 3.0, 3.0, 2.5], [0.0, 3.0, 3.05, 2.5]]
        sweep = {"base": {"scenario": {"preset": "four_level_degenerate"},
                          "integration": {"t_final": 50.0}},
                 "axes": {"scenario.energies": energies},
                 "parallelism": 1}
        assert main(["sweep", "--config", str(self._write(tmp_path, "s.json", sweep)),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert [json.loads(r["scenario.energies"]) for r in rows] == energies
        assert all(r["status"] == "ok" for r in rows)
        # only the comma-bearing cells are quoted
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith('"[0.0, 3.0, 3.0, 2.5]",ok,')
        assert lines[1].count('"') == 2

    def test_custom_base_without_energies_takes_width_from_grid_points(self, tmp_path):
        # the base alone is no scenario; each grid point is, and their
        # dimensions differ, so the shorter row is padded with NaN
        bath = {"name": "hot", "beta": 0.25, "j0": 4e-3, "omega_cutoff": 0.5,
                "transitions": [[1, 0]]}
        sweep = {"base": {"scenario": {"target_level": 1, "baths": [bath], "kind": "lindblad"},
                          "integration": {"t_final": 10.0}},
                 "axes": {"scenario.energies": [[0, 1], [0, 1, 0.5]]}}
        assert main(["sweep", "--config", str(self._write(tmp_path, "s.json", sweep)),
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert [k for k in rows[0] if k.startswith("pop_")] == ["pop_0", "pop_1", "pop_2"]
        assert rows[0]["pop_2"] == "nan"
        assert float(rows[0]["pop_0"]) + float(rows[0]["pop_1"]) == pytest.approx(1.0)
        assert rows[1]["pop_2"] != "nan"

    def test_spawned_workers_keep_tolerance_overrides(self, tmp_path, monkeypatch):
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from floqdyn.tolerances import tolerance_overrides

        sweep = {"base": {"scenario": {"preset": "three_level_v1"},
                          "integration": {"t_final": 5.0}},
                 "axes": {"scenario.lamb_shift": [True, False]}}
        rows = {}
        monkeypatch.setattr(cli, "ProcessPoolExecutor", functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")))
        for workers in (1, 2):
            out = tmp_path / str(workers)
            config = self._write(tmp_path, f"s{workers}.json", {**sweep, "parallelism": workers})
            # a floor above every harmonic empties the Floquet jump table
            with tolerance_overrides(fourier_floor=10.0):
                assert main(["sweep", "--config", str(config), "--out", str(out)]) == 3
            rows[workers] = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows[1]] == ["error:2", "error:2"]
        assert rows[2] == rows[1]

    @staticmethod
    def _write(tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p


class TestExitCodes:
    def test_all_failed_sweep_exits_3(self, tmp_path):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "base": {"scenario": {"preset": "three_level_nondriven"},
                     "integration": {"t_final": 5.0}},
            "axes": {"scenario.kind": ["not_a_kind"]},
        }))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
