import csv
import json

import numpy as np
import pytest

from floqdyn.cli import (
    RUN_SCHEMA,
    canonical_run_dict,
    canonical_scenario_dict,
    main,
    scenario_from_dict,
    scenario_to_dict,
    validate_schema,
)
from floqdyn.baths import BathSpec, OhmicSpec
from floqdyn.errors import ConfigError
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

    def test_partial_override_merges_into_preset(self):
        d = canonical_scenario_dict({"preset": "three_level_v0", "drive": {"mu": 0.0}})
        assert d["drive"]["mu"] == 0.0
        assert d["drive"]["pair"] == [0, 2]


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

    def test_periodic_and_static_kinds_share_the_periodic_grid(self, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "a": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2},
            "b": {"preset": "three_level_v1", "q_max": 2},
            "integration": {"t_final": 5.0, "dt": 0.05},
        }))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        times = [float(r["t"]) for r in read_csv(tmp_path / "compare.csv")]
        # the step divides the drive period (tau/N, after the stability guard)
        steps_per_period = (2 * np.pi / 2.25) / times[1]
        assert steps_per_period == pytest.approx(round(steps_per_period), abs=1e-9)
        assert times[1] <= 0.05
        assert times[-1] == 5.0

    def test_incommensurate_drive_periods_exit_2(self, tmp_path):
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({
            "a": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2},
            "b": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2,
                  "drive": {"omega": 2.0}},
            "integration": {"t_final": 2.0, "dt": 0.05},
        }))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 2

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
