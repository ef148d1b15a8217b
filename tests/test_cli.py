import copy
import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floqdyn import cli, floattext
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
from floqdyn.scenarios import PRESETS, ScenarioConfig, efficiency, evolve


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def hot_bath(**values) -> dict:
    """The hot bath of the 3-level presets in its JSON form, with ``values`` replaced."""
    return {"name": "hot", "beta": 1 / 30, "j0": 4e-4, "omega_cutoff": 2 ** 0.5,
            "transitions": [[1, 0]], **values}


def reference_csv(header, rows) -> str:
    """CSV text formatted cell by cell: floats at 17 significant digits,
    anything else through str, and a cell holding a comma double-quoted."""
    def cell(value):
        text = "%.17g" % value if isinstance(value, float) else str(value)
        return '"' + text.replace('"', '""') + '"' if "," in text else text

    return "\n".join([",".join(header)] + [",".join(cell(v) for v in row) for row in rows]) + "\n"


def reference_trajectory_rows(traj, eta_cumulative):
    """Rows of trajectory.csv, record by record and element by element."""
    d = traj.dim
    for k in range(len(traj.times)):
        row = [float(traj.times[k])]
        for i in range(d):
            for j in range(i, d):
                row += [float(traj.states[k, i, j].real), float(traj.states[k, i, j].imag)]
        yield row + [float(eta_cumulative[k])]


class TestCsvWriter:
    SPECIAL = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -5e-324,
               1e300, -1e300, 1.0, -3.0, 2.0**53, 1e16, 0.1, 1.0 / 3.0, 2.5e-17]

    def test_float_table_matches_per_cell_reference(self, tmp_path):
        rng = np.random.default_rng(11)
        # more than two blocks, the last one partial
        table = rng.standard_normal((2 * cli.CSV_BLOCK + 3, 5)) * 10.0 ** rng.integers(
            -20, 20, size=(2 * cli.CSV_BLOCK + 3, 5))
        table.flat[:len(self.SPECIAL)] = self.SPECIAL
        table[-1] = self.SPECIAL[-5:]
        # zero columns: only the all +0.0 one may be a literal 0 in the line format
        zeros = np.zeros(len(table))
        mixed = np.where(rng.random(len(table)) < 0.5, 0.0, -0.0)
        late = zeros.copy()
        late[cli.CSV_BLOCK - 1] = 1.5                      # last row of the first block
        table = np.column_stack([table, zeros, -zeros, mixed, late])
        header = [f"c{i}" for i in range(table.shape[1])]
        cli.write_csv(tmp_path / "t.csv", header, table)
        assert (tmp_path / "t.csv").read_bytes() == \
            reference_csv(header, table.tolist()).encode()

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_short_tables(self, tmp_path, n_rows):
        table = np.array([self.SPECIAL[:4]] * n_rows).reshape(n_rows, 4)
        cli.write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], table)
        assert (tmp_path / "t.csv").read_text() == reference_csv(["a", "b", "c", "d"],
                                                                 table.tolist())

    def test_trajectory_table_matches_per_record_rows(self, tmp_path, cfg_v0, gen_v0):
        traj = evolve(cfg_v0, 50.0, generator=gen_v0)
        cumulative = efficiency(traj).cumulative
        header = cli.trajectory_header(traj.dim)
        cli.write_csv(tmp_path / "t.csv", header, cli.trajectory_table(traj, cumulative))
        want = reference_csv(header, reference_trajectory_rows(traj, cumulative))
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    def test_sweep_rows_keep_per_cell_quoting(self, tmp_path):
        rows = [[json.dumps([0.0, 3.0, 3.0, 2.5]), "ok", 0.25, float("nan")],
                ["true", "error:3", float("nan"), -0.0]]
        cli.write_csv(tmp_path / "s.csv", ["scenario.energies", "status", "eta", "pop_0"], rows)
        text = (tmp_path / "s.csv").read_text()
        assert text == reference_csv(["scenario.energies", "status", "eta", "pop_0"], rows)
        assert text.splitlines()[1] == '"[0.0, 3.0, 3.0, 2.5]",ok,0.25,nan'

    def test_driven_trajectory_table_matches_per_record_rows(self, tmp_path):
        config = PRESETS["four_level_degenerate_driven"]()
        traj = evolve(config, 40.0)
        cumulative = efficiency(traj).cumulative
        table = cli.trajectory_table(traj, cumulative)
        header = cli.trajectory_header(traj.dim)
        cli.write_csv(tmp_path / "t.csv", header, table)
        want = reference_csv(header, reference_trajectory_rows(traj, cumulative))
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    # coherences between levels no bath or drive connects stay +0.0 bit for bit,
    # as do the imaginary diagonals; rounding noise there would print in full
    @pytest.mark.parametrize("preset,columns,zero", [
        ("three_level_nondriven", 14, 9),
        ("three_level_v0", 14, 7),
        ("three_level_v1", 14, 7),
        ("four_level_degenerate", 22, 14),
        ("four_level_nondegenerate", 22, 14),
        ("four_level_degenerate_driven", 22, 12),
    ])
    def test_exact_zero_columns(self, preset, columns, zero):
        traj = evolve(PRESETS[preset](), 40.0)
        table = cli.trajectory_table(traj, efficiency(traj).cumulative)
        assert table.shape[1] == columns
        assert np.sum(~np.any(table.view(np.uint64), axis=0)) == zero


def tie_values() -> list:
    """Doubles whose 18-digit decimal expansion ends in 5, so that 17 digits
    are an exact tie: m / 2^j with m odd and m 5^j of 18 digits (j = 17 is
    odd / 2^17 in [1, 10)).  Each comes with its multiples by 2^-3 .. 2^3;
    those with a factor other than 1 are not ties."""
    rng = np.random.default_rng(5)
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53)
        ties += [(int(m) | 1) / 2 ** j for m in rng.integers(lo, hi - 1, size=20)]
    return [t * 2.0 ** i for t in ties for i in range(-3, 4)]


def decade_values() -> list:
    """Every power of ten from 1e-323 to 1e308 (10^±30 among them) with its
    two neighbours, and values that round up into the next decade at 17
    digits."""
    values = []
    for n in range(-323, 309):
        x = float(f"1e{n}")
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        if -300 < n < 300:
            y = float(f"9.99999999999999995e{n}")
            values += [y, math.nextafter(y, 0.0), math.nextafter(y, math.inf)]
    return values


def three_digit_exponents() -> list:
    rng = np.random.default_rng(6)
    exponents = np.concatenate([np.arange(-308, -99), np.arange(100, 308)])
    return list(rng.uniform(1.0, 10.0, exponents.size) * 10.0 ** exponents)


def written_cells(values) -> list:
    """The writer's text of each value, written as a one-column table."""
    table = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return b"".join(cli._table_bytes(table)).decode().splitlines()


class TestExactFormatter:
    """Every cell of a float table is byte-identical to its per-cell '%.17g'."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
    def test_raw_bit_patterns(self, bits):
        # every exponent, subnormals, ±0, ±inf and NaN payloads
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert written_cells(values) == ["%.17g" % v for v in values.tolist()]

    @pytest.mark.parametrize("family", [tie_values, decade_values, three_digit_exponents])
    def test_fixed_families(self, family):
        values = np.array(family())
        values = np.concatenate([values, -values])
        assert written_cells(values) == ["%.17g" % v for v in values.tolist()]

    def test_ties_are_exact(self):
        for x in tie_values()[3::7]:        # the unscaled ones
            digits = Fraction(x) * 10 ** (16 - math.floor(math.log10(x)))
            assert digits - math.floor(digits) == Fraction(1, 2)

    def test_cells_that_take_the_percent_text(self, monkeypatch):
        # mark the '%' text, no longer than before, to see which cells take it
        monkeypatch.setattr(floattext, "FLOAT_FMT", "<%.15g")
        fallback = tie_values()[3::7] + [1.0, 1e3, 1e16, 5e-324, 2.5e-310, float("inf"),
                                         float("nan"), 1e-300, 1e300]
        scaled = [0.3, 1.0 / 3.0, -2.5e-17, 123.456, 6000.5, 0.0, -0.0, 2e-290, 9e289]
        cells = written_cells(fallback + scaled)
        assert all(c.startswith("<") for c in cells[:len(fallback)])
        assert not any(c.startswith("<") for c in cells[len(fallback):])

    def test_pow10_table_is_exact(self):
        def significant_bits(v):
            m = abs(Fraction(v).numerator)
            return (m >> ((m & -m).bit_length() - 1)).bit_length() if m else 0

        hi, upper, lower, lo = floattext._pow10_table()
        scales = range(floattext._S_MIN, floattext._S_MAX + 1)
        for s, h, u, w, l in zip(scales, hi, upper, lower, lo):
            exact = Fraction(10) ** s
            assert float(exact) == h
            assert float(exact - Fraction(h)) == l
            assert abs(exact - Fraction(h) - Fraction(l)) <= exact / 2**104
            # Dekker's product is exact for halves of at most 26 bits
            assert u + w == h
            assert significant_bits(u) <= 26 and significant_bits(w) <= 26

    def test_fast_and_fallback_cells_spliced_across_blocks(self, tmp_path):
        rng = np.random.default_rng(7)
        n = cli.CSV_BLOCK + 40
        # subnormal, non-finite, out of the scaled range, next to a power of
        # ten, and exact ties
        fallback = [5e-324, -2.5e-310, float("inf"), -float("inf"), float("nan"),
                    1e-300, -1e300, 1e16, 1e17, 1.0, 100.0] + tie_values()[3::7][:20]
        mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
        # fallback cells on both sides of the block boundary and at the ends
        where = [0, 1, cli.CSV_BLOCK - 2, cli.CSV_BLOCK - 1, cli.CSV_BLOCK,
                 cli.CSV_BLOCK + 1, n - 1] + list(rng.choice(n, 25, replace=False))
        for i, pos in enumerate(where):
            mixed[pos] = fallback[i % len(fallback)]
        zeros = np.zeros(n)
        late = zeros.copy()
        late[cli.CSV_BLOCK] = -3.25                     # first row of the second block
        negative_zeros = -zeros
        columns = [zeros, zeros, mixed, negative_zeros, zeros, late, zeros, zeros, zeros,
                   -mixed[::-1], zeros]
        table = np.column_stack(columns)
        header = [f"c{i}" for i in range(table.shape[1])]
        cli.write_csv(tmp_path / "t.csv", header, table)
        assert (tmp_path / "t.csv").read_bytes() == \
            reference_csv(header, table.tolist()).encode()

    @pytest.mark.parametrize("n_rows", [0, 1, 2 * cli.CSV_BLOCK + 1])
    def test_all_zero_table(self, tmp_path, n_rows):
        table = np.zeros((n_rows, 3))
        cli.write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
        assert (tmp_path / "t.csv").read_text() == reference_csv(["a", "b", "c"],
                                                                 table.tolist())

    def test_tables_built_on_first_write_not_at_import(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import floqdyn.cli, floqdyn.floattext as f\n"
                "assert f._pow10_table.cache_info().currsize == 0\n"
                "assert f._layouts.cache_info().currsize == 0\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert out.returncode == 0, out.stderr


def test_cli_import_and_commands_leave_scipy_and_jsonschema_unloaded(tmp_path):
    # scipy and jsonschema are test references only; no preset command, and
    # no rejected config, may import any of either, jsonschema's dependencies included, and only a
    # parallel sweep needs the process pool (~8 ms to import).  Nor may a
    # command import anything else that `import floqdyn.cli` left out: its
    # cost would land in every run instead of once in start-up (numpy.ma,
    # imported by np.unique, costs ~13 ms)
    cmp_cfg = tmp_path / "cmp.json"
    cmp_cfg.write_text(json.dumps({"a": {"preset": "three_level_v1"},
                                   "b": {"preset": "three_level_nondriven"},
                                   "integration": {"t_final": 5.0}}))
    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "base": {"scenario": {"preset": "four_level_degenerate_driven"},
                 "integration": {"t_final": 5.0}},
        "axes": {"scenario.kind": ["floquet_lindblad", "floquet_redfield"]},
        "parallelism": 1}))
    commands = [["simulate", "--preset", name, "--set", "integration.t_final=5"]
                for name in sorted(PRESETS)]
    commands += [["floquet", "--preset", name] for name in sorted(PRESETS)
                 if PRESETS[name]().drive is not None]
    commands += [["compare", "--config", str(cmp_cfg)], ["sweep", "--config", str(sweep_cfg)]]
    rejected = ["simulate", "--preset", "three_level_v1", "--set", "scenario.q_max=3.0"]
    commands = [argv + ["--out", str(tmp_path / str(i))]
                for i, argv in enumerate(commands + [rejected])]
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import json, sys, floqdyn.cli\n"
            "banned = {'scipy', 'jsonschema', 'jsonschema_specifications', 'referencing',\n"
            "          'rpds', 'attr', 'attrs'}\n"
            "def unwanted():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in banned\n"
            "                  or m == 'concurrent.futures.process')\n"
            "loaded, before = [unwanted()], set(sys.modules)\n"
            "*runs, reject = json.loads(sys.argv[1])\n"
            "for argv in runs:\n"
            "    assert floqdyn.cli.main(argv) == 0, argv\n"
            "loaded += [unwanted(), sorted(set(sys.modules) - before)]\n"
            "assert floqdyn.cli.main(reject) == 2\n"
            "loaded.append(unwanted())\n"
            "print(json.dumps(loaded))\n")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [[], [], [], []]


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
    lamb = st.builds(LambIntegralParams, w_cutoff=st.just(w_cutoff))
    return draw(st.builds(
        ScenarioConfig, energies=st.lists(finite, min_size=dim, max_size=dim).map(tuple),
        target_level=level, baths=baths.map(tuple), kind=st.sampled_from(GENERATOR_KINDS),
        label=st.text(max_size=8), drive=drive, lamb_shift=st.booleans(),
        q_max=st.integers(0, 30), lamb_params=lamb, initial_level=level))


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
        (("scenario",), "grid_m", 1024, "('grid_m' was unexpected)"),
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
        (("scenario", "lamb_params"), "quadrature_points", 96,
         "('quadrature_points' was unexpected)"),
        (("scenario", "lamb_params"), "pv_window", 0.1, "('pv_window' was unexpected)"),
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


class TestIntegerSlots:
    """JSON Schema's integer takes an integral float such as 3.0, which the
    run cannot use as a count or an index; the checker rejects it, so the
    command exits 2 instead of crashing."""

    @pytest.mark.parametrize("path", [
        ("scenario", "q_max"), ("scenario", "target_level"), ("scenario", "initial_level"),
        ("integration", "stride"), ("scenario", "drive", "pair", 1),
        ("scenario", "baths", 0, "transitions", 0, 0),
    ], ids=lambda p: ".".join(map(str, p)))
    def test_run_config_exits_2(self, tmp_path, capsys, path):
        run = canonical_run_dict({"scenario": {"preset": "three_level_v1"},
                                  "integration": {"t_final": 1.0, "stride": 2}})
        node = run
        for key in path[:-1]:
            node = node[key]
        value = node[path[-1]] = float(node[path[-1]])
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(run))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"configuration error: config schema violation: {value!r} is not of type "
            "'integer'")
        assert not out.exists()

    def test_sweep_parallelism_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "base": {"scenario": {"preset": "three_level_nondriven"},
                     "integration": {"t_final": 1.0}},
            "axes": {"scenario.lamb_shift": [True]}, "parallelism": 2.0}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "2.0 is not of type 'integer'" in capsys.readouterr().err

    def test_integral_float_is_the_one_departure_from_jsonschema(self):
        import jsonschema

        run = _canonical_run()
        run["scenario"]["q_max"] = 3.0
        jsonschema.validate(run, RUN_SCHEMA)
        with pytest.raises(ConfigError, match="3.0 is not of type 'integer'"):
            validate_schema(run, RUN_SCHEMA)


def _valid_configs():
    """(config, schema) pairs that pass, in the form each command validates."""
    runs = [canonical_run_dict({"scenario": {"preset": name},
                                "integration": {"t_final": 1.0, "dt": 0.1, "stride": 2},
                                "outputs": {"formats": ["csv"]}})
            for name in ("three_level_v1", "four_level_nondegenerate")]
    compare = {"a": canonical_scenario_dict({"preset": "four_level_degenerate_driven"}),
               "b": canonical_scenario_dict({"preset": "three_level_nondriven"}),
               "integration": {"t_final": 1.0}, "metric": "trace_distance"}
    sweep = {"base": {"scenario": {"preset": "three_level_v0"}},
             "axes": {"scenario.q_max": [1, 2], "scenario.kind": ["lindblad"]},
             "parallelism": 2}
    return [(runs[0], RUN_SCHEMA), (runs[1], RUN_SCHEMA), (compare, cli.COMPARE_SCHEMA),
            (sweep, cli.SWEEP_SCHEMA)]


VALID_CONFIGS = _valid_configs()
#: replacement values: wrong types, bools for numbers, null, bad enums, a
#: value below the sweep's minimum; never an integral float, the one place
#: where the checker departs from jsonschema
MUTANTS = st.sampled_from(["x", "lindblad", 2.5, -1, 0, 1, True, False, None, [], [0.5, "y"],
                           {}, {"k": 1}]).map(copy.deepcopy)


def _nodes(data, path=()):
    """(path, value) of every node of a JSON value, the root first."""
    yield path, data
    items = data.items() if isinstance(data, dict) else \
        enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _set_path(data, path, value):
    """``data`` with the node at ``path`` replaced (the root if ``path`` is empty)."""
    if not path:
        return value
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


@st.composite
def mutated_configs(draw):
    """A valid config with 1-3 mutations, and its schema."""
    config, schema = draw(st.sampled_from(VALID_CONFIGS))
    config = copy.deepcopy(config)
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(config))))
        kinds = ["replace"] + (["add_key", "delete_key"] if isinstance(node, dict) and node
                               else ["add_key"] if isinstance(node, dict) else []) \
            + (["append", "pop", "empty"] if isinstance(node, list) else []) \
            + (["no_workers"] if isinstance(node, dict) and "parallelism" in node else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "replace":
            config = _set_path(config, path, draw(MUTANTS))
        elif kind == "add_key":
            for key in draw(st.lists(st.sampled_from(["zz", "extra", "a"]), min_size=1,
                                     max_size=2, unique=True)):
                node[key] = draw(MUTANTS)
        elif kind == "delete_key":
            del node[draw(st.sampled_from(sorted(node)))]
        elif kind == "append":
            node.append(copy.deepcopy(node[-1]) if node else 0)
        elif kind == "pop":
            node[-1:] = []
        elif kind == "empty":
            node.clear()
        else:
            node["parallelism"] = 0
    return config, schema


class TestJsonschemaOracle:
    """The in-house checker accepts, rejects and words errors as jsonschema's
    best match does (jsonschema is the test reference only)."""

    @pytest.mark.parametrize("schema", [RUN_SCHEMA, cli.COMPARE_SCHEMA, cli.SWEEP_SCHEMA,
                                        cli.SCENARIO_SCHEMA])
    def test_schemas_are_valid_draft_2020_12(self, schema):
        from jsonschema import Draft202012Validator

        Draft202012Validator.check_schema(schema)

    @settings(max_examples=400, deadline=None)
    @given(mutated_configs())
    def test_mutated_configs_match_best_match(self, mutated):
        from jsonschema import Draft202012Validator
        from jsonschema.exceptions import best_match

        config, schema = mutated
        want = best_match(Draft202012Validator(schema).iter_errors(config))
        if want is None:
            assert validate_schema(config, schema) is config
        else:
            with pytest.raises(ConfigError) as got:
                validate_schema(config, schema)
            assert str(got.value) == f"config schema violation: {want.message}"

    @pytest.mark.parametrize("config,schema", VALID_CONFIGS)
    def test_valid_configs_pass(self, config, schema):
        assert validate_schema(config, schema) is config

    @pytest.mark.parametrize("schema,data", [
        ({"type": "object", "pattern": "^a"}, {}),
        ({"properties": {"a": {"type": "string", "format": "date"}}}, {"a": "x"}),
        ({"type": "array", "items": {"exclusiveMinimum": 0}}, [1]),
    ])
    def test_unsupported_keyword_raises_type_error(self, schema, data):
        with pytest.raises(TypeError, match="unsupported schema keywords"):
            validate_schema(data, schema)


class TestMalformedSections:
    @pytest.mark.parametrize("command,config,message", [
        ("simulate", {"scenario": {"preset": "three_level_nondriven"}},
         "config missing section 'integration'"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"}, "integration": 5},
         "integration section must be an object"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1.0}, "outputs": None},
         "outputs section must be an object"),
        # --out is the one source of the output directory
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1.0}, "outputs": {"path": "wanted_dir"}},
         "'path' was unexpected"),
        ("compare", {"a": {"preset": "three_level_nondriven"}, "b": 7,
                     "integration": {"t_final": 1.0}}, "b section must be an object"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "drive": {"pair": [1, 5]}},
                      "integration": {"t_final": 1.0}}, "drive pair (1, 5) out of range"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "drive": {"pair": [-1, 0]}},
                      "integration": {"t_final": 1.0}}, "drive pair (-1, 0) out of range"),
        # the P grid and the Gauss order size themselves from their checks
        ("simulate", {"scenario": {"preset": "three_level_v1", "grid_m": 0},
                      "integration": {"t_final": 1.0}}, "'grid_m' was unexpected"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "q_max": -1},
                      "integration": {"t_final": 1.0}}, "q_max must be >= 0"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "substeps": 16},
                      "integration": {"t_final": 1.0}}, "'substeps' was unexpected"),
        # integration.dt is the one source of the record step
        ("simulate", {"scenario": {"preset": "three_level_v1", "dt": 0.1},
                      "integration": {"t_final": 1.0}}, "'dt' was unexpected"),
        # the principal values take no window
        ("simulate", {"scenario": {"preset": "three_level_v1",
                                   "lamb_params": {"pv_window": 0.1}},
                      "integration": {"t_final": 1.0}}, "'pv_window' was unexpected"),
        # compare and sweep write only into --out, so they take no outputs section
        ("compare", {"a": {"preset": "three_level_nondriven"},
                     "b": {"preset": "three_level_nondriven"}, "integration": {"t_final": 1.0},
                     "outputs": {"path": "wanted_dir"}}, "'outputs' was unexpected"),
        ("sweep", {"base": {"scenario": {"preset": "three_level_nondriven"},
                            "integration": {"t_final": 1.0}},
                   "axes": {"scenario.lamb_shift": [True]}, "outputs": {"formats": ["csv"]}},
         "'outputs' was unexpected"),
        ("sweep", {"base": {"scenario": {"preset": "three_level_nondriven"},
                            "integration": {"t_final": 1.0}, "outputs": {"path": "wanted_dir"}},
                   "axes": {"scenario.lamb_shift": [True]}}, "'outputs' was unexpected"),
        # integration values evolve cannot take are configuration errors
        ("simulate", {"scenario": {"preset": "three_level_v1"}, "integration": {"t_final": 0}},
         "integration.t_final must be finite and > 0"),
        ("simulate", {"scenario": {"preset": "three_level_v1"}, "integration": {"t_final": -1}},
         "integration.t_final must be finite and > 0"),
        ("simulate", {"scenario": {"preset": "three_level_v1"},
                      "integration": {"t_final": 1e400}},
         "integration.t_final must be finite and > 0, got inf"),
        ("simulate", {"scenario": {"preset": "three_level_v1"},
                      "integration": {"t_final": float("nan")}},
         "integration.t_final must be finite and > 0, got nan"),
        ("simulate", {"scenario": {"preset": "three_level_v1"},
                      "integration": {"t_final": 1.0, "dt": 0}},
         "integration.dt must be finite and > 0"),
        ("simulate", {"scenario": {"preset": "three_level_v1"},
                      "integration": {"t_final": 1.0, "stride": 0}},
         "integration.stride must be finite and > 0"),
        ("compare", {"a": {"preset": "three_level_nondriven"},
                     "b": {"preset": "three_level_nondriven"}, "integration": {"t_final": 0}},
         "integration.t_final must be finite and > 0"),
        # finite values whose step count no float counts exactly
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1e300}},
         "t_final 1e+300 over dt 0.05 is more than 2**53 steps"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 10, "dt": 1e-300}},
         "t_final 10 over dt 1e-300 is more than 2**53 steps"),
        # fewer than 2**53 steps, but at a given stride more records than memory holds
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1e10, "stride": 1}},
         "200000000001 records of 3x3 states (t_final 10000000000.0, stride 1, dt 0.05)"),
        # non-finite scenario numbers (JSON 1e400 reads as inf); an infinite beta
        # used to grade quadrature panels of zero width without end
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "baths": [hot_bath(beta=1e400)]},
                      "integration": {"t_final": 1.0}}, "beta must be finite and > 0, got inf"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "baths": [hot_bath(beta=float("nan"))]},
                      "integration": {"t_final": 1.0}}, "beta must be finite and > 0, got nan"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "baths": [hot_bath(j0=1e400)]},
                      "integration": {"t_final": 1.0}}, "j0 must be finite and >= 0, got inf"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "baths": [hot_bath(omega_cutoff=1e400)]},
                      "integration": {"t_final": 1.0}},
         "omega_cutoff must be finite and > 0, got inf"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven", "energies": [0, 1e400, 2.5]},
                      "integration": {"t_final": 1.0}},
         "energies must be finite, got [0.0, inf, 2.5]"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "energies": [0, 3, float("nan")]},
                      "integration": {"t_final": 1.0}},
         "energies must be finite, got [0.0, 3.0, nan]"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "drive": {"mu": 1e400}},
                      "integration": {"t_final": 1.0}},
         "drive amplitude must be finite and >= 0, got inf"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "drive": {"omega": float("nan")}},
                      "integration": {"t_final": 1.0}},
         "drive frequency must be finite and > 0, got nan"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "lamb_params": {"w_cutoff": 1e400}},
                      "integration": {"t_final": 1.0}}, "w_cutoff must be finite and > 0, got inf"),
    ], ids=["no_integration", "integration_not_object", "outputs_null", "outputs_path",
            "compare_side_not_object", "drive_pair_past_dim", "drive_pair_negative",
            "grid_m_zero", "q_max_negative", "substeps_unknown", "scenario_dt",
            "lamb_params_pv_window", "compare_outputs",
            "sweep_outputs", "sweep_base_outputs", "t_final_zero", "t_final_negative",
            "t_final_inf", "t_final_nan", "dt_zero", "stride_zero", "compare_t_final_zero",
            "t_final_1e300", "dt_1e-300", "records_past_bytes_bound", "beta_inf", "beta_nan",
            "j0_inf", "omega_cutoff_inf", "energy_inf", "energy_nan", "drive_mu_inf",
            "drive_omega_nan", "w_cutoff_inf"])
    def test_exit_2_and_no_output(self, tmp_path, capsys, command, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert message in err
        assert not out.exists()

    def test_static_kind_of_a_driven_preset_exits_2(self, tmp_path, capsys):
        # a static kind has no drive term: running it would drop the drive
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "three_level_v0", "--set", 'scenario.kind="lindblad"',
                     "--out", str(out)]) == 2
        assert 'set "drive": null' in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_base_without_integration_fails_every_point(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": {"preset": "three_level_nondriven"}},
                                   "axes": {"scenario.lamb_shift": [True, False]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert [r["status"] for r in read_csv(tmp_path / "sweep.csv")] == ["error:2"] * 2

    def test_sweep_point_with_invalid_t_final_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": {"preset": "three_level_nondriven"}},
                                   "axes": {"integration.t_final": [1.0, 0.0]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert [r["status"] for r in read_csv(tmp_path / "sweep.csv")] == ["ok", "error:2"]

    def test_sweep_point_past_2_53_steps_is_a_config_error(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": {"preset": "three_level_nondriven"},
                                            "integration": {"t_final": 10.0}},
                                   "axes": {"integration.dt": [0.5, 1e-300]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert [r["status"] for r in read_csv(tmp_path / "sweep.csv")] == ["ok", "error:2"]

    # levels 1 and 2 degenerate: the cold bath's transition (1, 2) has no gap,
    # so no Redfield dipole; the Lindblad kind never reads one
    DEGENERATE_TRANSITION = {"preset": "three_level_nondriven", "energies": [0, 1, 1]}

    @pytest.mark.parametrize("kind,code", [("lindblad", 0), ("redfield", 2)])
    def test_degenerate_transition(self, tmp_path, capsys, kind, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {**self.DEGENERATE_TRANSITION, "kind": kind},
                                   "integration": {"t_final": 1.0}}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
        if code:
            assert "channels ['cold/(1, 2)'] lack the dipole magnitude" in capsys.readouterr().err
        assert out.exists() == (code == 0)

    def test_sweep_over_kinds_with_a_degenerate_transition(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": self.DEGENERATE_TRANSITION,
                                            "integration": {"t_final": 1.0}},
                                   "axes": {"scenario.kind": ["lindblad", "redfield"]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert [r["status"] for r in read_csv(tmp_path / "sweep.csv")] == ["ok", "error:2"]

    def test_bathless_scenario_runs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"preset": "three_level_nondriven", "baths": []},
                                   "integration": {"t_final": 1.0}}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_unknown_or_missing_command_exits_2(self, capsys):
        for argv, message in ((["bogus"], "invalid choice: 'bogus'"),
                              ([], "the following arguments are required: command")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_diagonal_imaginary_parts_are_exact_zeros(self, tmp_path, preset):
        # records are exactly Hermitian, so no rounding noise reaches rho_kk_im
        assert main(["simulate", "--preset", preset, "--set", "integration.t_final=20",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "trajectory.csv")
        d = PRESETS[preset]().dim
        assert {r[f"rho_{k}{k}_im"] for r in rows for k in range(d)} == {"0"}

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

    @pytest.mark.parametrize("formats,written", [
        (["json"], {"floquet.json"}), (["csv"], {"benchmark.csv"}), ([], set())])
    def test_writes_only_requested_formats(self, tmp_path, formats, written):
        code = main(["floquet", "--preset", "three_level_v1",
                     "--set", f"outputs.formats={json.dumps(formats)}", "--out", str(tmp_path)])
        assert code == 0
        assert {p.name for p in tmp_path.iterdir()} == written

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
        return min(scenario_from_dict(canonical_scenario_dict(side)).default_dt()
                   for side in sides)

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

    def test_compare_csv_matches_per_record_computation(self, tmp_path):
        sides = {"a": {"preset": "three_level_v1", "kind": "floquet_redfield", "q_max": 2},
                 "b": {"preset": "three_level_v1", "q_max": 2}}
        trajs = [evolve(scenario_from_dict(canonical_scenario_dict(side)), 30.0, dt=0.05)
                 for side in sides.values()]
        (ta, tb), (ea, eb) = trajs, [efficiency(t).cumulative for t in trajs]
        for metric in ("eta_series", "trace_distance"):
            cfg = tmp_path / "cmp.json"
            cfg.write_text(json.dumps({**sides, "integration": {"t_final": 30.0, "dt": 0.05},
                                       "metric": metric}))
            assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
            if metric == "eta_series":
                rows = [[float(ta.times[k]), float(ea[k]), float(eb[k]), float(ea[k] - eb[k])]
                        for k in range(len(ta.times))]
                want = reference_csv(["t", "eta_a", "eta_b", "difference"], rows)
                assert (tmp_path / "compare.csv").read_text() == want
                continue
            got = read_csv(tmp_path / "compare.csv")
            assert [float(r["t"]) for r in got] == ta.times.tolist()
            for r, a, b in zip(got, ta.states, tb.states):
                diff = 0.5 * ((a - b) + (a - b).conj().T)
                want = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)))
                assert abs(float(r["trace_distance"]) - want) <= 1e-15

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
        import concurrent.futures
        import functools
        import multiprocessing

        from floqdyn.tolerances import tolerance_overrides

        sweep = {"base": {"scenario": {"preset": "three_level_v1"},
                          "integration": {"t_final": 5.0}},
                 "axes": {"scenario.lamb_shift": [True, False]}}
        rows = {}
        # cmd_sweep imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("spawn")))
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
