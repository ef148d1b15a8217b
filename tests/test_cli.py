import copy
import csv
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass, replace
from datetime import timedelta
from fractions import Fraction
from pathlib import Path
from typing import Literal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floqdyn import cli, floattext, floquet, operators
from floqdyn import scenarios as scenarios_module
from floqdyn.cli import (
    RUN_SCHEMA,
    canonical_run_dict,
    canonical_scenario_dict,
    main,
    scenario_from_dict,
    scenario_to_dict,
    validate_schema,
)
from floqdyn.baths import BathSpec
from floqdyn.errors import ConfigError, ValidationError
from floqdyn.floquet import HALVING_GAP_TOL, DriveSpec
from floqdyn.generators import GENERATOR_KINDS
from floqdyn.propagation import magnus_samples
from floqdyn.scenarios import PRESETS, ScenarioConfig, decompose_scenario, efficiency, evolve


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
    d, states = traj.dim, traj.states
    for k in range(len(traj.times)):
        row = [float(traj.times[k])]
        for i in range(d):
            for j in range(i, d):
                row += [float(states[k, i, j].real), float(states[k, i, j].imag)]
        yield row + [float(eta_cumulative[k])]


ZERO_COLUMN_CASES = [
    ("three_level_nondriven", 14, 9, None),
    ("three_level_v0", 14, 7, None),
    ("three_level_v1", 14, 7, None),
    ("four_level_degenerate", 22, 14, None),
    ("four_level_nondegenerate", 22, 14, None),
    ("four_level_degenerate_driven", 22, 12, None),
] + [(preset, columns, zero, dt) for preset, columns, zero in (
    ("three_level_v0", 14, 7), ("three_level_v1", 14, 7), ("four_level_degenerate_driven", 22, 12))
     for dt in (0.0123, PRESETS["three_level_v0"]().drive.tau / 256.5)]


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
        cumulative = efficiency(traj)[1]
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
        cumulative = efficiency(traj)[1]
        table = cli.trajectory_table(traj, cumulative)
        header = cli.trajectory_header(traj.dim)
        cli.write_csv(tmp_path / "t.csv", header, table)
        want = reference_csv(header, reference_trajectory_rows(traj, cumulative))
        assert (tmp_path / "t.csv").read_bytes() == want.encode()

    # coherences between levels no bath or drive connects stay +0.0 bit for bit,
    # as do the imaginary diagonals; rounding noise there would print in full.
    # Off the P grid (dt 0.0123, or tau/256.5) the records are mapped back alike.
    @pytest.mark.parametrize("preset,columns,zero,dt", ZERO_COLUMN_CASES, ids=[
        "-".join(map(str, case[:3])) + (f"-dt={case[3]:.6g}" if case[3] else "")
        for case in ZERO_COLUMN_CASES])
    def test_exact_zero_columns(self, preset, columns, zero, dt):
        traj = evolve(PRESETS[preset](), 40.0, dt=dt)
        table = cli.trajectory_table(traj, efficiency(traj)[1])
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

        # every scale's column as a one-scale call finds it in its band
        scales = range(floattext._S_MIN, floattext._S_MAX + 1)
        columns = []
        for s in scales:
            rows, s0 = floattext._pow10_rows(s, s)
            columns.append(rows[:, s - s0])
        whole, s0 = floattext._pow10_rows(floattext._S_MIN, floattext._S_MAX)
        assert s0 == floattext._S_MIN and np.array_equal(whole, np.transpose(columns))
        for s, (h, u, w, l) in zip(scales, columns):
            exact = Fraction(10) ** s
            assert float(exact) == h
            assert float(exact - Fraction(h)) == l
            assert abs(exact - Fraction(h) - Fraction(l)) <= exact / 2**104
            # Dekker's product is exact for halves of at most 26 bits
            assert u + w == h
            assert significant_bits(u) <= 26 and significant_bits(w) <= 26

    def test_block_spanning_the_scaled_range(self):
        # the least and the largest scaled magnitudes in one call need every band
        values = np.array([2e-290, 9e289, -2e-290, -9e289, 0.5, 2e-290 * 3, 9e289 / 7])
        floattext._pow10_band.cache_clear()
        assert written_cells(values) == ["%.17g" % v for v in values.tolist()]
        bands = -(-(floattext._S_MAX + 1 - floattext._S_MIN) // floattext._BAND)
        assert floattext._pow10_band.cache_info().currsize == bands

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
        # the 10^s table is built band by band: values of one band build only it
        code = ("import numpy, floqdyn.cli, floqdyn.floattext as f\n"
                "assert f._pow10_band.cache_info().currsize == 0\n"
                "assert f._layouts.cache_info().currsize == 0\n"
                "f.float_text(numpy.array([0.5, -6000.0, 1e-3]))\n"
                "assert f._pow10_band.cache_info().currsize == 1\n"
                "assert f._layouts.cache_info().currsize == 1\n")
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
        bath = BathSpec("b", beta=1.0, j0=1e-3, omega_cutoff=1.0, transitions=((1, 0),))
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
        BathSpec, name=st.text(max_size=5), beta=positive, j0=st.floats(0.0, 1.0),
        omega_cutoff=positive,
        transitions=st.lists(pairs, max_size=3, unique=True).map(tuple)),
        max_size=2, unique_by=lambda bath: bath.name)
    drive = st.none() | st.builds(DriveSpec, mu=st.floats(0.0, 1.0), omega=positive,
                                  pair=pairs)
    return draw(st.builds(
        ScenarioConfig, energies=st.lists(finite, min_size=dim, max_size=dim).map(tuple),
        target_level=level, baths=baths.map(tuple), kind=st.sampled_from(GENERATOR_KINDS),
        label=st.text(max_size=8), drive=drive, lamb_shift=st.booleans(),
        q_max=st.integers(0, 30), w_cutoff=st.floats(10.0, 1e5), initial_level=level))


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
        (("scenario",), "w_cutoff", "far", "'far' is not of type 'number'"),
        (("scenario",), "w_cutoff", _DELETE, "'w_cutoff' is a required property"),
        (("scenario",), "lamb_params", {"w_cutoff": 4e4}, "('lamb_params' was unexpected)"),
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
            mode: Literal["fast", "slow"] = "fast"

        value = Outer("x", Inner(3, 0.5), links=((0, 1), (2, 3)), mode="slow")
        data = cli._to_json(value)
        assert data == {"name": "x", "inner": {"count": 3, "scale": 0.5},
                        "links": [[0, 1], [2, 3]], "flag": True, "mode": "slow"}
        assert cli._from_json(data, Outer) == value
        schema = cli._json_schema(Outer)
        assert schema["required"] == ["name", "inner", "links", "flag", "mode"]
        assert schema["properties"]["inner"]["properties"]["scale"] == {
            "type": ["number", "null"]}
        assert schema["properties"]["links"]["items"]["maxItems"] == 2
        assert schema["properties"]["mode"] == {"enum": ["fast", "slow"]}
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
        ("scenario", "drive", "pair", 1),
        ("scenario", "baths", 0, "transitions", 0, 0),
    ], ids=lambda p: ".".join(map(str, p)))
    def test_run_config_exits_2(self, tmp_path, capsys, path):
        run = canonical_run_dict({"scenario": {"preset": "three_level_v1"},
                                  "integration": {"t_final": 1.0}})
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

    def test_integral_float_departs_from_jsonschema(self):
        import jsonschema

        run = _canonical_run()
        run["scenario"]["q_max"] = 3.0
        jsonschema.validate(run, RUN_SCHEMA)
        with pytest.raises(ConfigError, match="3.0 is not of type 'integer'"):
            validate_schema(run, RUN_SCHEMA)


def _valid_configs():
    """(config, schema) pairs that pass, in the form each command validates."""
    runs = [canonical_run_dict({"scenario": {"preset": name},
                                "integration": {"t_final": 1.0, "dt": 0.2},
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
#: value below the sweep's minimum; never an integral float or a long value,
#: the two places where the checker departs from jsonschema
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
        # the radiation cutoff is the scenario's w_cutoff: there is no lamb_params section
        ("simulate", {"scenario": {"preset": "three_level_v1",
                                   "lamb_params": {"pv_window": 0.1}},
                      "integration": {"t_final": 1.0}}, "'lamb_params' was unexpected"),
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
        # integration.dt is the one setting of the record grid
        ("simulate", {"scenario": {"preset": "three_level_v1"},
                      "integration": {"t_final": 1.0, "stride": 0}}, "'stride' was unexpected"),
        ("compare", {"a": {"preset": "three_level_nondriven"},
                     "b": {"preset": "three_level_nondriven"}, "integration": {"t_final": 0}},
         "integration.t_final must be finite and > 0"),
        # finite values whose step count no float counts exactly
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1e300}},
         "t_final 1e+300 over dt 0.05 is more than 2**53 steps"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 10, "dt": 1e-300}},
         "t_final 10.0 over dt 1e-300 is more than 2**53 steps"),
        # at most 20001 records, but of 60x60 states they pass 1 GiB
        ("simulate", {"scenario": {"energies": list(range(60)), "target_level": 59,
                                   "baths": [], "kind": "lindblad"},
                      "integration": {"t_final": 1000.0}},
         "20001 records of 60x60 states (t_final 1000.0, dt 0.05)"),
        # a P grid of 2**37 + 1 samples after its doublings
        ("floquet", {"scenario": {"preset": "three_level_v1", "q_max": 10**9},
                      "integration": {"t_final": 1.0}},
         "q_max 1000000000 asks for a P grid of up to 137438953473 samples"),
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
        ("simulate", {"scenario": {"preset": "three_level_nondriven", "w_cutoff": 1e400},
                      "integration": {"t_final": 1.0}}, "w_cutoff must be finite and > 0, got inf"),
        # compare and sweep name their presets in the config: the flag is refused, not ignored
        ("compare --preset four_level_degenerate",
         {"a": {"preset": "three_level_nondriven"}, "b": {"preset": "three_level_nondriven"},
          "integration": {"t_final": 1.0}},
         "--preset applies only to simulate and floquet, not compare"),
        ("sweep --preset no_such_preset",
         {"base": {"scenario": {"preset": "three_level_nondriven"},
                   "integration": {"t_final": 1.0}}, "axes": {"scenario.lamb_shift": [True]}},
         "--preset applies only to simulate and floquet, not sweep"),
    ], ids=["no_integration", "integration_not_object", "outputs_null", "outputs_path",
            "compare_side_not_object", "drive_pair_past_dim", "drive_pair_negative",
            "grid_m_zero", "q_max_negative", "substeps_unknown", "scenario_dt",
            "lamb_params_pv_window", "compare_outputs",
            "sweep_outputs", "sweep_base_outputs", "t_final_zero", "t_final_negative",
            "t_final_inf", "t_final_nan", "dt_zero", "stride_zero", "compare_t_final_zero",
            "t_final_1e300", "dt_1e-300", "records_past_bytes_bound", "q_max_past_grid_bound",
            "beta_inf", "beta_nan",
            "j0_inf", "omega_cutoff_inf", "energy_inf", "energy_nan", "drive_mu_inf",
            "drive_omega_nan", "w_cutoff_inf", "compare_preset_flag", "sweep_preset_flag"])
    def test_exit_2_and_no_output(self, tmp_path, capsys, monkeypatch, command, config,
                                  message):
        # each is refused before a generator is built or a propagator sampled
        def no_work(*args, **kwargs):
            raise AssertionError("started work on a config it refuses")

        for target in ("floqdyn.scenarios.build_generator", "floqdyn.cli.build_generator",
                       "floqdyn.floquet.magnus_samples"):
            monkeypatch.setattr(target, no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("command,config", [
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1.0}}),
        ("floquet", {"scenario": {"preset": "three_level_v1"}, "integration": {"t_final": 1.0}}),
        ("compare", {"a": {"preset": "three_level_nondriven"},
                     "b": {"preset": "three_level_nondriven"}, "integration": {"t_final": 1.0}}),
        ("sweep", {"base": {"scenario": {"preset": "three_level_nondriven"},
                            "integration": {"t_final": 1.0}},
                   "axes": {"scenario.lamb_shift": [True, False]}}),
    ])
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_that_is_no_directory_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                              config, under):
        # refused before any work, as a config error, in one line
        def no_work(*args, **kwargs):
            raise AssertionError("started work with an unusable --out")

        for target in ("floqdyn.scenarios.build_generator", "floqdyn.cli.build_generator",
                       "floqdyn.cli._sweep_point"):
            monkeypatch.setattr(target, no_work)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "sub" if under else taken
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"configuration error: --out {out}: {taken} "
                                           "is not a directory\n")
        assert sorted(tmp_path.iterdir()) == [cfg, taken]
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("override", [
        "integration.t_final=1" + "0" * 5000,       # past int's digit limit: read as text
        "scenario.kind=" + "x" * 5000,
        "integration." + "k" * 5000 + "=1",
    ], ids=["t_final_of_5001_digits", "kind_of_5000_chars", "key_of_5000_chars"])
    def test_long_values_are_elided(self, tmp_path, capsys, override):
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "three_level_v1", "--set", override,
                     "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 300
        assert not out.exists()

    def test_static_kind_of_a_driven_preset_exits_2(self, tmp_path, capsys):
        # a static kind has no drive term: running it would drop the drive
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "three_level_v0", "--set", 'scenario.kind="lindblad"',
                     "--out", str(out)]) == 2
        assert 'set "drive": null' in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_base_without_integration_fails_every_point(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": {"preset": "three_level_nondriven"}},
                                   "axes": {"scenario.lamb_shift": [True, False]}}))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == \
            "configuration error: every sweep grid point failed: 2 error:2\n"

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

    # a gap of 1e200 has no Redfield dipole (its cube overflows); the Lindblad
    # kind runs it into non-finite records, and so does a cold bath of j0 1e200;
    # a level of 4e16 turns a Magnus step by a phase of ~1e14, which the
    # exponential's squarings leave far from unitary
    HUGE_GAP = {"preset": "three_level_nondriven", "energies": [0, 1e200, 2.5]}

    @pytest.mark.parametrize("scenario,code,message", [
        ({**HUGE_GAP, "kind": "redfield"}, 2,
         "configuration error: channels ['hot/(1, 0)', 'cold/(1, 2)'] lack the dipole magnitude"),
        ({**HUGE_GAP, "kind": "lindblad"}, 3, "numerical error: record 1 (t = 0.05) is not finite"),
        ({"preset": "three_level_nondriven",
          "baths": [hot_bath(), hot_bath(name="cold", beta=0.25, j0=1e200,
                                         omega_cutoff=0.2 ** 0.5, transitions=[[1, 2]])]}, 3,
         "numerical error: record 1 (t = 0.05) is not finite"),
        ({"preset": "three_level_v0", "energies": [0, 4e16, 2.5]}, 3,
         "numerical error: monodromy: matrix not unitary"),
    ], ids=["gap_redfield", "gap_lindblad", "j0", "level_floquet"])
    def test_huge_finite_numbers(self, tmp_path, capsys, scenario, code, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario, "integration": {"t_final": 1.0}}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_non_finite_halving_gap_exits_3_on_the_first_grid(self, tmp_path, capsys,
                                                               monkeypatch):
        # a level of 1e100 makes every Magnus step NaN: no finer grid can mend
        # it, so the P grid is not doubled past its first check
        grids = []

        def counted(h, t0, t1, n):
            grids.append(n)
            return magnus_samples(h, t0, t1, n)

        monkeypatch.setattr(floquet, "magnus_samples", counted)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(["simulate", "--preset", "three_level_v1", "--set",
                         "scenario.energies=[0, 1e100, 2.5]", "--out", str(out)])
        assert code == 3
        assert "propagator changes by nan" in capsys.readouterr().err
        assert 1 <= len(grids) <= 2 and not out.exists()

    # a cutoff whose square overflows is the infinite-cutoff limit J = j0 x, and
    # so is one of 1e100 (x^2 / 1e200 leaves exp at 1): the same outputs
    @pytest.mark.parametrize("preset,kind", [("three_level_nondriven", "lindblad"),
                                             ("three_level_v0", "floquet_lindblad")])
    def test_huge_cutoff_is_the_infinite_cutoff_limit(self, tmp_path, preset, kind):
        outputs = []
        for cutoff in (1e100, 1e300):
            cfg = tmp_path / f"{cutoff:g}.json"
            cfg.write_text(json.dumps({
                "scenario": {"preset": preset, "kind": kind,
                             "baths": [hot_bath(omega_cutoff=cutoff),
                                       hot_bath(name="cold", beta=0.25, j0=4e-3,
                                                omega_cutoff=0.2 ** 0.5, transitions=[[1, 2]])]},
                "integration": {"t_final": 1.0}}))
            out = tmp_path / f"out{cutoff:g}"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("trajectory.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_short_redfield_run_reports_its_slightly_negative_eta(self, tmp_path):
        # the target population starts below 0 by ~1e-6, within the positivity soft bound
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "four_level_nondegenerate", "--set",
                     'scenario.kind="redfield"', "--set", "integration.t_final=0.05",
                     "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert -1e-5 < summary["eta"] < 0 and summary["diagnostics"]["warnings"] == []

    def test_sweep_rows_of_a_huge_gap(self, tmp_path):
        # beside the huge gap, the preset's own levels, so that the sweep has rows to write
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": self.HUGE_GAP,
                                            "integration": {"t_final": 1.0}},
                                   "axes": {"scenario.kind": ["lindblad", "redfield"],
                                            "scenario.energies": [[0, 1e200, 2.5],
                                                                  [0, 3, 2.5]]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert [r["status"] for r in read_csv(tmp_path / "sweep.csv")] == \
            ["error:3", "error:2", "ok", "ok"]

    # JSON integers past the float range, where they become float fields
    @pytest.mark.parametrize("command,config,name", [
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "baths": [hot_bath(beta=10**400)]},
                      "integration": {"t_final": 1.0}}, "scenario.baths[0].beta"),
        ("simulate", {"scenario": {"preset": "three_level_v1", "drive": {"mu": 10**400}},
                      "integration": {"t_final": 1.0}}, "scenario.drive.mu"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven",
                                   "baths": [hot_bath(j0=10**400)]},
                      "integration": {"t_final": 1.0}}, "scenario.baths[0].j0"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven", "w_cutoff": 10**400},
                      "integration": {"t_final": 1.0}}, "scenario.w_cutoff"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 10**400}}, "integration.t_final"),
        ("simulate", {"scenario": {"preset": "three_level_nondriven"},
                      "integration": {"t_final": 1.0, "dt": 10**400}}, "integration.dt"),
        ("compare", {"a": {"preset": "three_level_nondriven"},
                     "b": {"preset": "three_level_nondriven", "baths": [hot_bath(beta=10**400)]},
                     "integration": {"t_final": 1.0}}, "b.baths[0].beta"),
    ], ids=["beta", "drive_mu", "j0", "w_cutoff", "t_final", "dt", "compare_beta"])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, command, config, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"configuration error: {name}: an integer of 401 "
                                           "digits is too large for a float\n")
        assert not out.exists()

    def test_bath_names_must_be_distinct(self, tmp_path, capsys):
        # two channels would share the Lamb key hot:(1, 0)
        out = tmp_path / "out"
        baths = json.dumps([hot_bath(), hot_bath(j0=1e-3)])
        assert main(["floquet", "--preset", "three_level_v0", "--set", f"scenario.baths={baths}",
                     "--out", str(out)]) == 2
        assert "bath names must be distinct, got ['hot', 'hot']" in capsys.readouterr().err
        assert not out.exists()

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


@pytest.fixture
def stack_builds(monkeypatch):
    """The shapes of every stack of records that ``from_coordinates`` turns into
    complex matrices (one record, such as the final state, does not count)."""
    builds = []
    build = operators.from_coordinates

    def counted(x):
        if np.ndim(x) > 1:
            builds.append(np.shape(x))
        return build(x)

    for module in (operators, scenarios_module, cli):
        monkeypatch.setattr(module, "from_coordinates", counted)
    return builds


class TestRecordCoordinates:
    def test_the_guard_counts_a_stack_build(self, stack_builds):
        traj = evolve(PRESETS["three_level_v0"](), 2.0)
        states = traj.states
        assert (states.shape, states.nbytes, len(states)) == \
            ((len(traj.times), 3, 3), traj.coords.nbytes * 2, len(traj.times))
        assert np.array_equal(states[-1], operators.from_coordinates(traj.coords[-1]))
        assert np.array_equal(states[5, 1], operators.from_coordinates(traj.coords[5])[1])
        with pytest.raises(AttributeError):     # no array attribute builds the stack unasked
            states.ndim
        assert stack_builds == []
        assert np.array_equal(np.asarray(states)[:2], states[:2])
        assert stack_builds == [traj.coords.shape, (2, 9)]

    def test_states_view_indexes_and_computes_as_the_stack(self):
        traj = evolve(PRESETS["three_level_v0"](), 2.0)
        stack = operators.from_coordinates(traj.coords)
        for key in (-1, np.int64(3), slice(None, None, 7), (slice(2, 9), 0, 2), (5, 1),
                    [0, 4], ([0, 4], [1, 2]), Ellipsis):
            assert np.array_equal(traj.states[key], stack[key])
        assert np.array_equal(traj.states - stack[0], stack - stack[0])
        assert np.array_equal(np.conj(traj.states), stack.conj())
        assert np.asarray(traj.states, dtype=np.complex64).dtype == np.complex64
        assert all(np.array_equal(a, b) for a, b in zip(traj.states, stack, strict=True))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_simulate_and_sweep_build_no_complex_stack(self, tmp_path, stack_builds, preset):
        assert main(["simulate", "--preset", preset, "--set", "integration.t_final=20.0",
                     "--out", str(tmp_path / "simulate")]) == 0
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": {"scenario": {"preset": preset},
                                            "integration": {"t_final": 20.0}},
                                   "axes": {"scenario.lamb_shift": [True, False]}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        assert stack_builds == []


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
        # the first grid passes the halving check, and the record says by how much
        assert data["p_grid"] == 256
        assert data["halving_gap"]["bound"] == HALVING_GAP_TOL
        assert 0 < data["halving_gap"]["gap"] <= data["halving_gap"]["bound"]
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

    def test_failing_benchmark_writes_nothing(self, tmp_path, capsys):
        # the decomposition and the Lamb matrices succeed; the Magnus+BCH
        # exponent (mu^3) overflows, and no file may be left in --out
        out = tmp_path / "out"
        code = main(["floquet", "--preset", "three_level_v0", "--set", "scenario.drive.mu=1e103",
                     "--set", "scenario.drive.omega=1e104", "--out", str(out)])
        assert code == 3
        assert "cubed overflows" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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

    def test_summary_is_strict_json_when_eta_b_is_zero(self, tmp_path):
        # b has no bath, so its target level stays empty: eta_b = 0
        cfg = tmp_path / "cmp.json"
        cfg.write_text(json.dumps({"a": {"preset": "three_level_nondriven"},
                                   "b": {"preset": "three_level_nondriven", "baths": []},
                                   "integration": {"t_final": 20.0}}))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        text = (tmp_path / "compare_summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert summary["eta_b"] == 0.0 and summary["eta_a"] > 0
        assert summary["relative_gain_a_over_b"] is None

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
        (ta, tb), (ea, eb) = trajs, [efficiency(t)[1] for t in trajs]
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

    def test_spawned_workers_match_the_serial_sweep(self, tmp_path, monkeypatch):
        import concurrent.futures
        import functools
        import multiprocessing

        # q_max = 1e9 asks decompose_scenario for a P grid past its bound: a
        # ConfigError raised inside the worker, one row of error:2 beside an ok one
        sweep = {"base": {"scenario": {"preset": "three_level_v1"},
                          "integration": {"t_final": 5.0}},
                 "axes": {"scenario.q_max": [3, 1000000000]}}
        run = {"scenario": {"preset": "three_level_v1", "q_max": 1000000000},
               "integration": {"t_final": 5.0}}
        validate_schema(canonical_run_dict(run), RUN_SCHEMA)  # the parent passes it on
        with pytest.raises(ConfigError, match="P grid"):
            decompose_scenario(replace(PRESETS["three_level_v1"](), q_max=1000000000))
        rows = {}
        # two workers, on any machine: the pool is no larger than the CPUs
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # cmd_sweep imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("spawn")))
        for workers in (1, 2):
            out = tmp_path / str(workers)
            config = self._write(tmp_path, f"s{workers}.json", {**sweep, "parallelism": workers})
            assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
            rows[workers] = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows[1]] == ["ok", "error:2"]
        assert rows[2] == rows[1]

    @pytest.mark.parametrize("parallelism,cpus,workers", [
        (100000, 64, 3), (8, 2, 2), (2, 64, 2), (8, 1, None), (8, None, None), (1, 64, None),
    ])
    def test_pool_is_no_larger_than_the_grid_or_the_cpus(self, tmp_path, monkeypatch,
                                                         parallelism, cpus, workers):
        import concurrent.futures

        # a fork pool starts all its workers at the first submit: a stand-in pool
        # records the size asked for and maps serially, so no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sweep = {"base": {"scenario": {"preset": "three_level_nondriven"},
                          "integration": {"t_final": 1.0}},
                 "axes": {"integration.t_final": [1.0, 2.0, 3.0]}}
        for name, n in (("serial", 1), ("pooled", parallelism)):
            config = self._write(tmp_path, f"{name}.json", {**sweep, "parallelism": n})
            assert main(["sweep", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        assert sizes == ([] if workers is None else [workers])
        assert (tmp_path / "pooled" / "sweep.csv").read_bytes() == \
            (tmp_path / "serial" / "sweep.csv").read_bytes()

    @staticmethod
    def _write(tmp_path, name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p


class TestExitCodes:
    # a sweep whose every point fails exits by the rule of its rows, and writes nothing
    @pytest.mark.parametrize("axes,code,message", [
        ({"scenario.kind": ["not_a_kind"]}, 2,
         "configuration error: every sweep grid point failed: 1 error:2"),
        ({"scenario.energies": [[0, 1e200, 2.5], [0, 1e250, 2.5]]}, 3,
         "numerical error: every sweep grid point failed: 2 error:3"),
        ({"scenario.energies": [[0, 1e200, 2.5], [0, 1e250, 2.5]],
          "scenario.kind": ["lindblad", "not_a_kind"]}, 3,
         "numerical error: every sweep grid point failed: 2 error:3, 2 error:2"),
    ], ids=["configuration", "numerical", "both"])
    def test_all_failed_sweep_exits_by_its_rows_and_writes_nothing(self, tmp_path, capsys,
                                                                   axes, code, message):
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "base": {"scenario": {"preset": "three_level_nondriven", "kind": "lindblad"},
                     "integration": {"t_final": 1.0}},
            "axes": axes,
        }))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == code
        assert not out.exists()
        assert capsys.readouterr().err == message + "\n"

    def test_validation_error_exits_2_and_fails_a_sweep_point_as_error_2(self, tmp_path,
                                                                          monkeypatch):
        # a floqdyn error other than a NumericalError is exit 2, in a run and in a sweep row
        def evolve_raises_with_lamb_shift(config, *args, **kwargs):
            if config.lamb_shift:
                raise ValidationError("t_final must be positive")
            return evolve(config, *args, **kwargs)

        monkeypatch.setattr(cli, "evolve", evolve_raises_with_lamb_shift)
        out = tmp_path / "out"
        assert main(["simulate", "--preset", "three_level_nondriven", "--out", str(out)]) == 2
        assert not out.exists()
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps({
            "base": {"scenario": {"preset": "three_level_nondriven"},
                     "integration": {"t_final": 5.0}},
            "axes": {"scenario.lamb_shift": [True, False]},
        }))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
        assert [r["status"] for r in read_csv(tmp_path / "sweep" / "sweep.csv")] == \
            ["error:2", "ok"]


#: Tiny and huge positive numbers, which every number slot takes, and so the
#: numbers that carry a run furthest into its numerics.
VALID_EXTREMES = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 1e-100, 1e-15,
                                  1e15, 1e100, 1e300, 1.7976931348623157e308])
#: Numbers that some slots refuse: signed zeros, negative numbers, JSON integers
#: of hundreds of digits, past the float range, and any finite float.
REFUSED_EXTREMES = st.one_of(
    st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -1e300, 0, 1]),
    st.integers(100, 400).flatmap(lambda n: st.sampled_from([10**n, -10**n, 10**n + 1])),
    st.floats(allow_nan=False, allow_infinity=False),
)
#: Numbers at the edges of the float range, five in six of them valid in any slot.
EXTREME_NUMBERS = st.integers(0, 5).flatmap(
    lambda k: VALID_EXTREMES if k else REFUSED_EXTREMES)
#: A level just above another: a gap near 0, down to one whose cube underflows.
TINY_GAPS = st.sampled_from([5e-324, 1e-110, 1e-100, 1e-300, 1e-15, 0.0, -0.0])


@st.composite
def extreme_runs(draw, driven: bool = False, dim: int | None = None, extremes: int = 2):
    """A schema-valid simulate config: a preset, maybe undriven, under a kind that
    fits its drive, up to ``extremes`` of its numbers extreme (mostly ones every
    slot takes), a level one time in four a tiny gap above another, each integer
    slot one time in four out of its range or degenerate, and a short run.
    ``driven`` keeps to the driven presets, with their drive, and ``dim`` to the
    presets of that many levels."""
    preset = draw(st.sampled_from(sorted(
        name for name in PRESETS
        if (PRESETS[name]().drive or not driven) and dim in (None, PRESETS[name]().dim))))
    scenario = canonical_run_dict({"scenario": {"preset": preset},
                                   "integration": {"t_final": 1.0}})["scenario"]
    if not driven and draw(st.booleans()):
        scenario["drive"] = None
    scenario["kind"] = draw(st.sampled_from(("floquet_lindblad", "floquet_redfield")
                                            if scenario["drive"] else ("lindblad", "redfield")))
    slots = [(scenario["energies"], i) for i in range(len(scenario["energies"]))]
    slots += [(bath, key) for bath in scenario["baths"] for key in ("beta", "j0", "omega_cutoff")]
    slots.append((scenario, "w_cutoff"))
    if scenario["drive"] is not None:
        slots += [(scenario["drive"], "mu"), (scenario["drive"], "omega")]
    # a few at a time, so that most runs get past the checks of their inputs
    for k in draw(st.lists(st.integers(0, len(slots) - 1), max_size=extremes, unique=True)):
        node, key = slots[k]
        node[key] = draw(EXTREME_NUMBERS)
    if draw(st.integers(0, 3)) == 0:
        levels = scenario["energies"]
        i, j = draw(st.permutations(range(len(levels))))[:2]
        levels[i] = levels[j] + draw(TINY_GAPS) if isinstance(levels[j], float) else \
            draw(TINY_GAPS)
    # the integer slots, each one time in four: the number of levels (a level
    # dropped, or an uncoupled one added), the bath transitions (out of range, a
    # self-pair, duplicates), the drive pair, and the target and initial levels
    if draw(st.integers(0, 3)) == 0:
        levels = scenario["energies"] + [draw(st.sampled_from([0.0, 1.0, 2.5]))]
        scenario["energies"] = levels[:draw(st.integers(1, len(levels)))]
    level = st.integers(-1, len(scenario["energies"]))     # one past each end
    pair = st.tuples(level, level).map(list)
    for bath in scenario["baths"]:
        if draw(st.integers(0, 3)) == 0:
            bath["transitions"] = draw(st.lists(
                st.one_of(pair, st.sampled_from(bath["transitions"])), max_size=3))
    if scenario["drive"] is not None and draw(st.integers(0, 3)) == 0:
        scenario["drive"]["pair"] = draw(pair)
    for key in ("target_level", "initial_level"):
        if draw(st.integers(0, 3)) == 0:
            scenario[key] = draw(level)
    scenario["q_max"] = draw(st.sampled_from([scenario["q_max"]] * 5 + [0, 1, 10**300]))
    return {"scenario": scenario,
            "integration": {"t_final": draw(st.sampled_from([5e-324, 1e-300, 0.05, 1.0])),
                            "dt": draw(st.sampled_from([None] * 5 + [0.01, 1e300, 5e-324]))}}


@st.composite
def extreme_compares(draw):
    """A schema-valid compare config: the scenarios of two ``extreme_runs``, one
    time in eight of any dimension (the others of the first's, where a preset
    has as many levels), on the integration of the first, under either metric."""
    a = draw(extreme_runs())
    levels = len(a["scenario"]["energies"])
    levels = levels if any(make().dim == levels for make in PRESETS.values()) else None
    b = draw(extreme_runs(dim=draw(st.sampled_from([None] + [levels] * 7))))
    return {"a": a["scenario"], "b": b["scenario"], "integration": a["integration"],
            "metric": draw(st.sampled_from(["eta_series", "trace_distance"]))}


def _tiny_gap_run(gap: float) -> dict:
    return {"scenario": {"preset": "three_level_nondriven", "energies": [0, gap, 2.5],
                         "kind": "redfield", "drive": None},
            "integration": {"t_final": 1.0}}


def _floquet_run(energies=(0.0, 3.0, 2.5), mu=0.1, omega=2.25) -> dict:
    return {"scenario": {"preset": "three_level_v0", "energies": list(energies),
                         "drive": {"mu": mu, "omega": omega, "pair": [0, 2]}},
            "integration": {"t_final": 1.0}}


#: The number slots a sweep axis of ``extreme_sweeps`` sets, with the values each
#: draws: the integer slot ``q_max`` takes whole numbers as well.
SWEEP_AXES = {
    "integration.t_final": EXTREME_NUMBERS,
    "integration.dt": EXTREME_NUMBERS,
    "scenario.q_max": st.one_of(st.sampled_from([0, 1, 3, 24]), EXTREME_NUMBERS),
    "scenario.w_cutoff": EXTREME_NUMBERS,
    "scenario.drive.mu": EXTREME_NUMBERS,
    "scenario.drive.omega": EXTREME_NUMBERS,
}


@st.composite
def extreme_sweeps(draw):
    """A sweep config: an ``extreme_runs`` base with one extreme number (a driven one
    under a drive axis) and one ``SWEEP_AXES`` axis of two values, an extreme one
    and the base's own value of that slot (a second extreme one where the base
    sets none), so that a point has at most two extreme numbers and a base that
    runs has a point that runs."""
    axis = draw(st.sampled_from(sorted(SWEEP_AXES)))
    base = draw(extreme_runs(driven=axis.startswith("scenario.drive."), extremes=1))
    *path, key = axis.split(".")
    own = functools.reduce(dict.__getitem__, path, base)[key]
    values = [draw(SWEEP_AXES[axis]), draw(SWEEP_AXES[axis]) if own is None else own]
    return {"base": base, "axes": {axis: values}, "parallelism": 1}


class TestExtremeNumbers:
    # in process: a traceback would be an exception here, not an exit code
    @settings(max_examples=40, deadline=timedelta(seconds=30))
    @given(extreme_runs())
    @example({"scenario": {"preset": "three_level_nondriven", "kind": "lindblad",
                           "baths": [hot_bath(omega_cutoff=1e300),
                                     hot_bath(name="cold", beta=0.25, j0=4e-3,
                                              omega_cutoff=1e300, transitions=[[1, 2]])]},
              "integration": {"t_final": 1.0}})
    @example(_tiny_gap_run(5e-324))
    @example(_tiny_gap_run(1e-110))
    @example({**_floquet_run(omega=1e100),                  # infinitely many P-grid steps
              "integration": {"t_final": 5e-324, "dt": 1e300}})
    def test_simulate_runs_or_exits_2_or_3(self, run):
        self._runs_or_exits_2_or_3("simulate", run)

    @settings(max_examples=40, deadline=timedelta(seconds=30))
    @given(extreme_runs(driven=True))
    @example(_floquet_run(energies=[0, 1e100, 2.5]))
    @example(_floquet_run(energies=[0, 4e16, 2.5]))
    @example(_floquet_run(mu=1e100, omega=1e100))   # Hbar past the Hermitian check
    @example(_floquet_run(mu=1e103, omega=1e104))   # mu^3 overflows
    @example(_floquet_run(mu=0.1, omega=1.7976931348623157e308))    # NaN Magnus terms
    def test_floquet_runs_or_exits_2_or_3(self, run):
        self._runs_or_exits_2_or_3("floquet", run)

    @settings(max_examples=40, deadline=timedelta(seconds=30))
    @given(extreme_compares())
    def test_compare_runs_or_exits_2_or_3(self, run):
        self._runs_or_exits_2_or_3("compare", run)

    @settings(max_examples=40, deadline=timedelta(seconds=30))
    @given(extreme_sweeps())
    def test_sweep_runs_or_exits_2_or_3(self, run):
        self._runs_or_exits_2_or_3("sweep", run)

    @staticmethod
    def _runs_or_exits_2_or_3(command, run):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.json", Path(tmp) / "out"
            cfg.write_text(json.dumps(run))
            code = main([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2, 3)
            if code in (2, 3):
                assert not out.exists()
