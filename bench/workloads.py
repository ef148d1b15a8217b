"""Workload definitions and output checks of the floqdyn benchmark.

A workload is a list of ``floqdyn`` CLI commands.  Every physical input is a
fixed preset; the seed only permutes the order of the sub-runs and of the
sweep axis values.  The checks compare each output against the values the
baseline commit produced (``expected.json``), never against the paper's
reference tables, which are defective by design (see the README).
"""

import csv
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("paper_eta", "driven_redfield", "floquet_report", "kind_sweep")

#: Absolute tolerance on each eta.  A legitimate change of record grid or end
#: time moves eta by up to ~1.4e-6 on these presets; a wrong coefficient
#: moves it by far more.
ETA_TOL = 1e-5
#: Absolute tolerance on each quasienergy of the Floquet report.
QUASI_TOL = 1e-6
#: Acceptance criterion 1 floors on the Magnus/BCH fidelity benchmark.
FIDELITY_PROPAGATOR_FLOOR = 0.97
FIDELITY_PERIODICITY_FLOOR = 0.96

PAPER_PRESETS = ("three_level_nondriven", "three_level_v0", "three_level_v1")
SWEEP_AXES = {
    "scenario.preset": ["four_level_degenerate", "four_level_nondegenerate"],
    "scenario.kind": ["lindblad", "redfield"],
    "scenario.lamb_shift": [True, False],
}
#: A list-valued axis crashes ``cmd_sweep`` (unhashable list as a row key).
#: The probe keeps that defect visible until it is fixed.
LIST_AXIS_PROBE = {
    "base": {"scenario": {"preset": "four_level_degenerate"},
             "integration": {"t_final": 50.0}},
    "axes": {"scenario.energies": [[0.0, 3.0, 3.0, 2.5], [0.0, 3.0, 3.05, 2.5]]},
    "parallelism": 1,
}

#: Full-size parameters, and the reduced sizes used only by the self-tests.
SIZES = {
    False: {"paper_t_final": 6000.0, "driven_t_final": 1000.0, "sweep_t_final": 2800.0,
            "floquet_preset": "three_level_v0", "extra_sets": []},
    True: {"paper_t_final": 200.0, "driven_t_final": 40.0, "sweep_t_final": 200.0,
           "floquet_preset": "three_level_v1", "extra_sets": ["scenario.q_max=3"]},
}

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Command:
    """One CLI invocation of a workload repetition."""

    kind: str                 # simulate | floquet | sweep
    key: str                  # expected-value key (preset or sweep id)
    argv: list
    out: str                  # output directory
    t_final: float | None = None


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class CommandOutcome:
    """Checks of one command plus what it reported."""

    checks: list = field(default_factory=list)
    t_final_reported: float | None = None
    fidelity_min: float | None = None


def plan(workload: str, rng, rep_dir: Path, reduced: bool = False) -> list:
    """Commands of one repetition; writes any sweep config into ``rep_dir``."""
    size = SIZES[reduced]
    sets = []
    for s in size["extra_sets"]:
        sets += ["--set", s]
    if workload == "paper_eta":
        presets = list(PAPER_PRESETS)
        rng.shuffle(presets)
        t_final = size["paper_t_final"]
        return [Command("simulate", p,
                        ["simulate", "--preset", p, "--set",
                         f"integration.t_final={t_final!r}", "--out",
                         str(rep_dir / p)] + (sets if p != "three_level_nondriven" else []),
                        str(rep_dir / p), t_final)
                for p in presets]
    if workload == "driven_redfield":
        p = "four_level_degenerate_driven"
        t_final = size["driven_t_final"]
        return [Command("simulate", p,
                        ["simulate", "--preset", p, "--set",
                         f"integration.t_final={t_final!r}", "--out", str(rep_dir / p)] + sets,
                        str(rep_dir / p), t_final)]
    if workload == "floquet_report":
        p = size["floquet_preset"]
        return [Command("floquet", f"floquet:{p}",
                        ["floquet", "--preset", p, "--out", str(rep_dir / p)], str(rep_dir / p))]
    if workload == "kind_sweep":
        axes = {name: rng.sample(values, len(values)) for name, values in SWEEP_AXES.items()}
        config = {"base": {"scenario": {"preset": SWEEP_AXES["scenario.preset"][0]},
                           "integration": {"t_final": size["sweep_t_final"]}},
                  "axes": axes, "parallelism": 1}
        path = rep_dir / "sweep.json"
        path.write_text(json.dumps(config))
        out = rep_dir / "sweep"
        return [Command("sweep", "kind_sweep",
                        ["sweep", "--config", str(path), "--out", str(out)], str(out))]
    raise ValueError(f"unknown workload {workload!r}")


def probe_command(rep_dir: Path) -> Command:
    path = rep_dir / "list_axis.json"
    path.write_text(json.dumps(LIST_AXIS_PROBE))
    out = rep_dir / "list_axis"
    return Command("sweep", "list_axis", ["sweep", "--config", str(path), "--out", str(out)],
                   str(out))


# ---------------------------------------------------------------------------
# checks


def load_expected(reduced: bool = False) -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)["reduced" if reduced else "full"]


def _last_csv_row(path: Path) -> list:
    """Last row of a CSV file without reading the whole file."""
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        size = fh.tell()
        fh.seek(max(0, size - 65536))
        tail = fh.read().decode()
    return tail.rstrip("\n").rsplit("\n", 1)[-1].split(",")


def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def sweep_key(values: dict) -> str:
    """Expected-value key of a kind_sweep row, independent of axis order."""
    return "|".join(f"{name}={json.dumps(values[name])}" for name in sorted(values))


def check_command(cmd: Command, rc, expected: dict) -> CommandOutcome:
    """Checks of one command's exit code and outputs; each is one operation."""
    res = CommandOutcome()
    res.checks.append(Check(f"{cmd.key}:exit", rc == 0, f"exit {rc}"))
    out = Path(cmd.out)
    try:
        if cmd.kind == "simulate":
            _check_simulate(cmd, out, expected[cmd.key], res)
        elif cmd.kind == "floquet":
            _check_floquet(cmd, out, expected[cmd.key], res)
        else:
            _check_sweep(cmd, out, expected[cmd.key], res)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        res.checks.append(Check(f"{cmd.key}:outputs", False, f"{type(exc).__name__}: {exc}"))
    return res


def _check_simulate(cmd, out, eta_expected, res):
    summary = json.loads((out / "summary.json").read_text())
    res.t_final_reported = float(summary["t_final"])
    eta = float(summary["eta"])
    last = _last_csv_row(out / "trajectory.csv")
    csv_ok = (_close(float(last[-1]), eta, 1e-12)
              and _close(float(last[0]), res.t_final_reported, 1e-9))
    res.checks.append(Check(f"{cmd.key}:csv", csv_ok,
                            f"last row t={last[0]} eta={last[-1]} vs summary"))
    eta_ok = _close(eta, eta_expected, ETA_TOL)
    res.checks.append(Check(f"{cmd.key}:eta", eta_ok,
                            f"eta {eta!r} vs baseline {eta_expected!r} (tol {ETA_TOL})"))


def _check_floquet(cmd, out, expected, res):
    payload = json.loads((out / "floquet.json").read_text())
    quasi = [float(e) for e in payload["quasienergies"]]
    ref = expected["quasienergies"]
    quasi_ok = len(quasi) == len(ref) and all(_close(a, b, QUASI_TOL) for a, b in zip(quasi, ref))
    res.checks.append(Check(f"{cmd.key}:quasienergies", quasi_ok, f"{quasi} vs baseline {ref}"))
    with open(out / "benchmark.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fu = [float(r["fidelity_propagator"]) for r in rows]
    fp = [float(r["fidelity_periodicity"]) for r in rows]
    fid_ok = (len(rows) > 0 and min(fu) >= FIDELITY_PROPAGATOR_FLOOR
              and min(fp) >= FIDELITY_PERIODICITY_FLOOR)
    res.fidelity_min = min(fu) if fu else None
    res.checks.append(Check(f"{cmd.key}:fidelity", fid_ok,
                            f"{len(rows)} rows, min propagator {min(fu, default=None)}, "
                            f"min periodicity {min(fp, default=None)}"))


def _sweep_rows(path: Path) -> list:
    """Rows of sweep.csv; axis values stay in their JSON form (quotes kept)."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh, quoting=csv.QUOTE_NONE))


def _check_sweep(cmd, out, expected, res):
    rows = _sweep_rows(out / "sweep.csv")
    names = [n for n in rows[0] if n.startswith("scenario.")] if rows else []
    seen = set()
    for row in rows:
        values = {n: json.loads(row[n]) for n in names}
        key = sweep_key(values)
        seen.add(key)
        res.checks.append(Check(f"{key}:status", row["status"] == "ok", row["status"]))
        eta = float(row["eta"])
        ref = expected.get(key)
        res.checks.append(Check(f"{key}:eta", ref is not None and _close(eta, ref, ETA_TOL),
                                f"eta {eta!r} vs baseline {ref!r} (tol {ETA_TOL})"))
    missing = sorted(set(expected) - seen)
    res.checks.append(Check(f"{cmd.key}:rows", not missing,
                            f"{len(rows)} rows; missing {missing}"))


def check_probe(cmd: Command, rc) -> bool:
    """True once the list-axis sweep completes with every row ok."""
    try:
        lines = (Path(cmd.out) / "sweep.csv").read_text().splitlines()
    except OSError:
        return False
    return rc == 0 and len(lines) == 3 and all(",ok," in line for line in lines[1:])
