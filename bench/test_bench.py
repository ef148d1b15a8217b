"""Self-tests of the benchmark: the output checker and the emitted metric names.

Run from the repository root::

    python3 -m pytest bench/test_bench.py -q

The metric-name tests run every workload in the reduced-size mode (about a
minute in all on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

EXPECTED = wl.load_expected(reduced=False)


def _simulate_outputs(tmp_path, eta, t_final=5999.9, write_csv=True):
    out = tmp_path / "three_level_v1"
    out.mkdir()
    (out / "summary.json").write_text(json.dumps({"eta": eta, "t_final": t_final}))
    if write_csv:
        (out / "trajectory.csv").write_text(f"t,rho_00_re,eta_cumulative\n0,1,0\n"
                                            f"{t_final!r},0.5,{eta!r}\n")
    return wl.Command("simulate", "three_level_v1", [], str(out), 6000.0)


def _failed(outcome):
    return [c.name for c in outcome.checks if not c.ok]


def test_checker_accepts_baseline_eta(tmp_path):
    cmd = _simulate_outputs(tmp_path, EXPECTED["three_level_v1"])
    outcome = wl.check_command(cmd, 0, EXPECTED)
    assert _failed(outcome) == []
    assert outcome.t_final_reported == 5999.9


def test_checker_rejects_corrupted_eta(tmp_path):
    cmd = _simulate_outputs(tmp_path, EXPECTED["three_level_v1"] + 5 * wl.ETA_TOL)
    assert _failed(wl.check_command(cmd, 0, EXPECTED)) == ["three_level_v1:eta"]


def test_checker_rejects_missing_file(tmp_path):
    cmd = _simulate_outputs(tmp_path, EXPECTED["three_level_v1"], write_csv=False)
    assert _failed(wl.check_command(cmd, 0, EXPECTED)) == ["three_level_v1:outputs"]


def test_checker_rejects_nonzero_exit(tmp_path):
    cmd = _simulate_outputs(tmp_path, EXPECTED["three_level_v1"])
    assert _failed(wl.check_command(cmd, 3, EXPECTED)) == ["three_level_v1:exit"]
    assert _failed(wl.check_command(cmd, None, EXPECTED)) == ["three_level_v1:exit"]


def test_checker_rejects_failed_sweep_point(tmp_path):
    out = tmp_path / "sweep"
    out.mkdir()
    lines = ["scenario.kind,scenario.lamb_shift,scenario.preset,status,eta"]
    for key, eta in EXPECTED["kind_sweep"].items():
        values = dict(part.split("=", 1) for part in key.split("|"))
        status = "error:3" if values["scenario.kind"] == '"redfield"' else "ok"
        lines.append(",".join([values["scenario.kind"], values["scenario.lamb_shift"],
                               values["scenario.preset"], status, repr(eta)]))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    cmd = wl.Command("sweep", "kind_sweep", [], str(out))
    failed = _failed(wl.check_command(cmd, 0, EXPECTED))
    assert len(failed) == 4 and all(name.endswith(":status") for name in failed)


def test_checker_rejects_fidelity_below_floor(tmp_path):
    out = tmp_path / "flq"
    out.mkdir()
    key = "floquet:three_level_v0"
    (out / "floquet.json").write_text(json.dumps(EXPECTED[key]))
    (out / "benchmark.csv").write_text(
        "t,fidelity_propagator,fidelity_periodicity,fidelity_periodicity_magnus\n"
        "0,1,1,1\n1,0.969,0.99,0.99\n")
    cmd = wl.Command("floquet", key, [], str(out))
    outcome = wl.check_command(cmd, 0, EXPECTED)
    assert _failed(outcome) == [f"{key}:fidelity"]
    assert outcome.fidelity_min == 0.969


def _run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--reduced"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_reduced_traced_run_emits_per_layer_metrics(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer")


def test_reduced_run_emits_end_to_end_metrics():
    proc = _run("kind_sweep", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 2 * 18
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("kind_sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
