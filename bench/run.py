"""floqdyn benchmark: cold-process CLI workloads with checked outputs.

Run from the root of a checkout::

    python3 bench/run.py --workload paper_eta --seed 1 --seconds 30 --trace 0

Each repetition is a fresh interpreter (``child.py``) that imports
``floqdyn.cli`` (set-up) and runs the workload's CLI commands (timed run),
so every repetition pays for imports and for filling the cached bath
coefficients, as a CLI user does.  One child runs at a time, with BLAS
pinned to one thread in its environment.  Repetitions start while the
measured time stays within ``--seconds`` (at least two, or one traced and
one untraced pair with ``--trace 1``).

Times are scaled to a reference host speed.  Each child times a fixed
calibration loop before its first command and after each command.  Set-up
is multiplied by ``CALIBRATION_REF_S / c_0`` (the calibration right after
it), the run time by ``CALIBRATION_REF_S / mean(c)``.  The unscaled medians
are printed and kept in the results file.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``).
Every output check, command exit and sweep point counts as one operation.
Full results, the environment record and the spans go to ``.bench_out/``.
"""

import argparse
import glob
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402

CHILD = BENCH_DIR / "child.py"
CHILD_TIMEOUT_S = 150.0
MIN_REPS = 2
#: Calibration loop time at the reference speed (median on a 2-vCPU
#: Intel Xeon VM at 2.1 GHz, the host the bounds were set on).
CALIBRATION_REF_S = 0.43
#: Share of the traced run_s that the library-layer self times must cover.
ACCOUNTED_MIN = 0.9
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "1"))


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name == "scenarios.t_final_gap":
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_frac", "_ratio", "fidelity_min")):
        return "1"
    return "count"


class Run:
    """One benchmark invocation: launches children, checks, aggregates."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 reduced: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reduced = reduced
        self.rng = random.Random(seed)
        self.expected = wl.load_expected(reduced)
        tag = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.tag = tag
        self.work = root / ".bench_out" / "work" / tag
        self.results = root / ".bench_out" / "results"
        self.env = dict(os.environ, **BLAS_ENV)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup = []            # scaled to the reference speed
        self.setup_raw = []
        self.reps = {False: [], True: []}
        self.t_finals = []
        self.fidelity_min = []
        self.probe = []
        self.versions = None
        self.n_launch = 0

    # -- children -------------------------------------------------------------

    def launch(self, commands=(), trace=False, probe=None):
        """Start one child, wait for it, and return (report or None, wall s)."""
        self.n_launch += 1
        n = self.n_launch
        spec = {"root": str(self.root), "commands": [list(c) for c in commands],
                "trace": trace, "run_id": f"{self.tag}-{n}", "probe": probe,
                "report": str(self.work / f"report-{n}.json"),
                "spans": str(self.results / f"{self.tag}-spans-{n}.jsonl")}
        spec_path = self.work / f"spec-{n}.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.work / f"child-{n}.log", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)],
                                    cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.monotonic() - start
        report = None
        if code == 0:
            report = json.loads(Path(spec["report"]).read_text())
            report["setup_s"] = report["ready"] - start
            self.versions = report["versions"]
            if commands:
                cal = report["calibration_s"]
                report["setup_scaled_s"] = report["setup_s"] * CALIBRATION_REF_S / cal[0]
                report["run_scaled_s"] = (report["run_s"] * CALIBRATION_REF_S
                                          / statistics.fmean(cal))
                self.setup.append(report["setup_scaled_s"])
                self.setup_raw.append(report["setup_s"])
        else:
            log_tail = (self.work / f"child-{n}.log").read_text()[-2000:]
            print(f"child {n} exited with {code}:\n{log_tail}", file=sys.stderr)
        return report, wall

    def rep(self, trace: bool) -> float:
        """One checked repetition; returns its wall time."""
        rep_dir = self.work / f"rep-{self.n_launch + 1}"
        rep_dir.mkdir(parents=True)
        commands = wl.plan(self.workload, self.rng, rep_dir, self.reduced)
        probe = wl.probe_command(rep_dir) if self.workload == "kind_sweep" else None
        report, wall = self.launch([c.argv for c in commands], trace,
                                   probe.argv if probe else None)
        codes = report["codes"] if report else [None] * len(commands)
        for cmd, code in zip(commands, codes):
            outcome = wl.check_command(cmd, code, self.expected)
            for check in outcome.checks:
                self.count(check.ok, f"{check.name}: {check.detail}")
            if cmd.t_final is not None:
                self.t_finals.append({"command": cmd.key, "requested": cmd.t_final,
                                      "reported": outcome.t_final_reported})
            if outcome.fidelity_min is not None:
                self.fidelity_min.append(outcome.fidelity_min)
        if report is not None:
            if probe is not None:
                self.probe.append(wl.check_probe(probe, report["probe_code"]))
            report.pop("versions", None)
            self.reps[trace].append(report)
        shutil.rmtree(rep_dir, ignore_errors=True)
        print(f"rep {len(self.reps[False]) + len(self.reps[True])}"
              f"{' traced' if trace else ''}: wall {wall:.3f} s"
              + (f", run {report['run_s']:.3f} s (scaled {report['run_scaled_s']:.3f}), "
                 f"setup {report['setup_s']:.3f} s (scaled {report['setup_scaled_s']:.3f})"
                 if report else ", child failed"), flush=True)
        return wall

    def count(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # -- the measured loop ------------------------------------------------------

    def execute(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self.load_before = os.getloadavg()
        self.launch()                       # writes bytecode, warms the file cache
        start = time.monotonic()
        durations = []
        min_units = 1 if self.trace else MIN_REPS
        while len(durations) < min_units or \
                time.monotonic() - start + max(durations) <= self.seconds:
            if self.trace:
                durations.append(self.rep(False) + self.rep(True))
            else:
                durations.append(self.rep(False))
        self.load_after = os.getloadavg()

    # -- results ------------------------------------------------------------------

    def end_to_end(self) -> dict:
        reps = self.reps[False]
        values = {
            "setup_s": statistics.median(self.setup),
            "run_s": scaled_run(reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "ok_frac": (self.attempted - self.failed) / max(1, self.attempted),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    def per_layer(self) -> dict:
        traced = [r["layers"] for r in self.reps[True]]
        untraced = scaled_run(self.reps[False])
        traced_run = scaled_run(self.reps[True])
        values = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        values["trace.run_s"] = traced_run
        values["trace.untraced_run_s"] = untraced
        values["trace.overhead_s"] = traced_run - untraced
        values["cli.list_axis_failures"] = sum(not ok for ok in self.probe)
        return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}

    def environment(self) -> dict:
        return {
            "git_sha": git_sha(self.root),
            "source_sha256": source_digest(self.root),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "versions": self.versions,
            "blas_threads_env": BLAS_ENV,
            "loadavg_before": self.load_before,
            "loadavg_after": self.load_after,
            "t_final": self.t_finals,
        }


def scaled_run(reps) -> float:
    return statistics.median(r["run_scaled_s"] for r in reps)


def git_sha(root: Path):
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(str(root / "src" / "floqdyn" / "*.py"))):
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs, for the benchmark's self-tests only")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "floqdyn" / "cli.py").is_file():
        print(f"no floqdyn sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
    try:
        run.execute()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if not run.reps[False] or (run.trace and not run.reps[True]):
        print("no repetition completed", file=sys.stderr)
        return 1

    if run.trace:
        metrics = run.per_layer()
        frac = metrics["trace.accounted_frac"]["value"]
        run.count(frac >= ACCOUNTED_MIN,
                  f"accounting: layer self times cover {frac:.3f} of traced run_s "
                  f"(need {ACCOUNTED_MIN})")
    else:
        metrics = run.end_to_end()
    env = run.environment()
    full = {"workload": run.workload, "seed": run.seed, "trace": run.trace,
            "reduced": run.reduced, "metrics": metrics, "environment": env,
            "samples": {"setup": len(run.setup), "untraced": len(run.reps[False]),
                        "traced": len(run.reps[True])},
            "unscaled": {"setup_s": statistics.median(run.setup_raw),
                         "run_s": statistics.median(r["run_s"] for r in run.reps[False])},
            "setup_s": run.setup, "reps": run.reps, "failures": run.failures,
            "fidelity_min": min(run.fidelity_min, default=None),
            "list_axis_probe_ok": run.probe}
    (run.results / f"{run.tag}.json").write_text(json.dumps(full, indent=1, default=str))

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"samples: setup {len(run.setup)}, untraced {len(run.reps[False])}, "
          f"traced {len(run.reps[True])}; unscaled medians: setup "
          f"{full['unscaled']['setup_s']:.4f} s, run {full['unscaled']['run_s']:.4f} s")
    if run.fidelity_min:
        print(f"fidelity_min = {min(run.fidelity_min):.6g} (criterion-1 floor "
              f"{wl.FIDELITY_PROPAGATOR_FLOOR})")
    if run.probe:
        print(f"known defect: list-axis sweep ok in {sum(run.probe)} of {len(run.probe)} "
              "attempts (not counted in failed; see bench/NOTES.md)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print("environment " + json.dumps(env))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
