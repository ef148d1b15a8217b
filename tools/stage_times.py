"""In-process stage times of the runs the benchmark makes, case by case.

Run from the root of a checkout, with BLAS on one thread as the benchmark
runs it::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/stage_times.py --repeats 15

The cases are every preset at the size the benchmark's workloads run it: the
three 3-level presets at t_final 6000, the driven 4-level preset at 1000, and
the eight ``kind_sweep`` points (the two static 4-level presets under
``lindblad`` and ``redfield``, with and without the Lamb shift) at 2800.
Each case runs once to fill the bath-coefficient caches, then ``--repeats``
times; each repeat times, in this process:

- ``build_generator`` (with the Floquet decomposition of a Floquet kind);
- ``fill_powers`` and ``min_eigenvalues``, the record propagation and the
  positivity scan inside ``evolve``;
- ``efficiency``, ``trajectory_table`` and ``write_csv`` of
  ``trajectory.csv`` (into a temporary directory).

One more, untimed, run of each case takes the ``tracemalloc`` peak of
``trajectory_table`` and ``write_csv`` together, so that tracing perturbs no
timed repeat.

Standard output is one JSON object: the machine, the repeat count, and for
each case the median seconds of each stage and that peak in MB (2^20 bytes).
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from floqdyn import scenarios
from floqdyn.cli import trajectory_header, trajectory_table, write_csv
from floqdyn.scenarios import PRESETS, build_generator, efficiency, evolve

STAGES = ("build_generator", "fill_powers", "min_eigenvalues", "efficiency",
          "trajectory_table", "write_csv")
#: Functions that ``evolve`` calls by their name in ``floqdyn.scenarios``.
EVOLVE_STAGES = ("fill_powers", "min_eigenvalues")


def cases() -> list:
    """(name, config, t_final) of every case, in a fixed order."""
    out = [(name, PRESETS[name](), 6000.0)
           for name in ("three_level_nondriven", "three_level_v0", "three_level_v1")]
    out.append(("four_level_degenerate_driven", PRESETS["four_level_degenerate_driven"](),
                1000.0))
    for name, kind, lamb in itertools.product(
            ("four_level_degenerate", "four_level_nondegenerate"), ("lindblad", "redfield"),
            (True, False)):
        config = replace(PRESETS[name](), kind=kind, lamb_shift=lamb)
        out.append((f"{name}/{kind}/lamb_shift={lamb}", config, 2800.0))
    return out


@contextmanager
def timed_in_evolve(times: dict):
    """Add the time of each call of the ``EVOLVE_STAGES`` functions to ``times``."""
    originals = {name: getattr(scenarios, name) for name in EVOLVE_STAGES}

    def timer(name, fn):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += time.perf_counter() - t0
        return call

    for name, fn in originals.items():
        setattr(scenarios, name, timer(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(scenarios, name, fn)


def run_once(config, t_final: float, out_dir: Path) -> dict:
    """The seconds of every stage of one run."""
    times = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    generator = build_generator(config)
    times["build_generator"] = time.perf_counter() - t0
    with timed_in_evolve(times):
        traj = evolve(config, t_final, generator=generator)
    t0 = time.perf_counter()
    _, cumulative = efficiency(traj)
    t1 = time.perf_counter()
    table, kept = trajectory_table(traj, cumulative)
    t2 = time.perf_counter()
    write_csv(out_dir / "trajectory.csv", trajectory_header(traj.dim), table, kept)
    t3 = time.perf_counter()
    times.update(efficiency=t1 - t0, trajectory_table=t2 - t1, write_csv=t3 - t2)
    return times


def csv_peak_mb(config, t_final: float, out_dir: Path) -> float:
    """The ``tracemalloc`` peak of ``trajectory_table`` and ``write_csv`` of one run, in MB."""
    traj = evolve(config, t_final)
    _, cumulative = efficiency(traj)
    tracemalloc.start()
    try:
        table, kept = trajectory_table(traj, cumulative)
        write_csv(out_dir / "trajectory.csv", trajectory_header(traj.dim), table, kept)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15, help="timed runs per case")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    result = {"machine": machine(), "repeats": args.repeats, "unit": "s", "cases": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config, t_final in cases():
            run_once(config, t_final, Path(tmp))      # fills the coefficient caches
            runs = [run_once(config, t_final, Path(tmp)) for _ in range(args.repeats)]
            result["cases"][name] = {"t_final": t_final, **{
                stage: statistics.median(run[stage] for run in runs) for stage in STAGES},
                "csv_peak_mb": csv_peak_mb(config, t_final, Path(tmp))}
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
