"""The names the benchmark's tracer patches, checked where the tests run.

``bench/tracer.py`` wraps floqdyn functions and methods by name when it is
installed.  A change that removes or renames one of them breaks only the
benchmark, so this installs the tracer, checks every target was wrapped,
and checks that uninstalling puts every original back.  Its result hooks
read attributes of what the wrapped calls return, so a short traced run of
each kind of command checks that they still find them.
"""

import sys
import time
from pathlib import Path

from floqdyn import cli

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def _tracer_module():
    sys.path.insert(0, BENCH)
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
    return tracer


def test_tracer_installs_and_restores_every_patched_name():
    tracer = _tracer_module()
    targets = [(owner, attr) for owner, attr, _ in tracer.SPANS + tracer.AGGREGATES]
    originals = [getattr(owner, attr) for owner, attr in targets]
    tr = tracer.Tracer("t")
    try:
        tr.install()
        wrapped = [getattr(owner, attr) for owner, attr in targets]
    finally:
        tr.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    assert all(getattr(owner, attr) is o for (owner, attr), o in zip(targets, originals))


def test_tracer_hooks_read_a_driven_simulate_and_a_floquet_report(tmp_path):
    # each command in the root span, as bench/child.py runs it
    tracer = _tracer_module()
    commands = (
        ["simulate", "--preset", "four_level_degenerate_driven",
         "--set", "integration.t_final=2.0", "--out", str(tmp_path / "simulate")],
        ["floquet", "--preset", "three_level_v1", "--out", str(tmp_path / "floquet")],
    )
    tr = tracer.Tracer("t")
    run_s, codes = 0.0, []
    tr.install()
    try:
        for argv in commands:
            idx = tr.open_span()
            start = time.perf_counter()
            codes.append(cli.main(argv))
            run_s += time.perf_counter() - start
            tr.close_span(idx, tracer.ROOT, codes[-1] != 0)
    finally:
        tr.uninstall()
    assert codes == [0, 0]
    metrics = tr.metrics(run_s)
    for name in ("scenarios.records", "floquet.samples_bytes", "generators.superop_bytes",
                 "floquet.fidelity_min"):
        assert metrics[name] > 0, name
