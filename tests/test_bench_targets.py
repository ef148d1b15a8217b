"""The names the benchmark's tracer patches, checked where the tests run.

``bench/tracer.py`` wraps floqdyn functions and methods by name when it is
installed.  A change that removes or renames one of them breaks only the
benchmark, so this installs the tracer, checks every target was wrapped,
and checks that uninstalling puts every original back.
"""

import sys
from pathlib import Path

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


def test_tracer_installs_and_restores_every_patched_name():
    sys.path.insert(0, BENCH)
    try:
        import tracer
    finally:
        sys.path.remove(BENCH)
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
