"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: ``python3 bench/child.py SPEC.json`` where the spec (written by
``run.py``) holds the checkout root, the CLI commands, whether to trace,
and where to write the report.  Set-up ends when ``floqdyn.cli`` is imported;
the timed part is the CLI commands, run in this process through
``floqdyn.cli.main``.  Everything measured goes into the report file.

A fixed calibration loop runs before the first command and after each
command.  Its time tracks the host's speed at that moment (on a shared host
it drifts by tens of percent within seconds to minutes), so ``run.py`` can
scale the measured times to a reference speed.
"""

import json
import os
import resource
import sys
import time
import traceback

CALIBRATION_ITERATIONS = 18000


def run_cli(cli, argv):
    """Exit code of one CLI command, as the console script would return it."""
    try:
        return cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception:  # an uncaught error is exit 1 for a CLI user
        return 1, traceback.format_exc(limit=3)


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from floqdyn import cli
    ready = time.monotonic()
    report = {"ready": ready, "floqdyn_file": cli.__file__}
    if spec["commands"]:
        report.update(run_commands(cli, spec))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["versions"] = versions()
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)


def calibrate():
    """Time a fixed mix of the work floqdyn does: small complex products and
    eigensystems in a Python loop, vectorized special functions, float
    formatting."""
    import numpy as np

    start = time.monotonic()
    rng = np.random.default_rng(12345)
    a = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / 16
    h = a + a.conj().T
    v = np.full(16, 0.25, dtype=complex)
    x = np.linspace(0.01, 50.0, 4096)
    acc = 0.0
    for k in range(CALIBRATION_ITERATIONS):
        v = v + 0.01 * ((0.7 * a + 0.3 * h) @ v)
        v = v / np.linalg.norm(v)
        if k % 10 == 0:
            np.linalg.eigh(h)
        if k % 50 == 0:
            acc += float(np.sum(x**3 / np.expm1(x)))
        acc += float("%.17g" % v[0].real)
    return time.monotonic() - start


def run_commands(cli, spec):
    calibration = [calibrate()]
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import ROOT, Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    codes, errors, command_s = [], [], []
    for argv in spec["commands"]:
        if tracer is not None:
            idx = tracer.open_span()
        start = time.monotonic()
        rc, err = run_cli(cli, argv)
        command_s.append(time.monotonic() - start)
        if tracer is not None:
            tracer.close_span(idx, ROOT, rc != 0)
        codes.append(rc)
        errors.append(err)
        calibration.append(calibrate())
    run_s = sum(command_s)
    out = {"run_s": run_s, "command_s": command_s, "calibration_s": calibration,
           "codes": codes, "errors": errors}
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.metrics(run_s)
        tracer.write(spec["spans"])
    if spec.get("probe"):
        t0 = time.monotonic()
        out["probe_code"], out["probe_error"] = run_cli(cli, spec["probe"])
        out["probe_s"] = time.monotonic() - t0
    return out


def versions():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    main(sys.argv[1])
