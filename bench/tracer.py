"""Spans around the calls into each floqdyn module, for the traced run only.

Each public name is patched where its caller looks it up (``cli`` imports
``evolve`` by name, so ``floqdyn.cli.evolve`` is the name to wrap).  A span
is ``(name, start, end, parent, run_id, raised)``; spans stay in memory and
are written out when the run ends.  ``Generator.superop_at`` runs ~10^5 times
per trajectory, so it is counted and timed in aggregate instead of spanned;
its time still counts as child time of the span that called it.

The span name's prefix is the module (layer) the call goes into.  A span's
self time is its duration minus its children's.
"""

import functools
import json
import time
from collections import defaultdict

import numpy as np

from floqdyn import baths, cli, floquet, generators, operators, scenarios

ROOT = "cli.main"

#: (owner, attribute, span name): owner is the module or class whose
#: attribute the caller reads at call time.
SPANS = (
    (cli, "load_config", "cli.load_config"),
    (cli, "apply_overrides", "cli.apply_overrides"),
    (cli, "canonical_run_dict", "cli.canonical_run_dict"),
    (cli, "validate_schema", "cli.validate_schema"),
    (cli, "write_csv", "cli.write_csv"),
    (cli, "write_json", "cli.write_json"),
    (cli, "decompose_scenario", "scenarios.decompose_scenario"),
    (cli, "build_generator", "scenarios.build_generator"),
    (cli, "evolve", "scenarios.evolve"),
    (cli, "efficiency", "scenarios.efficiency"),
    (cli, "trajectory_diagnostics", "scenarios.trajectory_diagnostics"),
    (cli, "benchmark_fidelities", "floquet.benchmark_fidelities"),
    (scenarios, "decompose_scenario", "scenarios.decompose_scenario"),
    (scenarios, "build_generator", "scenarios.build_generator"),
    (scenarios, "floquet_decompose", "floquet.floquet_decompose"),
    (scenarios, "lindblad_generator", "generators.lindblad_generator"),
    (scenarios, "floquet_lindblad_generator", "generators.floquet_lindblad_generator"),
    (scenarios, "redfield_generator", "generators.redfield_generator"),
    (scenarios, "floquet_redfield_generator", "generators.floquet_redfield_generator"),
    (generators, "gamma_xi_ohmic", "baths.gamma_xi_ohmic"),
    (generators, "redfield_coefficients", "baths.redfield_coefficients"),
    (generators, "fourier_operator_coefficients", "floquet.fourier_operator_coefficients"),
    (generators, "jump_operator_table", "floquet.jump_operator_table"),
    (generators, "hermitian_eigensystem", "operators.hermitian_eigensystem"),
    (baths, "pv_quadrature", "baths.pv_quadrature"),
    (floquet, "magnus_bch_propagator", "floquet.magnus_bch_propagator"),
    (floquet, "hermitian_eigensystem", "operators.hermitian_eigensystem"),
    (floquet, "principal_unitary_log", "operators.principal_unitary_log"),
    (floquet, "unitary_fidelity", "operators.unitary_fidelity"),
    (floquet.FloquetDecomposition, "propagator_at", "floquet.propagator_at"),
    (operators, "hermitian_eigensystem", "operators.hermitian_eigensystem"),
)
AGGREGATES = (
    (generators.Generator, "superop_at", "generators.superop_at"),
)

CONFIG_SPANS = ("cli.load_config", "cli.apply_overrides", "cli.canonical_run_dict",
                "cli.validate_schema")
WRITE_SPANS = ("cli.write_csv", "cli.write_json")
BUILDER_SPANS = ("generators.lindblad_generator", "generators.floquet_lindblad_generator",
                 "generators.redfield_generator", "generators.floquet_redfield_generator")
COEFF_SPANS = ("baths.gamma_xi_ohmic", "baths.redfield_coefficients")
LAYERS = ("cli", "scenarios", "generators", "baths", "floquet", "operators")


class Tracer:
    """Patches the floqdyn names in SPANS/AGGREGATES and records the calls."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []            # (name, start, end, parent, run_id, raised)
        self.inner = []            # per span: time covered by its children
        self.stack = []
        self.aggregate = {name: [0, 0.0] for _, _, name in AGGREGATES}
        self.counters = defaultdict(int)
        self.coeff_keys = set()
        self.evolve_calls = []     # (t_final requested, t_final reached)
        self._originals = []

    # -- patching ----------------------------------------------------------

    def install(self):
        for owner, attr, name in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        for owner, attr, name in AGGREGATES:
            self._patch(owner, attr, self._aggregated(name, getattr(owner, attr)))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner, attr, wrapper):
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        hook = getattr(self, "_on_" + name.split(".", 1)[1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open_span()
            raised = True
            superop_calls = self.aggregate["generators.superop_at"][0]
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self.close_span(idx, name, raised)
            if hook is not None:
                hook(result, args, kwargs, superop_calls)
            return result

        return wrapper

    def _aggregated(self, name, fn):
        totals = self.aggregate[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                totals[0] += 1
                totals[1] += dur
                if self.stack:
                    self.inner[self.stack[-1]] += dur

        return wrapper

    def open_span(self) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append((None, time.perf_counter(), None, parent, self.run_id, None))
        self.inner.append(0.0)
        self.stack.append(idx)
        return idx

    def close_span(self, idx: int, name: str, raised: bool):
        end = time.perf_counter()
        self.stack.pop()
        _, start, _, parent, run_id, _ = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, run_id, raised)
        if parent >= 0:
            self.inner[parent] += end - start

    # -- result hooks (counts measured at the same boundaries) --------------

    def _on_write_csv(self, result, args, kwargs, _):
        self.counters["out_bytes"] += args[0].stat().st_size

    _on_write_json = _on_write_csv

    def _on_evolve(self, traj, args, kwargs, superop_before):
        requested = kwargs.get("t_final", args[1] if len(args) > 1 else None)
        self.evolve_calls.append((float(requested), float(traj.times[-1])))
        self.counters["records"] += len(traj.times)
        self.counters["record_bytes"] += traj.states.nbytes
        # the time-dependent RK4 loop reads the generator 3 times per step,
        # plus once for the stability guard
        calls = self.aggregate["generators.superop_at"][0] - superop_before
        self.counters["rk4_steps"] += max(0, calls - 1) // 3

    def _on_floquet_decompose(self, decomp, args, kwargs, _):
        self.counters["samples_bytes"] += decomp.p_samples.nbytes + decomp.u_samples.nbytes

    def _on_builder(self, gen, args, kwargs, _):
        sop = gen.superop if gen.superop is not None else gen.superop_samples
        self.counters["superop_bytes"] += sop.nbytes

    _on_lindblad_generator = _on_floquet_lindblad_generator = _on_builder
    _on_redfield_generator = _on_floquet_redfield_generator = _on_builder

    def _on_gamma_xi_ohmic(self, result, args, kwargs, _):
        spec, beta, x, params = args
        self.coeff_keys.add(("xi", spec, float(beta), float(x), params))

    def _on_redfield_coefficients(self, result, args, kwargs, _):
        x, beta, params = args
        self.coeff_keys.add(("c1", float(x), float(beta), params))

    def _on_benchmark_fidelities(self, report, args, kwargs, _):
        low = float(np.min(report.fidelity_propagator))
        prev = self.counters.get("fidelity_min")
        self.counters["fidelity_min"] = low if prev is None else min(prev, low)

    # -- results ------------------------------------------------------------

    def self_times(self) -> list:
        return [s[2] - s[1] - inner for s, inner in zip(self.spans, self.inner)]

    def _outer_time(self, names) -> float:
        """Time in spans of ``names`` not nested inside another of them."""
        names = set(names)
        total = 0.0
        for name, start, end, parent, _, _ in self.spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][3]
            if p < 0:
                total += end - start
        return total

    def _count(self, names) -> int:
        names = {names} if isinstance(names, str) else set(names)
        return sum(1 for s in self.spans if s[0] in names)

    def metrics(self, run_s: float) -> dict:
        """Per-layer metrics of one traced repetition whose timed part took run_s."""
        selfs = self.self_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        evolve_self = assemble_self = root_self = 0.0
        for span, st in zip(self.spans, selfs):
            name = span[0]
            if name == ROOT:
                root_self += st
            layer_self[name.split(".", 1)[0]] += st
            if name == "scenarios.evolve":
                evolve_self += st
            elif name in BUILDER_SPANS:
                assemble_self += st
        superop_calls, superop_s = self.aggregate["generators.superop_at"]
        layer_self["generators"] += superop_s
        accounted = sum(layer_self.values()) - root_self
        evolve_s = self._outer_time(("scenarios.evolve",))
        coeff_calls = self._count(COEFF_SPANS)
        c = self.counters
        m = {
            "cli.config_s": self._outer_time(CONFIG_SPANS),
            "cli.write_s": self._outer_time(WRITE_SPANS),
            "cli.out_bytes": c["out_bytes"],
            "cli.points": len(self.evolve_calls) + self._raised("scenarios.evolve"),
            "cli.points_ok": len(self.evolve_calls),
            "scenarios.decompose_s": self._outer_time(("scenarios.decompose_scenario",)),
            "scenarios.build_s": self._outer_time(("scenarios.build_generator",)),
            "scenarios.evolve_s": evolve_s,
            "scenarios.evolve_self_s": evolve_self,
            "scenarios.records": c["records"],
            "scenarios.rk4_steps": c["rk4_steps"],
            "scenarios.sim_units_per_s": (sum(t for _, t in self.evolve_calls) / evolve_s
                                          if evolve_s > 0 else 0.0),
            "scenarios.record_bytes": c["record_bytes"],
            "scenarios.efficiency_s": self._outer_time(("scenarios.efficiency",)),
            "scenarios.t_final_gap": max((abs(req - got) for req, got in self.evolve_calls),
                                         default=0.0),
            "generators.assemble_s": self._outer_time(BUILDER_SPANS),
            "generators.assemble_self_s": assemble_self,
            "generators.superop_at_calls": superop_calls,
            "generators.superop_at_s": superop_s,
            "generators.superop_bytes": c["superop_bytes"],
            "baths.coeff_calls": coeff_calls,
            "baths.coeff_distinct": len(self.coeff_keys),
            "baths.reuse_ratio": 1.0 - len(self.coeff_keys) / coeff_calls if coeff_calls else 0.0,
            "baths.coeff_s": self._outer_time(COEFF_SPANS),
            "baths.pv_calls": self._count("baths.pv_quadrature"),
            "baths.pv_s": self._outer_time(("baths.pv_quadrature",)),
            "floquet.decompose_s": self._outer_time(("floquet.floquet_decompose",)),
            "floquet.fourier_calls": self._count("floquet.fourier_operator_coefficients"),
            "floquet.fourier_s": self._outer_time(("floquet.fourier_operator_coefficients",)),
            "floquet.jump_table_s": self._outer_time(("floquet.jump_operator_table",)),
            "floquet.fidelity_s": self._outer_time(("floquet.benchmark_fidelities",)),
            "floquet.fidelity_min": c.get("fidelity_min", 0.0),
            "floquet.magnus_calls": self._count("floquet.magnus_bch_propagator"),
            "floquet.magnus_s": self._outer_time(("floquet.magnus_bch_propagator",)),
            "floquet.propagator_calls": self._count("floquet.propagator_at"),
            "floquet.propagator_s": self._outer_time(("floquet.propagator_at",)),
            "floquet.samples_bytes": c["samples_bytes"],
            "operators.eig_calls": self._count("operators.hermitian_eigensystem"),
            "operators.log_calls": self._count("operators.principal_unitary_log"),
            "operators.fidelity_calls": self._count("operators.unitary_fidelity"),
            "trace.spans": len(self.spans),
            "trace.accounted_s": accounted,
            "trace.remainder_s": run_s - accounted,
            "trace.accounted_frac": accounted / run_s if run_s > 0 else 0.0,
        }
        for layer, st in layer_self.items():
            m[f"{layer}.self_s"] = st
        return m

    def _raised(self, name) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[5])

    def write(self, path):
        """Write every span (one JSON list per line) and the aggregates."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "run_id",
                                            "raised"],
                                 "aggregates": self.aggregate}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
