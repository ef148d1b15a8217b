"""Central numerical tolerance configuration.

Every structural check in the package (Hermiticity, unitarity, trace
normalization, positivity, ...) reads its default threshold from the
module-level :data:`TOLERANCES` singleton, so a single override point
exists for studies that need looser thresholds (e.g. Redfield positivity
checks).  The singleton is mutated in place so that modules holding a
reference always see the active values.
"""

from contextlib import contextmanager
from dataclasses import dataclass, fields


@dataclass
class ToleranceConfig:
    hermitian: float = 1e-10
    unitary: float = 1e-8
    trace: float = 1e-10
    trace_drift: float = 1e-6
    redfield_positivity: float = -1e-3
    gap_cluster: float = 1e-4
    fourier_floor: float = 1e-3
    quadrature_rel: float = 1e-6
    propagator_halving_gap: float = 1e-5

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def restore(self, values: dict) -> None:
        for name, value in values.items():
            setattr(self, name, value)


TOLERANCES = ToleranceConfig()


def set_tolerances(**overrides) -> ToleranceConfig:
    """Update fields of the global tolerance configuration in place."""
    for name, value in overrides.items():
        if not hasattr(TOLERANCES, name):
            raise AttributeError(f"unknown tolerance field {name!r}")
        setattr(TOLERANCES, name, value)
    return TOLERANCES


@contextmanager
def tolerance_overrides(**overrides):
    """Temporarily override tolerance fields within a ``with`` block."""
    saved = TOLERANCES.snapshot()
    set_tolerances(**overrides)
    try:
        yield TOLERANCES
    finally:
        TOLERANCES.restore(saved)
