"""Central numerical tolerance configuration.

Every structural check in the package (Hermiticity, unitarity, trace
normalization, positivity, ...) reads its default threshold from the
module-level :data:`TOLERANCES` singleton.  Studies that need other
thresholds (e.g. looser Redfield positivity checks) assign its attributes,
or override them within a ``with`` block by :func:`tolerance_overrides`.
The singleton is mutated in place so that modules holding a reference
always see the active values.
"""

from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class ToleranceConfig:
    hermitian: float = 1e-10
    unitary: float = 1e-6
    trace_drift: float = 1e-6
    redfield_positivity: float = -1e-3
    gap_cluster: float = 1e-4
    fourier_floor: float = 1e-3
    quadrature_rel: float = 1e-6
    propagator_halving_gap: float = 1e-5


TOLERANCES = ToleranceConfig()


@contextmanager
def tolerance_overrides(**overrides):
    """Temporarily override tolerance fields within a ``with`` block; an
    unknown name raises ``AttributeError`` before any field is set."""
    saved = asdict(TOLERANCES)
    unknown = sorted(overrides.keys() - saved.keys())
    if unknown:
        raise AttributeError(f"unknown tolerance fields {unknown}")
    try:
        for name, value in overrides.items():
            setattr(TOLERANCES, name, value)
        yield TOLERANCES
    finally:
        for name, value in saved.items():
            setattr(TOLERANCES, name, value)
