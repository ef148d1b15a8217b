"""Dense complex-matrix semantics for operators on a few-level Hilbert space.

Operators are plain ``numpy`` complex arrays; this module supplies the
validated algebra the rest of the package relies on: Hermitian matrix
exponentials, the principal logarithm of a unitary, eigensystems, and the
trace fidelity between unitaries.  Everything works in natural units
(hbar = c = k_B = epsilon_0 = 1) and targets dimensions of order d <= 8,
where exact eigendecomposition-based matrix functions are both simplest
and most accurate.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ValidationError
from .tolerances import TOLERANCES


def _as_operators(m) -> np.ndarray:
    """Coerce to square complex matrices with finite entries, shape (..., d, d)."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError("operator has non-finite entries")
    return a


def as_operator(m) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"operator must be square, got shape {a.shape}")
    return _as_operators(a)


def hermiticity_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def unitarity_defect(m: np.ndarray) -> float:
    """Largest entry of |m† m - 1|, over every matrix of a stack (..., d, d)."""
    d = m.shape[-1]
    return float(np.max(np.abs(m.conj().swapaxes(-1, -2) @ m - np.eye(d))))


def require_hermitian(m, tol: float | None = None) -> np.ndarray:
    a = as_operator(m)
    tol = TOLERANCES.hermitian if tol is None else tol
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValidationError(f"matrix not Hermitian: defect {defect:.3e} > {tol:.1e}")
    return a


def require_unitary(m, tol: float | None = None) -> np.ndarray:
    return _checked_unitary(as_operator(m), tol)


def _checked_unitary(a: np.ndarray, tol: float | None) -> np.ndarray:
    tol = TOLERANCES.unitary if tol is None else tol
    defect = unitarity_defect(a)
    if defect > tol:
        raise ValidationError(f"matrix not unitary: defect {defect:.3e} > {tol:.1e}")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    ``energies`` are ascending; column ``k`` of ``vectors`` is the
    eigenvector of ``energies[k]``.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.energies)


def hermitian_eigensystem(h, tol: float | None = None) -> Spectrum:
    """Ascending eigensystem of a Hermitian matrix.

    Raises :class:`ValidationError` when the input is not Hermitian within
    tolerance; ``numpy.linalg.eigh`` (LAPACK) returns a reconstruction
    ``V diag(w) V†`` that matches the input to rounding at these dimensions.
    """
    a = require_hermitian(h, tol)
    w, v = np.linalg.eigh(a)
    return Spectrum(energies=w, vectors=v)


def unitary_from_hermitian(h, t: float) -> np.ndarray:
    """exp(-i*h*t) for Hermitian ``h``, via eigendecomposition."""
    spec = hermitian_eigensystem(h)
    phases = np.exp(-1j * spec.energies * t)
    return (spec.vectors * phases) @ spec.vectors.conj().T


def principal_unitary_log(u, tol: float | None = None) -> np.ndarray:
    """Hermitian K with ``u = exp(-i K)`` and eigenphases of ``u`` in (-pi, pi].

    Uses the complex Schur form (diagonal for a normal matrix) and applies the
    principal branch to the unimodular eigenvalues.  Branch unfolding beyond
    the principal strip is deliberately out of scope here; the Floquet engine
    owns that.
    """
    a = require_unitary(u, tol)
    t, z = scipy.linalg.schur(a, output="complex")
    # u = exp(i*phi) with phi in (-pi, pi]  =>  K eigenvalue is -phi
    k = (z * (-np.angle(np.diag(t)))) @ z.conj().T
    return 0.5 * (k + k.conj().T)


def unitary_fidelity(u, v, tol: float | None = None):
    """(1/d) |Tr[u v†]| for two unitaries of equal dimension.

    Two stacks of shape (..., d, d) give the array of pairwise fidelities;
    every matrix in them is checked unitary like a single one.
    """
    a = _checked_unitary(_as_operators(u), tol)
    b = _checked_unitary(_as_operators(v), tol)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    f = np.abs(np.einsum("...ab,...ab->...", a, b.conj())) / a.shape[-1]
    return float(f) if f.ndim == 0 else f


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one Hermitian state of the system.

    Hermiticity and normalization are enforced at construction; positivity is
    a soft check because Redfield-type dynamics may transiently violate it.
    Violations are surfaced through ``min_eigenvalue``, not as errors.
    """

    matrix: np.ndarray = field()

    def __post_init__(self):
        a = as_operator(self.matrix)
        if hermiticity_defect(a) > TOLERANCES.hermitian:
            raise ValidationError("density matrix not Hermitian")
        tr = np.trace(a)
        if abs(tr.real - 1.0) > TOLERANCES.trace or abs(tr.imag) > TOLERANCES.trace:
            raise ValidationError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "matrix", a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return np.diag(self.matrix).real

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])

    @classmethod
    def pure(cls, dim: int, level: int) -> "DensityMatrix":
        m = np.zeros((dim, dim), dtype=complex)
        m[level, level] = 1.0
        return cls(m)

    @classmethod
    def gibbs(cls, h, beta: float) -> "DensityMatrix":
        spec = hermitian_eigensystem(h)
        w = np.exp(-beta * (spec.energies - spec.energies.min()))
        w /= w.sum()
        return cls((spec.vectors * w) @ spec.vectors.conj().T)


def trace_distance(a, b) -> float | np.ndarray:
    """(1/2) * trace norm of (a - b) for Hermitian matrices: a float for two
    matrices, an array of one distance per matrix for (n, d, d) stacks."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    herm = 0.5 * (diff + diff.conj().swapaxes(-1, -2))
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(herm)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist
