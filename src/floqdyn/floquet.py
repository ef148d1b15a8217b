"""Floquet machinery for periodically driven few-level systems.

Given a time-periodic Hamiltonian H(t) = H(t + tau), the propagator factors
as U(t,0) = P(t,0) exp(-i*Hbar*t) with Hbar Hermitian (the Floquet
Hamiltonian) and P unitary, tau-periodic, P(0,0) = 1.  This module computes:

* the monodromy U(tau,0) by fourth-order Magnus steps (the sampler of
  :mod:`floqdyn.propagation`: the steps of one period in one array call,
  then one product per sample), on a grid doubled until the period agrees
  with the one at half as many steps, and Hbar by the principal matrix
  logarithm, each quasienergy moved by a multiple of Omega to within
  Omega/2 of the bare energy of the undriven level its eigenvector
  overlaps most, so Hbar is continuous in the drive amplitude;
* the periodic operator P(t,0), sampled on the grid and one Magnus step
  from a grid node between samples, and the Fourier coefficients S(q) of
  P†(t) S P(t) for any system operator S;
* the jump-operator table S(q, omega) resolved on quasienergy gaps;
* a Magnus + Baker-Campbell-Hausdorff approximation of the propagator for
  a single cosine-driven level pair (the nested integrals exact, from
  exponentials of small bidiagonal matrices, stepped along a uniform time
  grid), and the fidelity benchmarks comparing it against the integrated
  propagator in array calls over that grid.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from numpy.fft import fft

from .errors import NumericalError, ResolutionError, StepSizeError, ValidationError, warn
from .operators import (
    Spectrum,
    expm,
    hermitian_eigensystem,
    principal_unitary_log,
    require_hermitian,
    unitarity_defect,
    unitary_fidelity,
)
from .propagation import magnus_samples, magnus_steps
from .tolerances import TOLERANCES


@dataclass(frozen=True)
class DriveSpec:
    """Monochromatic cosine drive mu*cos(Omega*t) coupling one level pair."""

    mu: float
    omega_drive: float
    pair: tuple[int, int]

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValidationError(f"drive amplitude must be finite and >= 0, got {self.mu}")
        if not (math.isfinite(self.omega_drive) and self.omega_drive > 0):
            raise ValidationError(f"drive frequency must be finite and > 0, got {self.omega_drive}")
        if self.pair[0] == self.pair[1]:
            raise ValidationError("drive must couple two distinct levels")
        object.__setattr__(self, "pair", tuple(self.pair))

    @property
    def tau(self) -> float:
        return 2.0 * np.pi / self.omega_drive

    def coupling_matrix(self, dim: int) -> np.ndarray:
        i, j = self.pair
        m = np.zeros((dim, dim), dtype=complex)
        m[i, j] = m[j, i] = 1.0
        return m


def drive_hamiltonian(h0, drive: DriveSpec | None):
    """Callable t -> H(t) = h0 + mu*cos(Omega*t)*(|i><j| + |j><i|).

    An array of times gives the stacked Hamiltonians, shape t.shape + (d, d).
    """
    h0 = require_hermitian(h0)
    if drive is None or drive.mu == 0:
        return lambda t: h0
    x = drive.coupling_matrix(h0.shape[0])

    def h(t):
        c = drive.mu * np.cos(drive.omega_drive * np.asarray(t, dtype=float))
        return h0 + c[..., None, None] * x

    return h


# ---------------------------------------------------------------------------
# propagator integration


REFINEMENTS = 4  # most times _checked_samples doubles its starting step count


def _checked_samples(h_of_t, t0: float, t1: float, steps: int) -> np.ndarray:
    """U(t0 + k*(t1 - t0)/n, t0) for k = 0..n, one Magnus step per interval, n doubled
    from ``steps`` until the end agrees with the span at n/2 steps (two half steps for
    one step) within the halving-gap tolerance: the step is fourth order, so the end's
    error is about gap/15 (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009))."""
    coarse = magnus_samples(h_of_t, t0, t1, steps // 2 or 2)[-1]
    for n in (steps << k for k in range(REFINEMENTS + 1)):
        u = magnus_samples(h_of_t, t0, t1, n)
        gap = float(np.max(np.abs(u[-1] - coarse)))
        if gap <= TOLERANCES.propagator_halving_gap:
            return u
        coarse = u[-1]
    raise StepSizeError(f"propagator changes by {gap:.2e} between {n} and {n // 2} "
                        f"steps, beyond {TOLERANCES.propagator_halving_gap:.0e}")


def propagate_schrodinger(h_of_t, t0: float, t1: float, steps: int) -> np.ndarray:
    """U(t1, t0) by fourth-order Magnus steps, doubled from ``steps`` as
    ``_checked_samples`` needs; deterministic for fixed inputs.  ``h_of_t`` takes
    1-D arrays of times and returns the stacked Hamiltonians, or one matrix."""
    return _checked_samples(h_of_t, t0, t1, steps)[-1]


# ---------------------------------------------------------------------------
# Floquet decomposition


@dataclass(frozen=True)
class FloquetDecomposition:
    """Floquet Hamiltonian, quasienergies, and the sampled periodic operator.

    ``p_samples[k]`` is P(t_k, 0) on the uniform grid t_k = k*tau/m,
    k = 0..m (both endpoints; P at k = m equals the identity up to
    integration error).  ``u_samples`` keeps the propagator on the same
    grid, and ``hamiltonian`` the callable H(t) it was integrated from.
    """

    hbar_floquet: np.ndarray
    quasi: Spectrum
    p_samples: np.ndarray
    tau: float
    u_samples: np.ndarray = field(repr=False)
    hamiltonian: Callable = field(repr=False)

    @property
    def grid_m(self) -> int:
        return self.p_samples.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.hbar_floquet.shape[0]

    @property
    def omega_drive(self) -> float:
        return 2.0 * np.pi / self.tau

    def p_at(self, t) -> np.ndarray:
        """P(t mod tau): the sample on the grid, one Magnus step from the node below off it.

        Off the grid, P(t) = U(t, t_k) P_k exp(i Hbar (t - t_k)) with
        U(t, t_k) one fourth-order Magnus step of ``hamiltonian`` from the
        node t_k below t: unitary by construction, so mapping frame states
        back, rho = P rho~ P†, preserves the trace exactly even between
        samples, and as accurate as the samples.  An array of times gives
        the stack, shape t.shape + (d, d): grid times are gathered in one
        indexing step, and the steps of the off-grid times taken in one
        array call.
        """
        t = np.asarray(t, dtype=float)
        m = self.grid_m
        pos = (t.ravel() / self.tau) * m
        k = np.floor(pos)
        frac = pos - k
        slack = 1e-13 * np.maximum(1.0, np.abs(pos))
        off = np.flatnonzero((np.abs(frac) >= slack) & (1 - frac >= slack))
        out = self.p_samples[np.rint(pos).astype(np.int64) % m]
        if off.size:
            node = k[off].astype(np.int64) % m
            h = frac[off] * (self.tau / m)
            v = self.quasi.vectors
            phases = np.exp(1j * self.quasi.energies * h[:, None])
            out[off] = (magnus_steps(self.hamiltonian, node * (self.tau / m), h)
                        @ self.p_samples[node] @ ((v * phases[:, None, :]) @ v.conj().T))
        return out.reshape(t.shape + out.shape[1:])

    def propagator_at(self, t) -> np.ndarray:
        """U(t,0) = P(t mod tau) exp(-i*Hbar*t); an array of times gives the stack."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(-1j * self.quasi.energies * t[..., None])
        v = self.quasi.vectors
        return self.p_at(t) @ ((v * phases[..., None, :]) @ v.conj().T)


def _unfold_quasienergies(h_principal: np.ndarray, reference: np.ndarray,
                          omega: float) -> np.ndarray:
    """Shift each quasienergy by the multiple of omega that brings it within
    omega/2 of the bare energy of the reference level its eigenvector
    overlaps most (the argmax of its column of |V_r† V_p|^2)."""
    spec_p = hermitian_eigensystem(h_principal)
    spec_r = hermitian_eigensystem(reference)
    overlap = np.abs(spec_r.vectors.conj().T @ spec_p.vectors) ** 2
    level = np.argmax(overlap, axis=0)
    turns = (spec_r.energies[level] - spec_p.energies) / omega
    n = np.round(turns)
    tied = np.abs(np.abs(turns - n) - 0.5) < 1e-6
    if np.any(tied):
        p = int(np.argmax(tied))
        raise NumericalError(f"ambiguous branch unfolding for reference level {level[p]} "
                             f"(quasienergy {spec_p.energies[p]:.6f}): both adjacent "
                             "branches are equidistant")
    energies = spec_p.energies + n * omega
    return (spec_p.vectors * energies) @ spec_p.vectors.conj().T


def floquet_decompose(h_of_t, tau: float, reference, grid_m: int,
                      unfold: bool = True) -> FloquetDecomposition:
    """Monodromy-based Floquet decomposition of a tau-periodic Hamiltonian.

    ``h_of_t`` is called with 1-D arrays of times and returns the stacked
    Hamiltonians (or one matrix when H is constant).  The propagator is
    sampled on a grid doubled from ``grid_m`` points per period (``_checked_samples``).
    ``reference`` is the undriven Hamiltonian used for branch unfolding;
    pass ``unfold=False`` to keep the principal branch (eigenphases of the
    monodromy in (-pi, pi]).
    """
    reference = require_hermitian(reference)
    u_samples = _checked_samples(h_of_t, 0.0, tau, grid_m)
    grid_m = len(u_samples) - 1
    u_tau = u_samples[-1]

    k_log = principal_unitary_log(u_tau)
    h_principal = k_log / tau
    omega = 2.0 * np.pi / tau
    h_bar = _unfold_quasienergies(h_principal, reference, omega) if unfold else h_principal
    # Hbar and P are zero where U is, between levels H(t) never connects; the
    # log leaves rounding there.  With each block's levels adjacent, eigh keeps
    # the blocks apart exactly, so decoupled coherences of every record stay 0.
    coupled = np.any(u_samples != 0, axis=0)
    h_bar = np.where(coupled, h_bar, 0.0)
    order = np.argsort(np.argmax(coupled, axis=1), kind="stable")
    quasi = hermitian_eigensystem(h_bar[np.ix_(order, order)])
    quasi = Spectrum(energies=quasi.energies, vectors=quasi.vectors[np.argsort(order)])

    ts = np.arange(grid_m + 1) * (tau / grid_m)
    phases = np.exp(1j * np.outer(ts, quasi.energies))  # exp(+i eps t)
    v = quasi.vectors
    rot = np.einsum("ab,tb,cb->tac", v, phases, v.conj())
    p_samples = u_samples @ rot

    worst = unitarity_defect(p_samples[::max(1, grid_m // 16)])
    if worst > 1e-7:
        raise NumericalError(f"periodic operator unitarity defect {worst:.2e}")
    return FloquetDecomposition(
        hbar_floquet=h_bar,
        quasi=quasi,
        p_samples=p_samples,
        tau=tau,
        u_samples=u_samples,
        hamiltonian=h_of_t,
    )


# ---------------------------------------------------------------------------
# Fourier operator coefficients and the jump table


def fourier_operator_coefficients(decomp: FloquetDecomposition, s,
                                  q_max: int) -> np.ndarray:
    """Harmonics S(q) of P†(t) S P(t) = sum_q S(q) exp(i*q*Omega*t), |q| <= q_max,
    of S or of each of a stack of operators: trapezoidal (DFT) coefficients of
    one contraction over the sample grid and one FFT, shape
    s.shape[:-2] + (2*q_max + 1, d, d) with S(q) at index q_max + q.  Entries
    with magnitude below ``TOLERANCES.fourier_floor`` are set to zero.
    """
    if q_max < 0:
        raise ValidationError("q_max must be >= 0")
    m = decomp.grid_m
    if m < 8 * max(q_max, 1):
        raise ResolutionError(
            f"grid of {m} samples/period is too coarse for q_max={q_max} "
            f"(need at least {8 * q_max})"
        )
    s = np.asarray(s, dtype=complex)
    p, d = decomp.p_samples[:m], decomp.dim
    # (t, a, k, d): sum_b P*_tba S_kbc, then times P_tcd over c
    rotated = (np.tensordot(p.conj(), s.reshape(-1, d, d), axes=(1, 1)).reshape(m, -1, d)
               @ p).reshape(m, d, -1, d)
    coeffs = fft(rotated, axis=0)[np.arange(-q_max, q_max + 1) % m].transpose(2, 0, 1, 3) / m
    coeffs[np.abs(coeffs) < TOLERANCES.fourier_floor] = 0.0
    return coeffs.reshape(s.shape[:-2] + coeffs.shape[1:])


@dataclass(frozen=True)
class JumpOperatorTable:
    """Operators S(q, omega) indexed by harmonic q and quasienergy gap omega.

    ``gaps`` is the clustered, sorted gap list.  Row e of the sorted ``keys``
    is the (q, gap index) of ``ops[e]``, led by the operator's index for a
    stack of operators.  All-zero projections are omitted.
    """

    gaps: np.ndarray
    keys: np.ndarray
    ops: np.ndarray


def cluster_gaps(energies: np.ndarray, gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """All pairwise energy differences merged into clusters of width gap_tol.

    Returns (sorted cluster means, matrix g[a,b] = cluster index of e_a - e_b).
    Ties merge to the cluster mean.
    """
    diffs = (energies[:, None] - energies[None, :]).ravel()
    order = np.argsort(diffs)
    new = np.diff(diffs[order], prepend=-np.inf) > gap_tol
    labels = np.empty(diffs.size, dtype=int)
    labels[order] = np.cumsum(new) - 1
    means = np.add.reduceat(diffs[order], np.flatnonzero(new)) / np.bincount(labels)
    return means, labels.reshape(len(energies), -1)


def jump_operator_table(harmonics: np.ndarray, quasi: Spectrum) -> JumpOperatorTable:
    """Resolve each S(q) of ``harmonics`` (S(q) at index q_max + q, or a stack
    of such arrays) onto quasienergy gaps, in one eigenbasis transform and one
    gather: S(q, omega) sums the |eps><eps| S(q) |eps'><eps'| blocks with
    eps - eps' in the omega cluster."""
    gaps, labels = cluster_gaps(quasi.energies, TOLERANCES.gap_cluster)
    v = quasi.vectors
    s_eig = v.conj().T @ np.asarray(harmonics) @ v
    nonzero = np.nonzero(s_eig)
    present = np.zeros(s_eig.shape[:-2] + gaps.shape, dtype=bool)
    present[nonzero[:-2] + (labels[nonzero[-2:]],)] = True
    keys = np.argwhere(present)
    blocks = np.where(labels == keys[:, -1, None, None], s_eig[tuple(keys[:, :-1].T)], 0.0)
    keys[:, -2] -= s_eig.shape[-3] // 2
    return JumpOperatorTable(gaps=gaps, keys=keys, ops=v @ blocks @ v.conj().T)


# ---------------------------------------------------------------------------
# Magnus + BCH approximate propagator

# BCH series for log(e^X e^Y): (coefficient, word); a word "XXY" denotes the
# right-nested commutator [X,[X,Y]].
_BCH_TERMS = (
    (1.0, "X"),
    (1.0, "Y"),
    (1.0 / 2.0, "XY"),
    (1.0 / 12.0, "XXY"),
    (1.0 / 12.0, "YYX"),
    (-1.0 / 24.0, "YXXY"),
    (-1.0 / 720.0, "YYYYX"),
    (-1.0 / 720.0, "XXXXY"),
    (1.0 / 360.0, "XYYYX"),
    (1.0 / 360.0, "YXXXY"),
    (1.0 / 120.0, "YXYXY"),
    (1.0 / 120.0, "XYXYX"),
)


def bch_compose(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Baker-Campbell-Hausdorff series for log(e^x e^y), through its fifth order."""
    ops = {"X": x, "Y": y}
    total = np.zeros_like(x)
    for coeff, word in _BCH_TERMS:
        acc = ops[word[-1]]
        for ch in word[-2::-1]:
            m = ops[ch]
            acc = m @ acc - acc @ m
        total = total + coeff * acc
    return total


def _drive_exponentials(omega_gap: float, omega_drive: float):
    """Exponents lambda_j and Pauli coefficient vectors c_j of the drive shape.

    The interaction-picture drive on the pair block is a(t) = sum_j c_j
    exp(i*lambda_j*t): a_x + i*a_y = cos(Omega*t) exp(-i*omega*t) =
    (exp(i(Omega-omega)t) + exp(-i(Omega+omega)t)) / 2, a_x - i*a_y is its
    conjugate, and a_z = 0.
    """
    lam = np.array([omega_drive - omega_gap, -(omega_drive + omega_gap),
                    omega_gap - omega_drive, omega_drive + omega_gap])
    coef = 0.25 * np.array([[1, -1j, 0], [1, -1j, 0], [1, 1j, 0], [1, 1j, 0]])
    return lam, coef


def _time_grid(t) -> tuple[np.ndarray, float, np.ndarray]:
    """(times, h, k) with times = k*h, k consecutive integers >= 0.

    ``t`` is a scalar, the one-step grid h = t, k = 1, or a 1-D array of
    equally spaced times on one grid k*h whose step h is their spacing.
    """
    try:
        times = np.atleast_1d(np.asarray(t, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"times must be real numbers: {exc}") from exc
    if times.ndim != 1 or times.size == 0 or not np.all(np.isfinite(times)):
        raise ValidationError("times must be a finite scalar or a non-empty 1-D array")
    if times.size == 1:
        return times, float(times[0]), np.ones(1, dtype=np.int64)
    h = float(times[1] - times[0])
    k = np.rint(times / h).astype(np.int64) if h != 0 else None
    if k is None or k[0] < 0 or np.any(np.diff(k) != 1) \
            or np.max(np.abs(times - k * h)) > 1e-9 * np.max(np.abs(times)):
        raise ValidationError("times must lie on one uniform grid k*h, k = k0, k0+1, ... >= 0")
    return times, h, k


def magnus_interaction_terms(drive: DriveSpec, omega_gap: float, t) -> list[np.ndarray]:
    """Pauli vectors of the first three Magnus integrals Lambda_1..Lambda_3(t).

    The interaction-picture drive of a single coupled pair lives in su(2),
    so nested commutators reduce to cross products of the drive vector
    a(t) = sum_j c_j exp(i*lambda_j*t), and every Lambda_n is a sum of
    iterated integrals of exponentials over ordered exponent tuples.  For
    a tuple (lambda_1, lambda_2, lambda_3), row 0 of exp(t*M) holds all of
    them at once, M the bidiagonal chain with ones above the diagonal and
    the cumulative sums 0, i*lambda_1, i*(lambda_1 + lambda_2), ... on it
    (Van Loan, IEEE TAC 23, 395 (1978)).  The integrals are exact up to
    rounding, with no node count to choose.

    ``t`` is a scalar, giving vectors of shape (3,), or a 1-D array of
    equally spaced times on one grid k*h, giving shape (len(t), 3): one
    batched exponential of h*M, then row 0 of exp(k*h*M) by one row-vector
    product per grid step.  A scalar is the one-step grid h = t.
    """
    _, h, ks = _time_grid(t)
    lam, coef = _drive_exponentials(omega_gap, drive.omega_drive)
    # coefficient tensors: Lambda_1 = int a, Lambda_2 = 1/2 int a1 x a2,
    # Lambda_3 = 1/6 int [a1 x (a2 x a3) + (a1 x a2) x a3], over t > s1 > s2 > s3
    c2 = np.cross(coef[:, None], coef[None, :])
    weights = (coef, 0.5 * c2,
               (np.cross(coef[:, None, None], c2[None]) + np.cross(c2[:, :, None], coef)) / 6.0)
    order = len(weights)

    tuples = np.array(list(product(range(len(lam)), repeat=order)))
    diag = np.concatenate([np.zeros((len(tuples), 1)),
                           np.cumsum(1j * lam[tuples], axis=1)], axis=1)
    chain = diag[:, :, None] * np.eye(order + 1) + np.eye(order + 1, k=1)
    step = expm(h * chain)
    rows = np.empty((ks[-1] + 1, len(tuples), order + 1), dtype=complex)
    rows[0] = np.eye(order + 1)[0]
    for k in range(1, ks[-1] + 1):
        rows[k] = (rows[k - 1][:, None, :] @ step)[:, 0]
    rows = rows[ks].reshape((len(ks),) + (len(lam),) * order + (order + 1,))

    out = []
    for n in range(1, order + 1):
        integrals = rows[(slice(None),) * (n + 1) + (0,) * (order - n) + (n,)]
        vec = np.tensordot(integrals, weights[n - 1], axes=n).real
        out.append(vec if np.ndim(t) else vec[0])
    return out


def _pair_paulis(dim: int, pair: tuple[int, int]):
    i, j = pair
    sx = np.zeros((dim, dim), dtype=complex)
    sy = np.zeros((dim, dim), dtype=complex)
    sz = np.zeros((dim, dim), dtype=complex)
    sx[i, j] = sx[j, i] = 1.0
    sy[i, j] = -1j
    sy[j, i] = 1j
    sz[i, i] = 1.0
    sz[j, j] = -1.0
    return sx, sy, sz


def magnus_bch_propagator(drive: DriveSpec, h0, t) -> np.ndarray:
    """Approximate U(t,0) = exp(E) with E = BCH(-i*t*h0, Magnus exponent).

    ``t`` is a scalar, giving one propagator, or a 1-D array of times on
    one uniform grid k*h (see :func:`magnus_interaction_terms`), giving
    the stack of shape (len(t), d, d).  ``h0`` must be diagonal in the
    level basis the drive pair refers to.  Emits one warning (never fails)
    when, at any of the times, the leading neglected BCH order is no longer
    small against the kept terms.
    """
    h0 = require_hermitian(h0)
    if np.max(np.abs(h0 - np.diag(np.diag(h0)))) > 1e-12:
        raise ValidationError("magnus_bch_propagator requires a diagonal h0")
    times, _, _ = _time_grid(t)
    energies = np.diag(h0).real
    i, j = drive.pair
    omega_gap = energies[i] - energies[j]

    theta = -1j * times[:, None, None] * h0
    lam = np.zeros_like(theta)
    if drive.mu > 0:
        paulis = np.array(_pair_paulis(h0.shape[0], drive.pair))
        vecs = magnus_interaction_terms(drive, omega_gap, times)
        for n, vec in enumerate(vecs, start=1):
            lam = lam + (-1j * drive.mu) ** n * np.tensordot(vec, paulis, axes=1)

    _warn_if_bch_strained(theta, lam)
    e = bch_compose(theta, lam)
    m = 0.5j * (e - e.conj().swapaxes(-1, -2))  # Hermitian generator: e = -i m up to rounding
    w, v = np.linalg.eigh(m)
    u = (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return u if np.ndim(t) else u[0]


def _warn_if_bch_strained(theta: np.ndarray, lam: np.ndarray):
    """One warning for a stack of BCH arguments, naming the strained times."""
    nt = np.linalg.norm(theta, 2, axis=(-2, -1))
    nl = np.linalg.norm(lam, 2, axis=(-2, -1))
    # crude size of the first neglected (6th) BCH order
    estimate = nt**4 * nl**2 / 1440.0
    strained = (estimate > 1.0) & (nl > 0)
    if np.any(strained):
        warn(
            f"BCH truncation strained at {np.count_nonzero(strained)} of "
            f"{strained.size} times: worst |Theta|={nt[strained].max():.2f}, "
            f"|Lambda|={nl[strained].max():.2e}, neglected-order estimate "
            f"{estimate[strained].max():.2e}; approximation error may grow",
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# fidelity benchmarks


@dataclass(frozen=True)
class BenchmarkReport:
    """Fidelity series for the Magnus+BCH propagator and P periodicity."""

    times: np.ndarray
    fidelity_propagator: np.ndarray
    fidelity_periodicity: np.ndarray
    fidelity_periodicity_magnus: np.ndarray


#: Points of the fidelity benchmark's grid on [0, tau], both ends included.
BENCHMARK_GRID_POINTS = 65


def benchmark_fidelities(drive: DriveSpec, h0, decomp: FloquetDecomposition) -> BenchmarkReport:
    """Fidelities F[U_approx(t), U(t)] on [0, tau] and the periodicity
    fidelity F[P(t,0), P(t+tau,tau)] over two periods of data, on
    ``BENCHMARK_GRID_POINTS`` times per period.

    The reference U(t) is the decomposition's :meth:`propagator_at`.  The
    periodicity check is reported both for the reference propagator's P
    and for the Magnus-only P (the latter probes the approximation, the
    former the decomposition itself).  Every series is computed in array
    calls over the two-period grid.
    """
    h0 = require_hermitian(h0)
    tau = decomp.tau
    n = BENCHMARK_GRID_POINTS - 1
    times = np.arange(2 * n + 1) * (tau / n)
    u_two = decomp.propagator_at(times)
    ts = times[:n + 1]
    u_app = magnus_bch_propagator(drive, h0, times)
    h_app = principal_unitary_log(u_app[n]) / tau

    def periodicity(u, spec):
        # F[P(t,0), P(t+tau,tau)] with P(t,0) = U(t,0) exp(i*H*t)
        x = (spec.vectors * np.exp(1j * spec.energies * ts[:, None])[:, None, :]) \
            @ spec.vectors.conj().T
        return unitary_fidelity(u[:n + 1] @ x, u[n:] @ u[n].conj().T @ x)

    return BenchmarkReport(
        times=ts,
        fidelity_propagator=unitary_fidelity(u_app[:n + 1], u_two[:n + 1]),
        fidelity_periodicity=periodicity(u_two, decomp.quasi),
        fidelity_periodicity_magnus=periodicity(u_app, hermitian_eigensystem(h_app)),
    )
