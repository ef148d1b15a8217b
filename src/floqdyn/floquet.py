"""Floquet machinery for periodically driven few-level systems.

Given a time-periodic Hamiltonian H(t) = H(t + tau), the propagator factors
as U(t,0) = P(t,0) exp(-i*Hbar*t) with Hbar Hermitian (the Floquet
Hamiltonian) and P unitary, tau-periodic, P(0,0) = 1.  This module computes:

* the monodromy U(tau,0) by sixth-order Magnus steps (the sampler of
  :mod:`floqdyn.propagation`: the steps of one period in one array call,
  then their prefix products by a log-depth scan), on a grid doubled
  until the period agrees with the one at half as many steps, and Hbar by
  the principal matrix logarithm, each quasienergy moved by a multiple of
  Omega to within Omega/2 of the bare energy of the undriven level its
  eigenvector overlaps most, so Hbar is continuous in the drive amplitude;
* the periodic operator P(t,0), sampled on the grid and one Magnus step
  from a grid node between samples, and the Fourier coefficients S(q) of
  P†(t) S P(t) for any system operator S;
* the jump-operator table S(q, omega) resolved on quasienergy gaps;
* a Magnus + Baker-Campbell-Hausdorff approximation of the propagator for
  a single cosine-driven level pair (the nested integrals exact, from
  exponentials of small bidiagonal matrices, their powers along a uniform
  time grid by doubling), and the fidelity benchmarks comparing it against
  the integrated propagator in array calls over that grid.
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
    any_over_rows,
    expm,
    fill_powers,
    hermitian_eigensystem,
    principal_unitary_log,
    require_hermitian,
    spectral_norms_2x2,
    unitarity_defect,
    unitary_fidelity,
)
from .propagation import magnus_samples, magnus_steps


@dataclass(frozen=True)
class DriveSpec:
    """Monochromatic cosine drive mu*cos(Omega*t) coupling one level pair."""

    mu: float
    omega: float
    pair: tuple[int, int]

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValidationError(f"drive amplitude must be finite and >= 0, got {self.mu}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValidationError(f"drive frequency must be finite and > 0, got {self.omega}")
        if self.pair[0] == self.pair[1]:
            raise ValidationError("drive must couple two distinct levels")
        object.__setattr__(self, "pair", tuple(self.pair))

    @property
    def tau(self) -> float:
        return 2.0 * np.pi / self.omega

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
        c = drive.mu * np.cos(drive.omega * np.asarray(t, dtype=float))
        return h0 + c[..., None, None] * x

    return h


# ---------------------------------------------------------------------------
# propagator integration


REFINEMENTS = 4  # most times _checked_samples doubles its starting step count
#: Largest change of the propagator between n/2 and n steps that ``_checked_samples`` accepts.
HALVING_GAP_TOL = 1e-5


def _checked_samples(h_of_t, t0: float, t1: float, steps: int) -> tuple[np.ndarray, float]:
    """U(t0 + k*(t1 - t0)/n, t0) for k = 0..n, one Magnus step per interval, n doubled
    from ``steps`` until the end agrees with the span at n/2 steps (two half steps for
    one step) within the halving-gap tolerance, and that last gap: the step is sixth
    order, so the end's error is about gap/63 (Blanes, Casas, Oteo & Ros, Phys. Rep.
    470, 151 (2009)).  A gap that is not finite raises at once."""
    coarse = magnus_samples(h_of_t, t0, t1, steps // 2 or 2)[-1]
    for n in (steps << k for k in range(REFINEMENTS + 1)):
        u = magnus_samples(h_of_t, t0, t1, n)
        gap = float(np.max(np.abs(u[-1] - coarse)))
        if gap <= HALVING_GAP_TOL:
            return u, gap
        if not math.isfinite(gap):      # finer steps cannot mend a NaN or inf
            break
        coarse = u[-1]
    raise StepSizeError(f"propagator changes by {gap:.2e} between {n} and {n // 2} "
                        f"steps, beyond {HALVING_GAP_TOL:.0e}")


def propagate_schrodinger(h_of_t, t0: float, t1: float, steps: int) -> np.ndarray:
    """U(t1, t0) by sixth-order Magnus steps, doubled from ``steps`` as
    ``_checked_samples`` needs; deterministic for fixed inputs.  ``h_of_t`` takes
    1-D arrays of times and returns the stacked Hamiltonians, or one matrix."""
    return _checked_samples(h_of_t, t0, t1, steps)[0][-1]


# ---------------------------------------------------------------------------
# Floquet decomposition


@dataclass(frozen=True)
class FloquetDecomposition:
    """Floquet Hamiltonian, quasienergies, and the sampled periodic operator.

    ``p_samples[k]`` is P(t_k, 0) on the uniform grid t_k = k*tau/m,
    k = 0..m (both endpoints; P at k = m equals the identity up to
    integration error).  ``u_samples`` keeps the propagator on the same
    grid, and ``hamiltonian`` the callable H(t) it was integrated from.
    ``halving_gap`` is the largest entry of |U_m(tau) - U_{m/2}(tau)|, from m
    and m/2 steps: the gap at which ``_checked_samples`` kept the grid.
    """

    hbar_floquet: np.ndarray
    quasi: Spectrum
    p_samples: np.ndarray
    tau: float
    halving_gap: float
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
        U(t, t_k) one sixth-order Magnus step of ``hamiltonian`` from the
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
            out[off] = (magnus_steps(self.hamiltonian, node * (self.tau / m), h)
                        @ self.p_samples[node] @ self.quasi.unitary(-h))
        return out.reshape(t.shape + out.shape[1:])

    def propagator_at(self, t) -> np.ndarray:
        """U(t,0) = P(t mod tau) exp(-i*Hbar*t); an array of times gives the stack."""
        return self.p_at(t) @ self.quasi.unitary(t)


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
    u_samples, halving_gap = _checked_samples(h_of_t, 0.0, tau, grid_m)
    grid_m = len(u_samples) - 1
    u_tau = u_samples[-1]

    try:  # steps of a huge phase (||H|| h ~ 1e14) lose unitarity to expm's squarings
        k_log = principal_unitary_log(u_tau)
    except ValidationError as exc:
        raise NumericalError(f"monodromy: {exc}") from None
    h_principal = k_log / tau
    omega = 2.0 * np.pi / tau
    h_bar = _unfold_quasienergies(h_principal, reference, omega) if unfold else h_principal
    # Hbar and P are zero where U is, between levels H(t) never connects; the
    # log leaves rounding there.  With each block's levels adjacent, eigh keeps
    # the blocks apart exactly, so decoupled coherences of every record stay 0.
    coupled = any_over_rows(u_samples != 0)
    h_bar = np.where(coupled, h_bar, 0.0)
    order = np.argsort(np.argmax(coupled, axis=1), kind="stable")
    try:  # a drive of Omega ~ 1e99 scales Hbar's rounding past the Hermitian check
        quasi = hermitian_eigensystem(h_bar[np.ix_(order, order)])
    except ValidationError as exc:
        raise NumericalError(f"Floquet Hamiltonian: {exc}") from None
    quasi = Spectrum(energies=quasi.energies, vectors=quasi.vectors[np.argsort(order)])

    p_samples = u_samples @ quasi.unitary(-np.arange(grid_m + 1) * (tau / grid_m))

    worst = unitarity_defect(p_samples[::max(1, grid_m // 16)])
    if worst > 1e-7:
        raise NumericalError(f"periodic operator unitarity defect {worst:.2e}")
    return FloquetDecomposition(
        hbar_floquet=h_bar,
        quasi=quasi,
        p_samples=p_samples,
        tau=tau,
        halving_gap=halving_gap,
        u_samples=u_samples,
        hamiltonian=h_of_t,
    )


# ---------------------------------------------------------------------------
# Fourier operator coefficients and the jump table

#: Magnitude below which ``fourier_operator_coefficients`` sets an entry to zero.
FOURIER_FLOOR = 1e-3
#: Width of the quasienergy-gap clusters of ``jump_operator_table``.
GAP_CLUSTER_TOL = 1e-4


def fourier_operator_coefficients(decomp: FloquetDecomposition, s,
                                  q_max: int) -> np.ndarray:
    """Harmonics S(q) of P†(t) S P(t) = sum_q S(q) exp(i*q*Omega*t), |q| <= q_max,
    of S or of each of a stack of operators: trapezoidal (DFT) coefficients of
    one contraction over the sample grid and one FFT, shape
    s.shape[:-2] + (2*q_max + 1, d, d) with S(q) at index q_max + q.  Entries
    with magnitude below ``FOURIER_FLOOR`` are set to zero.
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
    coeffs[np.abs(coeffs) < FOURIER_FLOOR] = 0.0
    return coeffs.reshape(s.shape[:-2] + coeffs.shape[1:])


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


def jump_operator_table(harmonics: np.ndarray, quasi: Spectrum) -> tuple:
    """Resolve each S(q) of ``harmonics`` (S(q) at index q_max + q, or a stack
    of such arrays) onto quasienergy gaps, in one eigenbasis transform and one
    gather: S(q, omega) sums the |eps><eps| S(q) |eps'><eps'| blocks with
    eps - eps' in the omega cluster.  Returns (gaps, keys, ops): the clustered,
    sorted gaps, and row e of the sorted keys the (q, gap index) of ops[e], led
    by the operator's index for a stack; all-zero projections are omitted."""
    gaps, labels = cluster_gaps(quasi.energies, GAP_CLUSTER_TOL)
    v = quasi.vectors
    s_eig = v.conj().T @ np.asarray(harmonics) @ v
    nonzero = np.nonzero(s_eig)
    present = np.zeros(s_eig.shape[:-2] + gaps.shape, dtype=bool)
    present[nonzero[:-2] + (labels[nonzero[-2:]],)] = True
    keys = np.argwhere(present)
    blocks = np.where(labels == keys[:, -1, None, None], s_eig[tuple(keys[:, :-1].T)], 0.0)
    keys[:, -2] -= s_eig.shape[-3] // 2
    return gaps, keys, v @ blocks @ v.conj().T


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
    """Baker-Campbell-Hausdorff series for log(e^x e^y), through its fifth order.

    Each nested commutator is formed once: a word is [first letter, its
    suffix], the suffix's commutator reused, and a word ending in "YX" is
    minus the one ending in "XY", so 13 commutators serve the 12 terms."""
    nested = {"X": x, "Y": y}

    def commutator(word):
        if word not in nested:
            if word.endswith("YX"):
                nested[word] = -commutator(word[:-2] + "XY")
            else:
                m, acc = nested[word[0]], commutator(word[1:])
                nested[word] = m @ acc - acc @ m
        return nested[word]

    total = np.zeros_like(x)
    for coeff, word in _BCH_TERMS:
        total = total + coeff * commutator(word)
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
    batched exponential of h*M, then row 0 of exp(k*h*M) = exp(h*M)^k for
    every k by doubling (``operators.fill_powers``).  A scalar is the
    one-step grid h = t.
    """
    _, h, ks = _time_grid(t)
    lam, coef = _drive_exponentials(omega_gap, drive.omega)
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
    rows = np.zeros((len(tuples), ks[-1] + 1, order + 1), dtype=complex)
    rows[:, 0, 0] = 1.0     # rows[:, k] = e_0 exp(h*M)^k = (exp(h*M)^T)^k e_0
    fill_powers(rows, expm(h * chain).swapaxes(-1, -2))
    rows = rows[:, ks].swapaxes(0, 1).reshape((len(ks),) + (len(lam),) * order + (order + 1,))

    out = []
    for n in range(1, order + 1):
        integrals = rows[(slice(None),) * (n + 1) + (0,) * (order - n) + (n,)]
        vec = np.tensordot(integrals, weights[n - 1], axes=n).real
        out.append(vec if np.ndim(t) else vec[0])
    return out


def _pair_paulis(dim: int, pair: tuple[int, int]) -> np.ndarray:
    """sigma_x, sigma_y and sigma_z of the level pair (i, j), as a (3, dim, dim) stack."""
    i, j = pair
    paulis = np.zeros((3, dim, dim), dtype=complex)
    paulis[:2, [i, j], [j, i]] = [[1.0, 1.0], [-1j, 1j]]
    paulis[2, [i, j], [i, j]] = [1.0, -1.0]
    return paulis


def magnus_bch_propagator(drive: DriveSpec, h0, t) -> np.ndarray:
    """Approximate U(t,0) = exp(E) with E = BCH(-i*t*h0, Magnus exponent).

    ``t`` is a scalar, giving one propagator, or a 1-D array of times on
    one uniform grid k*h (see :func:`magnus_interaction_terms`), giving
    the stack of shape (len(t), d, d).  ``h0`` must be diagonal in the
    level basis the drive pair refers to.  Emits one warning (never fails)
    when, at any of the times, the leading neglected BCH order is no longer
    small against the kept terms; raises NumericalError when an exponent is
    not finite, as at a drive amplitude or frequency near the float range.
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
        paulis = _pair_paulis(h0.shape[0], drive.pair)
        vecs = magnus_interaction_terms(drive, omega_gap, times)
        try:
            for n, vec in enumerate(vecs, start=1):
                lam = lam + (-1j * drive.mu) ** n * np.tensordot(vec, paulis, axes=1)
        except OverflowError:   # mu^3 past the float range
            raise NumericalError(f"Magnus+BCH exponents are not finite (drive amplitude "
                                 f"{drive.mu:g} cubed overflows)") from None
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(lam))):
        raise NumericalError(f"Magnus+BCH exponents are not finite (drive amplitude "
                             f"{drive.mu:g}, frequency {drive.omega:g})")

    _warn_if_bch_strained(theta, lam, drive.pair)
    e = bch_compose(theta, lam)
    m = 0.5j * (e - e.conj().swapaxes(-1, -2))  # Hermitian generator: e = -i m up to rounding
    u = Spectrum(*np.linalg.eigh(m)).unitary(1.0)
    return u if np.ndim(t) else u[0]


def _warn_if_bch_strained(theta: np.ndarray, lam: np.ndarray, pair: tuple[int, int]):
    """One warning for a stack of BCH arguments, naming the strained times.  Theta
    is diagonal, so its spectral norm is its largest |entry|, and Lambda lives on
    the 2x2 block of the drive pair."""
    nt = np.max(np.abs(np.diagonal(theta, axis1=-2, axis2=-1)), axis=-1)
    nl = spectral_norms_2x2(lam[:, [[pair[0]], [pair[1]]], list(pair)])
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
        x = spec.unitary(-ts)
        return unitary_fidelity(u[:n + 1] @ x, u[n:] @ u[n].conj().T @ x)

    return BenchmarkReport(
        times=ts,
        fidelity_propagator=unitary_fidelity(u_app[:n + 1], u_two[:n + 1]),
        fidelity_periodicity=periodicity(u_two, decomp.quasi),
        fidelity_periodicity_magnus=periodicity(u_app, hermitian_eigensystem(h_app)),
    )
