"""Master-equation generators as superoperators on density matrices.

Every kind is one static superoperator L acting on the frame state
rho~ = P† rho P, where P(t) is the periodic micromotion of the drive:

    d(rho~)/dt = L rho~,   L = -i[Hbar + H_lamb, .] + D,

with Hbar the Floquet Hamiltonian.  A static kind is the trivial frame
P = I, Hbar = h0 (the spectrum of h0, Omega = 0, S(0) = S), and L is its
Schrodinger-picture generator.  L is built over one harmonic frame: the
harmonics S(q) of all system operators S in one call, split by one jump
table into S(q, omega) on the quasienergy gaps, and the coefficients at
omega + q*Omega in one call per bath.  D takes the one Born-Markov form
(Breuer & Petruccione, The Theory of Open Quantum Systems, 2002, sec. 3.3)
over two stacks of jump terms, D rho = sum_k (A_k rho B_k† - B_k† A_k rho)
+ h.c., and the kinds differ only in the stacks:

* secular -- ``lindblad`` and ``floquet_lindblad``: A = (gamma/2) S, B = S
  for every jump entry S = S(q, omega) of each channel (gamma D[S]), and
  H_lamb = sum xi S†S, gamma/xi the Ohmic coefficients; static Lindblad may
  also use collective (shared-mode) channels.  D and -i[H_lamb, .] commute
  with -i[Hbar, .], so evolving in this frame equals evolving in the
  interaction picture of P(t) exp(-i Hbar t).
* Redfield -- ``redfield`` and ``floquet_redfield``: dipole couplings via
  the radiation-bath N1/N2 rates and C1/C2 Lamb integrals, keeping only
  equal-harmonic (q' = q) terms (optionally omega' = omega as well).  Three
  dipole-weighted jump sums a, u1, u2 per harmonic give A = kappa (u2, u1†)
  and B = (a†, a), kappa = DIPOLE_PREFACTOR, Lamb terms included.  Under
  the q' = q filter the only time dependence left is the micromotion: the
  Schrodinger-picture generator is -i[H(t), .] + Ad_P(t) D Ad_P(t)†, Ad_P
  the conjugation by P, so in the frame it is exactly the static
  -i[Hbar, .] + D (Grifoni & Hanggi, Phys. Rep. 304, 229 (1998); Kohler,
  Dittrich & Hanggi, Phys. Rev. E 55, 300 (1997)).

Each builder reads h0, the baths, the Lamb-shift settings and q_max from
the scenario.  A channel is a bath's (i, j) transition, coupled through
|i><j|, or for the secular kinds its quadratures; only the Redfield kinds
calibrate a transition dipole.  Lindblad kinds treat every channel
independently; the Redfield kinds keep all cross-transition dipole products
within each bath, which is what couples populations to coherences.
Density matrices are vectorized row-major: vec(A rho B) = (A kron B^T) vec(rho).
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .baths import gamma_xi_arrays, qubit_dipole_calibration, redfield_arrays
# unused here, kept because the benchmark tracer patches them by name
from .baths import gamma_xi_ohmic, redfield_coefficients  # noqa: F401
from .errors import ConfigError, ValidationError
from .floquet import (
    FloquetDecomposition,
    fourier_operator_coefficients,
    jump_operator_table,
)
from .operators import Spectrum, hermitian_eigensystem

#: 1/(6*pi*c^3*hbar*epsilon_0) in natural units, the dipole-dissipator prefactor.
DIPOLE_PREFACTOR = 1.0 / (6.0 * np.pi)

GENERATOR_KINDS = ("lindblad", "floquet_lindblad", "redfield", "floquet_redfield")


def _transition_operators(i: int, j: int, dim: int) -> np.ndarray:
    """|i><j| and its quadratures sigma_x = (|i><j| + |j><i|)/2 and sigma_y =
    i(|i><j| - |j><i|)/2, stacked: the couplings of a bath's (i, j) transition."""
    ops = np.zeros((3, dim, dim), dtype=complex)
    ops[0, i, j] = 1.0
    ops[1, i, j] = ops[1, j, i] = 0.5
    ops[2, i, j] = 0.5j
    ops[2, j, i] = -0.5j
    return ops


# ---------------------------------------------------------------------------
# superoperator primitives (row-major vec)


def sop_left(a: np.ndarray) -> np.ndarray:
    return np.kron(a, np.eye(a.shape[0]))


def sop_right(b: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(b.shape[0]), b.T)


def sop_sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho b."""
    return np.kron(a, b.T)


def sop_commutator(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i[h, rho]."""
    return -1j * (sop_left(h) - sop_right(h))


@dataclass
class Generator:
    """A built master-equation generator: the static L of the frame state P† rho P.

    ``decomposition`` gives the micromotion P(t) (its ``p_at``) that maps
    frame states back, rho = P rho~ P†; it is None for the static kinds,
    whose frame is the Schrodinger picture.  ``h_lamb`` holds the Lamb
    matrix of each secular channel.
    """

    kind: str
    dim: int
    superop: np.ndarray
    h_lamb: dict = field(default_factory=dict)
    decomposition: FloquetDecomposition | None = None

    # kept because the benchmark tracer patches it by name
    def superop_at(self, t) -> np.ndarray:
        """L at t; an array of times gives the broadcast stack, shape t.shape + (d*d, d*d)."""
        if np.ndim(t) == 0:
            return self.superop
        return np.broadcast_to(self.superop, np.shape(t) + self.superop.shape)


# ---------------------------------------------------------------------------
# the harmonic frame


@dataclass(frozen=True)
class _HarmonicFrame:
    """Where jump operators are resolved: ``harmonics`` maps a stack of system
    operators S to their harmonics S(q), which ``resolve`` splits onto the gaps
    of ``spectrum``, each entry S(q, omega) taken at omega + q*``omega``.
    ``hbar`` is the Hamiltonian of the frame's coherent term; the generators
    built here are of ``kind`` and carry ``decomposition``."""

    spectrum: Spectrum
    omega: float
    harmonics: Callable
    hbar: np.ndarray
    kind: str
    decomposition: FloquetDecomposition | None

    def resolve(self, terms: list, coefficients):
        """The jump table of the operators of ``terms``, (bath, operator, channel
        key) triples, keyed (operator, q, gap index); each entry's bath index,
        baths in first-seen order; and the arrays ``coefficients(bath, x)`` gives
        at every entry's x = omega + q*Omega, one row each, in one call per bath.
        :class:`ConfigError` names the channel of an operator left without entries."""
        gaps, keys, ops = jump_operator_table(
            self.harmonics(np.array([op for _, op, _ in terms])), self.spectrum)
        counts = np.bincount(keys[:, 0], minlength=len(terms))
        if not counts.all():
            raise ConfigError(
                f"channel {terms[np.argmin(counts)][2]}: the Fourier floor removed every jump "
                "operator; raise q_max or lower the floor"
            )
        x = gaps[keys[:, 2]] + keys[:, 1] * self.omega
        baths = list(dict.fromkeys(bath for bath, _, _ in terms))
        bath_of = np.array([baths.index(bath) for bath, _, _ in terms])[keys[:, 0]]
        rows = [np.array(coefficients(bath, x[bath_of == i])) for i, bath in enumerate(baths)]
        values = np.empty((len(rows[0]), len(x)))
        values[:, np.argsort(bath_of, kind="stable")] = np.concatenate(rows, axis=1)
        return (gaps, keys, ops), bath_of, values

    def generator(self, h_lamb: dict, a, b) -> Generator:
        """-i[Hbar + H_lamb, .] + sum_k (a_k rho b_k† - b_k† a_k rho) + h.c.
        for the (possibly empty) lists ``a``, ``b`` of jump terms: the one
        place the coherent term and the dissipator enter.  That is
        sum_k (a_k kron b_k* + b_k kron a_k*) - M kron I - I kron M*, M = sum_k b_k† a_k.
        """
        d = self.hbar.shape[0]
        a, b = (np.reshape(np.array(s, dtype=complex), (-1, d, d)) for s in (a, b))
        t = np.tensordot(a, b.conj(), axes=(0, 0)).transpose(0, 2, 1, 3)
        m = np.einsum("kji,kjl->il", b.conj(), a)
        sop = sop_commutator(self.hbar + sum(h_lamb.values(), np.zeros_like(self.hbar)))
        sop += (t + t.transpose(1, 0, 3, 2).conj()).reshape(d * d, d * d)
        sop -= sop_left(m) + sop_right(m.conj().T)
        return Generator(kind=self.kind, dim=d, superop=sop, h_lamb=h_lamb,
                         decomposition=self.decomposition)


def _harmonic_frame(config, decomposition: FloquetDecomposition | None,
                    kind: str) -> _HarmonicFrame:
    """The frame of the builder of ``kind``: the Floquet frame of ``decomposition``,
    or for a static kind the trivial frame, the spectrum of h0, Omega = 0,
    S(0) = S and Hbar = h0.  A scenario of another kind, and a decomposition
    that a Floquet kind lacks or a static kind is given, raise."""
    if config.kind != kind:
        raise ValidationError(f"expected kind {kind!r}, got {config.kind!r}")
    if kind.startswith("floquet") != (decomposition is not None):
        raise ValidationError(f"kind {kind} " + ("must not carry" if decomposition else "requires")
                              + " a FloquetDecomposition")
    if decomposition is not None:
        return _HarmonicFrame(
            decomposition.quasi, decomposition.omega_drive,
            lambda ops: fourier_operator_coefficients(decomposition, ops, config.q_max),
            decomposition.hbar_floquet, kind, decomposition)
    h0 = config.h0
    return _HarmonicFrame(hermitian_eigensystem(h0), 0.0, lambda ops: ops[:, None], h0, kind, None)


# ---------------------------------------------------------------------------
# secular path: Lindblad / Floquet-Lindblad


def _secular_generator(frame: _HarmonicFrame, config, collective: bool) -> Generator:
    """Secular generator of the scenario's channels over ``frame``.

    Each (bath, transition) channel is independent, or with ``collective``
    each bath's summed quadratures are one channel: the shared-bath-mode
    (textbook secular) variant, whose transitions interfere through common
    jump operators.  Each channel sums gamma D[S] and (iff lamb_shift) xi S†S
    over the jump tables of its operators, gamma/xi at omega + q*Omega.
    Cross terms between sigma_x and sigma_y vanish for the Ohmic bath and
    are omitted: the spectral density is odd, so the two-sided cross
    integrals fold onto each other (nu -> -nu, nbar(-nu) = -(nbar(nu) + 1))
    and cancel, as ``test_baths.py::test_cross_coefficients_vanish`` checks
    by quadrature.
    """
    d = config.dim
    if collective:
        channels = [(bath, sum(_transition_operators(*t, d) for t in bath.transitions)[1:],
                     f"{bath.name}:collective{bath.transitions}")
                    for bath in config.baths if bath.transitions]
    else:
        channels = [(bath, _transition_operators(*t, d)[1:], f"{bath.name}:{t}")
                    for bath in config.baths for t in bath.transitions]
    if not channels:
        return frame.generator({}, [], [])
    terms = [(bath, op, key) for bath, ops, key in channels for op in ops]
    (_, keys, s), _, (gamma, xi) = frame.resolve(terms, lambda bath, x: gamma_xi_arrays(
        bath.spectral, bath.beta, x, config.lamb_params, config.lamb_shift))
    key_of = np.array([key for _, _, key in terms])[keys[:, 0]]
    h_lamb = {key: np.einsum("k,kji,kjl->il", xi[key_of == key], s[key_of == key].conj(),
                             s[key_of == key]) for _, _, key in channels}
    return frame.generator(h_lamb, (gamma / 2)[:, None, None] * s, s)


def lindblad_generator(config, decomposition: None = None, collective: bool = False) -> Generator:
    """Static Lindblad generator -i[h0 + H_lamb, .] + D.

    ``collective=True`` sums each bath's transition operators into shared
    jump operators (bath modes common to the transitions) instead of
    treating transitions as independent channels.
    """
    return _secular_generator(_harmonic_frame(config, decomposition, "lindblad"), config,
                              collective)


def floquet_lindblad_generator(config,
                               decomposition: FloquetDecomposition | None = None) -> Generator:
    """Floquet-Lindblad generator -i[Hbar + H_lamb, .] + D in the micromotion frame.

    Rates and shifts are evaluated at omega + q*Omega on the jump-operator
    table of each channel.
    """
    return _secular_generator(_harmonic_frame(config, decomposition, "floquet_lindblad"), config,
                              False)


# ---------------------------------------------------------------------------
# Redfield path: Redfield / Floquet-Redfield


def _redfield_sums(frame: _HarmonicFrame, config, full_secular: bool) -> tuple:
    """Dipole-weighted jump sums (a, u1, u2) over ``frame``, one row per sorted key.

    Each entry S = S(q, omega) of the jump tables of the pair operators
    |i><j|, weighted by the dipole mu that ``qubit_dipole_calibration`` gives
    the transition, adds mu S, (N1 + iC1) mu S† and (N2 + iC2) mu S†, with N/C
    at omega + q*Omega, to the sums of its key, in transition order; a key's
    dissipator is G(u2, a†) + G(u1†, a) times ``DIPOLE_PREFACTOR``, G the form
    of :meth:`_HarmonicFrame.generator`.
    The key is (bath, q) under the partial secular (q' = q) filter: the free
    omega sum then collapses to S(q) by completeness, while the primed sums
    carry the coefficients.  ``full_secular`` adds the gap index, imposing
    omega' = omega.  Transitions of one bath share keys, so their
    cross-transition dipole products are kept.
    """
    pairs = [(bath, t) for bath in config.baths for t in bath.transitions]
    e, dipoles, missing = config.energies, [], []
    for bath, (i, j) in pairs:
        try:
            dipoles.append(qubit_dipole_calibration(bath.spectral, abs(e[i] - e[j])))
        except (ValidationError, OverflowError):
            missing.append(f"{bath.name}/{(i, j)}")
    if missing:
        raise ConfigError(f"channels {missing} lack the dipole magnitude Redfield kinds require "
                          "(a gap of 0, or one whose cube overflows or underflows a float, "
                          "has none)")
    (_, keys, ops), bath_of, (n1, n2, c1, c2) = frame.resolve(
        [(bath, _transition_operators(*t, config.dim)[0], f"{bath.name}:{t}") for bath, t in pairs],
        lambda bath, x: redfield_arrays(x, bath.beta, config.lamb_params, config.lamb_shift))
    op, q, gi = keys.T
    s = np.array(dipoles)[op, None, None] * ops
    sd = s.conj().transpose(0, 2, 1)
    keys = np.stack([bath_of, q, gi if full_secular else 0 * gi])
    order = np.lexsort(keys[::-1])
    starts = np.flatnonzero(np.r_[True, np.any(np.diff(keys[:, order]), axis=0)])
    return tuple(np.add.reduceat(t[order], starts) for t in (
        s, (n1 + 1j * c1)[:, None, None] * sd, (n2 + 1j * c2)[:, None, None] * sd))


def _redfield_generator(frame: _HarmonicFrame, config, full_secular: bool) -> Generator:
    """-i[Hbar, .] + D over ``frame`` (see the module docstring)."""
    if not any(bath.transitions for bath in config.baths):
        return frame.generator({}, [], [])
    a, u1, u2 = _redfield_sums(frame, config, full_secular)
    a_dag, u1_dag = (m.conj().transpose(0, 2, 1) for m in (a, u1))
    return frame.generator({}, DIPOLE_PREFACTOR * np.concatenate([u2, u1_dag]),
                           np.concatenate([a_dag, a]))


def redfield_generator(config, decomposition: None = None) -> Generator:
    """Static Redfield generator -i[h0, .] + D.

    The trivial-frame case of the Floquet-Redfield assembly (P = I,
    Hbar = h0, q = 0): N/C are evaluated at each transition's clustered
    gap, and all ordered transition pairs of a bath couple.  Trace and
    Hermiticity preservation are exact by construction.
    """
    return _redfield_generator(_harmonic_frame(config, decomposition, "redfield"), config, False)


def floquet_redfield_generator(config, decomposition: FloquetDecomposition | None = None,
                               full_secular: bool = False) -> Generator:
    """Floquet-Redfield generator with the q' = q partial secular filter.

    Time independent in the micromotion frame rho~ = P† rho P.
    ``full_secular=True`` restricts additionally to omega' = omega
    (consistency checks against the Floquet-Lindblad construction).
    """
    return _redfield_generator(_harmonic_frame(config, decomposition, "floquet_redfield"),
                               config, full_secular)


__all__ = [
    "DIPOLE_PREFACTOR",
    "Generator",
    "floquet_lindblad_generator",
    "floquet_redfield_generator",
    "lindblad_generator",
    "redfield_generator",
    "sop_commutator",
    "sop_left",
    "sop_right",
    "sop_sandwich",
]
