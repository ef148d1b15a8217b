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

Density matrices are vectorized row-major: vec(A rho B) = (A kron B^T) vec(rho).
Lindblad kinds treat every (bath, transition) channel independently; the
Redfield kinds keep all cross-transition dipole products within each bath,
which is what couples populations to coherences.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .baths import BathSpec, LambIntegralParams, gamma_xi_arrays, redfield_arrays
# unused here, kept because the benchmark tracer patches them by name
from .baths import gamma_xi_ohmic, redfield_coefficients  # noqa: F401
from .errors import ConfigError, ValidationError
from .floquet import (
    FloquetDecomposition,
    fourier_operator_coefficients,
    jump_operator_table,
)
from .operators import Spectrum, hermitian_eigensystem, require_hermitian

#: 1/(6*pi*c^3*hbar*epsilon_0) in natural units, the dipole-dissipator prefactor.
DIPOLE_PREFACTOR = 1.0 / (6.0 * np.pi)

GENERATOR_KINDS = ("lindblad", "floquet_lindblad", "redfield", "floquet_redfield")


def coupling_decomposition(transition: tuple[int, int], kind: str, dim: int) -> np.ndarray:
    """Hermitian quadrature operator of a transition: sigma_x or sigma_y.

    sigma_x = (|i><j| + |j><i|)/2 and sigma_y = i(|i><j| - |j><i|)/2 for
    transition (i, j).
    """
    i, j = transition
    if i == j:
        raise ValidationError("transition must couple two distinct levels")
    m = np.zeros((dim, dim), dtype=complex)
    if kind == "sigma_x":
        m[i, j] = m[j, i] = 0.5
    elif kind == "sigma_y":
        m[i, j] = 0.5j
        m[j, i] = -0.5j
    else:
        raise ValidationError(f"unknown coupling kind {kind!r}")
    return m


@dataclass(frozen=True)
class CouplingChannel:
    """One bath-transition coupling: the sigma_x/sigma_y pair plus, for
    Redfield kinds, the dipole magnitude of the transition."""

    bath: BathSpec
    transition: tuple[int, int]
    dim: int
    dipole: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "transition", tuple(self.transition))

    @property
    def sigma_x(self) -> np.ndarray:
        return coupling_decomposition(self.transition, "sigma_x", self.dim)

    @property
    def sigma_y(self) -> np.ndarray:
        return coupling_decomposition(self.transition, "sigma_y", self.dim)

    @property
    def operators(self) -> list[np.ndarray]:
        return [self.sigma_x, self.sigma_y]

    @property
    def pair_op(self) -> np.ndarray:
        """|i><j| for transition (i, j) (the raising operator of the pair)."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[self.transition[0], self.transition[1]] = 1.0
        return m


@dataclass(frozen=True)
class GeneratorSpec:
    """What to build: kind, Lamb-shift flag, channels, Floquet data."""

    kind: str
    channels: tuple[CouplingChannel, ...]
    lamb_shift: bool = True
    floquet: FloquetDecomposition | None = None
    lamb_params: LambIntegralParams = LambIntegralParams()
    q_max: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        is_floquet = self.kind.startswith("floquet")
        if is_floquet and self.floquet is None:
            raise ValidationError(f"kind {self.kind} requires a FloquetDecomposition")
        if not is_floquet and self.floquet is not None:
            raise ValidationError(f"kind {self.kind} must not carry a FloquetDecomposition")
        object.__setattr__(self, "channels", tuple(self.channels))


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
    ``hbar`` is the Hamiltonian of the frame's coherent term."""

    spectrum: Spectrum
    omega: float
    harmonics: Callable
    hbar: np.ndarray

    def resolve(self, terms: list, coefficients):
        """The jump table of the operators of ``terms``, (bath, operator, channel
        key) triples, keyed (operator, q, gap index); each entry's bath index,
        baths in first-seen order; and the arrays ``coefficients(bath, x)`` gives
        at every entry's x = omega + q*Omega, one row each, in one call per bath.
        :class:`ConfigError` names the channel of an operator left without entries."""
        table = jump_operator_table(self.harmonics(np.array([op for _, op, _ in terms])),
                                    self.spectrum)
        counts = np.bincount(table.keys[:, 0], minlength=len(terms))
        if not counts.all():
            raise ConfigError(
                f"channel {terms[np.argmin(counts)][2]}: the Fourier floor removed every jump "
                "operator; raise q_max or lower the floor"
            )
        x = table.gaps[table.keys[:, 2]] + table.keys[:, 1] * self.omega
        baths = list(dict.fromkeys(bath for bath, _, _ in terms))
        bath_of = np.array([baths.index(bath) for bath, _, _ in terms])[table.keys[:, 0]]
        rows = [np.array(coefficients(bath, x[bath_of == i])) for i, bath in enumerate(baths)]
        values = np.empty((len(rows[0]), len(x)))
        values[:, np.argsort(bath_of, kind="stable")] = np.concatenate(rows, axis=1)
        return table, bath_of, values

    def generator(self, spec: GeneratorSpec, h_lamb: dict, a, b) -> Generator:
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
        return Generator(kind=spec.kind, dim=d, superop=sop, h_lamb=h_lamb,
                         decomposition=spec.floquet)


def _harmonic_frame(h0, spec: GeneratorSpec) -> _HarmonicFrame:
    """The Floquet frame of ``spec.floquet``; for a static kind, the trivial
    frame: the spectrum of h0, Omega = 0, S(0) = S and Hbar = h0."""
    decomp = spec.floquet
    if decomp is not None:
        return _HarmonicFrame(
            decomp.quasi, decomp.omega_drive,
            lambda ops: fourier_operator_coefficients(decomp, ops, spec.q_max),
            decomp.hbar_floquet)
    return _HarmonicFrame(hermitian_eigensystem(h0), 0.0, lambda ops: ops[:, None], h0)


# ---------------------------------------------------------------------------
# secular path: Lindblad / Floquet-Lindblad


def _secular_channels(channels, collective: bool) -> list:
    """(bath, quadrature operators, Lamb key) of every secular channel.

    By default each (bath, transition) pair is an independent decoherence
    channel.  ``collective`` merges each bath's transitions into one channel
    with summed quadrature ops: the shared-bath-mode (textbook secular)
    variant, in which transitions of one bath interfere through common jump
    operators.
    """
    if not collective:
        return [(ch.bath, ch.operators, f"{ch.bath.name}:{ch.transition}") for ch in channels]
    groups: dict = {}   # baths in first-seen order
    for ch in channels:
        groups.setdefault(ch.bath, []).append(ch)
    return [(bath, [sum(c.sigma_x for c in group), sum(c.sigma_y for c in group)],
             f"{bath.name}:collective{tuple(c.transition for c in group)}")
            for bath, group in groups.items()]


def _secular_generator(h0, spec: GeneratorSpec, channels) -> Generator:
    """Secular generator of ``channels`` over the frame of ``spec``.

    Each channel sums gamma D[S] and (iff lamb_shift) xi S†S over the jump
    tables of its operators, gamma/xi at omega + q*Omega.  Cross terms
    between sigma_x and sigma_y vanish for the Ohmic bath and are omitted:
    the spectral density is odd, so the two-sided cross integrals fold onto
    each other (nu -> -nu, nbar(-nu) = -(nbar(nu) + 1)) and cancel, as
    ``test_baths.py::test_cross_coefficients_vanish`` checks by quadrature.
    """
    frame = _harmonic_frame(h0, spec)
    if not channels:
        return frame.generator(spec, {}, [], [])
    terms = [(bath, op, key) for bath, ops, key in channels for op in ops]
    table, _, (gamma, xi) = frame.resolve(terms, lambda bath, x: gamma_xi_arrays(
        bath.spectral, bath.beta, x, spec.lamb_params, spec.lamb_shift))
    s, key_of = table.ops, np.array([key for _, _, key in terms])[table.keys[:, 0]]
    h_lamb = {key: np.einsum("k,kji,kjl->il", xi[key_of == key], s[key_of == key].conj(),
                             s[key_of == key]) for _, _, key in channels}
    return frame.generator(spec, h_lamb, (gamma / 2)[:, None, None] * s, s)


def lindblad_generator(h0, spec: GeneratorSpec, collective: bool = False) -> Generator:
    """Static Lindblad generator -i[h0 + H_lamb, .] + D.

    ``collective=True`` sums each bath's transition operators into shared
    jump operators (bath modes common to the transitions) instead of
    treating transitions as independent channels.
    """
    h0 = require_hermitian(h0)
    if spec.kind != "lindblad":
        raise ValidationError(f"expected kind 'lindblad', got {spec.kind!r}")
    return _secular_generator(h0, spec, _secular_channels(spec.channels, collective))


def floquet_lindblad_generator(h0, spec: GeneratorSpec) -> Generator:
    """Floquet-Lindblad generator -i[Hbar + H_lamb, .] + D in the micromotion frame.

    Rates and shifts are evaluated at omega + q*Omega on the jump-operator
    table of each channel.
    """
    h0 = require_hermitian(h0)
    if spec.kind != "floquet_lindblad":
        raise ValidationError(f"expected kind 'floquet_lindblad', got {spec.kind!r}")
    return _secular_generator(h0, spec, _secular_channels(spec.channels, False))


# ---------------------------------------------------------------------------
# Redfield path: Redfield / Floquet-Redfield


def _redfield_sums(frame: _HarmonicFrame, spec: GeneratorSpec, full_secular: bool) -> tuple:
    """Dipole-weighted jump sums (a, u1, u2) over ``frame``, one row per sorted key.

    Each entry S = S(q, omega) of the jump tables of the pair operators
    |i><j|, weighted by the transition dipole mu, adds mu S, (N1 + iC1) mu S†
    and (N2 + iC2) mu S†, with N/C at omega + q*Omega, to the sums of its
    key, in channel order; a key's dissipator is G(u2, a†) + G(u1†, a) times
    ``DIPOLE_PREFACTOR``, G the form of :meth:`_HarmonicFrame.generator`.
    The key is (bath, q) under the partial secular (q' = q) filter: the free
    omega sum then collapses to S(q) by completeness, while the primed sums
    carry the coefficients.  ``full_secular`` adds the gap index, imposing
    omega' = omega.  Transitions of one bath share keys, so their
    cross-transition dipole products are kept.
    """
    missing = [f"{ch.bath.name}/{ch.transition}" for ch in spec.channels if ch.dipole is None]
    if missing:
        raise ConfigError(f"channels {missing} lack the dipole magnitude Redfield kinds require")
    table, bath_of, (n1, n2, c1, c2) = frame.resolve(
        [(ch.bath, ch.pair_op, f"{ch.bath.name}:{ch.transition}") for ch in spec.channels],
        lambda bath, x: redfield_arrays(x, bath.beta, spec.lamb_params, spec.lamb_shift))
    op, q, gi = table.keys.T
    s = np.array([ch.dipole for ch in spec.channels])[op, None, None] * table.ops
    sd = s.conj().transpose(0, 2, 1)
    keys = np.stack([bath_of, q, gi if full_secular else 0 * gi])
    order = np.lexsort(keys[::-1])
    starts = np.flatnonzero(np.r_[True, np.any(np.diff(keys[:, order]), axis=0)])
    return tuple(np.add.reduceat(t[order], starts) for t in (
        s, (n1 + 1j * c1)[:, None, None] * sd, (n2 + 1j * c2)[:, None, None] * sd))


def _redfield_generator(h0, spec: GeneratorSpec, full_secular: bool) -> Generator:
    """-i[Hbar, .] + D over the frame of ``spec`` (see the module docstring)."""
    h0 = require_hermitian(h0)
    if np.max(np.abs(h0 - np.diag(np.diag(h0)))) > 1e-12:
        raise ValidationError("Redfield kinds require h0 diagonal in the level basis")
    frame = _harmonic_frame(h0, spec)
    if not spec.channels:
        return frame.generator(spec, {}, [], [])
    a, u1, u2 = _redfield_sums(frame, spec, full_secular)
    a_dag, u1_dag = (m.conj().transpose(0, 2, 1) for m in (a, u1))
    return frame.generator(spec, {}, DIPOLE_PREFACTOR * np.concatenate([u2, u1_dag]),
                           np.concatenate([a_dag, a]))


def redfield_generator(h0, spec: GeneratorSpec) -> Generator:
    """Static Redfield generator -i[h0, .] + D.

    The trivial-frame case of the Floquet-Redfield assembly (P = I,
    Hbar = h0, q = 0): N/C are evaluated at each transition's clustered
    gap, and all ordered transition pairs of a bath couple.  Trace and
    Hermiticity preservation are exact by construction.
    """
    if spec.kind != "redfield":
        raise ValidationError(f"expected kind 'redfield', got {spec.kind!r}")
    return _redfield_generator(h0, spec, full_secular=False)


def floquet_redfield_generator(h0, spec: GeneratorSpec,
                               full_secular: bool = False) -> Generator:
    """Floquet-Redfield generator with the q' = q partial secular filter.

    Time independent in the micromotion frame rho~ = P† rho P.
    ``full_secular=True`` restricts additionally to omega' = omega
    (consistency checks against the Floquet-Lindblad construction).
    """
    if spec.kind != "floquet_redfield":
        raise ValidationError(f"expected kind 'floquet_redfield', got {spec.kind!r}")
    return _redfield_generator(h0, spec, full_secular)


__all__ = [
    "CouplingChannel",
    "DIPOLE_PREFACTOR",
    "Generator",
    "GeneratorSpec",
    "coupling_decomposition",
    "floquet_lindblad_generator",
    "floquet_redfield_generator",
    "lindblad_generator",
    "redfield_generator",
    "sop_commutator",
    "sop_left",
    "sop_right",
    "sop_sandwich",
]
