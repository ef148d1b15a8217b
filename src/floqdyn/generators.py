"""Master-equation generators as superoperators on density matrices.

Four kinds are assembled here, all in the Born-Markov weak-coupling regime:

* ``lindblad`` -- static system, full secular approximation; jump operators
  from the system Hamiltonian's gaps, rates/shifts from the Ohmic bath
  coefficients.  Time independent.
* ``floquet_lindblad`` -- periodically driven system, full secular
  approximation in the Floquet basis: jump operators S(q, omega) with
  coefficients evaluated at omega + q*Omega.  Time independent in the
  interaction picture.
* ``redfield`` -- static system, Born-Markov only (no secular); dipole
  couplings via the radiation-bath N1/N2 rates and C1/C2 Lamb integrals.
  Schrodinger picture, time independent.
* ``floquet_redfield`` -- driven system with the partial secular
  approximation that keeps only equal-harmonic (q' = q) terms; the
  tau-periodic generator is cached on a period grid and interpolated.

Density matrices are vectorized row-major: vec(A rho B) = (A kron B^T) vec(rho).
Lindblad kinds treat every (bath, transition) channel independently; the
Redfield kinds keep all cross-transition dipole products within each bath,
which is what couples populations to coherences.
"""

from dataclasses import dataclass, field

import numpy as np

from .baths import (
    BathSpec,
    LambIntegralParams,
    RedfieldCoefficients,
    gamma_xi_ohmic,
    redfield_coefficients,
)
from .errors import ConfigError, ValidationError
from .floquet import (
    DriveSpec,
    FloquetDecomposition,
    drive_hamiltonian,
    fourier_operator_coefficients,
    jump_operator_table,
    static_fourier_set,
)
from .operators import hermitian_eigensystem, require_hermitian

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
    drive: DriveSpec | None = None
    lamb_params: LambIntegralParams = LambIntegralParams()
    q_max: int = 0
    period_nodes: int = 256

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


def sop_dissipator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> a rho b† - (1/2){b† a, rho}."""
    bd_a = b.conj().T @ a
    return sop_sandwich(a, b.conj().T) - 0.5 * (sop_left(bd_a) + sop_right(bd_a))


@dataclass
class Generator:
    """A built master-equation generator.

    ``apply(t, rho)`` returns d(rho)/dt.  Time-independent kinds hold one
    precomputed superoperator; tau-periodic kinds hold superoperators on a
    uniform period grid (endpoints included) with linear interpolation in t
    -- interpolation is exact for trace/Hermiticity preservation since both
    are linear constraints.  ``propagator`` maps t, or an array of times,
    to U_S(t,0) for transforming interaction-picture solutions back to the
    Schrodinger picture; it is None for Schrodinger-picture kinds.
    """

    kind: str
    picture: str
    dim: int
    superop: np.ndarray | None = None
    superop_samples: np.ndarray | None = field(default=None, repr=False)
    tau: float | None = None
    h_lamb: dict = field(default_factory=dict)
    propagator: object = None
    meta: dict = field(default_factory=dict)

    def superop_at(self, t) -> np.ndarray:
        """L(t); an array of times gives the stack, shape t.shape + (d*d, d*d)."""
        if self.superop is not None:
            if np.ndim(t) == 0:
                return self.superop
            return np.broadcast_to(self.superop, np.shape(t) + self.superop.shape)
        n = self.superop_samples.shape[0] - 1
        pos = (np.asarray(t, dtype=float) % self.tau) / self.tau * n
        k = np.floor(pos).astype(np.int64)
        frac = pos - k
        frac = np.where(frac < 1e-12, 0.0, frac)[..., None, None]
        return ((1.0 - frac) * self.superop_samples[k]
                + frac * self.superop_samples[np.minimum(k + 1, n)])

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        v = self.superop_at(t) @ np.asarray(rho, dtype=complex).ravel()
        return v.reshape(self.dim, self.dim)

    @property
    def is_static(self) -> bool:
        return self.superop is not None

    def h_lamb_total(self) -> np.ndarray:
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for h in self.h_lamb.values():
            total = total + h
        return total


# ---------------------------------------------------------------------------
# Lindblad / Floquet-Lindblad


def _channel_tables(channel: CouplingChannel, spec: GeneratorSpec,
                    static_spectrum=None):
    """Jump tables for the channel's sigma_x/sigma_y operators.

    Static kinds use the trivial q = 0 harmonic set on the system spectrum;
    Floquet kinds Fourier-resolve on the decomposition.
    """
    tables = []
    for op in channel.operators:
        if spec.floquet is None:
            fset = static_fourier_set(op)
            table = jump_operator_table(fset, static_spectrum)
        else:
            fset = fourier_operator_coefficients(spec.floquet, op, spec.q_max)
            table = jump_operator_table(fset, spec.floquet.quasi)
        if not table.entries:
            raise ConfigError(
                f"channel {channel.bath.name}/{channel.transition}: the Fourier "
                "floor removed every jump operator; raise q_max or lower the floor"
            )
        tables.append(table)
    return tables


def _secular_channel_terms(channel: CouplingChannel, spec: GeneratorSpec,
                           omega_shift: float, tables) -> tuple[np.ndarray, np.ndarray]:
    """Dissipator superoperator and Lamb Hamiltonian of one channel.

    Sums gamma/xi at omega + q*Omega over the channel's jump tables.  Cross
    terms between sigma_x and sigma_y vanish for the Ohmic bath and are
    omitted (see baths.gamma_xi_ohmic_cross).
    """
    d = channel.dim
    diss = np.zeros((d * d, d * d), dtype=complex)
    h_lamb = np.zeros((d, d), dtype=complex)
    bath = channel.bath
    for table in tables:
        for q, omega, s_op in table.items():
            x = omega + q * omega_shift
            cc = gamma_xi_ohmic(bath.spectral, bath.beta, x, spec.lamb_params)
            diss += cc.gamma * sop_dissipator(s_op, s_op)
            if spec.lamb_shift:
                h_lamb += cc.xi * (s_op.conj().T @ s_op)
    return diss, h_lamb


def _collective_channels(channels) -> list:
    """Merge each bath's transitions into one channel with summed quadrature ops.

    This is the shared-bath-mode (textbook secular) variant: transitions of
    one bath interfere through common jump operators.  The default per-
    transition treatment keeps them as independent decoherence channels.
    """
    merged = []
    by_bath: dict = {}
    for ch in channels:
        by_bath.setdefault(ch.bath, []).append(ch)
    for bath, group in by_bath.items():
        ops = [sum(c.sigma_x for c in group), sum(c.sigma_y for c in group)]
        merged.append((bath, ops,
                       f"{bath.name}:collective{tuple(c.transition for c in group)}"))
    return merged


def lindblad_generator(h0, spec: GeneratorSpec, picture: str = "schrodinger",
                       collective: bool = False) -> Generator:
    """Static Lindblad generator.

    In the default Schrodinger picture the coherent term -i[h0 + H_lamb, .]
    is included (the secular dissipator is picture invariant).  Pass
    ``picture="interaction"`` to get the bare interaction-picture form used
    by the picture-transform consistency checks.  ``collective=True`` sums
    each bath's transition operators into shared jump operators (bath modes
    common to the transitions) instead of treating transitions as
    independent channels.
    """
    h0 = require_hermitian(h0)
    if spec.kind != "lindblad":
        raise ValidationError(f"expected kind 'lindblad', got {spec.kind!r}")
    spectrum = hermitian_eigensystem(h0)
    d = h0.shape[0]
    diss = np.zeros((d * d, d * d), dtype=complex)
    h_lamb = {}
    if collective:
        for bath, ops, key in _collective_channels(spec.channels):
            lamb_ch = np.zeros((d, d), dtype=complex)
            for op in ops:
                table = jump_operator_table(static_fourier_set(op), spectrum)
                for q, omega, s_op in table.items():
                    cc = gamma_xi_ohmic(bath.spectral, bath.beta, omega, spec.lamb_params)
                    diss += cc.gamma * sop_dissipator(s_op, s_op)
                    if spec.lamb_shift:
                        lamb_ch += cc.xi * (s_op.conj().T @ s_op)
            h_lamb[key] = lamb_ch
        return _finish_lindblad(h0, spec, spectrum, diss, h_lamb, picture)
    for ch in spec.channels:
        tables = _channel_tables(ch, spec, static_spectrum=spectrum)
        ch_diss, ch_lamb = _secular_channel_terms(ch, spec, 0.0, tables)
        diss += ch_diss
        key = f"{ch.bath.name}:{ch.transition}"
        h_lamb[key] = ch_lamb
    return _finish_lindblad(h0, spec, spectrum, diss, h_lamb, picture)


def _finish_lindblad(h0, spec, spectrum, diss, h_lamb, picture) -> Generator:
    d = h0.shape[0]

    lamb_total = sum(h_lamb.values()) if spec.lamb_shift else np.zeros((d, d))
    if picture == "schrodinger":
        sop = sop_commutator(h0 + lamb_total) + diss
        prop = None
    elif picture == "interaction":
        sop = sop_commutator(np.asarray(lamb_total, dtype=complex)) + diss

        def prop(t, _spec=spectrum):
            phases = np.exp(-1j * _spec.energies * np.asarray(t, dtype=float)[..., None])
            return (_spec.vectors * phases[..., None, :]) @ _spec.vectors.conj().T
    else:
        raise ValidationError(f"unknown picture {picture!r}")
    return Generator(kind="lindblad", picture=picture, dim=d, superop=sop,
                     h_lamb=h_lamb, propagator=prop, meta={"h0": h0})


def floquet_lindblad_generator(h0, spec: GeneratorSpec) -> Generator:
    """Floquet-Lindblad generator, time independent in the interaction picture.

    Rates and shifts are evaluated at omega + q*Omega on the jump-operator
    table of each channel; the Schrodinger-picture transform
    U_S(t) = P(t) exp(-i Hbar t) is attached for the trajectory recorder.
    """
    h0 = require_hermitian(h0)
    if spec.kind != "floquet_lindblad":
        raise ValidationError(f"expected kind 'floquet_lindblad', got {spec.kind!r}")
    decomp = spec.floquet
    d = decomp.dim
    omega_drive = decomp.omega_drive
    diss = np.zeros((d * d, d * d), dtype=complex)
    h_lamb = {}
    for ch in spec.channels:
        tables = _channel_tables(ch, spec)
        ch_diss, ch_lamb = _secular_channel_terms(ch, spec, omega_drive, tables)
        diss += ch_diss
        key = f"{ch.bath.name}:{ch.transition}"
        h_lamb[key] = ch_lamb

    lamb_total = sum(h_lamb.values()) if spec.lamb_shift else np.zeros((d, d))
    sop = sop_commutator(np.asarray(lamb_total, dtype=complex)) + diss
    return Generator(kind="floquet_lindblad", picture="interaction", dim=d,
                     superop=sop, tau=decomp.tau, h_lamb=h_lamb,
                     propagator=decomp.propagator_at,
                     meta={"h0": h0, "decomposition": decomp})


# ---------------------------------------------------------------------------
# Redfield (static)


def _require_diagonal(h0) -> np.ndarray:
    h0 = require_hermitian(h0)
    if np.max(np.abs(h0 - np.diag(np.diag(h0)))) > 1e-12:
        raise ValidationError("Redfield kinds require h0 diagonal in the level basis")
    return h0


def _group_by_bath(channels) -> dict:
    groups: dict = {}
    for ch in channels:
        if ch.dipole is None:
            raise ConfigError(
                f"channel {ch.bath.name}/{ch.transition} lacks a dipole magnitude "
                "required by Redfield kinds"
            )
        groups.setdefault(ch.bath, []).append(ch)
    return groups


def _redfield_z(bath: BathSpec, x: float, spec: GeneratorSpec) -> RedfieldCoefficients:
    rc = redfield_coefficients(x, bath.beta, spec.lamb_params)
    if not spec.lamb_shift:
        rc = RedfieldCoefficients(n1=rc.n1, n2=rc.n2, c1_imag=0.0, c2_imag=0.0)
    return rc


def redfield_generator(h0, spec: GeneratorSpec) -> Generator:
    """Static Redfield generator in the Schrodinger picture.

    Implements the dipole-coupled Born-Markov equation block by block: the
    one-sided and sandwich N1/N2 dissipative sums over all ordered pairs of
    a bath's transitions, plus (iff lamb_shift) the C1/C2 blocks carrying
    the explicit factor i.  Coefficients are evaluated at the second pair's
    gap.  Trace and Hermiticity preservation are exact by construction.
    """
    h0 = _require_diagonal(h0)
    if spec.kind != "redfield":
        raise ValidationError(f"expected kind 'redfield', got {spec.kind!r}")
    d = h0.shape[0]
    energies = np.diag(h0).real
    k0 = DIPOLE_PREFACTOR

    def unit(i, j):
        m = np.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        return m

    sop = sop_commutator(h0)
    for bath, group in _group_by_bath(spec.channels).items():
        pairs = [ch.transition for ch in group]
        mus = {ch.transition: ch.dipole for ch in group}
        for (i2, j2) in pairs:            # the primed pair carries the frequency
            x = energies[i2] - energies[j2]
            rc = _redfield_z(bath, x, spec)
            for (i1, j1) in pairs:
                m = mus[(i1, j1)] * mus[(i2, j2)]
                # sandwich N block
                sop += k0 * m * rc.n1 * (sop_sandwich(unit(i1, j1), unit(j2, i2))
                                         + sop_sandwich(unit(i2, j2), unit(j1, i1)))
                sop += k0 * m * rc.n2 * (sop_sandwich(unit(j1, i1), unit(i2, j2))
                                         + sop_sandwich(unit(j2, i2), unit(i1, j1)))
                # sandwich C blocks (explicit factor i)
                if spec.lamb_shift:
                    sop += 1j * k0 * m * rc.c1_imag * (
                        sop_sandwich(unit(i1, j1), unit(j2, i2))
                        - sop_sandwich(unit(i2, j2), unit(j1, i1)))
                    sop += 1j * k0 * m * rc.c2_imag * (
                        sop_sandwich(unit(j2, i2), unit(i1, j1))
                        - sop_sandwich(unit(j1, i1), unit(i2, j2)))
                # one-sided blocks need a shared level between the pairs
                if i1 == i2:              # shared upper level
                    op_l = sop_left(unit(j1, j2))
                    op_r = sop_right(unit(j2, j1))
                    sop += -k0 * m * rc.n1 * (op_l + op_r)
                    if spec.lamb_shift:
                        sop += -1j * k0 * m * rc.c1_imag * (op_r - op_l)
                if j1 == j2:              # shared lower level
                    op_l = sop_left(unit(i1, i2))
                    op_r = sop_right(unit(i2, i1))
                    sop += -k0 * m * rc.n2 * (op_l + op_r)
                    if spec.lamb_shift:
                        sop += -1j * k0 * m * rc.c2_imag * (op_l - op_r)
    return Generator(kind="redfield", picture="schrodinger", dim=d, superop=sop,
                     meta={"h0": h0})


# ---------------------------------------------------------------------------
# Floquet-Redfield


def _weighted_jump_sums(table, qs, omega_drive, bath, spec):
    """Per-q operators entering the partial-secular dissipator.

    For each harmonic q, the free omega sum collapses to sigma(q) by
    completeness, while the primed sum weights sigma(q, omega') (or its
    dagger) with the coefficient combinations N +- i*C at omega' + q*Omega.
    Returns dict q -> (plain, u2, t1m, u1, t2m).
    """
    d = None
    by_q: dict = {}
    for q, omega, op in table.items():
        d = op.shape[0]
        by_q.setdefault(q, []).append((omega, op))
    out = {}
    for q in qs:
        if q not in by_q:
            continue
        plain = np.zeros((d, d), dtype=complex)
        u2 = np.zeros((d, d), dtype=complex)
        t1m = np.zeros((d, d), dtype=complex)
        u1 = np.zeros((d, d), dtype=complex)
        t2m = np.zeros((d, d), dtype=complex)
        for omega, op in by_q[q]:
            rc = _redfield_z(bath, omega + q * omega_drive, spec)
            z_n2p = rc.n2 + 1j * rc.c2_imag
            z_n2m = rc.n2 - 1j * rc.c2_imag
            z_n1p = rc.n1 + 1j * rc.c1_imag
            z_n1m = rc.n1 - 1j * rc.c1_imag
            plain += op
            u2 += z_n2p * op.conj().T
            t1m += z_n1m * op
            u1 += z_n1p * op.conj().T
            t2m += z_n2m * op
        out[q] = (plain, u2, t1m, u1, t2m)
    return out


def floquet_redfield_generator(h0, spec: GeneratorSpec,
                               full_secular: bool = False) -> Generator:
    """Floquet-Redfield generator with the q' = q partial secular filter.

    The tau-periodic superoperator is cached on ``spec.period_nodes`` grid
    nodes and linearly interpolated in t.  ``full_secular=True`` restricts
    additionally to omega' = omega (consistency checks against the
    Floquet-Lindblad construction).
    """
    h0 = _require_diagonal(h0)
    if spec.kind != "floquet_redfield":
        raise ValidationError(f"expected kind 'floquet_redfield', got {spec.kind!r}")
    decomp = spec.floquet
    d = decomp.dim
    omega_drive = decomp.omega_drive
    k0 = DIPOLE_PREFACTOR
    n_nodes = spec.period_nodes
    if decomp.grid_m % n_nodes != 0:
        raise ValidationError(
            f"period_nodes={n_nodes} must divide the decomposition grid {decomp.grid_m}"
        )
    stride = decomp.grid_m // n_nodes
    qs = range(-spec.q_max, spec.q_max + 1)

    # Dipole-weighted operator sums in the Floquet frame, one entry per bath.
    # Partial secular: keyed by q with the five factorized sums.  Full
    # secular: keyed by (q, gap index) with sigma-bar(q, omega) and its
    # coefficient set, since omega' = omega blocks the omega factorization.
    per_bath: list = []
    for bath, group in _group_by_bath(spec.channels).items():
        sums: dict = {}
        for ch in group:
            fset = fourier_operator_coefficients(decomp, ch.pair_op, spec.q_max)
            table = jump_operator_table(fset, decomp.quasi)
            if full_secular:
                for q, omega, op in table.items():
                    gi = table.gap_index(omega)
                    rc = _redfield_z(bath, omega + q * omega_drive, spec)
                    prev = sums.get((q, gi))
                    acc = ch.dipole * op if prev is None else prev[1] + ch.dipole * op
                    sums[(q, gi)] = (rc, acc)
            else:
                contrib = _weighted_jump_sums(table, qs, omega_drive, bath, spec)
                for q, ops in contrib.items():
                    if q in sums:
                        sums[q] = tuple(s + ch.dipole * o for s, o in zip(sums[q], ops))
                    else:
                        sums[q] = tuple(ch.dipole * o for o in ops)
        per_bath.append(sums)

    h_of_t = drive_hamiltonian(h0, spec.drive)
    eye = np.eye(d)
    samples = np.empty((n_nodes + 1, d * d, d * d), dtype=complex)
    for node in range(n_nodes + 1):
        t = (node % n_nodes) * decomp.tau / n_nodes
        p = decomp.p_samples[(node % n_nodes) * stride]
        sop = sop_commutator(h_of_t(t))
        for sums in per_bath:
            if full_secular:
                for rc, op in sums.values():
                    sop += _full_secular_block(rc, p @ op @ p.conj().T, k0)
                continue
            for q, ops in sums.items():
                a, u2, t1m, u1, t2m = (p @ o @ p.conj().T for o in ops)
                ad = a.conj().T
                left = a @ u2 + ad @ t1m
                right = t2m @ ad + u1 @ a
                sop += -k0 * (
                    np.kron(left, eye) + np.kron(eye, right.T)
                    - np.kron(a, u1.T) - np.kron(ad, t2m.T)
                    - np.kron(t1m, ad.T) - np.kron(u2, a.T)
                )
        samples[node] = sop
    return Generator(kind="floquet_redfield", picture="schrodinger", dim=d,
                     superop_samples=samples, tau=decomp.tau,
                     meta={"h0": h0, "decomposition": decomp,
                           "full_secular": full_secular})


def _full_secular_block(rc: RedfieldCoefficients, a: np.ndarray, k0: float) -> np.ndarray:
    """Eight-term block with both operators at the same (q, omega)."""
    d = a.shape[0]
    eye = np.eye(d)
    ad = a.conj().T
    z_n2p = rc.n2 + 1j * rc.c2_imag
    z_n2m = rc.n2 - 1j * rc.c2_imag
    z_n1p = rc.n1 + 1j * rc.c1_imag
    z_n1m = rc.n1 - 1j * rc.c1_imag
    return -k0 * (
        z_n2p * np.kron(a @ ad, eye) + z_n1m * np.kron(ad @ a, eye)
        - (z_n1p + z_n1m) * np.kron(a, a.conj())
        - (z_n2m + z_n2p) * np.kron(ad, a.T)
        + z_n2m * np.kron(eye, (a @ ad).T) + z_n1p * np.kron(eye, (ad @ a).T)
    )


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
    "sop_dissipator",
    "sop_left",
    "sop_right",
    "sop_sandwich",
]
