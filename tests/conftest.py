"""Shared fixtures: the reference decompositions and long trajectories are
expensive, so they are computed once per session and reused across modules."""

import os
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import settings

from floqdyn.baths import spectral_density
from floqdyn.floquet import fourier_operator_coefficients, jump_operator_table
from floqdyn.scenarios import (
    build_generator,
    build_three_level,
    decompose_scenario,
    efficiency,
    evolve,
)

# In CI (CI set, as GitHub Actions sets it) a failing property example prints the
# @reproduce_failure blob that replays it.  The profile builds on the one loaded
# at import, which recent hypothesis releases already make their own "ci" profile.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def gibbs_state(h, beta: float) -> np.ndarray:
    """exp(-beta h) / Tr exp(-beta h), from the eigensystem of ``h``."""
    w, v = np.linalg.eigh(h)
    p = np.exp(-beta * (w - w.min()))
    return (v * (p / p.sum())) @ v.conj().T


def transition_operators(i: int, j: int, d: int) -> tuple:
    """|i><j| and its quadratures (|i><j| + |j><i|)/2 and i(|i><j| - |j><i|)/2,
    the couplings of a bath's (i, j) transition in a d-level system."""
    pair = np.zeros((d, d), dtype=complex)
    pair[i, j] = 1.0
    return pair, (pair + pair.T) / 2, 1j * (pair - pair.T) / 2


def reference_dipole(bath, gap: float) -> float:
    """Redfield dipole of a transition of ``bath`` at ``gap`` > 0: equal
    emission rates give mu^2 = 6 pi^2 J(gap) / gap^3, with the Ohmic
    J(x) = j0 x exp(-x^2 / omega_c^2)."""
    j = bath.j0 * gap * np.exp(-gap**2 / bath.omega_cutoff**2)
    return float(np.sqrt(6 * np.pi**2 * j / gap**3))


def table_entries(table) -> dict:
    """The operators of a jump table (gaps, keys, ops) keyed by the tuples of its keys."""
    _, keys, ops = table
    return dict(zip(map(tuple, keys.tolist()), ops))


def jump_entry(table, q: int, omega: float) -> np.ndarray:
    """S(q, omega) of a jump table: its entry at the tabulated gap omega, or
    zero where the projection was omitted."""
    gaps, _, ops = table
    gi = int(np.argmin(np.abs(gaps - omega)))
    assert abs(gaps[gi] - omega) <= 1e-9, f"{omega} is not a tabulated gap"
    return table_entries(table).get((q, gi), np.zeros_like(ops[0]))


@pytest.fixture(scope="session")
def h0_three():
    return np.diag([0.0, 3.0, 2.5]).astype(complex)


@pytest.fixture(scope="session")
def cfg_v0():
    return build_three_level("v0")


@pytest.fixture(scope="session")
def cfg_v1():
    return build_three_level("v1")


@pytest.fixture(scope="session")
def dec_v0(cfg_v0):
    return decompose_scenario(cfg_v0)


@pytest.fixture(scope="session")
def dec_v1(cfg_v1):
    return decompose_scenario(cfg_v1)


@pytest.fixture(scope="session")
def gen_v0(cfg_v0, dec_v0):
    return build_generator(cfg_v0, decomposition=dec_v0)


@pytest.fixture(scope="session")
def gen_v1(cfg_v1, dec_v1):
    return build_generator(cfg_v1, decomposition=dec_v1)


@pytest.fixture(scope="session")
def long_runs(cfg_v0, cfg_v1, gen_v0, gen_v1):
    """eta(t ~ 6000) for the three 3-level presets, shared by several tests."""
    import time

    t0 = time.time()
    cfg_nd = build_three_level("nondriven")
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out["nondriven"] = evolve(cfg_nd, 6000.0)
        out["v0"] = evolve(cfg_v0, 6000.0, generator=gen_v0)
        out["v1"] = evolve(cfg_v1, 6000.0, generator=gen_v1)
    out["eta"] = {k: efficiency(v)[0] for k, v in out.items()}
    out["elapsed"] = time.time() - t0
    return out


def propagator_oracle(cfg):
    """U(s, 0) over one drive period from scipy's DOP853 at rtol 1e-13.

    H(t) = H0 + mu cos(Omega t)(|i><j| + |j><i|) is written out here rather
    than taken from floqdyn.  Returns ``(sol, tau)``: ``sol.sol(s)`` is the
    row-major vec of U(s) for s in [0, tau] and ``sol.y[:, -1]`` that of the
    monodromy U(tau, 0).
    """
    d = cfg.dim
    h0 = np.diag(np.asarray(cfg.energies, dtype=complex))
    i, j = cfg.drive.pair
    x = np.zeros((d, d))
    x[i, j] = x[j, i] = 1.0
    mu, omega = cfg.drive.mu, cfg.drive.omega
    tau = 2.0 * np.pi / omega

    def rhs(t, y):
        return (-1j * ((h0 + mu * np.cos(omega * t) * x) @ y.reshape(d, d))).ravel()

    sol = scipy.integrate.solve_ivp(rhs, (0.0, tau), np.eye(d, dtype=complex).ravel(),
                                    method="DOP853", rtol=1e-13, atol=1e-13,
                                    dense_output=True)
    assert sol.success, sol.message
    return sol, tau


def random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (a + a.conj().T)


def coordinate_maps(d: int) -> tuple:
    """The dense maps (N, M) between row-major vecs of d x d matrices and the d^2
    real coordinates of ``operators.to_coordinates``, entry by entry from their
    definition: M puts a coherence (re, im) at (i, j) as re + i im and at (j, i)
    as re - i im, N takes re = (z_ij + z_ji)/2 and im = (z_ij - z_ji)/2i out."""
    n, m = np.zeros((2, d * d, d * d), dtype=complex)
    for k in range(d):
        n[k, k * d + k] = m[k * d + k, k] = 1.0
    for c, (i, j) in enumerate(zip(*np.triu_indices(d, 1))):
        re, im, ij, ji = d + 2 * c, d + 2 * c + 1, i * d + j, j * d + i
        m[ij, re] = m[ji, re] = 1.0
        m[ij, im], m[ji, im] = 1j, -1j
        n[re, ij] = n[re, ji] = 0.5
        n[im, ij], n[im, ji] = -0.5j, 0.5j
    return n, m


def mp_min_eigenvalue(h, dps=30):
    """Smallest eigenvalue of an exactly Hermitian matrix: mpmath's ``eighe``
    at ``dps`` digits on its entries, rounded once to a float."""
    with mpmath.workdps(dps):
        return float(min(mpmath.eighe(mpmath.matrix(np.asarray(h).tolist()),
                                      eigvals_only=True)))


#: Relative agreement demanded between floqdyn's xi and :func:`xi_oracle`.
XI_ORACLE_RTOL = 2e-6


def quad_cauchy(f, pole, hi):
    """Independent PV oracle: QUADPACK's weight='cauchy' on [0, hi], asked for
    1e-13 relative.  At its default 1.5e-8 it can stop 1e-11 off (at a pole of
    86.594 with f = nu^3/(exp(nu/4) - 1))."""
    total, _ = scipy.integrate.quad(f, 0.0, hi, weight="cauchy", wvar=pole,
                                    limit=400, epsabs=0.0, epsrel=1e-13)
    return total


def xi_oracle(spec, beta, x):
    """Brute-force xi via QUADPACK: -2 * PV int_0^inf G(x, omega) d omega."""
    def g_em(w):
        return spectral_density(spec, w) / np.expm1(beta * w) if w > 0 else spec.j0 / beta

    def g_ab(w):
        occ = 1.0 / np.expm1(beta * w) + 1.0 if w > 0 else np.inf
        return spectral_density(spec, w) * occ if w > 0 else spec.j0 / beta

    hi = 60.0 / beta + abs(x) + 10.0
    if x > 0:
        i1 = -quad_cauchy(g_em, x, hi)
        i2 = scipy.integrate.quad(lambda w: g_ab(w) / (x + w), 0, hi, limit=400)[0]
    elif x < 0:
        i1 = scipy.integrate.quad(lambda w: g_em(w) / (x - w), 0, hi, limit=400)[0]
        i2 = quad_cauchy(g_ab, -x, hi)
    else:
        i1, i2 = 0.0, scipy.integrate.quad(
            lambda w: spec.j0 * np.exp(-w**2 / spec.omega_cutoff**2), 0, hi)[0]
    return -2.0 * (i1 + i2)


@pytest.fixture(scope="session")
def lamb_oracle(cfg_v0, dec_v0):
    """Per bath: the sum of xi(omega + q Omega) S†S over the channel's jump
    table, with xi from QUADPACK, and the error bound XI_ORACLE_RTOL allows.

    ``level1_weight`` is the summed weight on the undriven level |1>, so
    |H_lamb[1, 1]| <= level1_weight * xi_max.
    """
    out = {}
    omega_drive = cfg_v0.drive.omega
    for bath in cfg_v0.baths:
        (transition,) = bath.transitions      # one per bath in the 3-level presets
        want = np.zeros((cfg_v0.dim, cfg_v0.dim), dtype=complex)
        bound, weight, xi_max = 0.0, 0.0, 0.0
        for op in transition_operators(*transition, cfg_v0.dim)[1:]:
            harmonics = fourier_operator_coefficients(dec_v0, op, cfg_v0.q_max)
            table = gaps, _, _ = jump_operator_table(harmonics, dec_v0.quasi)
            for (q, gi), s_op in table_entries(table).items():
                omega = gaps[gi]
                xi = xi_oracle(bath, bath.beta, omega + q * omega_drive)
                sds = s_op.conj().T @ s_op
                want += xi * sds
                bound += abs(xi) * float(np.max(np.abs(sds)))
                weight += sds[1, 1].real
                xi_max = max(xi_max, abs(xi))
        out[bath.name] = {"want": want, "tol": XI_ORACLE_RTOL * bound + 1e-12,
                             "level1_weight": weight, "xi_max": xi_max}
    return out
