import functools
import logging
import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floqdyn import floquet
from floqdyn.errors import ResolutionError, StepSizeError, ValidationError
from floqdyn.floquet import (
    BENCHMARK_GRID_POINTS,
    FOURIER_FLOOR,
    GAP_CLUSTER_TOL,
    HALVING_GAP_TOL,
    DriveSpec,
    _unfold_quasienergies,
    bch_compose,
    benchmark_fidelities,
    cluster_gaps,
    drive_hamiltonian,
    floquet_decompose,
    fourier_operator_coefficients,
    jump_operator_table,
    magnus_bch_propagator,
    magnus_interaction_terms,
    propagate_schrodinger,
)
from floqdyn.operators import (
    hermitian_eigensystem,
    principal_unitary_log,
    unitary_fidelity,
    unitary_from_hermitian,
)
from floqdyn.propagation import magnus_samples
from floqdyn.scenarios import PRESETS, decompose_scenario

from conftest import (
    jump_entry,
    propagator_oracle,
    random_hermitian,
    table_entries,
    transition_operators,
)

H0 = np.diag([0.0, 3.0, 2.5]).astype(complex)
OMEGA = 2.25
TAU = 2 * np.pi / OMEGA
V0 = DriveSpec(mu=0.1, omega=OMEGA, pair=(0, 2))
V1 = DriveSpec(mu=0.1, omega=OMEGA, pair=(1, 2))

#: agreement per Magnus order between the exact integrals and the quadrature
MAGNUS_RTOL = 1e-10


def _drive_vector(omega_gap, omega_drive, t):
    """Pauli components of the interaction-picture drive shape on the pair block."""
    c = np.cos(omega_drive * t)
    return np.stack([c * np.cos(omega_gap * t), -c * np.sin(omega_gap * t),
                     np.zeros_like(t)], axis=-1)


def magnus_terms_quadrature(drive, omega_gap, t, nodes=64):
    """Lambda_1..Lambda_3 by nested Gauss-Legendre quadrature, ``nodes`` per
    dimension: the construction the exact integrals replaced, kept as their
    reference."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    xi, wi = 0.5 * (x + 1.0), 0.5 * w
    t1 = t * xi
    w1 = t * wi
    a1 = _drive_vector(omega_gap, drive.omega, t1)
    t2 = t1[:, None] * xi[None, :]
    w2 = t1[:, None] * wi[None, :]
    a2 = _drive_vector(omega_gap, drive.omega, t2)
    cross12 = np.cross(a1[:, None, :], a2)
    t3 = t2[..., None] * xi[None, None, :]
    w3 = t2[..., None] * wi[None, None, :]
    a3 = _drive_vector(omega_gap, drive.omega, t3)
    term1 = np.cross(a1[:, None, None, :], np.cross(a2[:, :, None, :], a3))
    term2 = np.cross(cross12[:, :, None, :], a3)
    return [np.einsum("i,ik->k", w1, a1),
            0.5 * np.einsum("i,ij,ijk->k", w1, w2, cross12),
            (1.0 / 6.0) * np.einsum("i,ij,ijl,ijlk->k", w1, w2, w3, term1 + term2)]


def first_magnus_term(omega_gap, t):
    """Closed-form Lambda_1(t) of a cosine drive at OMEGA on a pair with gap omega_gap."""
    w = omega_gap
    int_cc = 0.5 * (np.sin((OMEGA + w) * t) / (OMEGA + w)
                    + np.sin((OMEGA - w) * t) / (OMEGA - w))
    int_cs = 0.5 * ((1 - np.cos((w + OMEGA) * t)) / (w + OMEGA)
                    + (1 - np.cos((w - OMEGA) * t)) / (w - OMEGA))
    return np.array([int_cc, -int_cs, 0.0])


def benchmark_fidelities_loop(drive, h0, decomp, grid_points, exact):
    """The per-time loop ``benchmark_fidelities`` replaced, one Magnus+BCH
    propagator per time; kept as its reference."""
    tau = decomp.tau
    n = grid_points - 1
    u_two = np.array([exact(k * tau / n) for k in range(2 * n + 1)])
    ts = np.arange(grid_points) * (tau / n)
    v = decomp.quasi.vectors

    def exp_ihbar(t):
        return (v * np.exp(1j * decomp.quasi.energies * t)) @ v.conj().T

    u_tau = u_two[n]
    u_app_tau = magnus_bch_propagator(drive, h0, tau)
    spec_app = hermitian_eigensystem(principal_unitary_log(u_app_tau) / tau)

    def exp_ih_app(t):
        return (spec_app.vectors * np.exp(1j * spec_app.energies * t)) @ spec_app.vectors.conj().T

    rows = []
    for k, t in enumerate(ts):
        u_app = magnus_bch_propagator(drive, h0, t)
        u_app2 = magnus_bch_propagator(drive, h0, t + tau)
        rows.append((
            unitary_fidelity(u_app, u_two[k]),
            unitary_fidelity(u_two[k] @ exp_ihbar(t), u_two[n + k] @ u_tau.conj().T @ exp_ihbar(t)),
            unitary_fidelity(u_app @ exp_ih_app(t), u_app2 @ u_app_tau.conj().T @ exp_ih_app(t)),
        ))
    return ts, np.array(rows).T


class TestPropagate:
    def test_constant_hamiltonian_matches_closed_form(self):
        h = random_hermitian(np.random.default_rng(1), 3)
        u = propagate_schrodinger(lambda t: h, 0.0, 1.3, steps=3000)
        assert np.linalg.norm(u - unitary_from_hermitian(h, 1.3)) < 1e-8

    def test_zero_drive_is_free_evolution(self):
        h = drive_hamiltonian(H0, DriveSpec(0.0, OMEGA, (0, 2)))
        u = propagate_schrodinger(h, 0.0, TAU, steps=2000)
        assert np.linalg.norm(u - unitary_from_hermitian(H0, TAU)) < 1e-10

    def test_self_convergence_over_one_period(self):
        h = drive_hamiltonian(H0, V0)
        u1 = propagate_schrodinger(h, 0.0, TAU, steps=2000)
        u2 = propagate_schrodinger(h, 0.0, TAU, steps=4000)
        assert unitary_fidelity(u1, u2) >= 1 - 1e-9

    def test_coarse_steps_raise(self):
        # refined four times from 3 steps, 48 against 24 still leaves a gap of 4.7e-3
        h = drive_hamiltonian(100.0 * H0, V0)
        with pytest.raises(StepSizeError, match="between 48 and 24 steps"):
            propagate_schrodinger(h, 0.0, TAU, steps=3)


class TestDecompose:
    def test_coarse_odd_grid_raises(self):
        # a drive of mu = 300 leaves a halving gap of ~5e-3 at the last doubling
        h = drive_hamiltonian(H0, DriveSpec(300.0, OMEGA, (0, 2)))
        with pytest.raises(StepSizeError, match="between 240 and 120 steps"):
            floquet_decompose(h, TAU, H0, grid_m=15)

    def test_coarse_odd_grid_refines(self):
        # under a drive of mu = 1, 15 steps against 7 leave a halving gap of ~8e-5;
        # the grid doubles past it
        h = drive_hamiltonian(H0, DriveSpec(1.0, OMEGA, (0, 2)))
        dec = floquet_decompose(h, TAU, H0, grid_m=15)
        assert dec.grid_m in (30, 60, 120, 240)
        coarse = magnus_samples(h, 0.0, TAU, dec.grid_m // 2)[-1]
        assert np.max(np.abs(dec.u_samples[-1] - coarse)) <= HALVING_GAP_TOL

    @pytest.mark.parametrize("preset", ["three_level_v0", "three_level_v1",
                                        "four_level_degenerate_driven"])
    def test_presets_pass_the_halving_check_on_the_first_grid(self, preset):
        dec = decompose_scenario(PRESETS[preset]())
        assert dec.grid_m == 256
        assert dec.halving_gap <= HALVING_GAP_TOL

    def test_tighter_halving_gap_refines_the_grid(self, cfg_v0, dec_v0):
        # v0's gap is ~2.1e-13 at 256 samples and ~5.6e-14 at 512
        with mock.patch.object(floquet, "HALVING_GAP_TOL", 1e-13):
            fine = decompose_scenario(cfg_v0)
        assert fine.grid_m == 512
        assert dec_v0.halving_gap > 1e-13 >= fine.halving_gap
        assert np.max(np.abs(fine.quasi.energies - dec_v0.quasi.energies)) <= 1e-10

    @pytest.mark.parametrize("preset", ["three_level_v0", "three_level_v1",
                                        "four_level_degenerate_driven"])
    def test_undriven_levels_stay_exactly_decoupled(self, preset):
        # rounding between decoupled levels would reach every recorded coherence
        cfg = PRESETS[preset]()
        dec = decompose_scenario(cfg)
        coupled = np.eye(cfg.dim, dtype=bool)
        coupled[np.ix_(cfg.drive.pair, cfg.drive.pair)] = True
        off_grid = dec.p_at(np.array([0.3, 7.1]) * dec.tau / dec.grid_m)
        for stack in (dec.p_samples, dec.hbar_floquet[None], off_grid):
            assert np.all(stack[:, ~coupled] == 0)
        for vec in dec.quasi.vectors.T:
            support = np.flatnonzero(vec)
            assert np.all(coupled[np.ix_(support, support)])

    def test_undriven_decomposition_is_trivial(self):
        dec = floquet_decompose(lambda t: H0, TAU, H0, grid_m=256)
        assert np.max(np.abs(dec.hbar_floquet - H0)) < 1e-9
        assert np.max(np.abs(dec.p_samples - np.eye(3))) < 1e-7

    def test_p_boundary_and_unitarity(self, dec_v0):
        assert np.max(np.abs(dec_v0.p_samples[0] - np.eye(3))) < 1e-7
        worst = max(np.max(np.abs(p.conj().T @ p - np.eye(3))) for p in dec_v0.p_samples[::64])
        assert worst < 1e-7

    def test_monodromy_consistency(self, dec_v0):
        u_tau = dec_v0.u_samples[-1]
        v = dec_v0.quasi.vectors
        u_from_hbar = (v * np.exp(-1j * dec_v0.quasi.energies * dec_v0.tau)) @ v.conj().T
        assert unitary_fidelity(u_tau, u_from_hbar) >= 1 - 1e-6

    def test_unfolded_branches_near_reference(self, dec_v0, dec_v1):
        for dec in (dec_v0, dec_v1):
            for eps, ref in zip(np.sort(dec.quasi.energies), np.sort(np.diag(H0).real)):
                assert abs(eps - ref) <= OMEGA / 2

    def test_quasienergy_pair_sum_preserved(self, dec_v0):
        # the driven (0, b) pair's quasienergies sum to the bare pair sum
        eps = np.sort(dec_v0.quasi.energies)
        assert eps[0] + eps[1] == pytest.approx(2.5, abs=1e-9)

    def test_periodicity_of_p(self, dec_v0):
        # P(t + tau, tau) = P(t, 0): fidelity over a second period of data
        rep = benchmark_fidelities(V0, H0, dec_v0)
        assert rep.fidelity_periodicity.min() >= 1 - 1e-4


def p_oracle(cfg, decomp, t):
    """P(t mod tau) = U(s) exp(i Hbar s), s = t mod tau, with U from DOP853."""
    s = np.ravel(t) % decomp.tau
    sol, _ = propagator_oracle(cfg)
    u = sol.sol(s).T.reshape(-1, decomp.dim, decomp.dim)
    v = decomp.quasi.vectors
    p = u @ ((v * np.exp(1j * decomp.quasi.energies * s[:, None])[:, None, :]) @ v.conj().T)
    return p.reshape(np.shape(t) + (decomp.dim, decomp.dim))


#: off-grid P against the DOP853 P
P_ORACLE_TOL = 1e-10


class TestPAt:
    def test_batched_off_grid_matches_per_time_loop(self, cfg_v0, dec_v0):
        rng = np.random.default_rng(11)
        h = dec_v0.tau / dec_v0.grid_m
        on_grid = np.arange(0, 3 * dec_v0.grid_m, 97) * h
        # several times share a grid interval; some lie past the first period
        off_grid = np.concatenate([rng.uniform(0, 5 * dec_v0.tau, 300),
                                   (17 + rng.uniform(0.01, 0.99, 6)) * h,
                                   (dec_v0.grid_m - 1 + np.array([0.25, 0.75])) * h])
        t = rng.permutation(np.concatenate([on_grid, off_grid])).reshape(-1, 4)
        got = dec_v0.p_at(t)
        assert got.shape == t.shape + (3, 3)
        per_time = np.array([dec_v0.p_at(tk) for tk in t.ravel()]).reshape(got.shape)
        assert np.max(np.abs(got - per_time)) <= 1e-14
        assert np.max(np.abs(got - p_oracle(cfg_v0, dec_v0, t))) <= P_ORACLE_TOL
        assert np.array_equal(dec_v0.p_at(on_grid), dec_v0.p_samples[np.arange(
            0, 3 * dec_v0.grid_m, 97) % dec_v0.grid_m])

    def test_scalar_time(self, cfg_v0, dec_v0):
        t = 0.3 * dec_v0.tau / dec_v0.grid_m + 2 * dec_v0.tau
        got = dec_v0.p_at(t)
        assert got.shape == (3, 3)
        assert np.max(np.abs(got - p_oracle(cfg_v0, dec_v0, t))) <= P_ORACLE_TOL
        assert np.max(np.abs(got.conj().T @ got - np.eye(3))) < 1e-9


class TestFourierCoefficients:
    def test_static_p_gives_single_harmonic(self):
        dec = floquet_decompose(lambda t: H0, TAU, H0, grid_m=256)
        s = random_hermitian(np.random.default_rng(5), 3)
        with mock.patch.object(floquet, "FOURIER_FLOOR", 1e-9):
            harmonics = fourier_operator_coefficients(dec, s, q_max=4)
        assert np.max(np.abs(harmonics[4] - s)) < 1e-7
        for q in (-3, -1, 1, 2):
            assert np.max(np.abs(harmonics[4 + q])) < 1e-7

    def test_hermitian_source_symmetry(self, dec_v0):
        s = random_hermitian(np.random.default_rng(8), 3)
        with mock.patch.object(floquet, "FOURIER_FLOOR", 0.0):
            harmonics = fourier_operator_coefficients(dec_v0, s, q_max=6)
        for q in range(-6, 7):
            assert np.max(np.abs(harmonics[6 + q].conj().T - harmonics[6 - q])) < 1e-6

    def test_inverse_transform_reconstruction(self, dec_v0):
        s = random_hermitian(np.random.default_rng(9), 3)
        floor = FOURIER_FLOOR
        harmonics = fourier_operator_coefficients(dec_v0, s, q_max=24)
        m = dec_v0.grid_m
        for k in (m // 3 + 1, m // 2 + 5):  # mid-grid points
            p = dec_v0.p_samples[k]
            target = p.conj().T @ s @ p
            t = k * dec_v0.tau / m
            recon = sum(harmonics[24 + q] * np.exp(1j * q * OMEGA * t) for q in range(-24, 25))
            assert np.max(np.abs(recon - target)) < 2 * floor

    def test_grid_resolution_guard(self, dec_v0):
        with pytest.raises(ResolutionError):
            fourier_operator_coefficients(dec_v0, H0, q_max=dec_v0.grid_m)


def cluster_gaps_reference(energies, gap_tol):
    """cluster_gaps as a loop over the sorted differences, each cluster's mean
    from np.mean: the loop the array version replaced."""
    flat = (energies[:, None] - energies[None, :]).ravel()
    order = np.argsort(flat)
    labels, means, start = np.empty(flat.shape, dtype=int), [], 0
    for i in range(1, len(flat) + 1):
        if i == len(flat) or flat[order[i]] - flat[order[i - 1]] > gap_tol:
            labels[order[start:i]] = len(means)
            means.append(flat[order[start:i]].mean())
            start = i
    return np.array(means), labels.reshape(len(energies), -1)


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(st.sampled_from([0.0, 1.0, 2.5, 3.0]), min_size=2, max_size=5),
       splits=st.lists(st.floats(-5e-5, 5e-5), min_size=5, max_size=5))
def test_cluster_gaps_match_the_loop(levels, splits):
    # near-degenerate levels make clusters of several differences; their
    # means may differ from np.mean's in the order the sum is taken, by at
    # most the rounding of 25 terms of size <= 3 each way
    energies = np.array(levels) + np.array(splits[:len(levels)])
    gaps, labels = cluster_gaps(energies, 1e-4)
    want_gaps, want_labels = cluster_gaps_reference(energies, 1e-4)
    assert np.array_equal(labels, want_labels)
    assert np.max(np.abs(gaps - want_gaps), initial=0.0) <= 2 * 25 * np.finfo(float).eps * 3.0


def jump_table_reference(harmonics, quasi) -> dict:
    """{(q, gap index): S(q, omega)} of one operator's harmonics, one np.where
    per (q, gap): the loop the gathered table replaced."""
    gaps, labels = cluster_gaps_reference(quasi.energies, GAP_CLUSTER_TOL)
    v = quasi.vectors
    q_max = len(harmonics) // 2
    entries = {}
    for q, sq in zip(range(-q_max, q_max + 1), harmonics):
        sq_eig = v.conj().T @ sq @ v
        for gi in range(len(gaps)):
            block = np.where(labels == gi, sq_eig, 0.0)
            if np.any(block):
                entries[(q, gi)] = v @ block @ v.conj().T
    return entries


@functools.lru_cache(maxsize=None)
def _preset_frame(preset: str):
    """(config, harmonics of an operator stack, spectrum) of a preset's frame:
    its Floquet decomposition, or the spectrum of h0 with S(0) = S."""
    cfg = PRESETS[preset]()
    if cfg.drive is None:
        return cfg, lambda ops: ops[:, None], hermitian_eigensystem(cfg.h0)
    dec = decompose_scenario(cfg)
    return cfg, lambda ops: fourier_operator_coefficients(dec, ops, cfg.q_max), dec.quasi


PRESET_KINDS = [(name, kind) for name, make in PRESETS.items()
                for kind in (("floquet_lindblad", "floquet_redfield") if make().drive
                             else ("lindblad", "redfield"))]


class TestStackedOperators:
    """One harmonics call and one jump table over a stack of operators."""

    def test_stacked_harmonics_equal_per_operator_results(self, dec_v0, cfg_v0):
        rng = np.random.default_rng(11)
        ops = np.array([op for bath in cfg_v0.baths for t in bath.transitions
                        for op in transition_operators(*t, 3)]
                       + [random_hermitian(rng, 3) for _ in range(3)])
        stacked = fourier_operator_coefficients(dec_v0, ops, q_max=24)
        assert stacked.shape == (len(ops), 49, 3, 3)
        assert fourier_operator_coefficients(dec_v0, ops.reshape(3, -1, 3, 3), 24).shape \
            == (3, len(ops) // 3, 49, 3, 3)
        p = dec_v0.p_samples[:dec_v0.grid_m]
        for s, got in zip(ops, stacked):
            single = fourier_operator_coefficients(dec_v0, s, q_max=24)
            assert np.max(np.abs(got - single)) <= 1e-15
            assert np.array_equal(got == 0, single == 0)
            # the per-operator contraction the stacked one replaced
            rotated = np.einsum("tba,bc,tcd->tad", p.conj(), s, p)
            want = np.fft.fft(rotated, axis=0)[np.arange(-24, 25) % len(p)] / len(p)
            assert np.max(np.abs(got[got != 0] - want[got != 0])) <= 1e-15
            assert np.all(np.abs(want[got == 0]) < FOURIER_FLOOR)

    @pytest.mark.parametrize("preset,kind", PRESET_KINDS)
    def test_gathered_table_has_the_keys_of_the_reference_loop(self, preset, kind):
        cfg, harmonics_of, quasi = _preset_frame(preset)
        # the quadratures of each transition for the secular kinds, |i><j| for Redfield
        lo, hi = (1, 3) if kind.endswith("lindblad") else (0, 1)
        ops = np.array([op for bath in cfg.baths for t in bath.transitions
                        for op in transition_operators(*t, cfg.dim)[lo:hi]])
        harmonics = harmonics_of(ops)
        table = _, keys, table_ops = jump_operator_table(harmonics, quasi)
        want = {(k,) + key: op for k, h in enumerate(harmonics)
                for key, op in jump_table_reference(h, quasi).items()}
        got = table_entries(table)
        assert list(got) == sorted(want)
        assert keys.shape == (len(want), 3) and table_ops.shape == (len(want),) + ops.shape[1:]
        for key, op in want.items():
            assert np.max(np.abs(got[key] - op)) <= 1e-15, key


class TestJumpTable:
    def test_static_two_level_case(self):
        h = np.diag([0.0, 3.0]).astype(complex)
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        table = gaps, _, _ = jump_operator_table(sx[None], hermitian_eigensystem(h))
        assert_allclose(np.sort(gaps), [-3.0, 0.0, 3.0], atol=1e-12)
        # omega = -3 selects the component mapping level 1 down to level 0
        lower = jump_entry(table, 0, -3.0)
        assert_allclose(lower, [[0, 0.5], [0, 0]], atol=1e-12)

    def test_completeness_identity(self, dec_v0):
        s = np.zeros((3, 3), dtype=complex)
        s[0, 1] = 0.5
        s[1, 0] = 0.5
        harmonics = fourier_operator_coefficients(dec_v0, s, q_max=10)
        table = jump_operator_table(harmonics, dec_v0.quasi)
        for q in range(-10, 11):
            total = np.zeros((3, 3), dtype=complex)
            for (qq, gi), op in table_entries(table).items():
                if qq == q:
                    total += op
            assert np.max(np.abs(total - harmonics[10 + q])) < 1e-8

    def test_dagger_symmetry(self, dec_v0):
        sx = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]], dtype=complex)
        harmonics = fourier_operator_coefficients(dec_v0, sx, q_max=10)
        table = gaps, _, _ = jump_operator_table(harmonics, dec_v0.quasi)
        for (q, gi), op in table_entries(table).items():
            omega = gaps[gi]
            partner = jump_entry(table, -q, -omega)
            assert np.max(np.abs(op.conj().T - partner)) < 1e-8

    def test_v0_gap_count(self, dec_v0):
        # three nondegenerate quasienergies give 3*2 + 1 distinct gaps
        from floqdyn.floquet import cluster_gaps
        gaps, _ = cluster_gaps(dec_v0.quasi.energies, 1e-4)
        assert len(gaps) == 7
        assert_allclose(sorted(-g for g in gaps), sorted(gaps), atol=1e-12)


class TestMagnusBch:
    def test_zero_drive(self):
        u = magnus_bch_propagator(DriveSpec(0.0, OMEGA, (0, 2)), H0, 1.7)
        assert np.linalg.norm(u - unitary_from_hermitian(H0, 1.7)) < 1e-12

    def test_first_term_analytic_oracle(self):
        omega_gap = -2.5
        vec = magnus_interaction_terms(V0, omega_gap, TAU)[0]
        assert np.max(np.abs(vec - first_magnus_term(omega_gap, TAU))) < 1e-8

    def test_fidelity_against_rk4_v0(self, dec_v0):
        fids = [unitary_fidelity(
            magnus_bch_propagator(V0, H0, k * TAU / 8),
            dec_v0.u_samples[k * dec_v0.grid_m // 8])
            for k in range(9)]
        assert min(fids) > 0.97

    @pytest.mark.parametrize("pair,t", [((0, 2), TAU), ((0, 2), 2 * TAU),
                                        ((1, 2), TAU), ((1, 2), 2 * TAU)])
    def test_nodes_match_64_point_rule(self, pair, t):
        omega_gap = H0[pair[0], pair[0]].real - H0[pair[1], pair[1]].real
        drive = DriveSpec(0.1, OMEGA, pair)
        want = magnus_terms_quadrature(drive, omega_gap, t)
        # the scalar (one-step grid) and the period grid k*tau/64 reaching t
        grid = np.arange(round(64 * t / TAU) + 1) * (TAU / 64)
        got_grid = magnus_interaction_terms(drive, omega_gap, grid)
        for n, (g, gg, w) in enumerate(zip(magnus_interaction_terms(drive, omega_gap, t),
                                           got_grid, want), start=1):
            assert np.linalg.norm(g - w) <= MAGNUS_RTOL * np.linalg.norm(w), n
            assert np.linalg.norm(gg[-1] - w) <= MAGNUS_RTOL * np.linalg.norm(w), n

    @pytest.mark.parametrize("grid", [np.array([TAU]), np.arange(2) * (TAU / 64),
                                      np.arange(3, 6) * (TAU / 64), np.arange(129) * (TAU / 64)],
                             ids=["1", "2", "3_from_k3", "129"])
    def test_grid_rows_match_a_per_step_loop(self, grid, monkeypatch):
        # rows by doubling against one product per grid step of the same exp(h*M)
        def per_step(rows, step):
            for k in range(1, rows.shape[-2]):
                rows[..., k, :] = (step @ rows[..., k - 1, :, None])[..., 0]

        got = magnus_interaction_terms(V0, -2.5, grid)
        monkeypatch.setattr(floquet, "fill_powers", per_step)
        want = magnus_interaction_terms(V0, -2.5, grid)
        for n, (g, w) in enumerate(zip(got, want), start=1):
            assert g.shape == (len(grid), 3)
            assert np.max(np.abs(g - w)) <= 1e-13 * max(1.0, np.max(np.abs(w))), n

    @pytest.mark.parametrize("periods", [1, 2])
    def test_resonant_drive_matches_quadrature_reference(self, periods):
        # omega_drive == |omega_gap|: the chain matrices repeat diagonal
        # entries, where a closed-form divided difference would divide by zero
        drive = DriveSpec(0.1, 2.5, (0, 2))
        want = magnus_terms_quadrature(drive, -2.5, periods * drive.tau)
        grid = np.arange(64 * periods + 1) * (drive.tau / 64)
        got = magnus_interaction_terms(drive, -2.5, grid)
        for n, (g, w) in enumerate(zip(got, want), start=1):
            assert np.linalg.norm(g[-1] - w) <= MAGNUS_RTOL * np.linalg.norm(w), n

    def test_first_term_analytic_oracle_at_forty_periods(self):
        # far beyond what a fixed Gauss rule resolves; the exact integrals
        # have no node count, so they stay on the closed form
        omega_gap = -2.5
        t = 40 * TAU
        got = magnus_interaction_terms(V0, omega_gap, t)[0]
        assert np.max(np.abs(got - first_magnus_term(omega_gap, t))) < 1e-10

    @pytest.mark.filterwarnings("ignore:BCH truncation strained:RuntimeWarning")
    def test_grid_matches_single_times(self):
        grid = np.arange(17) * (TAU / 8)
        u_grid = magnus_bch_propagator(V0, H0, grid)
        assert u_grid.shape == (17, 3, 3)
        for k in (0, 1, 8, 16):
            assert np.max(np.abs(u_grid[k] - magnus_bch_propagator(V0, H0, grid[k]))) < 1e-12
        # a grid that does not start at 0: k = 3, 4, ...
        assert np.max(np.abs(magnus_bch_propagator(V0, H0, grid[3:6]) - u_grid[3:6])) < 1e-12

    @pytest.mark.parametrize("t", [np.zeros((2, 2)), np.array([]), [0.0, np.nan],
                                   [0.0, 0.1, 0.3], [0.05, 0.15], [0.1, 0.1], "tau",
                                   [0.0, -0.1, 0.1]])
    def test_rejects_times_off_one_uniform_grid(self, t):
        with pytest.raises(ValidationError):
            magnus_bch_propagator(V0, H0, t)

    def test_grid_call_warns_once(self, caplog):
        grid = np.arange(129) * (TAU / 64)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with caplog.at_level(logging.WARNING, logger="floqdyn"):
                magnus_bch_propagator(V0, H0, grid)
        strained = [w for w in caught if "BCH truncation strained" in str(w.message)]
        assert len(strained) == 1
        assert re.match(r"BCH truncation strained at \d+ of 129 times", str(strained[0].message))
        assert strained[0].filename == __file__
        # the same event on the package logger
        assert [(r.name, r.getMessage()) for r in caplog.records] == \
            [("floqdyn", str(strained[0].message))]

    def test_requires_diagonal_h0(self):
        h = H0.copy()
        h[0, 1] = h[1, 0] = 0.3
        with pytest.raises(ValidationError):
            magnus_bch_propagator(V0, h, 1.0)


def bch_per_word(x, y):
    """The BCH sum as the terms' nested commutators, each formed from its own
    word, innermost first: the reference that :func:`bch_compose` must match bit
    for bit."""
    ops = {"X": x, "Y": y}
    total = np.zeros_like(x)
    for coeff, word in floquet._BCH_TERMS:
        acc = ops[word[-1]]
        for ch in word[-2::-1]:
            m = ops[ch]
            acc = m @ acc - acc @ m
        total = total + coeff * acc
    return total


class TestBchCompose:
    @pytest.mark.parametrize("shape", [(3, 3), (129, 3, 3), (5, 4, 4), (2, 3, 16, 16)])
    def test_equals_the_per_word_series_bit_for_bit(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1e-3, 1.0, 30.0):
            x, y = (scale * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
                    for _ in range(2))
            assert np.array_equal(bch_compose(x, y), bch_per_word(x, y))

    def test_zero_second_argument(self):
        x = random_hermitian(np.random.default_rng(3), 4) * 1j
        assert np.array_equal(bch_compose(x, np.zeros_like(x)), x)

    def test_commuting_arguments_add(self):
        rng = np.random.default_rng(4)
        # -i times diagonal Hamiltonians: each product's entries are real
        # products, whose order does not matter, so every commutator is exactly 0
        x, y = (-1j * np.apply_along_axis(np.diag, -1, rng.normal(size=(6, 3)))
                for _ in range(2))
        assert np.array_equal(bch_compose(x, y), x + y)
        # functions of one Hermitian matrix commute up to rounding
        spec = hermitian_eigensystem(random_hermitian(rng, 4))
        v = spec.vectors
        x, y = ((v * f(spec.energies)) @ v.conj().T for f in (np.sin, np.exp))
        assert_allclose(bch_compose(-1j * x, -1j * y), -1j * (x + y), atol=1e-13)


class TestGaugeInvariance:
    def test_folded_and_unfolded_generators_agree(self, cfg_v0, dec_v0):
        # physics must not depend on the quasienergy branch choice; the
        # gauges differ in Hbar, so compare L + i[Hbar, .], the generator of
        # the interaction picture of U(t) = P(t) exp(-i Hbar t)
        from floqdyn.generators import sop_commutator
        from floqdyn.scenarios import build_generator

        h = drive_hamiltonian(H0, V0)
        dec_f = floquet_decompose(h, TAU, H0, grid_m=1024, unfold=False)
        gen_u = build_generator(cfg_v0, decomposition=dec_v0)
        gen_f = build_generator(replace(cfg_v0, q_max=26), decomposition=dec_f)
        l_u = gen_u.superop - sop_commutator(dec_v0.hbar_floquet)
        l_f = gen_f.superop - sop_commutator(dec_f.hbar_floquet)
        diff = np.linalg.norm(l_u - l_f, 2)
        assert diff < 1e-6


class TestUnfoldingAmbiguity:
    def test_equidistant_branches_raise(self):
        from floqdyn.errors import NumericalError

        # reference level exactly Omega/2 away from the quasienergy
        ref = np.diag([0.0, OMEGA / 2]).astype(complex)
        with pytest.raises(NumericalError, match="ambiguous"):
            floquet_decompose(lambda t: np.zeros((2, 2), dtype=complex), TAU,
                              ref, grid_m=64)


class TestBranchRule:
    @staticmethod
    def unfold(h_principal, reference, omega):
        """Principal and unfolded quasienergies of each mode, and the energy of
        its most-overlapped reference level, with the overlaps |V_r† V_p|^2."""
        spec_p = hermitian_eigensystem(h_principal)
        spec_r = hermitian_eigensystem(reference)
        overlap = np.abs(spec_r.vectors.conj().T @ spec_p.vectors) ** 2
        near = spec_r.energies[np.argmax(overlap, axis=0)]
        turns = (near - spec_p.energies) / omega
        # a quasienergy equidistant from two branches refuses (TestUnfoldingAmbiguity)
        assume(np.all(np.abs(np.abs(turns - np.round(turns)) - 0.5) >= 1e-6))
        h_bar = _unfold_quasienergies(h_principal, reference, omega)
        unfolded = np.einsum("am,ab,bm->m", spec_p.vectors.conj(), h_bar, spec_p.vectors).real
        return spec_p.energies, unfolded, near, overlap

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           omega=st.floats(0.1, 5.0), scale=st.floats(0.1, 10.0))
    def test_nearest_branch_to_most_overlapped_level(self, d, seed, omega, scale):
        rng = np.random.default_rng(seed)
        h_principal = random_hermitian(rng, d)
        reference = random_hermitian(rng, d, scale)
        principal, unfolded, near, _ = self.unfold(h_principal, reference, omega)
        turns = (unfolded - principal) / omega
        assert np.max(np.abs(turns - np.round(turns))) < 1e-9
        assert np.all(np.abs(unfolded - near) <= omega / 2 * (1 + 1e-9))

    @settings(max_examples=200, deadline=None)
    @given(d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), scale=st.floats(0.0, 1.0))
    def test_dominant_overlaps_choose_the_assignment_solver_levels(self, d, seed, scale):
        # modes exp(-i scale H) away from a permutation of a rotated reference basis;
        # the bare levels 3 Omega apart, so an unfolded quasienergy (within Omega/2 of
        # its level) names the level it was given
        rng = np.random.default_rng(seed)
        w = scipy.linalg.expm(-1j * random_hermitian(rng, d))
        bare = 3.0 * OMEGA * np.arange(d)
        reference = (w * bare) @ w.conj().T
        modes = w @ scipy.linalg.expm(-1j * scale * random_hermitian(rng, d))[:, rng.permutation(d)]
        h_principal = (modes * rng.uniform(-OMEGA / 2, OMEGA / 2, d)) @ modes.conj().T
        _, unfolded, _, overlap = self.unfold(h_principal, reference, OMEGA)
        assume(np.all(overlap.max(axis=0) > 0.5))
        chosen = np.argmin(np.abs(unfolded[:, None] - bare), axis=1)
        assert np.array_equal(chosen, scipy.optimize.linear_sum_assignment(-overlap.T)[1])


class TestBenchmarkReport:
    def test_matches_per_time_loop(self, dec_v0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = benchmark_fidelities(V0, H0, dec_v0)
            ts, want = benchmark_fidelities_loop(V0, H0, dec_v0, BENCHMARK_GRID_POINTS,
                                                 dec_v0.propagator_at)
        assert np.array_equal(rep.times, ts)
        got = np.array([rep.fidelity_propagator, rep.fidelity_periodicity,
                        rep.fidelity_periodicity_magnus])
        assert np.max(np.abs(got - want)) <= 1e-12
