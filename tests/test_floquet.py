import numpy as np
import pytest
from numpy.testing import assert_allclose

from floqdyn.errors import ResolutionError, StepSizeError, ValidationError
from floqdyn.floquet import (
    DriveSpec,
    benchmark_fidelities,
    drive_hamiltonian,
    floquet_decompose,
    fourier_operator_coefficients,
    jump_operator_table,
    magnus_bch_propagator,
    magnus_interaction_terms,
    propagate_schrodinger,
    static_fourier_set,
)
from floqdyn.operators import hermitian_eigensystem, unitary_fidelity, unitary_from_hermitian

from conftest import random_hermitian

H0 = np.diag([0.0, 3.0, 2.5]).astype(complex)
OMEGA = 2.25
TAU = 2 * np.pi / OMEGA
V0 = DriveSpec(mu=0.1, omega_drive=OMEGA, pair=(0, 2))
V1 = DriveSpec(mu=0.1, omega_drive=OMEGA, pair=(1, 2))


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
        h = drive_hamiltonian(100.0 * H0, V0)
        with pytest.raises(StepSizeError):
            propagate_schrodinger(h, 0.0, TAU, steps=3)


class TestDecompose:
    def test_undriven_decomposition_is_trivial(self):
        dec = floquet_decompose(lambda t: H0, TAU, H0, grid_m=256, substeps=16)
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
        h = drive_hamiltonian(H0, V0)
        rep = benchmark_fidelities(V0, H0, dec_v0, grid_points=17)
        assert rep.fidelity_periodicity.min() >= 1 - 1e-4


class TestFourierCoefficients:
    def test_static_p_gives_single_harmonic(self):
        dec = floquet_decompose(lambda t: H0, TAU, H0, grid_m=256, substeps=16)
        s = random_hermitian(np.random.default_rng(5), 3)
        fset = fourier_operator_coefficients(dec, s, q_max=4, floor=1e-9)
        assert np.max(np.abs(fset.op(0) - s)) < 1e-7
        for q in (-3, -1, 1, 2):
            assert np.max(np.abs(fset.op(q))) < 1e-7

    def test_hermitian_source_symmetry(self, dec_v0):
        s = random_hermitian(np.random.default_rng(8), 3)
        fset = fourier_operator_coefficients(dec_v0, s, q_max=6, floor=0.0)
        for q in fset.qs:
            assert np.max(np.abs(fset.op(q).conj().T - fset.op(-q))) < 1e-6

    def test_inverse_transform_reconstruction(self, dec_v0):
        s = random_hermitian(np.random.default_rng(9), 3)
        floor = 1e-3
        fset = fourier_operator_coefficients(dec_v0, s, q_max=24, floor=floor)
        m = dec_v0.grid_m
        for k in (m // 3 + 1, m // 2 + 5):  # mid-grid points
            p = dec_v0.p_samples[k]
            target = p.conj().T @ s @ p
            t = k * dec_v0.tau / m
            recon = sum(fset.op(q) * np.exp(1j * q * OMEGA * t) for q in fset.qs)
            assert np.max(np.abs(recon - target)) < 2 * floor

    def test_grid_resolution_guard(self, dec_v0):
        with pytest.raises(ResolutionError):
            fourier_operator_coefficients(dec_v0, H0, q_max=dec_v0.grid_m)


class TestJumpTable:
    def test_static_two_level_case(self):
        h = np.diag([0.0, 3.0]).astype(complex)
        sx = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
        table = jump_operator_table(static_fourier_set(sx), hermitian_eigensystem(h))
        assert_allclose(np.sort(table.gaps), [-3.0, 0.0, 3.0], atol=1e-12)
        # omega = -3 selects the component mapping level 1 down to level 0
        lower = table.op(0, table.gap_index(-3.0), 2)
        assert_allclose(lower, [[0, 0.5], [0, 0]], atol=1e-12)

    def test_completeness_identity(self, dec_v0):
        s = np.zeros((3, 3), dtype=complex)
        s[0, 1] = 0.5
        s[1, 0] = 0.5
        fset = fourier_operator_coefficients(dec_v0, s, q_max=10, floor=1e-3)
        table = jump_operator_table(fset, dec_v0.quasi)
        for q in fset.qs:
            total = np.zeros((3, 3), dtype=complex)
            for (qq, gi), op in table.entries.items():
                if qq == q:
                    total += op
            assert np.max(np.abs(total - fset.op(q))) < 1e-8

    def test_dagger_symmetry(self, dec_v0):
        sx = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]], dtype=complex)
        fset = fourier_operator_coefficients(dec_v0, sx, q_max=10, floor=1e-3)
        table = jump_operator_table(fset, dec_v0.quasi)
        for (q, gi), op in table.entries.items():
            omega = table.gaps[gi]
            partner = table.op(-q, table.gap_index(-omega), 3)
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
        # closed-form antiderivative of the single integral
        omega_gap = -2.5
        t = TAU
        vec = magnus_interaction_terms(V0, omega_gap, t, order=1)[0]

        def int_cc(w):
            return 0.5 * (np.sin((OMEGA + w) * t) / (OMEGA + w)
                          + np.sin((OMEGA - w) * t) / (OMEGA - w))

        def int_cs(w):
            return 0.5 * ((1 - np.cos((w + OMEGA) * t)) / (w + OMEGA)
                          + (1 - np.cos((w - OMEGA) * t)) / (w - OMEGA))

        want = np.array([int_cc(omega_gap), -int_cs(omega_gap), 0.0])
        assert np.max(np.abs(vec - want)) < 1e-8

    def test_fidelity_against_rk4_v0(self, dec_v0):
        fids = [unitary_fidelity(
            magnus_bch_propagator(V0, H0, k * TAU / 8),
            dec_v0.u_samples[k * dec_v0.grid_m // 8], tol=1e-6)
            for k in range(9)]
        assert min(fids) > 0.97

    @pytest.mark.parametrize("pair,t", [((0, 2), TAU), ((0, 2), 2 * TAU),
                                        ((1, 2), TAU), ((1, 2), 2 * TAU)])
    def test_nodes_match_64_point_rule(self, pair, t):
        from floqdyn.floquet import _magnus_terms

        omega_gap = H0[pair[0], pair[0]].real - H0[pair[1], pair[1]].real
        drive = DriveSpec(0.1, OMEGA, pair)
        got = magnus_interaction_terms(drive, omega_gap, t)
        want = _magnus_terms(drive, omega_gap, t, 3, 64)
        for g, w in zip(got, want):
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)

    def test_unresolved_integrand_raises(self):
        from floqdyn.errors import NumericalError

        # 40 drive periods are far beyond what 24 or 32 nodes resolve
        with pytest.raises(NumericalError, match="did not converge"):
            magnus_interaction_terms(V0, -2.5, 40 * TAU)

    def test_requires_diagonal_h0(self):
        h = H0.copy()
        h[0, 1] = h[1, 0] = 0.3
        with pytest.raises(ValidationError):
            magnus_bch_propagator(V0, h, 1.0)


class TestGaugeInvariance:
    def test_folded_and_unfolded_generators_agree(self, cfg_v0, dec_v0):
        # physics must not depend on the quasienergy branch choice
        from floqdyn.scenarios import build_generator, scenario_with

        h = drive_hamiltonian(H0, V0)
        dec_f = floquet_decompose(h, TAU, H0, grid_m=1024, substeps=16, unfold=False)
        gen_u = build_generator(cfg_v0, decomposition=dec_v0)
        gen_f = build_generator(scenario_with(cfg_v0, q_max=26), decomposition=dec_f)
        diff = np.linalg.norm(gen_u.superop - gen_f.superop, 2)
        assert diff < 1e-6


class TestUnfoldingAmbiguity:
    def test_equidistant_branches_raise(self):
        from floqdyn.errors import NumericalError

        # reference level exactly Omega/2 away from the quasienergy
        ref = np.diag([0.0, OMEGA / 2]).astype(complex)
        with pytest.raises(NumericalError, match="ambiguous"):
            floquet_decompose(lambda t: np.zeros((2, 2), dtype=complex), TAU,
                              ref, grid_m=64, substeps=8)


class TestBenchmarkReport:
    def test_identical_propagators_give_unit_fidelity(self, dec_v1):
        # feed the Magnus+BCH propagator itself as the reference
        import warnings

        def magnus_handle(t):
            return magnus_bch_propagator(V1, H0, t)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = benchmark_fidelities(V1, H0, dec_v1, grid_points=9,
                                       exact=magnus_handle)
        assert rep.fidelity_propagator.min() >= 1 - 1e-12

    def test_rows_iterate_all_columns(self, dec_v1):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = benchmark_fidelities(V1, H0, dec_v1, grid_points=5)
        rows = list(rep.rows())
        assert len(rows) == 5 and len(rows[0]) == 4
