import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floqdyn.errors import ValidationError
from floqdyn.floquet import propagate_schrodinger
from floqdyn.operators import (
    DensityMatrix,
    hermitian_eigensystem,
    principal_unitary_log,
    trace_distance,
    unitary_fidelity,
    unitary_from_hermitian,
)

from conftest import random_hermitian

TAU = 2 * np.pi / 2.25


class TestUnitaryFromHermitian:
    def test_zero_hamiltonian_gives_identity(self):
        assert_allclose(unitary_from_hermitian(np.zeros((3, 3)), 17.3), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        h = np.diag([0.0, 2.5, 3.0])
        u = unitary_from_hermitian(h, TAU)
        want = np.diag([1.0, np.exp(-2.5j * TAU), np.exp(-3j * TAU)])
        assert_allclose(u, want, atol=1e-13)

    def test_matches_rk4_integration(self):
        # independent oracle: direct RK4 integration of the Schrodinger equation
        rng = np.random.default_rng(7)
        h = random_hermitian(rng, 3)
        t = 0.7
        u = unitary_from_hermitian(h, t)
        u_rk4 = propagate_schrodinger(lambda _t: h, 0.0, t, steps=4000)
        assert np.linalg.norm(u - u_rk4) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            unitary_from_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
    def test_semigroup_property(self, seed, t1, t2):
        h = random_hermitian(np.random.default_rng(seed), 3)
        u12 = unitary_from_hermitian(h, t1) @ unitary_from_hermitian(h, t2)
        assert np.linalg.norm(u12 - unitary_from_hermitian(h, t1 + t2)) < 1e-9


class TestPrincipalUnitaryLog:
    def test_identity_maps_to_zero(self):
        assert_allclose(principal_unitary_log(np.eye(4)), np.zeros((4, 4)), atol=1e-12)

    def test_diagonal_phase(self):
        u = np.diag([np.exp(-0.3j)])
        assert_allclose(principal_unitary_log(u), np.diag([0.3]), atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip_within_principal_branch(self, seed):
        rng = np.random.default_rng(seed)
        k0 = random_hermitian(rng, 3)
        k0 *= 0.9 * np.pi / max(np.abs(np.linalg.eigvalsh(k0)))
        u = unitary_from_hermitian(k0, 1.0)
        assert np.linalg.norm(principal_unitary_log(u) - k0) < 1e-8

    def test_branch_is_half_open(self):
        # eigenphase pi of U maps to K eigenvalue -pi... U = e^{-iK}: phase(-pi, pi]
        u = np.diag([np.exp(1j * np.pi)])
        k = principal_unitary_log(u)
        assert_allclose(k, np.diag([-np.pi]), atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            principal_unitary_log(np.diag([2.0, 1.0]))


class TestHermitianEigensystem:
    def test_diagonal(self):
        spec = hermitian_eigensystem(np.diag([0.0, 2.5, 3.0]))
        assert_allclose(spec.energies, [0.0, 2.5, 3.0], atol=1e-14)

    def test_reference_floquet_matrix(self):
        # eigenvalues of the tabulated reference Floquet Hamiltonian matrix
        m = np.array([[0, 0, 0], [0, 2.9991, 0.0250], [0, 0.0250, 2.5009]])
        spec = hermitian_eigensystem(m)
        assert_allclose(np.sort(spec.energies), [0.0, 2.4997, 3.0003], atol=1e-4)

    def test_two_level_closed_form(self):
        # quadratic-formula oracle for 2x2 Hermitian matrices
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_hermitian(rng, 2)
            a, c = h[0, 0].real, h[1, 1].real
            b = h[0, 1]
            disc = np.sqrt(((a - c) / 2) ** 2 + abs(b) ** 2)
            want = np.array([(a + c) / 2 - disc, (a + c) / 2 + disc])
            assert_allclose(hermitian_eigensystem(h).energies, want, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(rng, 5)
        spec = hermitian_eigensystem(h)
        recon = (spec.vectors * spec.energies) @ spec.vectors.conj().T
        assert np.linalg.norm(recon - h) < 1e-9


class TestUnitaryFidelity:
    def test_equal_unitaries(self):
        u = unitary_from_hermitian(random_hermitian(np.random.default_rng(0), 3), 1.2)
        assert unitary_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    def test_direct_trace(self):
        assert unitary_fidelity(np.eye(3), np.diag([1, 1, -1])) == pytest.approx(1 / 3)

    def test_against_rk4_oracle(self):
        h = np.diag([0.0, 3.0, 2.5])
        u = unitary_from_hermitian(h, TAU)
        v = propagate_schrodinger(lambda _t: np.asarray(h, complex), 0.0, TAU, steps=6000)
        assert unitary_fidelity(u, v) >= 1 - 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            unitary_fidelity(np.eye(2), np.eye(3))

    def test_stacks_give_pairwise_fidelities(self):
        rng = np.random.default_rng(3)
        us = np.array([unitary_from_hermitian(random_hermitian(rng, 3), 0.7) for _ in range(5)])
        vs = np.array([unitary_from_hermitian(random_hermitian(rng, 3), 0.9) for _ in range(5)])
        want = [unitary_fidelity(u, v) for u, v in zip(us, vs)]
        assert_allclose(unitary_fidelity(us, vs), want, rtol=0, atol=1e-15)
        vs[3, 0, 0] += 1e-3
        with pytest.raises(ValidationError, match="not unitary"):
            unitary_fidelity(us, vs)
        with pytest.raises(ValidationError):
            unitary_fidelity(us, vs[:4])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-np.pi, np.pi))
    def test_symmetry_and_phase_invariance(self, seed, phi):
        rng = np.random.default_rng(seed)
        u = unitary_from_hermitian(random_hermitian(rng, 3), 0.8)
        v = unitary_from_hermitian(random_hermitian(rng, 3), 1.1)
        f = unitary_fidelity(u, v)
        assert unitary_fidelity(v, u) == pytest.approx(f, abs=1e-12)
        assert unitary_fidelity(np.exp(1j * phi) * u, v) == pytest.approx(f, abs=1e-12)


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.pure(3, 0)
        assert rho.populations[0] == 1.0
        assert rho.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_gibbs_is_stationary_weighting(self):
        h = np.diag([0.0, 1.0])
        rho = DensityMatrix.gibbs(h, beta=2.0)
        assert rho.populations[1] / rho.populations[0] == pytest.approx(np.exp(-2.0))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_trace_distance_of_orthogonal_pures(self):
        a = DensityMatrix.pure(2, 0).matrix
        b = DensityMatrix.pure(2, 1).matrix
        assert trace_distance(a, b) == pytest.approx(1.0)
