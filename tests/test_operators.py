import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.sparse.csgraph import connected_components

from floqdyn.errors import ValidationError
from floqdyn.floquet import _drive_exponentials, propagate_schrodinger
from floqdyn.operators import (
    FOLD_ROWS,
    any_over_rows,
    conjugation_superop,
    expm,
    fill_powers,
    from_coordinates,
    hermitian_eigensystem,
    min_eigenvalues,
    prefix_products,
    principal_unitary_log,
    real_superop,
    spectral_norms_2x2,
    to_coordinates,
    trace_distance,
    unitary_fidelity,
    unitary_from_hermitian,
)

from floqdyn.scenarios import PRESETS, REFERENCE_DRIVE, build_generator

from conftest import coordinate_maps, gibbs_state, mp_min_eigenvalue, random_hermitian

TAU = 2 * np.pi / 2.25
#: relative 1-norm error of expm against scipy's (measured <= 6.5e-14, at d = 1)
EXPM_RTOL = 1e-13
EPS = np.finfo(float).eps


def expm_rel_error(got, want):
    """Largest relative 1-norm error over the matrices of a stack."""
    return float(np.max(np.linalg.norm(got - want, 1, axis=(-2, -1))
                        / np.linalg.norm(want, 1, axis=(-2, -1))))


def schur_log(u):
    """The principal log of a unitary from scipy's complex Schur form."""
    t, z = scipy.linalg.schur(u, output="complex")
    k = (z * -np.angle(np.diag(t))) @ z.conj().T
    return 0.5 * (k + k.conj().T)


class TestExpm:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 8))
    def test_random_stacks_match_scipy(self, seed, d, n):
        # 1-norms from 1e-3 to 40 take every Pade degree and up to four squarings
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
        a *= (10 ** rng.uniform(-3, np.log10(40), n)
              / np.linalg.norm(a, 1, axis=(-2, -1)))[:, None, None]
        got = expm(a)
        assert got.shape == a.shape
        assert expm_rel_error(got, scipy.linalg.expm(a)) <= EXPM_RTOL
        single = expm(a[0])
        assert single.shape == (d, d)
        assert expm_rel_error(single, scipy.linalg.expm(a[0])) <= EXPM_RTOL

    def test_real_input_and_zero(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert_allclose(expm(a), [[np.cos(1), np.sin(1)], [-np.sin(1), np.cos(1)]],
                        rtol=0, atol=1e-15)
        assert np.array_equal(expm(np.zeros((3, 2, 2))), np.broadcast_to(np.eye(2), (3, 2, 2)))

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_record_maps_of_every_preset(self, preset):
        # the argument of evolve's record map at the largest t_final any workload
        # asks for, 6000, with the default 20000 records
        config = PRESETS[preset]()
        dt = config.default_dt()
        stride = int(np.ceil((np.floor(6000 / dt + 1e-9) + 1) / 20000))
        a = build_generator(config).superop * (stride * dt)
        got, want = expm(a), scipy.linalg.expm(a)
        assert expm_rel_error(got, want) <= EXPM_RTOL
        assert np.array_equal(got == 0, want == 0)

    @pytest.mark.parametrize("h", [TAU / 64, TAU])
    def test_van_loan_chains(self, h):
        # the upper-bidiagonal chains of magnus_interaction_terms, as one stack
        lam = _drive_exponentials(0.5, REFERENCE_DRIVE["omega"])[0]
        tuples = np.array(np.meshgrid(*[range(len(lam))] * 3, indexing="ij")).reshape(3, -1).T
        diag = np.concatenate([np.zeros((len(tuples), 1)),
                               np.cumsum(1j * lam[tuples], axis=1)], axis=1)
        chain = h * (diag[:, :, None] * np.eye(4) + np.eye(4, k=1))
        got, want = expm(chain), scipy.linalg.expm(chain)
        assert got.shape == (64, 4, 4)
        assert expm_rel_error(got, want) <= EXPM_RTOL
        assert np.all(np.tril(got, -1) == 0)

    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
    def test_keeps_zeros_between_decoupled_blocks(self, scale):
        # a block-diagonal superoperator seen in a permuted basis: no power of
        # it couples two blocks, so neither may its exponential, to the bit
        rng = np.random.default_rng(17)
        sizes = (3, 4, 2)
        a = scipy.linalg.block_diag(*(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
                                      for m in sizes))
        a *= scale / np.linalg.norm(a, 1)
        perm = rng.permutation(len(a))
        a = a[perm][:, perm]
        block = np.repeat(np.arange(len(sizes)), sizes)[perm]
        coupled = block[:, None] == block[None, :]
        got = expm(a)
        assert np.all(got[~coupled] == 0)
        assert expm_rel_error(got, scipy.linalg.expm(a)) <= EXPM_RTOL

    def test_unitary_stacks(self):
        rng = np.random.default_rng(4)
        k = np.array([random_hermitian(rng, 4, scale) for scale in (0.01, 0.3, 2.0, 10.0)])
        got = expm(-1j * k)
        assert np.max(np.abs(got - scipy.linalg.expm(-1j * k))) <= 1e-13
        assert np.max(np.abs(got - [unitary_from_hermitian(x, 1.0) for x in k])) <= 1e-13


class TestUnitaryFromHermitian:
    def test_zero_hamiltonian_gives_identity(self):
        assert_allclose(unitary_from_hermitian(np.zeros((3, 3)), 17.3), np.eye(3), atol=1e-14)

    def test_diagonal_case(self):
        h = np.diag([0.0, 2.5, 3.0])
        u = unitary_from_hermitian(h, TAU)
        want = np.diag([1.0, np.exp(-2.5j * TAU), np.exp(-3j * TAU)])
        assert_allclose(u, want, atol=1e-13)

    def test_matches_rk4_integration(self):
        # oracle: Magnus integration of the Schrodinger equation, step by step
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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.lists(st.sampled_from([-2.0, -0.3, 0.0, 1e-12, 1.1, 2.9, "cut"]),
                    min_size=5, max_size=5),
           st.sampled_from([-np.pi + 1e-9, np.pi - 1e-9]), st.booleans())
    def test_matches_schur_log(self, seed, d, pool, cut, repeat):
        # eigenphases drawn from a few values (repeats), one of them within
        # 1e-9 of the branch cut at -1 on either side, or from the whole
        # circle.  Phases on both sides of the cut at once would leave the
        # principal log itself ill-conditioned (eigenvectors mixed across the
        # cut), so each example takes one side.
        pool = [cut if p == "cut" else p for p in pool]
        rng = np.random.default_rng(seed)
        phases = np.array(pool[:d]) if repeat else rng.uniform(-np.pi, np.pi, d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        u = (q * np.exp(1j * phases)) @ q.conj().T
        k = principal_unitary_log(u)
        assert np.max(np.abs(k - schur_log(u))) <= 1e-11
        assert np.max(np.abs(k - (q * -phases) @ q.conj().T)) <= 1e-11

    @pytest.mark.parametrize("u", [
        np.diag([-1.0 + 0j]),
        np.diag([-1.0 + 0j, 1.0, -1.0, 0.6 + 0.8j]),
        np.array([[0, -1], [-1, 0]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 0, -1], [1, 0, 0], [0, 1, 0]], dtype=complex),
    ])
    def test_eigenphase_pi_takes_principal_branch(self, u):
        # an eigenvalue -1 has eigenphase pi, so K has eigenvalue -pi there
        k = principal_unitary_log(u)
        assert np.max(np.abs(k - schur_log(u))) <= 1e-11
        assert np.min(np.linalg.eigvalsh(k)) == pytest.approx(-np.pi, abs=1e-12)
        assert np.max(np.abs(scipy.linalg.expm(-1j * k) - u)) <= 1e-13


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


@st.composite
def block_stacks(draw):
    """Exactly Hermitian (n, d, d) stacks, d <= 6, block-diagonal after a random
    permutation of levels into blocks of 1-4 levels.  Each coupling is
    missing from some matrices of the stack, and each matrix has its own
    scale, from 1e-3 to 1e3."""
    d = draw(st.integers(1, 6))
    sizes = []
    while sum(sizes) < d:
        sizes.append(draw(st.integers(1, min(4, d - sum(sizes)))))
    levels = draw(st.permutations(range(d)))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = np.zeros((n, d, d), dtype=complex)
    lo = 0
    for size in sizes:
        block = np.array(levels[lo:lo + size])
        lo += size
        h[:, block[:, None], block] = [random_hermitian(rng, size) for _ in range(n)]
    h *= 10.0 ** rng.uniform(-3, 3, n)[:, None, None]
    drop = ~np.eye(d, dtype=bool) & (rng.random((n, d, d)) < 0.3)
    h[drop | drop.swapaxes(-1, -2)] = 0.0
    return h


def assert_min_eigenvalues_exact(h):
    """Each result within the error bound of its path of the 30-digit oracle.

    Blocks of 1 or 2 coupled levels have closed forms, held to 4 eps ||h_k||_2.
    A stack with an n-level block, n >= 3, goes to LAPACK's Hermitian
    eigensolver, held to its bound p(n) u ||h_k||_2 (LAPACK Users' Guide,
    3rd ed., sec. 4.7.1), with u = eps/2 the unit roundoff and the modestly
    growing p(n) (sec. 4.1) taken as 10 n.
    """
    got = min_eigenvalues(to_coordinates(h))
    want = np.array([mp_min_eigenvalue(m) for m in h])
    _, block_of = connected_components(np.any(h != 0, axis=0), directed=False)
    n = np.bincount(block_of).max()
    factor = 4 if n <= 2 else 10 * n / 2
    bound = factor * EPS * np.linalg.norm(h, 2, axis=(-2, -1))
    assert np.all(np.abs(got - want) <= bound), (got, want)
    return got


class TestCoordinates:
    @settings(max_examples=100, deadline=None)
    @given(block_stacks())
    def test_matrices_round_trip_exactly(self, h):
        x = to_coordinates(h)
        assert x.dtype == float and x.shape == (len(h), h.shape[-1] ** 2)
        assert np.array_equal(from_coordinates(x), h)

    def test_coordinates_round_trip_bit_for_bit(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 16)) * 10.0 ** rng.integers(-300, 300, (50, 16))
        x.flat[:8] = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.inf, np.nan]
        assert np.array_equal(to_coordinates(from_coordinates(x)).view(np.uint64),
                              x.view(np.uint64))

    def test_layout_is_the_upper_triangle_of_trajectory_csv(self):
        # the diagonal, then (re, im) of (0, 1), (0, 2), (1, 2), row by row
        h = random_hermitian(np.random.default_rng(4), 3)
        want = [*np.diag(h).real]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            want += [h[i, j].real, h[i, j].imag]
        assert np.array_equal(to_coordinates(h), want)

    def test_mirror_of_a_zero_coherence_is_plus_zero(self):
        # entry (j, i) is re + i (0.0 - im): a conjugate would give -0.0 there
        rho = from_coordinates(np.zeros((2, 9)))
        assert not np.any(np.signbit(rho.view(float)))
        x = np.zeros(4)
        x[3] = -0.0
        assert not np.signbit(from_coordinates(x)[1, 0].imag)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_real_superop_is_n_k_m(self, d):
        # K of a Lindblad form with a commutator: it maps Hermitian matrices to
        # Hermitian ones, and its real matrix on coordinates is N K M
        rng = np.random.default_rng(d)
        a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        h = random_hermitian(rng, d)
        eye = np.eye(d)
        k = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for op in a:
            ad = op.conj().T @ op
            k = k + np.kron(op, op.conj()) - 0.5 * (np.kron(ad, eye) + np.kron(eye, ad.T))
        n, m = coordinate_maps(d)
        r = real_superop(k)
        assert r.dtype == float
        assert np.array_equal(r, (n @ (k @ m)).real)
        assert np.array_equal(real_superop(np.stack([k, 2 * k])), [r, 2 * r])
        rho = random_hermitian(rng, d)
        assert_allclose(to_coordinates((k @ rho.ravel()).reshape(d, d)), r @ to_coordinates(rho),
                        rtol=0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_conjugation_superop_is_real_superop_of_p_kron_p_conj(self, d):
        # to rounding, and with the zeros of a P with zero rows and columns exact
        rng = np.random.default_rng(10 + d)
        p = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        p[0, :, :d // 2] = p[0, :d // 2] = 0.0
        r = conjugation_superop(p)
        want = real_superop(np.stack([np.kron(u, u.conj()) for u in p]))
        assert r.dtype == float
        assert_allclose(r, want, rtol=0, atol=4 * EPS * np.max(np.abs(want)))
        assert np.array_equal(r == 0, want == 0)
        rho = random_hermitian(rng, d)
        assert_allclose(r[1] @ to_coordinates(rho), to_coordinates(p[1] @ rho @ p[1].conj().T),
                        rtol=0, atol=1e-12)


def pre_fold_min_eigenvalues(x) -> np.ndarray:
    """``operators.min_eigenvalues`` as it was before its one folded scan and its
    merge of blocks level by level, kept verbatim as the oracle of their bits."""
    x = np.asarray(x, dtype=float)
    d = math.isqrt(x.shape[-1])
    iu, ju = np.triu_indices(d, 1)
    nonzero = np.any(x != 0, axis=0)
    coupled = nonzero[d::2] | nonzero[d + 1::2]
    reach = np.eye(d, dtype=bool)
    reach[iu[coupled], ju[coupled]] = True
    reach |= reach.T
    # transitive closure by squaring: path lengths double each time, up to d - 1
    for _ in range(d.bit_length()):
        reach = (reach.astype(int) @ reach) > 0
    out = np.full(len(x), np.inf)
    for block in {tuple(np.flatnonzero(row)) for row in reach}:
        inside = np.isin(iu, block) & np.isin(ju, block)
        if len(block) == 1:
            lowest = x[:, block[0]]
        elif len(block) == 2:
            i, j = block
            c = d + 2 * int(np.flatnonzero(inside)[0])
            a, b = x[:, i], x[:, j]
            lowest = 0.5 * (a + b) - np.hypot(0.5 * (a - b), np.hypot(x[:, c], x[:, c + 1]))
        else:
            cols = np.concatenate([block, (d + 2 * np.flatnonzero(inside)[:, None]
                                           + [0, 1]).ravel()])
            lowest = np.linalg.eigvalsh(from_coordinates(x[:, cols]))[:, 0]
        np.minimum(out, lowest, out=out)
    return out


#: Stack heights about the fold: all rows left over, none, and both kinds.
FOLD_HEIGHTS = [1, FOLD_ROWS - 1, FOLD_ROWS, FOLD_ROWS + 1, 2 * FOLD_ROWS + 1]


class TestAnyOverRows:
    @pytest.mark.parametrize("n", [0, *FOLD_HEIGHTS])
    @pytest.mark.parametrize("dtype", [bool, np.uint64, float, complex])
    def test_is_np_any_over_the_first_axis(self, n, dtype):
        # a random stack, one with no nonzero, and one nonzero in each row in turn:
        # each lane of the fold, and the rows it leaves over
        stacks = [np.random.default_rng(n).random((n, 3, 2)) < 0.05, np.zeros((n, 3, 2))]
        for row in range(n):
            stacks.append(np.zeros((n, 3, 2)))
            stacks[-1][row, 2, 1] = 1
        for x in stacks:
            x = x.astype(dtype)
            assert np.array_equal(any_over_rows(x), np.any(x, axis=0))

    def test_minus_zero_is_zero_only_as_a_float(self):
        x = np.zeros((FOLD_ROWS + 1, 2))
        x[-1, 1] = -0.0
        assert any_over_rows(x).tolist() == [False, False]
        assert any_over_rows(x.view(np.uint64)).tolist() == [False, True]


class TestMinEigenvalues:
    # Mutation check: dropping the hypot (taking min(a, b) for a 2-level
    # block) or ignoring one coupling (blocks from the first matrix of the
    # stack alone) fails test_random_block_stacks_match_mpmath; a merge that
    # relabels one level of the block it takes in fails
    # test_blocks_joined_by_a_later_coupling; dropping the rows the fold
    # leaves over fails test_coupling_only_in_the_last_row.

    @settings(max_examples=200, deadline=None)
    @given(block_stacks(), st.integers(0, 3 * FOLD_ROWS))
    def test_matches_the_pre_fold_scan_bit_for_bit(self, h, pad):
        # rows with only h[0]'s diagonal first, so that the couplings fall in the
        # folded rows, in the rows left over, or in both
        x = to_coordinates(np.concatenate([np.repeat(h[:1] * np.eye(h.shape[-1]), pad, 0), h]))
        assert min_eigenvalues(x).tobytes() == pre_fold_min_eigenvalues(x).tobytes()

    @pytest.mark.parametrize("coupling", [5e-324, 1e-300, -5e-324])
    @pytest.mark.parametrize("part", [0, 1])
    @pytest.mark.parametrize("n", FOLD_HEIGHTS)
    def test_coupling_only_in_the_last_row(self, n, part, coupling):
        # levels 1 and 2 of zero energy, coupled in the last row only: its least
        # eigenvalue is -|coupling|, which no uncoupled block gives
        x = np.zeros((n, 9))
        x[:, 0] = 1.0
        x[-1, 3 + 2 * 2 + part] = coupling
        want = np.zeros(n)
        want[-1] = -abs(coupling)
        got = min_eigenvalues(x)
        assert got.tobytes() == want.tobytes() == pre_fold_min_eigenvalues(x).tobytes()

    def test_blocks_joined_by_a_later_coupling(self):
        # (0, 3) and (1, 2) form two blocks before (2, 3) joins them: the merge
        # relabels every level of the block it takes in
        h = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
        for i, j, c in ((0, 3, 0.05), (1, 2, 0.07j), (2, 3, 0.11)):
            h[i, j], h[j, i] = c, np.conj(c)
        x = to_coordinates(h[None])
        assert min_eigenvalues(x).tobytes() == pre_fold_min_eigenvalues(x).tobytes()
        assert_min_eigenvalues_exact(h[None])

    @settings(max_examples=200, deadline=None)
    @given(block_stacks())
    def test_random_block_stacks_match_mpmath(self, h):
        assert min_eigenvalues(to_coordinates(h)).shape == (len(h),)
        assert_min_eigenvalues_exact(h)

    def test_zero_stack(self):
        assert np.array_equal(min_eigenvalues(to_coordinates(np.zeros((3, 4, 4)))),
                              np.zeros(3))

    def test_exactly_degenerate_two_level_block(self):
        # the second matrix couples the levels; 0.5 * I keeps hypot(0, 0) = 0
        h = np.array([[[0.5, 0.0], [0.0, 0.5]],
                      [[0.7, 0.1j], [-0.1j, 0.3]]])
        assert assert_min_eigenvalues_exact(h)[0] == 0.5

    def test_near_singular_trace_one_two_level(self):
        # (1 - 1e-12)|u><u| + 1e-12 |v><v| in a basis off the axes
        u = np.array([np.cos(0.7), np.exp(1.3j) * np.sin(0.7)])
        v = np.array([-np.exp(-1.3j) * np.sin(0.7), np.cos(0.7)])
        rho = (1 - 1e-12) * np.outer(u, u.conj()) + 1e-12 * np.outer(v, v.conj())
        rho = 0.5 * (rho + rho.conj().T)
        assert mp_min_eigenvalue(rho) == pytest.approx(1e-12, rel=1e-3)
        assert_min_eigenvalues_exact(rho[None])

    def test_single_tiny_coupling_merges_blocks(self, monkeypatch):
        # one 1e-300 entry in one matrix joins level 2 to the block {0, 1}
        h = np.zeros((2, 3, 3), dtype=complex)
        h[:, [0, 1, 2], [0, 1, 2]] = [[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]]
        h[:, 0, 1] = h[:, 1, 0] = 0.25
        h[1, 1, 2] = h[1, 2, 1] = 1e-300
        shapes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: shapes.append(a.shape) or eigvalsh(a))
        assert_min_eigenvalues_exact(h)
        assert shapes == [(2, 3, 3)]


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
    def test_trace_distance_of_orthogonal_pures(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_trace_distance_of_stacks_is_per_matrix(self):
        rng = np.random.default_rng(5)
        a, b = (np.array([gibbs_state(random_hermitian(rng, 3), 1.0)
                          for _ in range(6)]) for _ in range(2))
        got = trace_distance(a, b)
        assert type(trace_distance(a[0], b[0])) is float
        assert got.shape == (6,)
        assert np.max(np.abs(got - [trace_distance(x, y) for x, y in zip(a, b)])) <= 1e-15


def random_unitaries(rng, n, d):
    """n Haar-like random d x d unitaries, the Q factors of complex Gaussian matrices."""
    return np.linalg.qr(rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d)))[0]


class TestPrefixProducts:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 128, 129])
    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_sequential_product(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        u = random_unitaries(rng, n, d)
        want = [u[0]]
        for m in u[1:]:
            want.append(m @ want[-1])
        got = u.copy()
        prefix_products(got)
        assert np.max(np.abs(got - np.array(want))) <= 1e-13

    def test_keeps_zeros_between_decoupled_blocks(self):
        # block-diagonal factors in a permuted basis: no product couples the blocks
        rng = np.random.default_rng(5)
        u = np.zeros((37, 5, 5), dtype=complex)
        u[:, :3, :3] = random_unitaries(rng, 37, 3)
        u[:, 3:, 3:] = random_unitaries(rng, 37, 2)
        perm = rng.permutation(5)
        u = u[:, perm][:, :, perm]
        got = u.copy()
        prefix_products(got)
        assert np.array_equal(got == 0, u == 0)


class TestFillPowers:
    @staticmethod
    def doubling_loop(rows, step):
        """The record loop ``evolve`` used before it called ``fill_powers``."""
        n_full = len(rows) - 1
        power, m = step, 1
        while m <= n_full:
            count = min(m, n_full + 1 - m)
            np.matmul(rows[:count], power.T, out=rows[m:m + count])
            m += count
            if m <= n_full:
                power = power @ power

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 100])
    def test_record_rows_bit_identical_to_the_evolve_loop(self, n):
        config = PRESETS["four_level_degenerate"]()
        step = expm(build_generator(config).superop * 0.35)
        rows = np.empty((n, step.shape[0]), dtype=complex)
        rows[0] = config.initial_state().ravel()
        want = rows.copy()
        fill_powers(rows, step)
        self.doubling_loop(want, step)
        assert np.array_equal(rows, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 129])
    def test_stack_of_steps_matches_matrix_powers(self, n):
        rng = np.random.default_rng(n)
        step = random_unitaries(rng, 6, 4)
        rows = np.zeros((6, n, 4), dtype=complex)
        rows[:, 0] = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        fill_powers(rows, step)
        want = np.stack([np.linalg.matrix_power(step, k) @ rows[:, 0, :, None]
                         for k in range(n)], axis=1)[..., 0]
        assert np.max(np.abs(rows - want)) <= 1e-13


class TestSpectralNorms2x2:
    def test_matches_svd_norms(self):
        rng = np.random.default_rng(11)
        blocks = list(rng.normal(size=(50, 2, 2)) + 1j * rng.normal(size=(50, 2, 2)))
        u, v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        blocks += [
            np.outer(u, v.conj()),                          # singular: rank 1
            np.array([[1.0, 2.0], [0.0, 0.0]]),             # singular, a zero row
            (0.3 - 0.7j) * random_unitaries(rng, 1, 2)[0],  # equal singular values
            (-1j * 2.78e-1) * np.eye(2),                    # scalar
            np.zeros((2, 2)),
            1e200 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),  # squares overflow
            1e-200 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))),  # squares underflow
        ]
        b = np.array(blocks, dtype=complex)
        s = np.max(np.abs(b), axis=(1, 2))[:, None, None]
        want = np.linalg.norm(b / np.where(s > 0, s, 1.0), 2, axis=(1, 2)) * s[:, 0, 0]
        got = spectral_norms_2x2(b)
        assert np.all(np.abs(got - want) <= 4 * EPS * want)
        assert got[-3] == 0.0
