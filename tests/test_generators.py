from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from floqdyn.baths import BathSpec, redfield_coefficients
from floqdyn.errors import ConfigError, ValidationError
from floqdyn.floquet import (
    drive_hamiltonian,
    floquet_decompose,
    fourier_operator_coefficients,
    jump_operator_table,
)
from floqdyn import floquet, generators
from floqdyn.generators import (
    DIPOLE_PREFACTOR,
    GENERATOR_KINDS,
    floquet_lindblad_generator,
    floquet_redfield_generator,
    lindblad_generator,
    redfield_generator,
    sop_commutator,
    sop_left,
    sop_right,
    sop_sandwich,
)
from floqdyn.operators import real_superop, trace_distance
from floqdyn.scenarios import (
    PRESETS,
    ScenarioConfig,
    build_four_level,
    build_generator,
    build_three_level,
    decompose_scenario,
    evolve,
)

from conftest import (
    coordinate_maps,
    gibbs_state,
    random_density,
    random_hermitian,
    reference_dipole,
    table_entries,
    transition_operators,
)

H0_3 = np.diag([0.0, 3.0, 2.5]).astype(complex)

#: Largest entry gap allowed between an assembled Redfield superoperator and
#: its reference construction below.
REDFIELD_REF_TOL = 1e-12
#: Largest entry gap allowed between the Floquet-Redfield generator mapped
#: back to the Schrodinger picture and the node-by-node reference; set by the
#: unitarity defect of the sampled P (entries reach ~50).
REDFIELD_NODE_TOL = 1e-9


# ---------------------------------------------------------------------------
# references: the Redfield constructions the harmonic-frame assembly replaced


def _coefficients(bath, x, config):
    n1, n2, c1, c2 = redfield_coefficients(x, bath.beta, config.w_cutoff)
    if not config.lamb_shift:
        c1 = c2 = 0.0
    return n1, n2, c1, c2


def _dipole(config, bath, transition):
    i, j = transition
    return reference_dipole(bath, abs(config.energies[i] - config.energies[j]))


def redfield_pairs_reference(config):
    """Static Redfield superoperator block by block over all ordered pairs of
    a bath's transitions: the one-sided and sandwich N1/N2 sums plus (iff
    lamb_shift) the C1/C2 blocks with the explicit factor i, coefficients at
    the second pair's exact gap, dipoles from ``reference_dipole``."""
    h0, d = config.h0, config.dim
    energies = np.diag(h0).real
    k0 = DIPOLE_PREFACTOR

    def unit(i, j):
        m = np.zeros((d, d), dtype=complex)
        m[i, j] = 1.0
        return m

    sop = sop_commutator(h0)
    for bath in config.baths:
        for i2, j2 in bath.transitions:   # the primed pair carries the frequency
            n1, n2, c1, c2 = _coefficients(bath, energies[i2] - energies[j2], config)
            for i1, j1 in bath.transitions:
                m = _dipole(config, bath, (i1, j1)) * _dipole(config, bath, (i2, j2))
                sop += k0 * m * n1 * (sop_sandwich(unit(i1, j1), unit(j2, i2))
                                      + sop_sandwich(unit(i2, j2), unit(j1, i1)))
                sop += k0 * m * n2 * (sop_sandwich(unit(j1, i1), unit(i2, j2))
                                      + sop_sandwich(unit(j2, i2), unit(i1, j1)))
                sop += 1j * k0 * m * c1 * (sop_sandwich(unit(i1, j1), unit(j2, i2))
                                           - sop_sandwich(unit(i2, j2), unit(j1, i1)))
                sop += 1j * k0 * m * c2 * (sop_sandwich(unit(j2, i2), unit(i1, j1))
                                           - sop_sandwich(unit(j1, i1), unit(i2, j2)))
                if i1 == i2:              # shared upper level
                    op_l, op_r = sop_left(unit(j1, j2)), sop_right(unit(j2, j1))
                    sop += -k0 * m * n1 * (op_l + op_r)
                    sop += -1j * k0 * m * c1 * (op_r - op_l)
                if j1 == j2:              # shared lower level
                    op_l, op_r = sop_left(unit(i1, i2)), sop_right(unit(i2, i1))
                    sop += -k0 * m * n2 * (op_l + op_r)
                    sop += -1j * k0 * m * c2 * (op_l - op_r)
    return sop


def full_secular_block_reference(rc, a):
    """Eight-term block with both operators at the same (q, omega)."""
    eye = np.eye(a.shape[0])
    ad = a.conj().T
    n1, n2, c1, c2 = rc
    z_n2p = n2 + 1j * c2
    z_n2m = n2 - 1j * c2
    z_n1p = n1 + 1j * c1
    z_n1m = n1 - 1j * c1
    return -DIPOLE_PREFACTOR * (
        z_n2p * np.kron(a @ ad, eye) + z_n1m * np.kron(ad @ a, eye)
        - (z_n1p + z_n1m) * np.kron(a, a.conj())
        - (z_n2m + z_n2p) * np.kron(ad, a.T)
        + z_n2m * np.kron(eye, (a @ ad).T) + z_n1p * np.kron(eye, (ad @ a).T)
    )


def full_secular_reference(config, decomp):
    """Floquet-Redfield superoperator restricted to omega' = omega, in the
    micromotion frame: -i[Hbar, .] plus, per bath, the dipole-weighted
    sigma-bar(q, omega) summed per (q, gap index) and put through the
    eight-term block."""
    sop = sop_commutator(decomp.hbar_floquet)
    for bath in config.baths:
        sums = {}
        for t in bath.transitions:
            dipole = _dipole(config, bath, t)
            harmonics = fourier_operator_coefficients(
                decomp, transition_operators(*t, config.dim)[0], config.q_max)
            table = gaps, _, _ = jump_operator_table(harmonics, decomp.quasi)
            for key, op in table_entries(table).items():
                q, omega = key[0], gaps[key[1]]
                rc = _coefficients(bath, omega + q * decomp.omega_drive, config)
                acc = dipole * op if key not in sums else sums[key][1] + dipole * op
                sums[key] = (rc, acc)
        for rc, op in sums.values():
            sop += full_secular_block_reference(rc, op)
    return sop


def floquet_redfield_nodes_reference(config, decomp, full_secular):
    """The Schrodinger-picture Floquet-Redfield superoperator at every node
    of the decomposition grid, built node by node as the looped period-node
    assembly did: -i[H(t), .] plus the dissipator of the jump sums rotated
    to the node by P(t) o P(t)†."""
    d = decomp.dim
    eye = np.eye(d)
    frame = generators._harmonic_frame(config, decomp, "floquet_redfield")
    terms = list(zip(*generators._redfield_sums(frame, config, full_secular)))
    h_of_t = drive_hamiltonian(config.h0, config.drive)
    samples = np.empty((decomp.grid_m, d * d, d * d), dtype=complex)
    for k in range(decomp.grid_m):
        p = decomp.p_samples[k]
        pd = p.conj().T
        sop = sop_commutator(h_of_t(k * decomp.tau / decomp.grid_m))
        for sums in terms:
            a, u1, u2 = (p @ o @ pd for o in sums)
            t1m, t2m = u1.conj().T, u2.conj().T
            ad = a.conj().T
            left = a @ u2 + ad @ t1m
            right = t2m @ ad + u1 @ a
            sop += -DIPOLE_PREFACTOR * (
                np.kron(left, eye) + np.kron(eye, right.T)
                - np.kron(a, u1.T) - np.kron(ad, t2m.T)
                - np.kron(t1m, ad.T) - np.kron(u2, a.T)
            )
        samples[k] = sop
    return samples


def schrodinger_superops(gen, h0, drive):
    """The micromotion-frame generator mapped back to the Schrodinger picture
    at every decomposition-grid node: -i[H(t), .] + Ad_P D Ad_P†, with
    D = gen.superop + i[Hbar, .] and Ad_P = P kron conj(P)."""
    decomp = gen.decomposition
    diss = gen.superop - sop_commutator(decomp.hbar_floquet)
    ts = np.arange(decomp.grid_m) * (decomp.tau / decomp.grid_m)
    p = decomp.p_at(ts)
    ad_p = np.einsum("tac,tbd->tabcd", p, p.conj()).reshape(len(ts), *diss.shape)
    h = drive_hamiltonian(h0, drive)(ts)
    return np.array([sop_commutator(hk) for hk in h]) + ad_p @ diss @ ad_p.conj().swapaxes(1, 2)


def apply(gen, rho):
    """d(rho~)/dt = L rho~ for the frame state rho~."""
    return (gen.superop @ np.asarray(rho, dtype=complex).ravel()).reshape(gen.dim, gen.dim)


class TestTransitionOperators:
    """|i><j| and its quadratures sigma_x, sigma_y, the couplings of a transition."""

    def test_pair_and_sigma_x_match_convention(self):
        pair, sx, _ = generators._transition_operators(0, 1, 3)
        want = np.zeros((3, 3), dtype=complex)
        want[0, 1] = 1.0
        assert_allclose(pair, want)
        want[1, 0] = 1.0
        assert_allclose(sx, want / 2)

    def test_projector_identity(self):
        _, sx, sy = generators._transition_operators(0, 2, 4)
        proj = np.zeros((4, 4), dtype=complex)
        proj[0, 0] = proj[2, 2] = 0.5
        assert_allclose(sx @ sx + sy @ sy, proj, atol=1e-14)

    def test_commutator_direct_matrix_oracle(self):
        # [sigma_x, sigma_y] computed directly; with sigma_y = i(|i><j|-|j><i|)/2
        # the commutator is -(i/2)(|i><i| - |j><j|)
        i, j = 1, 2
        _, sx, sy = generators._transition_operators(i, j, 3)
        comm = sx @ sy - sy @ sx
        want = np.zeros((3, 3), dtype=complex)
        want[i, i] = -0.5j
        want[j, j] = 0.5j
        assert_allclose(comm, want, atol=1e-14)

    def test_signed_zeros(self):
        # the entries are assigned, not computed: the one negative zero is the
        # real part of sigma_y's -0.5j entry
        ops = generators._transition_operators(2, 0, 3)
        assert np.argwhere(np.signbit(ops.view(float))).tolist() == [[2, 0, 4], [2, 0, 5]]


@pytest.fixture(scope="module")
def _all_kind_generators(gen_v0):
    cfg4 = build_four_level(0.05)
    gens = {
        "lindblad": lindblad_generator(build_three_level("nondriven")),
        "floquet_lindblad": gen_v0,
        "redfield": build_generator(cfg4),
    }
    gens["floquet_redfield"] = build_generator(build_four_level(0.0, driven=True))
    return gens


class TestTracePreservation:
    def test_trace_and_hermiticity_on_100_random_states(self, _all_kind_generators):
        generators = _all_kind_generators
        rng = np.random.default_rng(42)
        for kind, gen in generators.items():
            for _ in range(100):
                rho = random_density(rng, gen.dim)
                drho = apply(gen, rho)
                assert abs(np.trace(drho)) < 1e-11, kind
                assert np.max(np.abs(drho - drho.conj().T)) < 1e-10, kind


@pytest.mark.parametrize("preset,kind", [
    (preset, kind) for preset in sorted(PRESETS) for kind in GENERATOR_KINDS
    if PRESETS[preset]().drive is not None or not kind.startswith("floquet")])
def test_real_generator_is_real(preset, kind):
    # N L M, the generator on record coordinates that evolve propagates: exactly
    # real for the Redfield kinds, within one ulp of ||L|| for the secular ones
    config = PRESETS[preset]()
    config = replace(config, kind=kind, drive=config.drive if kind.startswith("floquet") else None)
    superop = build_generator(config).superop
    n, m = coordinate_maps(config.dim)
    nlm = n @ (superop @ m)
    bound = 0.0 if "redfield" in kind else np.spacing(np.linalg.norm(superop, 2))
    assert np.max(np.abs(nlm.imag)) <= bound
    assert np.array_equal(real_superop(superop), nlm.real)


class TestLindblad:
    def test_gibbs_stationarity_single_bath_qubit(self):
        bath = BathSpec("hot", beta=1 / 30, j0=4e-4, omega_cutoff=np.sqrt(2),
                        transitions=((1, 0),))
        gen = lindblad_generator(ScenarioConfig(energies=(0.0, 3.0), target_level=1,
                                                baths=(bath,), kind="lindblad"))
        rho_g = gibbs_state(np.diag([0.0, 3.0]), 1 / 30)
        assert np.max(np.abs(apply(gen, rho_g))) < 1e-9

    def test_zero_coupling_reduces_to_commutator(self):
        bath = BathSpec("off", beta=1.0, j0=0.0, omega_cutoff=1.0, transitions=((1, 0),))
        gen = lindblad_generator(ScenarioConfig(energies=(0.0, 3.0, 2.5), target_level=2,
                                                baths=(bath,), kind="lindblad"))
        rng = np.random.default_rng(2)
        rho = random_density(rng, 3)
        want = -1j * (H0_3 @ rho - rho @ H0_3)
        assert np.max(np.abs(apply(gen, rho) - want)) < 1e-14

    def test_monotone_relaxation_no_coherences(self):
        cfg = build_three_level("nondriven")
        traj = evolve(cfg, 2000.0, dt=0.05)
        off = [np.max(np.abs(s - np.diag(np.diag(s)))) for s in traj.states]
        assert max(off) < 1e-10
        pb = traj.populations[:, 2]
        assert np.all(np.diff(pb) > -1e-12)  # monotone approach

    def test_static_lamb_commutes_with_h0(self):
        gen = lindblad_generator(build_three_level("nondriven"))
        lamb = sum(gen.h_lamb.values())
        comm = lamb @ H0_3 - H0_3 @ lamb
        assert np.max(np.abs(comm)) < 1e-9


class TestFloquetLindblad:
    def test_mu_zero_matches_static(self, h0_three):
        cfg = build_three_level("nondriven", kind="lindblad")
        from floqdyn.floquet import floquet_decompose

        dec = floquet_decompose(lambda t: H0_3, 2 * np.pi / 2.25, H0_3,
                                grid_m=256)
        gen_fl = floquet_lindblad_generator(replace(cfg, kind="floquet_lindblad", q_max=2), dec)
        gen_li = lindblad_generator(cfg)
        assert np.linalg.norm(gen_fl.superop - gen_li.superop, 2) < 1e-6

    def test_floquet_lamb_does_not_commute_with_h0(self, gen_v0):
        lamb = sum(gen_v0.h_lamb.values())
        assert np.linalg.norm(lamb @ H0_3 - H0_3 @ lamb) > 1e-3

    def test_floquet_lamb_commutes_with_hbar(self, gen_v0, dec_v0):
        lamb = sum(gen_v0.h_lamb.values())
        hbar = dec_v0.hbar_floquet
        assert np.max(np.abs(lamb @ hbar - hbar @ lamb)) < 1e-8

    def test_floor_starvation_raises(self, dec_v0, cfg_v0):
        with mock.patch.object(floquet, "FOURIER_FLOOR", 10.0):
            with pytest.raises(ConfigError):
                floquet_lindblad_generator(replace(cfg_v0, q_max=3), dec_v0)

    @pytest.mark.parametrize("kind", ["floquet_lindblad", "floquet_redfield"])
    def test_floor_starvation_raises_for_both_floquet_kinds(self, kind):
        config = replace(PRESETS["four_level_degenerate_driven"](), kind=kind)
        decomp = decompose_scenario(config)
        with mock.patch.object(floquet, "FOURIER_FLOOR", 10.0):
            with pytest.raises(ConfigError, match="Fourier floor removed every jump operator"):
                build_generator(config, decomposition=decomp)


class TestRedfield:
    def test_hermiticity_on_random_states(self):
        gen = build_generator(build_four_level(0.05))
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density(rng, 4)
            drho = apply(gen, rho)
            assert np.max(np.abs(drho - drho.conj().T)) < 1e-10

    def test_qubit_matches_lindblad_after_calibration(self):
        # cross-method oracle: same relaxation from the dipole calibration
        bath = BathSpec("cold", beta=1 / 4, j0=4e-3, omega_cutoff=np.sqrt(0.2),
                        transitions=((1, 0),))
        common = dict(energies=(0.0, 0.5), target_level=1, baths=(bath,))
        traj_l = evolve(ScenarioConfig(label="l", kind="lindblad", **common), 500.0, dt=0.02)
        traj_r = evolve(ScenarioConfig(label="r", kind="redfield", **common), 500.0, dt=0.02)
        tds = [trace_distance(a, b) for a, b in zip(traj_l.states, traj_r.states)]
        assert max(tds) < 1e-4

    def test_degenerate_coherence_growth(self):
        cfg = replace(build_four_level(0.0), lamb_shift=False)
        traj = evolve(cfg, 200.0, dt=0.02)
        r12 = np.abs(traj.states[:, 1, 2])
        assert r12[0] == 0.0
        assert r12[-1] > 1e-3

    def test_nondegenerate_coherence_generated(self):
        cfg = replace(build_four_level(0.05), lamb_shift=False)
        traj = evolve(cfg, 200.0, dt=0.02)
        assert np.abs(traj.states[:, 1, 2]).max() > 1e-4

    # a zero gap has no dipole, and the calibration's cube of a gap of 1e200
    # overflows, of 1e-110 or 5e-324 underflows to 0
    @pytest.mark.parametrize("upper", [0.0, 5e-324, 1e-110, 1e200])
    def test_missing_dipole_rejected(self, upper):
        bath = BathSpec("b", beta=1.0, j0=1e-3, omega_cutoff=1.0, transitions=((1, 0),))
        cfg = ScenarioConfig(energies=(0.0, upper), target_level=1, baths=(bath,),
                             kind="redfield")
        with pytest.raises(ConfigError, match=r"channels \['b/\(1, 0\)'\] lack the dipole"):
            redfield_generator(cfg)

    @pytest.mark.parametrize("lamb", [True, False])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_matches_pair_reference(self, preset, lamb):
        cfg = replace(PRESETS[preset](), kind="redfield", lamb_shift=lamb, drive=None)
        gap = np.max(np.abs(build_generator(cfg).superop - redfield_pairs_reference(cfg)))
        assert gap <= REDFIELD_REF_TOL

    def test_collective_lindblad_equals_redfield_when_degenerate(self):
        # shared-bath jump operators reproduce the Redfield dynamics exactly
        # for the degenerate 4-level system: a strong transcription oracle
        cfg_r = build_four_level(0.0, kind="redfield")
        cfg_l = build_four_level(0.0, kind="lindblad")
        gen_coll = build_generator(cfg_l, collective=True)
        traj_r = evolve(cfg_r, 400.0, dt=0.01)
        traj_c = evolve(cfg_l, 400.0, dt=0.01, generator=gen_coll)
        tds = [trace_distance(a, b) for a, b in zip(traj_r.states, traj_c.states)]
        assert max(tds) < 1e-8


@pytest.fixture(scope="module")
def fr_setup():
    # a 256-sample P grid keeps the per-sample node reference quick
    cfg = replace(build_four_level(0.0, driven=True), q_max=8)
    dec = floquet_decompose(drive_hamiltonian(cfg.h0, cfg.drive), cfg.drive.tau, cfg.h0,
                            grid_m=256)
    return cfg, dec, build_generator(cfg, decomposition=dec)


class TestFloquetRedfield:

    def test_trace_at_random_times(self, fr_setup):
        _, _, gen = fr_setup
        rng = np.random.default_rng(6)
        for _ in range(5):
            rho = random_density(rng, 4)
            assert abs(np.trace(apply(gen, rho))) < 1e-11

    def test_mu_zero_matches_static_redfield(self):
        cfg = replace(build_four_level(0.0, driven=True), q_max=2)
        from floqdyn.floquet import DriveSpec

        cfg0 = replace(cfg, drive=DriveSpec(0.0, 2.25, (0, 3)))
        gen0 = build_generator(cfg0)
        traj0 = evolve(cfg0, 50.0, dt=0.01, generator=gen0)
        cfg_r = build_four_level(0.0, kind="redfield")
        traj_r = evolve(cfg_r, 50.0, dt=0.01)
        assert trace_distance(traj0.states[-1], traj_r.states[-1]) < 1e-6

    def test_driven_coherence_structure(self, fr_setup):
        cfg, dec, gen = fr_setup
        traj = evolve(cfg, 300.0, generator=gen)
        r12 = np.abs(traj.states[:, 1, 2])
        r0b = np.abs(traj.states[:, 0, 3])
        assert r12[-1] > 0.05          # bath does not destroy the 1-2 coherence
        assert r0b[-1] < 0.5 * r0b.max()  # drive-induced 0-b coherence is damped

    def test_time_independent_in_the_micromotion_frame(self, fr_setup):
        cfg, dec, gen = fr_setup
        assert gen.decomposition is dec
        assert gen.superop_at(1.234) is gen.superop

    @pytest.mark.parametrize("full_secular", [False, True])
    @pytest.mark.parametrize("lamb", [True, False])
    def test_matches_node_reference_in_the_schrodinger_picture(self, fr_setup, lamb,
                                                               full_secular):
        cfg, dec, _ = fr_setup
        cfg = replace(cfg, lamb_shift=lamb)
        gen = build_generator(cfg, decomposition=dec, full_secular=full_secular)
        want = floquet_redfield_nodes_reference(cfg, dec, full_secular)
        gap = np.max(np.abs(schrodinger_superops(gen, cfg.h0, cfg.drive) - want))
        assert gap <= REDFIELD_NODE_TOL

    @pytest.mark.parametrize("lamb", [True, False])
    def test_full_secular_matches_eight_term_reference(self, fr_setup, lamb):
        cfg, dec, _ = fr_setup
        cfg = replace(cfg, lamb_shift=lamb)
        gen = build_generator(cfg, decomposition=dec, full_secular=True)
        gap = np.max(np.abs(gen.superop - full_secular_reference(cfg, dec)))
        assert gap <= REDFIELD_REF_TOL

    def test_full_secular_matches_lindblad_form_populations(self, fr_setup):
        # restricting the partial-secular equation to omega' = omega and
        # dropping C terms must reduce to a Lindblad-form generator built
        # from the same dipole-equivalent sigma channels: the only residue
        # is the cross-pair interference, second order in (rate * tau).
        # (Comparing against the Ohmic-J Floquet-Lindblad instead would mix
        # in the nu^3-vs-J spectral profile at the drive sidebands.)
        cfg, dec, _ = fr_setup
        cfg_nl = replace(cfg, lamb_shift=False)
        gen_fs = build_generator(cfg_nl, decomposition=dec, full_secular=True)
        # Lindblad form: same construction channel by channel, so the
        # cross-transition products never form
        from floqdyn.generators import Generator

        singles = [
            floquet_redfield_generator(
                replace(cfg_nl, baths=(replace(bath, transitions=(t,)),)), dec, full_secular=True)
            for bath in cfg_nl.baths for t in bath.transitions]
        sop = (sum(g.superop for g in singles)
               - (len(singles) - 1) * sop_commutator(dec.hbar_floquet))
        gen_lf = Generator(kind="floquet_redfield", dim=4, superop=sop, decomposition=dec)
        tau = cfg.drive.tau
        traj_fs = evolve(cfg_nl, tau, dt=tau / 256, generator=gen_fs)
        traj_lf = evolve(cfg_nl, tau, dt=tau / 256, generator=gen_lf)
        p_fs = traj_fs.populations[-1]
        p_lf = traj_lf.populations[-1]
        assert 0.5 * np.sum(np.abs(p_fs - p_lf)) < 1e-3


class TestBuilderValidation:
    def test_floquet_kind_requires_decomposition(self):
        cfg = build_three_level("nondriven", kind="floquet_lindblad")
        with pytest.raises(ValidationError, match="requires a FloquetDecomposition"):
            floquet_lindblad_generator(cfg)

    def test_static_kind_rejects_decomposition(self, dec_v0):
        with pytest.raises(ValidationError, match="must not carry a FloquetDecomposition"):
            lindblad_generator(build_three_level("nondriven"), dec_v0)

    @pytest.mark.parametrize("build,kind", [
        (lindblad_generator, "redfield"), (floquet_lindblad_generator, "floquet_redfield"),
        (redfield_generator, "lindblad"), (floquet_redfield_generator, "floquet_lindblad")])
    def test_builder_rejects_another_kinds_scenario(self, build, kind, dec_v0):
        with pytest.raises(ValidationError, match=f"expected kind '{build.__name__[:-10]}'"):
            build(build_three_level("v0", kind=kind), dec_v0)

    @pytest.mark.parametrize("flag,owner,kind", [
        (flag, owner, kind)
        for flag, owner in (("collective", "lindblad"), ("full_secular", "floquet_redfield"))
        for kind in GENERATOR_KINDS if kind != owner])
    def test_build_generator_rejects_a_variant_of_another_kind(self, flag, owner, kind):
        cfg = build_three_level("v0" if kind.startswith("floquet") else "nondriven", kind=kind)
        with pytest.raises(ValidationError,
                           match=f"{flag} applies only to kind '{owner}', not '{kind}'"):
            build_generator(cfg, **{flag: True})

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown generator kind 'pauli'"):
            build_three_level("nondriven", kind="pauli")


class TestFloquetLambReferenceValues:
    # each v0 Lamb matrix against the sum of xi(omega + q Omega) S†S over
    # its jump table, xi from QUADPACK, to criterion 2's tolerance
    @staticmethod
    def _check(gen_v0, lamb_oracle, bath, key):
        oracle = lamb_oracle[bath]
        assert np.max(np.abs(gen_v0.h_lamb[key] - oracle["want"])) <= oracle["tol"]

    def test_v0_hot_lamb_matches_reference(self, gen_v0, lamb_oracle):
        self._check(gen_v0, lamb_oracle, "hot", "hot:(1, 0)")

    def test_v0_cold_lamb_matches_reference(self, gen_v0, lamb_oracle):
        self._check(gen_v0, lamb_oracle, "cold", "cold:(1, 2)")


class TestRandomizedModels:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_invariants_hold_for_random_static_models(self, data):
        # random level structures and baths must still yield trace- and
        # Hermiticity-preserving Lindblad and Redfield generators, and
        # Redfield must match the pair reference wherever no two gaps
        # cluster (the assembly evaluates N/C at the clustered gap)
        dim = data.draw(st.integers(2, 5))
        energies = sorted(data.draw(
            st.lists(st.floats(0.1, 5.0), min_size=dim, max_size=dim,
                     unique=True)))
        gaps = np.unique(np.subtract.outer(energies, energies))
        assume(np.all(np.diff(gaps) > floquet.GAP_CLUSTER_TOL))
        n_tr = data.draw(st.integers(1, min(3, dim * (dim - 1) // 2)))
        pairs = sorted({(i, j) for i in range(dim) for j in range(i)})
        picks = data.draw(st.permutations(pairs))[:n_tr]
        beta = data.draw(st.floats(0.05, 5.0))
        j0 = data.draw(st.floats(1e-5, 1e-2))
        wc = data.draw(st.floats(0.3, 2.0))
        bath = BathSpec("rand", beta=beta, j0=j0, omega_cutoff=wc,
                        transitions=tuple(picks))
        cfg = ScenarioConfig(energies=tuple(energies), target_level=0, baths=(bath,),
                             kind="redfield")
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        rho = random_density(rng, dim)
        for build, kind in ((lindblad_generator, "lindblad"),
                            (redfield_generator, "redfield")):
            gen = build(replace(cfg, kind=kind))
            drho = apply(gen, rho)
            assert abs(np.trace(drho)) < 1e-11
            assert np.max(np.abs(drho - drho.conj().T)) < 1e-10
        ref = redfield_pairs_reference(cfg)
        gap = np.max(np.abs(redfield_generator(cfg).superop - ref))
        assert gap <= REDFIELD_REF_TOL * np.max(np.abs(ref))


class TestDissipatorForm:
    """The one form every kind's dissipator takes:
    D rho = sum_k (a_k rho b_k† - b_k† a_k rho) + h.c."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(0, 6), d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_superop_matches_matrix_products(self, k, d, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d)) for _ in range(2))
        rho = random_hermitian(rng, d)
        zero = np.zeros((d, d), dtype=complex)
        cfg = ScenarioConfig(energies=(0.0,) * d, target_level=0, baths=(), kind="lindblad")
        gen = generators._harmonic_frame(cfg, None, "lindblad").generator({}, list(a), list(b))
        got = apply(gen, rho)
        half = sum((ak @ rho @ bk.conj().T - bk.conj().T @ ak @ rho for ak, bk in zip(a, b)), zero)
        want = half + half.conj().T
        scale = np.linalg.norm(rho) * sum(np.linalg.norm(ak) * np.linalg.norm(bk)
                                          for ak, bk in zip(a, b))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert abs(np.trace(got)) <= 1e-13 * scale
        assert np.max(np.abs(got - got.conj().T)) <= 1e-13 * scale

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_bathless_scenario_is_the_commutator(self, kind):
        # no channel gives empty stacks; a Floquet kind keeps v0's drive
        cfg = replace(PRESETS["three_level_v0"](), kind=kind, baths=())
        if not kind.startswith("floquet"):
            cfg = replace(cfg, drive=None)
        gen = build_generator(cfg)
        hbar = cfg.h0 if gen.decomposition is None else gen.decomposition.hbar_floquet
        assert np.array_equal(gen.superop, sop_commutator(hbar))
