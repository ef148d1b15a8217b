import warnings

import numpy as np
import pytest
import scipy.linalg

from floqdyn.baths import BathSpec, OhmicSpec, spectral_density
from floqdyn.errors import ValidationError
from floqdyn.operators import trace_distance
from floqdyn.scenarios import (
    ScenarioConfig,
    Trajectory,
    build_four_level,
    build_generator,
    build_three_level,
    efficiency,
    evolve,
    qubit_dipole_calibration,
    trajectory_diagnostics,
)


class TestPresets:
    def test_three_level_nondriven_structure(self):
        cfg = build_three_level("nondriven")
        assert cfg.drive is None
        assert len(cfg.baths) == 2
        ops = [op for ch in cfg.channels() for op in ch.operators]
        assert len(ops) == 4  # sigma_x/sigma_y per bath
        assert cfg.energies == (0.0, 3.0, 2.5)
        assert cfg.target_level == 2

    def test_v0_drives_ground_target_pair(self):
        cfg = build_three_level("v0")
        assert cfg.drive.pair == (0, 2)
        # near-resonant: Omega/omega_b0 = 0.9
        omega_b0 = cfg.energies[2] - cfg.energies[0]
        assert cfg.drive.omega_drive / omega_b0 == pytest.approx(0.9)

    def test_v1_drives_upper_target_pair(self):
        cfg = build_three_level("v1")
        assert cfg.drive.pair == (1, 2)
        omega_1b = cfg.energies[1] - cfg.energies[2]
        assert cfg.drive.omega_drive / omega_1b == pytest.approx(4.5)

    def test_four_level_degenerate(self):
        cfg = build_four_level(0.0)
        assert cfg.energies[1] == cfg.energies[2]
        hot = [b for b in cfg.baths if b.name == "hot"][0]
        cold = [b for b in cfg.baths if b.name == "cold"][0]
        assert set(hot.transitions) == {(1, 0), (2, 0)}
        assert set(cold.transitions) == {(1, 3), (2, 3)}

    def test_four_level_gap(self):
        cfg = build_four_level(0.05)
        assert cfg.energies[2] - cfg.energies[1] == pytest.approx(0.05)

    def test_four_level_driven_pair(self):
        cfg = build_four_level(0.0, driven=True)
        assert cfg.drive.pair == (0, 3)
        assert cfg.kind == "floquet_redfield"

    def test_energy_ordering_invariant(self):
        for cfg in (build_three_level("nondriven"), build_four_level(0.05)):
            eb = cfg.energies[cfg.target_level]
            assert cfg.energies[0] < eb < cfg.energies[1]


class TestDipoleCalibration:
    def test_zero_spectral_density_boundary(self):
        assert qubit_dipole_calibration(OhmicSpec(0.0, 1.0), 1.0) == 0.0

    def test_cold_bath_value(self):
        spec = OhmicSpec(4e-3, np.sqrt(0.2))
        j = 4e-3 * 0.5 * np.exp(-1.25)
        want = np.sqrt(6 * np.pi**2 * j / 0.125)
        assert qubit_dipole_calibration(spec, 0.5) == pytest.approx(want, rel=1e-12)

    def test_rate_match_on_population_decay(self):
        # calibrated qubit: Lindblad and Redfield relaxation rates within 1%
        bath = BathSpec("cold", beta=1 / 4, spectral=OhmicSpec(4e-3, np.sqrt(0.2)),
                        transitions=((1, 0),))
        common = dict(energies=(0.0, 0.5), target_level=1, baths=(bath,),
                      initial_level=1)
        tl = evolve(ScenarioConfig(label="l", kind="lindblad", **common), 40.0, dt=0.02)
        tr = evolve(ScenarioConfig(label="r", kind="redfield", **common), 40.0, dt=0.02)

        def fit_rate(traj):
            p = traj.populations[:, 1]
            p_inf = p[-1]
            y = np.log(np.abs(p[:-200] - p_inf))
            return -np.polyfit(traj.times[:-200], y, 1)[0]

        assert fit_rate(tl) == pytest.approx(fit_rate(tr), rel=0.01)


class TestEvolve:
    def test_zero_coupling_static_state(self):
        bath = BathSpec("off", beta=1.0, spectral=OhmicSpec(0.0, 1.0), transitions=((1, 0),))
        cfg = ScenarioConfig(label="frozen", energies=(0.0, 1.0, 2.0), target_level=2,
                             baths=(bath,), kind="lindblad", initial_level=1)
        traj = evolve(cfg, 20.0, dt=0.05)
        for s in traj.states[:: len(traj.states) // 5]:
            assert np.max(np.abs(s - traj.states[0])) < 1e-12

    def test_nondriven_coherences_stay_zero(self):
        traj = evolve(build_three_level("nondriven"), 300.0)
        off = [np.max(np.abs(s - np.diag(np.diag(s)))) for s in traj.states]
        assert max(off) < 1e-10

    def test_recorded_invariants(self, cfg_v0, gen_v0):
        traj = evolve(cfg_v0, 50.0, generator=gen_v0)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.trace_errors.max() < 1e-8
        herm = [np.max(np.abs(s - s.conj().T)) for s in traj.states[::50]]
        assert max(herm) < 1e-9

    def test_determinism_bit_identical(self):
        cfg = build_three_level("nondriven")
        t1 = evolve(cfg, 50.0, dt=0.05)
        t2 = evolve(cfg, 50.0, dt=0.05)
        assert np.array_equal(t1.states, t2.states)

    def test_picture_transform_consistency(self, cfg_v1, gen_v1):
        # the recorded state mapped into the micromotion frame, P† rho P,
        # is the frame state exp(L t) rho(0)
        traj = evolve(cfg_v1, 100.0, generator=gen_v1)
        p = gen_v1.decomposition.p_at(100.0)
        frame = p.conj().T @ traj.final_state() @ p
        want = scipy.linalg.expm(gen_v1.superop * 100.0) @ cfg_v1.initial_state().matrix.ravel()
        assert trace_distance(frame, want.reshape(frame.shape)) < 1e-6

    def test_lindblad_positivity_along_trajectory(self):
        traj = evolve(build_three_level("nondriven"), 1000.0)
        assert traj.positivity_log.min() >= -1e-7

    def test_caller_dt_is_kept_without_warning(self):
        # ||L|| * dt is about 4.7 here, outside the RK4 stability region; the
        # exact solution records on the caller's dt all the same
        cfg = build_four_level(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(cfg, 1.0, dt=0.05)
        assert np.array_equal(traj.times, np.arange(21) * 0.05)

    def test_dt_must_be_positive(self):
        with pytest.raises(ValidationError):
            evolve(build_three_level("nondriven"), 10.0, dt=-0.1)


class TestEfficiency:
    def _const_traj(self, p):
        times = np.linspace(0.0, 10.0, 21)
        states = np.zeros((21, 2, 2), dtype=complex)
        states[:, 0, 0] = 1 - p
        states[:, 1, 1] = p
        cfg = ScenarioConfig(
            label="const", energies=(0.0, 1.0), target_level=1,
            baths=(BathSpec("b", 1.0, OhmicSpec(1e-4, 1.0), ((1, 0),)),),
            kind="lindblad")
        return Trajectory(times=times, states=states,
                          populations=np.einsum("tii->ti", states).real,
                          positivity_log=np.zeros(21), trace_errors=np.zeros(21),
                          config=cfg)

    def test_constant_population(self):
        rep = efficiency(self._const_traj(0.37))
        assert rep.eta == pytest.approx(0.37, abs=1e-12)

    def test_linear_ramp(self):
        traj = self._const_traj(0.0)
        tf = traj.times[-1]
        ramp = traj.times / tf
        states = traj.states.copy()
        states[:, 1, 1] = ramp
        states[:, 0, 0] = 1 - ramp
        traj2 = Trajectory(times=traj.times, states=states,
                           populations=np.einsum("tii->ti", states).real,
                           positivity_log=traj.positivity_log,
                           trace_errors=traj.trace_errors, config=traj.config)
        assert efficiency(traj2).eta == pytest.approx(0.5, abs=1e-12)

    def test_monotone_bound(self, cfg_v1, gen_v1):
        traj = evolve(cfg_v1, 200.0, generator=gen_v1)
        rep = efficiency(traj)
        assert 0.0 <= rep.eta <= traj.populations[:, 2].max() + 1e-9

    def test_t_final_beyond_trajectory_rejected(self):
        with pytest.raises(ValidationError):
            efficiency(self._const_traj(0.5), t_final=99.0)

    def test_stride_refinement_stability(self):
        cfg = build_three_level("nondriven")
        e1 = efficiency(evolve(cfg, 600.0, dt=0.05, stride=24)).eta
        e2 = efficiency(evolve(cfg, 600.0, dt=0.05, stride=12)).eta
        assert abs(e1 - e2) < 1e-4


class TestDiagnostics:
    def test_pure_start_min_eig_zero(self):
        traj = evolve(build_three_level("nondriven"), 50.0)
        assert traj.positivity_log[0] == pytest.approx(0.0, abs=1e-12)

    def test_report_fields(self):
        traj = evolve(build_three_level("nondriven"), 50.0)
        diag = trajectory_diagnostics(traj)
        assert diag.min_eigenvalue >= -1e-7
        assert diag.max_trace_error < 1e-8
        assert diag.stationarity >= 0.0

    def test_nondegenerate_redfield_positivity_with_lamb(self):
        # the radiation cutoff W = 4e4 keeps the dynamics positive
        import warnings

        cfg = build_four_level(0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = evolve(cfg, 800.0, dt=0.01)
        assert trajectory_diagnostics(traj).min_eigenvalue > -1e-3


class TestDegenerateLambInsensitivity:
    def test_static_redfield_lamb_on_off(self):
        cfg_on = build_four_level(0.0, kind="redfield", lamb_shift=True)
        cfg_off = build_four_level(0.0, kind="redfield", lamb_shift=False)
        t_on = evolve(cfg_on, 400.0, dt=0.01)
        t_off = evolve(cfg_off, 400.0, dt=0.01)
        tds = [trace_distance(a, b) for a, b in zip(t_on.states[::100], t_off.states[::100])]
        assert max(tds) < 1e-4


class TestIntegrationGuards:
    def test_trace_drift_aborts_with_advice(self):
        from floqdyn.errors import NumericalError
        from floqdyn.generators import Generator, sop_left

        cfg = build_three_level("nondriven")
        leaky = Generator(kind="lindblad", dim=3,
                          superop=1e-4 * sop_left(np.eye(3, dtype=complex)))
        with pytest.raises(NumericalError, match="not trace preserving"):
            evolve(cfg, 10.0, dt=0.05, generator=leaky)

    def test_redfield_negativity_is_warning_not_fatal(self):
        from floqdyn.tolerances import tolerance_overrides

        cfg = build_three_level("nondriven")
        gen = build_generator(cfg)
        with tolerance_overrides(redfield_positivity=1e-3):
            # threshold above zero so the pure-state start itself trips it
            with pytest.warns(RuntimeWarning, match="positivity"):
                traj = evolve(cfg, 5.0, dt=0.05, generator=gen)
        assert traj.warnings_issued


class TestRateEquationOracle:
    def test_nondriven_efficiency_matches_classical_rate_equations(self):
        # fully independent oracle: the nondriven 3-level populations obey
        # classical Pauli rate equations; solve them with scipy's expm and
        # compare the time-averaged target population
        import scipy.linalg

        from floqdyn.baths import gamma_ohmic

        hot = OhmicSpec(4e-4, np.sqrt(2.0))
        cold = OhmicSpec(4e-3, np.sqrt(0.2))
        up_h = 0.5 * gamma_ohmic(hot, 1 / 30, 3.0)
        dn_h = 0.5 * gamma_ohmic(hot, 1 / 30, -3.0)
        up_c = 0.5 * gamma_ohmic(cold, 1 / 4, 0.5)
        dn_c = 0.5 * gamma_ohmic(cold, 1 / 4, -0.5)
        rate = np.array([
            [-up_h, dn_h, 0.0],
            [up_h, -(dn_h + dn_c), up_c],
            [0.0, dn_c, -up_c]])
        ts = np.linspace(0.0, 3000.0, 101)
        pb = np.array([(scipy.linalg.expm(rate * t) @ [1.0, 0.0, 0.0])[2] for t in ts])
        eta_oracle = np.trapezoid(pb, ts) / ts[-1]
        traj = evolve(build_three_level("nondriven"), 3000.0)
        eta_impl = efficiency(traj).eta
        assert eta_impl == pytest.approx(eta_oracle, rel=1e-4)
