import logging
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from floqdyn import floquet, scenarios
from floqdyn.baths import BathSpec, OhmicSpec
from floqdyn.errors import ConfigError, ValidationError
from floqdyn.operators import to_coordinates, trace_distance
from floqdyn.scenarios import (
    PRESETS,
    ScenarioConfig,
    Trajectory,
    build_four_level,
    build_generator,
    build_three_level,
    decompose_scenario,
    efficiency,
    evolve,
    trajectory_diagnostics,
)

from conftest import mp_min_eigenvalue


class TestPresets:
    def test_three_level_nondriven_structure(self):
        cfg = build_three_level("nondriven")
        assert cfg.drive is None
        assert len(cfg.baths) == 2
        assert [bath.transitions for bath in cfg.baths] == [((1, 0),), ((1, 2),)]
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


class TestEvolve:
    def test_zero_coupling_static_state(self):
        bath = BathSpec("off", beta=1.0, spectral=OhmicSpec(0.0, 1.0), transitions=((1, 0),))
        cfg = ScenarioConfig(label="frozen", energies=(0.0, 1.0, 2.0), target_level=2,
                             baths=(bath,), kind="lindblad", initial_level=1)
        traj = evolve(cfg, 20.0, dt=0.05)
        for s in traj.states[:: len(traj.states) // 5]:
            assert np.max(np.abs(s - traj.states[0])) < 1e-12

    @pytest.mark.parametrize("cfg", [build_three_level("nondriven"),
                                     build_four_level(0.05, kind="lindblad")],
                             ids=["3-level", "4-level"])
    def test_first_record_is_the_initial_projector(self, cfg):
        for level in range(cfg.dim):
            traj = evolve(replace(cfg, initial_level=level), 1.0)
            want = np.zeros((cfg.dim, cfg.dim))
            want[level, level] = 1.0
            assert np.array_equal(traj.states[0], want)

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

    @pytest.mark.parametrize("q_max", [100, 1000, 1024])
    def test_default_records_land_on_the_p_grid(self, q_max):
        # the P grid starts at 256 samples, or at the power of two >= 8 q_max
        # (1024 here for 100, 8192 for 1000 and 1024); every on-stride record is
        # mapped back by a P sample, none by a Magnus step from the node below
        cfg = replace(PRESETS["three_level_v1"](), q_max=q_max)
        dec = decompose_scenario(cfg)
        m = dec.grid_m
        assert m == {100: 1024, 1000: 8192, 1024: 8192}[q_max]
        times = evolve(cfg, 30.0, generator=build_generator(cfg, decomposition=dec)).times[:-1]
        nodes = np.rint(times / dec.tau * m).astype(np.int64) % m
        assert np.array_equal(dec.p_at(times), dec.p_samples[nodes])

    def test_p_grid_is_bounded_before_any_work(self, monkeypatch):
        # 3x3 samples of 16 bytes: q_max 32768 starts at 2**18 samples, whose
        # 2**22 + 1 after four doublings fit in 1 GiB; q_max 32769 starts at 2**19
        def no_samples(*args, **kwargs):
            raise AssertionError("sampled the propagator")

        monkeypatch.setattr(floquet, "magnus_samples", no_samples)
        with pytest.raises(AssertionError, match="sampled the propagator"):
            decompose_scenario(replace(PRESETS["three_level_v1"](), q_max=32768))
        for q_max, samples in ((32769, 2**23 + 1), (10**9, 2**37 + 1)):
            with pytest.raises(ConfigError, match=f"q_max {q_max} asks for a P grid of up "
                                                  f"to {samples} samples"):
                decompose_scenario(replace(PRESETS["three_level_v1"](), q_max=q_max))

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
        frame = p.conj().T @ traj.states[-1] @ p
        want = scipy.linalg.expm(gen_v1.superop * 100.0) @ cfg_v1.initial_state().ravel()
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
        return Trajectory(times=times, coords=to_coordinates(states),
                          positivity_log=np.zeros(21), trace_errors=np.zeros(21),
                          config=cfg)

    def test_constant_population(self):
        eta, _ = efficiency(self._const_traj(0.37))
        assert eta == pytest.approx(0.37, abs=1e-12)

    def test_linear_ramp(self):
        traj = self._const_traj(0.0)
        tf = traj.times[-1]
        ramp = traj.times / tf
        states = np.asarray(traj.states)
        states[:, 1, 1] = ramp
        states[:, 0, 0] = 1 - ramp
        traj2 = Trajectory(times=traj.times, coords=to_coordinates(states),
                           positivity_log=traj.positivity_log,
                           trace_errors=traj.trace_errors, config=traj.config)
        assert efficiency(traj2)[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_bound(self, cfg_v1, gen_v1):
        traj = evolve(cfg_v1, 200.0, generator=gen_v1)
        eta, _ = efficiency(traj)
        assert 0.0 <= eta <= traj.populations[:, 2].max() + 1e-9

    def test_stride_refinement_stability(self):
        cfg = build_three_level("nondriven")
        e1 = efficiency(evolve(cfg, 600.0, dt=1.2))[0]
        e2 = efficiency(evolve(cfg, 600.0, dt=0.6))[0]
        assert abs(e1 - e2) < 1e-4


class TestDiagnostics:
    def test_pure_start_min_eig_zero(self):
        traj = evolve(build_three_level("nondriven"), 50.0)
        assert traj.positivity_log[0] == pytest.approx(0.0, abs=1e-12)

    def test_report_fields(self):
        traj = evolve(build_three_level("nondriven"), 50.0)
        diag = trajectory_diagnostics(traj)
        assert diag["min_eigenvalue"] >= -1e-7
        assert diag["max_trace_error"] < 1e-8
        assert diag["stationarity"] >= 0.0

    def test_nondegenerate_redfield_transient_excursion(self):
        # the 4-level nondegenerate Redfield state dips below zero at t = 0.3
        traj = evolve(build_four_level(0.05), 1.0)
        worst = trajectory_diagnostics(traj)["min_eigenvalue"]
        assert worst == pytest.approx(-2.556455894650646e-06, abs=1e-15)
        k = int(np.argmin(traj.positivity_log))
        assert traj.times[k] == pytest.approx(0.3)
        assert abs(worst - mp_min_eigenvalue(traj.states[k])) <= 1e-15

    def test_nondegenerate_redfield_positivity_with_lamb(self):
        # the radiation cutoff W = 4e4 keeps the dynamics positive
        import warnings

        cfg = build_four_level(0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            traj = evolve(cfg, 800.0, dt=0.01)
        assert trajectory_diagnostics(traj)["min_eigenvalue"] > -1e-3


class TestDegenerateLambInsensitivity:
    def test_static_redfield_lamb_on_off(self):
        cfg_on = replace(build_four_level(0.0, kind="redfield"), lamb_shift=True)
        cfg_off = replace(build_four_level(0.0, kind="redfield"), lamb_shift=False)
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
        cfg = build_three_level("nondriven")
        gen = build_generator(cfg)
        with mock.patch.object(scenarios, "POSITIVITY_SOFT_BOUND", 1e-3):
            # threshold above zero so the pure-state start itself trips it
            with pytest.warns(RuntimeWarning, match="positivity"):
                traj = evolve(cfg, 5.0, dt=0.05, generator=gen)
        assert traj.warnings_issued

    def test_silenced_excursion_warning_still_reaches_the_logger(self, caplog):
        cfg = build_three_level("nondriven")
        with mock.patch.object(scenarios, "POSITIVITY_SOFT_BOUND", 1e-3), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with caplog.at_level(logging.WARNING, logger="floqdyn"):
                traj = evolve(cfg, 5.0, dt=0.05)
        assert len(traj.warnings_issued) == 1
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == \
            [("floqdyn", logging.WARNING, traj.warnings_issued[0])]


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
        eta_oracle = scipy.integrate.trapezoid(pb, ts) / ts[-1]
        traj = evolve(build_three_level("nondriven"), 3000.0)
        eta_impl = efficiency(traj)[0]
        assert eta_impl == pytest.approx(eta_oracle, rel=1e-4)
