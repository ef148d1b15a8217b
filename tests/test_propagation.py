"""The Magnus sampler against a one-step-at-a-time loop and DOP853, and
``evolve`` against the exact solution.

The Schrodinger references are a Python loop of sixth-order Magnus
steps, one at a time with the Hamiltonian evaluated at absolute times,
and scipy's DOP853 at rtol 1e-13 (:func:`conftest.propagator_oracle`).
The sampler batches the steps and composes them in a different order of
floating-point work, so agreement is demanded to a tolerance.  The master
equation is static in the micromotion frame, so the reference of the frame
states P(t)† rho(t) P(t) is exp(L t) rho(0), one matrix exponential per
record time, not composed record to record.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from floqdyn import scenarios
from floqdyn.errors import ConfigError
from floqdyn.floquet import drive_hamiltonian, floquet_decompose, propagate_schrodinger
from floqdyn.generators import sop_commutator
from floqdyn.operators import unitarity_defect
from floqdyn.propagation import magnus_samples, magnus_steps
from floqdyn.scenarios import (
    PRESETS,
    _phase_count,
    build_generator,
    decompose_scenario,
    evolve,
)

from conftest import mp_min_eigenvalue, propagator_oracle

STATE_TOL = 1e-12
EPS = np.finfo(float).eps
EXACT_REL_TOL = 1e-10
#: DOP853 against the Magnus samples on the 256-point grid
ORACLE_TOL = 1e-11
#: default record steps per record of the short runs
STRIDE = 7
T_SHORT = 3.0

DRIVEN = ("three_level_v0", "three_level_v1", "four_level_degenerate_driven")


def magnus_unitary_samples_loop(h_of_t, t0, n_samples, dt_sample):
    """U(t0 + k*dt_sample, t0) for k = 0..n_samples, one Magnus step at a time.

    Each step is exp(Omega) in the literal form of Blanes, Casas & Ros (BIT 40,
    434 (2000)), with A_k = -i H_k at the Gauss nodes t + (1/2 - sqrt(15)/10) h,
    t + h/2, t + (1/2 + sqrt(15)/10) h:

        a1 = h A2,  a2 = sqrt(15)/3 h (A3 - A1),  a3 = 10/3 h (A3 - 2 A2 + A1),
        C1 = [a1, a2],  C2 = -1/60 [a1, 2 a3 + C1],
        Omega = a1 + a3/12 + 1/240 [-20 a1 - a3 + C1, a2 + C2].
    """
    d = np.shape(h_of_t(np.array([t0])))[-1]

    def at(t):
        return np.asarray(h_of_t(np.array([t])), dtype=complex).reshape(-1, d, d)[-1]

    h = dt_sample
    out = [np.eye(d, dtype=complex)]
    for k in range(n_samples):
        t = t0 + k * h
        r = np.sqrt(15) / 10
        a_1, a_2, a_3 = (-1j * at(t + c * h) for c in (0.5 - r, 0.5, 0.5 + r))
        a1 = h * a_2
        a2 = np.sqrt(15) / 3 * h * (a_3 - a_1)
        a3 = 10 / 3 * h * (a_3 - 2 * a_2 + a_1)
        c1 = a1 @ a2 - a2 @ a1
        x = 2 * a3 + c1
        c2 = -(a1 @ x - x @ a1) / 60
        x, y = -20 * a1 - a3 + c1, a2 + c2
        omega = a1 + a3 / 12 + (x @ y - y @ x) / 240
        out.append(scipy.linalg.expm(omega) @ out[-1])
    return np.array(out)


def oracle_unitaries(config, times):
    """U(t, 0) at ``times`` in [0, tau] from DOP853."""
    sol, _ = propagator_oracle(config)
    return sol.sol(times).T.reshape(-1, config.dim, config.dim)


def record_times(t_final, dt):
    """Record times of ``evolve`` below MAX_RECORDS intervals: k * dt, then t_final."""
    n_steps = int(np.floor(t_final / dt + 1e-9))
    times = [k * dt for k in range(n_steps + 1)]
    if n_steps == 0 or t_final - n_steps * dt > 1e-9 * dt:
        times.append(t_final)
    times[-1] = t_final
    return np.array(times)


def exact_records(config, generator, times):
    """Frame states exp(L t) rho(0), one exponential per record time."""
    d = generator.dim
    v0 = config.initial_state().ravel().astype(complex)
    return np.array([(scipy.linalg.expm(generator.superop * t) @ v0).reshape(d, d)
                     for t in times])


def frame_states(traj, generator):
    """P(t)† rho(t) P(t) of each record; the records themselves for a static kind."""
    if generator.decomposition is None:
        return traj.states
    p = generator.decomposition.p_at(traj.times)
    return p.conj().swapaxes(-1, -2) @ traj.states @ p


@pytest.fixture(scope="module")
def preset_generators():
    return {name: (make(), build_generator(make())) for name, make in PRESETS.items()}


def _max_gap(a, b):
    return float(np.max(np.abs(a - b)))


def _rel_gap(a, b):
    return _max_gap(a, b) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_evolve_matches_step_loop(preset, preset_generators):
    # T_SHORT is not a multiple of dt, so the end record is off the record step
    config, gen = preset_generators[preset]
    dt = STRIDE * config.default_dt()
    traj = evolve(config, T_SHORT, dt=dt, generator=gen)
    times = record_times(T_SHORT, dt)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == T_SHORT
    assert _rel_gap(frame_states(traj, gen), exact_records(config, gen, times)) <= EXACT_REL_TOL


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_picture_transform_matches_per_record_propagator(preset, preset_generators):
    config, gen = preset_generators[preset]
    # each record is P(t) exp(L t) rho(0) P(t)†, with P taken one time at a time
    traj = evolve(config, T_SHORT, dt=STRIDE * config.default_dt(), generator=gen)
    frame = exact_records(config, gen, traj.times)
    if gen.decomposition is not None:
        p = [gen.decomposition.p_at(float(t)) for t in traj.times]
        want = np.array([pk @ s @ pk.conj().T for pk, s in zip(p, frame)])
    else:
        want = frame
    assert _max_gap(traj.states, want) <= STATE_TOL
    # records are coordinates, so their matrices are exactly Hermitian and the scan
    # sees exactly what is recorded
    assert np.array_equal(traj.states, np.conj(traj.states).swapaxes(-1, -2))
    # the scan and LAPACK each within 4 eps ||rho||_2 of a 30-digit oracle
    bound = 4 * EPS * np.max(np.linalg.norm(traj.states, 2, axis=(-2, -1)))
    lapack = np.linalg.eigvalsh(traj.states)[:, 0]
    assert np.max(np.abs(traj.positivity_log - lapack)) <= bound
    oracle = np.array([mp_min_eigenvalue(s) for s in traj.states])
    assert np.max(np.abs(lapack - oracle)) <= bound
    assert np.max(np.abs(traj.positivity_log - oracle)) <= bound


@pytest.mark.parametrize("preset,t_final,dt,n_phase", [
    ("three_level_v0", 6000.0, None, 64),                  # stride 28: 28 grid steps
    ("four_level_degenerate_driven", 1000.0, None, 256),   # stride 5: 5 grid steps
    ("three_level_v0", 60.0, 0.0123, None),                # off the P grid: every record
    ("three_level_v0", 6000.0, 0.3075, None),              # off the grid, 19512 phases
])
def test_map_back_by_phase_matches_per_record_map(preset, t_final, dt, n_phase,
                                                  preset_generators):
    # the records of one drive phase share one superoperator P ⊗ P*; the
    # reference maps the same frame records one by one, P(t) s P(t)†
    config, gen = preset_generators[preset]
    traj = evolve(config, t_final, dt=dt, generator=gen)
    frame = evolve(config, t_final, dt=dt, generator=replace(gen, decomposition=None)).states
    times = traj.times
    step = times[1] - times[0]
    assert times[-1] - times[-2] < step                    # the end record is off the stride
    n_on = len(times) - 1
    assert _phase_count(gen.decomposition, step, n_on) == (n_phase or n_on)
    p = gen.decomposition.p_at(times)
    want = p @ frame @ p.conj().swapaxes(-1, -2)
    want = 0.5 * (want + want.conj().swapaxes(-1, -2))
    assert _max_gap(traj.states, want) <= 1e-13
    # where the reference is zero the records are +0.0, every bit clear
    for got, ref in ((np.real(traj.states), want.real), (np.imag(traj.states), want.imag)):
        assert np.all(got[ref == 0] == 0)
        assert not np.any(np.signbit(got[ref == 0]))


# the record step dt is ``stride`` steps of the default, or of tau/n_per_tau
@pytest.mark.parametrize("preset,n_per_tau,stride,t_final", [
    ("three_level_nondriven", None, 7, T_SHORT),            # dt past the default
    ("four_level_degenerate_driven", None, 300, 10.0),      # dt > tau
    ("four_level_degenerate_driven", 256.5, 3, T_SHORT),    # dt = 3 tau/256.5, off the P grid
    ("four_level_nondegenerate", None, 5, 0.02),            # t_final < dt: no whole dt
])
def test_stride_and_period_edge_cases(preset, n_per_tau, stride, t_final, preset_generators):
    config, gen = preset_generators[preset]
    dt = stride * (config.default_dt() if n_per_tau is None else config.drive.tau / n_per_tau)
    traj = evolve(config, t_final, dt=dt, generator=gen)
    times = record_times(t_final, dt)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == t_final
    assert _rel_gap(frame_states(traj, gen), exact_records(config, gen, times)) <= EXACT_REL_TOL


def test_record_bytes_are_bounded_before_any_work(monkeypatch):
    """11 records of 3x3 states take 11 * 9 * 16 bytes: at that bound evolve
    runs, one byte under it evolve refuses before it builds the generator."""
    config = PRESETS["three_level_nondriven"]()
    monkeypatch.setattr(scenarios, "MAX_RECORD_BYTES", 11 * 9 * 16)
    assert len(evolve(config, 10 * 0.05, dt=0.05).times) == 11

    def no_build(*args, **kwargs):
        raise AssertionError("built a generator for a grid it refuses")

    monkeypatch.setattr(scenarios, "build_generator", no_build)
    monkeypatch.setattr(scenarios, "MAX_RECORD_BYTES", 11 * 9 * 16 - 1)
    with pytest.raises(ConfigError, match="11 records of 3x3 states"):
        evolve(config, 10 * 0.05, dt=0.05)


# with no whole record interval (n_full = 0) the end record is always off the step
@pytest.mark.parametrize("n_full,off_stride", [(n, off) for n in (0, 1, 2, 3, 5, 64, 65)
                                               for off in (False, True) if n or off])
def test_records_by_doubling_match_sequential_products(n_full, off_stride, preset_generators):
    config, gen = preset_generators["four_level_degenerate_driven"]
    dt = 0.75
    t_final = (n_full + 0.4 * off_stride) * dt
    traj = evolve(config, t_final, dt=dt, generator=gen)
    record_map = scipy.linalg.expm(gen.superop * dt)
    states = [config.initial_state().ravel().astype(complex)]
    for _ in range(n_full):
        states.append(record_map @ states[-1])
    times = np.arange(n_full + 1 + off_stride) * dt
    times[-1] = t_final
    if off_stride:
        states.append(scipy.linalg.expm(gen.superop * (t_final - times[-2])) @ states[-1])
    assert np.array_equal(traj.times, times)
    assert _max_gap(frame_states(traj, gen), np.reshape(states, traj.states.shape)) <= STATE_TOL


@pytest.mark.parametrize("kind", ["lindblad", "redfield", "floquet_lindblad",
                                  "floquet_redfield"])
def test_every_kind_ends_on_t_final(kind):
    config = PRESETS["three_level_v1" if kind.startswith("floquet")
                     else "three_level_nondriven"]()
    config = replace(config, kind=kind)
    for t_final in (7.3, 10.0):
        traj = evolve(config, t_final)
        assert traj.times[-1] == t_final
        assert np.all(np.diff(traj.times) > 0)


@pytest.mark.parametrize("preset", DRIVEN)
def test_decomposition_samples_match_step_loop(preset):
    config = PRESETS[preset]()
    decomp = decompose_scenario(config)
    h = drive_hamiltonian(config.h0, config.drive)
    dt = decomp.tau / decomp.grid_m
    assert _max_gap(decomp.u_samples,
                    magnus_unitary_samples_loop(h, 0.0, decomp.grid_m, dt)) <= STATE_TOL
    times = np.arange(decomp.grid_m + 1) * dt
    assert _max_gap(decomp.u_samples, oracle_unitaries(config, times)) <= ORACLE_TOL


def test_propagate_schrodinger_matches_step_loop():
    config = PRESETS["three_level_v0"]()
    h = drive_hamiltonian(config.h0, config.drive)
    u = propagate_schrodinger(h, 0.3, 2.1, steps=500)
    assert _max_gap(u, magnus_unitary_samples_loop(h, 0.3, 500, 1.8 / 500)[-1]) <= STATE_TOL
    u0, u1 = oracle_unitaries(config, np.array([0.3, 2.1]))
    assert _max_gap(u, u1 @ u0.conj().T) <= ORACLE_TOL


def test_decomposition_accepts_constant_hamiltonian():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    decomp = floquet_decompose(lambda t: h0, 2.0, h0, grid_m=64)
    want = magnus_unitary_samples_loop(lambda t: h0, 0.0, 64, 2.0 / 64)
    assert _max_gap(decomp.u_samples, want) <= STATE_TOL


def _random_periodic_hamiltonian():
    """A random 3x3 Hermitian H(t) of period 1.2."""
    rng = np.random.default_rng(3)
    m0, m1, m2 = (0.5 * (a + a.conj().T) for a in
                  rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3)))
    omega = 2.0 * np.pi / 1.2

    def h_of_t(t):
        t = np.asarray(t)[:, None, None]
        return m0 + m1 * np.cos(omega * t) + m2 * np.sin(omega * t)

    return h_of_t


def test_magnus_samples_on_random_periodic_system():
    h_of_t = _random_periodic_hamiltonian()
    # spans shorter and longer than the period 1.2, from t0 = 0.35
    for h, n in ((0.1, 14), (0.3, 9), (0.05, 25), (1.2, 3), (0.07, 1)):
        got = magnus_samples(h_of_t, 0.35, 0.35 + n * h, n)
        assert got.shape == (n + 1, 3, 3)
        assert _max_gap(got, magnus_unitary_samples_loop(h_of_t, 0.35, n, h)) <= STATE_TOL


@pytest.mark.parametrize("n", [1, 2, 3, 5, 128, 129])
def test_magnus_samples_scan_matches_sequential_product(n):
    # the log-depth scan against one product per sample of the same unitary steps
    h_of_t, t0, t1 = _random_periodic_hamiltonian(), 0.35, 1.85
    h = (t1 - t0) / n
    steps = magnus_steps(h_of_t, t0 + np.arange(n) * h, h)
    assert unitarity_defect(steps) <= 1e-14
    want = [np.eye(3)]
    for step in steps:
        want.append(step @ want[-1])
    assert _max_gap(magnus_samples(h_of_t, t0, t1, n), np.array(want)) <= 1e-13


@pytest.mark.parametrize("system", ["three_level_v0", "random_periodic"])
def test_halving_gap_falls_at_sixth_order(system):
    # a step of order p leaves an error ~ h^p at the end, so each doubling of
    # the steps divides the halving gap by ~2^6 = 64 (16 for a fourth-order
    # step); gaps at 1e-11 or below are dominated by rounding
    if system == "random_periodic":
        h_of_t, t0, t1 = _random_periodic_hamiltonian(), 0.35, 1.55
    else:
        config = PRESETS[system]()
        h_of_t, t0, t1 = drive_hamiltonian(config.h0, config.drive), 0.0, config.drive.tau
    ends = [magnus_samples(h_of_t, t0, t1, n)[-1] for n in 2 ** np.arange(2, 11)]
    gaps = np.array([_max_gap(fine, coarse) for coarse, fine in zip(ends, ends[1:])])
    above = (gaps[:-1] > 1e-11) & (gaps[1:] > 1e-11)
    ratios = (gaps[:-1] / gaps[1:])[above]
    assert len(ratios) >= 3
    assert np.all((ratios >= 50) & (ratios <= 80)), ratios


@pytest.mark.parametrize("preset", DRIVEN)
def test_floquet_lindblad_frame_matches_interaction_picture_reference(preset):
    # Floquet-Lindblad was once built as L_int = L + i[Hbar, .] in the
    # interaction picture of U(t) = P(t) exp(-i Hbar t); the frame generator
    # L evolves alike because L_int commutes with ad_Hbar.  T_SHORT is off
    # the record step, so the end record is reached by its own exponential.
    config = replace(PRESETS[preset](), kind="floquet_lindblad")
    gen = build_generator(config)
    decomp = gen.decomposition
    ad_hbar = sop_commutator(decomp.hbar_floquet)
    l_int = gen.superop - ad_hbar
    assert np.linalg.norm(l_int @ ad_hbar - ad_hbar @ l_int, 2) <= 1e-12
    traj = evolve(config, T_SHORT, dt=STRIDE * config.default_dt(), generator=gen)
    v0 = config.initial_state().ravel().astype(complex)
    want = []
    for t in traj.times:
        u = decomp.p_at(t) @ scipy.linalg.expm(-1j * t * decomp.hbar_floquet)
        rho = (scipy.linalg.expm(l_int * t) @ v0).reshape(u.shape)
        want.append(u @ rho @ u.conj().T)
    assert traj.times[-1] == T_SHORT
    assert traj.times[-1] - traj.times[-2] < traj.times[1]  # the end record is off the step
    assert _max_gap(traj.states, np.array(want)) <= 1e-12
