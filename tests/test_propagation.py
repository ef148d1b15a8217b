"""The RK4 sampler against the per-step loops it replaced, and ``evolve``
against the exact solution.

The Schrodinger loops below are the reference: one RK4 step at a time in
Python, the Hamiltonian evaluated at absolute times.  The sampler changes
the order of the floating-point work (step maps composed before they act
on the state), so agreement is demanded to a tolerance.  The master
equation is static in its picture, so its reference is exp(L t) rho(0),
one matrix exponential per record time, not composed record to record.
"""

import numpy as np
import pytest
import scipy.linalg

from floqdyn.floquet import (
    DriveSpec,
    benchmark_fidelities,
    drive_hamiltonian,
    floquet_decompose,
    propagate_schrodinger,
)
from floqdyn.propagation import rk4_samples
from floqdyn.scenarios import (
    PRESETS,
    build_generator,
    decompose_scenario,
    evolve,
    scenario_with,
)

pytestmark = pytest.mark.filterwarnings("ignore:BCH truncation strained:RuntimeWarning")

STATE_TOL = 1e-12
EXACT_REL_TOL = 1e-10
UNITARY_TOL = 1e-11
STRIDE = 7
T_SHORT = 3.0

DRIVEN = ("three_level_v0", "three_level_v1", "four_level_degenerate_driven")


def rk4_unitary_samples_loop(h_of_t, t0, n_samples, dt_sample, substeps):
    """RK4-integrate dU/dt = -i H(t) U, returning U at n_samples+1 sample times."""
    d = np.asarray(h_of_t(t0)).shape[0]
    out = np.empty((n_samples + 1, d, d), dtype=complex)
    u = np.eye(d, dtype=complex)
    out[0] = u
    h = dt_sample / substeps
    step = 0
    for k in range(n_samples):
        for _ in range(substeps):
            t = t0 + step * h
            k1 = -1j * (h_of_t(t) @ u)
            hm = -1j * h_of_t(t + 0.5 * h)
            k2 = hm @ (u + 0.5 * h * k1)
            k3 = hm @ (u + 0.5 * h * k2)
            k4 = -1j * (h_of_t(t + h) @ (u + h * k3))
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            step += 1
        out[k + 1] = u
    return out


def record_times(t_final, dt, stride):
    """Record times of ``evolve``: every ``stride``-th multiple of dt, then t_final."""
    n_steps = int(np.floor(t_final / dt + 1e-9))
    times = [0.0] + [(step + 1) * dt for step in range(n_steps) if (step + 1) % stride == 0]
    if n_steps == 0 or t_final - n_steps * dt > 1e-9 * dt or n_steps % stride:
        times.append(t_final)
    times[-1] = t_final
    return np.array(times)


def exact_records(config, generator, times):
    """Untransformed states exp(L t) rho(0), one exponential per record time."""
    d = generator.dim
    v0 = config.initial_state().matrix.ravel().astype(complex)
    return np.array([(scipy.linalg.expm(generator.superop * t) @ v0).reshape(d, d)
                     for t in times])


@pytest.fixture(scope="module")
def preset_generators():
    return {name: (make(), build_generator(make())) for name, make in PRESETS.items()}


def _max_gap(a, b):
    return float(np.max(np.abs(a - b)))


def _rel_gap(a, b):
    return _max_gap(a, b) / float(np.max(np.abs(b)))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_evolve_matches_step_loop(preset, preset_generators):
    # T_SHORT / dt is not a multiple of STRIDE, so the end record is off stride
    config, gen = preset_generators[preset]
    dt = config.default_dt()
    traj = evolve(config, T_SHORT, dt=dt, stride=STRIDE, generator=gen, transform=False)
    times = record_times(T_SHORT, dt, STRIDE)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == T_SHORT
    assert _rel_gap(traj.states, exact_records(config, gen, times)) <= EXACT_REL_TOL


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_picture_transform_matches_per_record_propagator(preset, preset_generators):
    config, gen = preset_generators[preset]
    traj = evolve(config, T_SHORT, stride=STRIDE, generator=gen)
    raw = evolve(config, T_SHORT, stride=STRIDE, generator=gen, transform=False)
    if gen.picture == "interaction":
        u = [gen.propagator(float(t)) for t in raw.times]
        want = np.array([uk @ s @ uk.conj().T for uk, s in zip(u, raw.states)])
    else:
        want = raw.states
    assert _max_gap(traj.states, want) <= STATE_TOL
    min_eigs = [np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0] for s in traj.states]
    assert np.array_equal(traj.positivity_log, min_eigs)


@pytest.mark.parametrize("preset,n_per_tau,stride,t_final", [
    ("three_level_nondriven", None, 7, T_SHORT),            # stride > 1 record map
    ("four_level_degenerate_driven", None, 300, 10.0),      # stride > steps per period
    ("four_level_degenerate_driven", 256.5, 3, T_SHORT),    # dt = tau/256.5, off the P grid
    ("four_level_nondegenerate", None, 5, 0.02),            # t_final < dt: no whole dt
])
def test_stride_and_period_edge_cases(preset, n_per_tau, stride, t_final, preset_generators):
    config, gen = preset_generators[preset]
    dt = config.default_dt() if n_per_tau is None else config.drive.tau / n_per_tau
    traj = evolve(config, t_final, dt=dt, stride=stride, generator=gen, transform=False)
    times = record_times(t_final, dt, stride)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == t_final
    assert _rel_gap(traj.states, exact_records(config, gen, times)) <= EXACT_REL_TOL


@pytest.mark.parametrize("kind", ["lindblad", "redfield", "floquet_lindblad",
                                  "floquet_redfield"])
def test_every_kind_ends_on_t_final(kind):
    config = PRESETS["three_level_v1" if kind.startswith("floquet")
                     else "three_level_nondriven"]()
    config = scenario_with(config, kind=kind)
    for t_final in (7.3, 10.0):
        traj = evolve(config, t_final)
        assert traj.times[-1] == t_final
        assert np.all(np.diff(traj.times) > 0)


@pytest.mark.parametrize("preset", DRIVEN)
def test_decomposition_samples_match_step_loop(preset):
    config = PRESETS[preset]()
    decomp = decompose_scenario(config)
    h = drive_hamiltonian(config.h0, config.drive)
    want = rk4_unitary_samples_loop(h, 0.0, config.grid_m, decomp.tau / config.grid_m,
                                    config.substeps)
    assert _max_gap(decomp.u_samples, want) <= UNITARY_TOL


def test_two_period_reference_matches_step_loop(dec_v0, cfg_v0):
    n = 16
    h = drive_hamiltonian(cfg_v0.h0, cfg_v0.drive)
    u_two = rk4_unitary_samples_loop(h, 0.0, 2 * n, dec_v0.tau / n, 64)
    tau = dec_v0.tau
    rep = benchmark_fidelities(cfg_v0.drive, cfg_v0.h0, dec_v0, grid_points=n + 1)
    ref = benchmark_fidelities(cfg_v0.drive, cfg_v0.h0, dec_v0, grid_points=n + 1,
                               exact=lambda t: u_two[int(round(t / (tau / n)))])
    assert _max_gap(rep.fidelity_propagator, ref.fidelity_propagator) <= UNITARY_TOL
    assert _max_gap(rep.fidelity_periodicity, ref.fidelity_periodicity) <= UNITARY_TOL


def test_propagate_schrodinger_matches_step_loop():
    h0 = np.diag([0.0, 3.0, 2.5]).astype(complex)
    h = drive_hamiltonian(h0, DriveSpec(0.1, 2.25, (0, 2)))
    u = propagate_schrodinger(h, 0.3, 2.1, steps=500)
    want = rk4_unitary_samples_loop(h, 0.3, 1, 1.8, 500)[1]
    assert _max_gap(u, want) <= UNITARY_TOL


def test_decomposition_accepts_constant_hamiltonian():
    h0 = np.diag([0.0, 1.0]).astype(complex)
    decomp = floquet_decompose(lambda t: h0, 2.0, h0, grid_m=64, substeps=4)
    want = rk4_unitary_samples_loop(lambda t: h0, 0.0, 64, 2.0 / 64, 4)
    assert _max_gap(decomp.u_samples, want) <= UNITARY_TOL


def test_rk4_samples_on_random_periodic_system():
    rng = np.random.default_rng(3)
    m0, m1, m2 = rng.normal(size=(3, 3, 3)) * 0.3
    omega = 2.0 * np.pi / 1.2

    def a_of_t(t):
        t = np.asarray(t)[:, None, None]
        return m0 + m1 * np.cos(omega * t) + m2 * np.sin(omega * t)

    # A repeats every 1.2 = period_samples * substeps * h; each run but the
    # last spans more than one period
    h, t0 = 1.2 / 12, 0.35
    for substeps, period_samples, n_samples in ((2, 6, 14), (3, 4, 9), (1, 12, 25),
                                                (12, 1, 3), (4, 3, 0)):
        got = rk4_samples(a_of_t, np.eye(3), h, substeps, n_samples, period_samples, t0=t0)
        x = np.eye(3)
        want = [x]
        for k in range(n_samples):
            for i in range(substeps):
                x = _rk4_matrix_step(a_of_t, x, t0 + (k * substeps + i) * h, h)
            want.append(x)
        assert got.shape == (n_samples + 1, 3, 3)
        assert _max_gap(got, np.array(want)) <= STATE_TOL


def _rk4_matrix_step(a_of_t, x, t, h):
    a1, am, a2 = (a_of_t(np.array([s]))[0] for s in (t, t + 0.5 * h, t + h))
    k1 = a1 @ x
    k2 = am @ (x + 0.5 * h * k1)
    k3 = am @ (x + 0.5 * h * k2)
    k4 = a2 @ (x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
