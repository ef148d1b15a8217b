"""The period-map propagation engine against the per-step RK4 loops it replaced.

The loops below are the reference: one RK4 step at a time in Python, the
generator evaluated at absolute times.  The engine changes the order of the
floating-point work (step maps composed before they act on the state), so
agreement is demanded to a tolerance, with identical record times.
"""

import numpy as np
import pytest

from floqdyn.floquet import (
    DriveSpec,
    benchmark_fidelities,
    drive_hamiltonian,
    floquet_decompose,
    propagate_schrodinger,
)
from floqdyn.propagation import propagate
from floqdyn.scenarios import (
    PRESETS,
    build_generator,
    decompose_scenario,
    evolve,
    scenario_with,
    step_grid,
)

pytestmark = [
    pytest.mark.filterwarnings("ignore:dt=.*too coarse:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:BCH truncation strained:RuntimeWarning"),
]

STATE_TOL = 1e-12
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


def _rk4_vector_step(generator, v, t, h):
    l1 = generator.superop_at(t)
    lm = generator.superop_at(t + 0.5 * h)
    l2 = generator.superop_at(t + h)
    k1 = l1 @ v
    k2 = lm @ (v + 0.5 * h * k1)
    k3 = lm @ (v + 0.5 * h * k2)
    k4 = l2 @ (v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_loop(config, generator, t_final, dt, stride):
    """Untransformed states and times of ``evolve``, one RK4 step at a time."""
    dt, _ = step_grid(generator, dt)
    n_steps = int(np.floor(t_final / dt + 1e-9))
    partial = t_final - n_steps * dt
    if partial <= 1e-9 * dt:
        partial = 0.0
    d = generator.dim
    v = config.initial_state().matrix.ravel().astype(complex)
    times, states = [0.0], [v.reshape(d, d)]
    for step in range(n_steps):
        v = _rk4_vector_step(generator, v, step * dt, dt)
        if (step + 1) % stride == 0:
            times.append((step + 1) * dt)
            states.append(v.reshape(d, d))
    if partial > 0:
        v = _rk4_vector_step(generator, v, n_steps * dt, partial)
    if partial > 0 or n_steps % stride:
        times.append(t_final)
        states.append(v.reshape(d, d))
    times[-1] = t_final
    return np.array(times), np.array(states)


@pytest.fixture(scope="module")
def preset_generators():
    return {name: (make(), build_generator(make())) for name, make in PRESETS.items()}


def _max_gap(a, b):
    return float(np.max(np.abs(a - b)))


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_evolve_matches_step_loop(preset, preset_generators):
    config, gen = preset_generators[preset]
    dt = config.default_dt()
    traj = evolve(config, T_SHORT, dt=dt, stride=STRIDE, generator=gen, transform=False)
    times, states = evolve_loop(config, gen, T_SHORT, dt, STRIDE)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == T_SHORT
    assert _max_gap(traj.states, states) <= STATE_TOL


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
    ("three_level_nondriven", None, 7, T_SHORT),            # static: N = 1 < stride
    ("four_level_degenerate_driven", None, 300, 10.0),      # N = 256 < stride
    ("four_level_degenerate_driven", 256.5, 3, T_SHORT),    # dt = tau/256.5 -> tau/257
])
def test_stride_and_period_edge_cases(preset, n_per_tau, stride, t_final, preset_generators):
    config, gen = preset_generators[preset]
    dt = config.default_dt() if n_per_tau is None else gen.tau / n_per_tau
    step, n_phase = step_grid(gen, dt)
    assert stride > n_phase or n_per_tau is not None
    traj = evolve(config, t_final, dt=dt, stride=stride, generator=gen, transform=False)
    times, states = evolve_loop(config, gen, t_final, dt, stride)
    if not gen.is_static:
        assert step == gen.tau / n_phase
        assert n_phase >= gen.tau / dt * (1 - 1e-9)
    assert np.array_equal(traj.times, times)
    assert traj.times[-1] == t_final
    assert _max_gap(traj.states, states) <= STATE_TOL


def test_periodic_step_is_tau_over_n(preset_generators):
    _, gen = preset_generators["four_level_degenerate_driven"]
    assert step_grid(gen, gen.tau / 256) == (gen.tau / 256, 256)
    assert step_grid(gen, gen.tau / 256.5) == (gen.tau / 257, 257)
    # within the 1e-9 relative slack a dt just below tau/256 keeps N = 256
    assert step_grid(gen, gen.tau / 256 * (1 - 1e-12))[1] == 256


def test_stability_guard_keeps_one_phase_for_static_generator(preset_generators):
    _, gen = preset_generators["four_level_degenerate"]
    with pytest.warns(RuntimeWarning, match="too coarse"):
        dt, n_phase = step_grid(gen, 0.05)
    assert n_phase == 1 and dt < 0.05


def test_stability_guard_uses_largest_norm_over_phases():
    from floqdyn.generators import Generator

    tau = 1.0
    base = -np.eye(4, dtype=complex)
    samples = np.array([base * (1.0 + 19.0 * np.sin(np.pi * k / 8) ** 2) for k in range(9)])
    gen = Generator(kind="floquet_redfield", picture="schrodinger", dim=2,
                    superop_samples=samples, tau=tau)
    # the t = 0 norm (1) allows dt = tau/8; the largest norm (20) does not
    with pytest.warns(RuntimeWarning, match="too coarse"):
        dt, n_phase = step_grid(gen, tau / 8)
    assert (dt, n_phase) == (tau / 16, 16)


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


def test_propagate_tail_and_partial_step_on_random_periodic_system():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(6, 3, 3)) * 0.3

    def a_of_t(t):
        return mats[np.floor(np.asarray(t) * 6 / 1.2 + 1e-9).astype(int) % 6]

    h = 1.2 / 6
    for stride, n_steps, partial in ((4, 23, 0.05), (9, 9, 0.0), (12, 5, 0.1), (1, 6, 0.0)):
        got = propagate(a_of_t, np.eye(3), h, 6, stride, n_steps, partial)
        x = np.eye(3)
        want = [x]
        for step in range(n_steps):
            x = _rk4_matrix_step(a_of_t, x, step * h, h)
            if (step + 1) % stride == 0:
                want.append(x)
        if partial:
            x = _rk4_matrix_step(a_of_t, x, n_steps * h, partial)
        if partial or n_steps % stride:
            want.append(x)
        assert got.shape == (len(want), 3, 3)
        assert _max_gap(got, np.array(want)) <= STATE_TOL


def _rk4_matrix_step(a_of_t, x, t, h):
    a1, am, a2 = (a_of_t(np.array([s]))[0] for s in (t, t + 0.5 * h, t + h))
    k1 = a1 @ x
    k2 = am @ (x + 0.5 * h * k1)
    k3 = am @ (x + 0.5 * h * k2)
    k4 = a2 @ (x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
