"""Acceptance gate: one test per stated criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.

Criteria 2-4 are checked against oracles computed at run time that share no
code with floqdyn for the quantity under test:

* the Floquet spectrum against the one-period monodromy integrated by
  scipy's DOP853 (Grifoni & Hanggi, Phys. Rep. 304, 229 (1998)) and the
  first-order closed form of the Floquet Hamiltonian;
* the Lamb matrices against the jump-table sum with xi from QUADPACK's
  Cauchy-weight quadrature;
* every efficiency against an exact time integral of the same generator:
  Van Loan's block exponential (IEEE TAC 23, 395 (1978)) for the static
  kinds, the period map for Floquet-Lindblad.

The source's tabulated values (``REF_*`` below) are not the Floquet data of
the model the README defines.  Each report line prints them beside the
result, and the ``test_reference_*`` tests assert what is known about them:
the v1 off-diagonal is the first-order term without its resonance
denominator, the v0 gap set follows from the tabulated quasienergies, and the
tabulated Lamb matrices commute with each other but not with the exact
Floquet Hamiltonian.
"""

import re
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from floqdyn.baths import BathSpec, gamma_ohmic
from floqdyn.floquet import (
    benchmark_fidelities,
    drive_hamiltonian,
    floquet_decompose,
    fourier_operator_coefficients,
    jump_operator_table,
)
from floqdyn.generators import floquet_lindblad_generator, lindblad_generator, sop_commutator
from floqdyn.operators import trace_distance
from floqdyn.scenarios import (
    PRESETS,
    TABLE_BATHS,
    ScenarioConfig,
    build_four_level,
    build_generator,
    build_three_level,
    decompose_scenario,
    efficiency,
    evolve,
    trajectory_diagnostics,
)

from conftest import (gibbs_state, jump_entry, propagator_oracle, random_density,
                      table_entries)

# tabulated reference values, basis {|0>, |1>, |b>}
REF_V1_HBAR = np.array([[0.0, 0.0, 0.0],
                           [0.0, 2.9991, 0.0250],
                           [0.0, 0.0250, 2.5009]], dtype=complex)
REF_V0_QUASI = np.array([-0.0472, 2.5472, 3.0])
REF_V0_GAPS = np.array([-3.0472, -2.5943, -0.4528, 0.0, 0.4528, 2.5943, 3.0472])
REF_V0_LAMB_HOT = np.array([[-0.0145, 0, -0.0016 + 0.0018j],
                               [0, 0.0166, 0],
                               [-0.0016 - 0.0018j, 0, -0.0015]])
REF_V0_LAMB_COLD = np.array([[-0.0073, 0, 0.0243 - 0.0277j],
                                [0, 0.2392, 0],
                                [0.0243 + 0.0277j, 0, -0.2088]])
#: half a unit in the last tabulated digit
REF_ROUNDING = 5e-5


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_gains() -> dict:
    """The gains README's "Efficiency gains" bullet quotes, as their percent
    text, by the label in parentheses after each (v0, v1, degenerate,
    nondegenerate); the bullet's channel-convention table is left out."""
    text = README.read_text()
    bullet = text[text.index("- Efficiency gains:"):].split("|", 1)[0]
    return {label: value for value, label in re.findall(r"(\d+\.\d+) %\s+\((\w+)\)", bullet)}


def readme_channel_gains() -> tuple:
    """README's channel-convention table, {(hot, cold): percent text} with each
    bath "per transition" or "collective", and the nondegenerate gain it quotes
    under all four conventions."""
    text = README.read_text()
    rows = re.findall(r"^ *\| (per transition|collective) *\| (per transition|collective) *"
                      r"\| (\d+\.\d+) % *\|$", text, re.M)
    under_all = re.search(r"nondegenerate gain is (\d+\.\d+) % under all four", text)
    return {(hot, cold): gain for hot, cold, gain in rows}, under_all.group(1)


def _commutator_max(a, b) -> float:
    return float(np.max(np.abs(a @ b - b @ a)))


# ---------------------------------------------------------------------------
# Oracles for criteria 2-4


def floquet_oracle(cfg) -> dict:
    """Quasienergies and Floquet Hamiltonian from scipy's log of the monodromy.

    Each eigenvalue of i log(U(tau))/tau is moved by a multiple of Omega onto
    the branch nearest the bare energy of the level its eigenvector overlaps
    most: the gauge floqdyn unfolds to.
    """
    sol, tau = propagator_oracle(cfg)
    d = cfg.dim
    omega = 2.0 * np.pi / tau
    k = 1j * scipy.linalg.logm(sol.y[:, -1].reshape(d, d)) / tau
    energies, vectors = np.linalg.eigh(0.5 * (k + k.conj().T))
    bare = np.asarray(cfg.energies)[np.argmax(np.abs(vectors) ** 2, axis=0)]
    energies = energies + omega * np.round((bare - energies) / omega)
    return {"quasi": np.sort(energies), "omega": omega,
            "hbar": (vectors * energies) @ vectors.conj().T}


def gap_set(energies: np.ndarray) -> np.ndarray:
    return np.sort(np.unique(np.round(energies[:, None] - energies[None, :], 10)))


def exact_eta_static(cfg, sop, t: float) -> float:
    """(1/t) <b| int_0^t e^{L s} ds rho0 |b> from Van Loan's block exponential."""
    n = sop.shape[0]
    aug = np.zeros((n + 1, n + 1), dtype=complex)
    aug[:n, :n] = sop
    aug[:n, n] = cfg.initial_state().ravel()
    integral = scipy.linalg.expm(t * aug)[:n, n].reshape(cfg.dim, cfg.dim)
    b = cfg.target_level
    return float(integral[b, b].real) / t


def exact_eta_floquet_lindblad(cfg, sop_int, t: float) -> float:
    """eta(t) of an interaction-picture Floquet-Lindblad generator, exact in time.

    With U(n tau + s) = U(s) U(tau)^n, the Schrodinger state is
    rho(n tau + s) = Ad U(s) e^{L s} M^n rho0 with the period map
    M = Ad U(tau) e^{L tau}, provided L commutes with Ad U(tau) (asserted).
    The sum of M^n over the whole periods is the corner block of a 2x2
    block-matrix power; the integrals over s use Gauss-Legendre nodes.
    """
    sol, tau = propagator_oracle(cfg)
    d = cfg.dim
    n = d * d

    def ad(u):  # rho -> u rho u^dagger on the row-major vec
        return np.kron(u, u.conj())

    ad_tau = ad(sol.y[:, -1].reshape(d, d))
    assert _commutator_max(ad_tau, sop_int) < 1e-10
    periods = int(t // tau)
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = ad_tau @ scipy.linalg.expm(tau * sop_int)
    block[:n, n:] = np.eye(n)
    block[n:, n:] = np.eye(n)
    power = np.linalg.matrix_power(block, periods)
    rho0 = cfg.initial_state().ravel()
    target = np.zeros(n)
    target[cfg.target_level * (d + 1)] = 1.0
    x, w = np.polynomial.legendre.leggauss(64)  # agrees with 128 nodes to 1e-14

    def row_integral(length):  # int_0^length <b| Ad U(s) e^{L s} (.) |b> ds
        s = 0.5 * length * (x + 1.0)
        us = sol.sol(s).T.reshape(-1, d, d)
        return sum(0.5 * length * wk * (target @ ad(uk) @ scipy.linalg.expm(sk * sop_int))
                   for sk, wk, uk in zip(s, w, us))

    total = (row_integral(tau) @ (power[:n, n:] @ rho0)
             + row_integral(t - periods * tau) @ (power[:n, :n] @ rho0))
    return float(total.real) / t


def exact_eta_floquet_redfield(cfg, gen, t: float, times=None) -> tuple[float, np.ndarray]:
    """eta(t) of a Floquet-Redfield generator and its states at ``times``
    (sorted, in [0, t]; default t alone), from one DOP853 integration.

    U, rho and int rho_bb are integrated jointly in the Schrodinger picture
    at rtol 1e-13: U' = -iH(t)U and rho' = -i[H, rho] + P D(P† rho P) P†,
    where D is the dissipator the generator holds (its superoperator less
    -i[Hbar, .]) and P(t) = U(t) exp(i Hbar t) with Hbar from the DOP853
    monodromy of :func:`floquet_oracle`.  Neither the Magnus engine, the
    sampled P nor the frame in which floqdyn integrates enters.
    """
    d, n = cfg.dim, cfg.dim ** 2
    hbar = floquet_oracle(cfg)["hbar"]
    assert np.max(np.abs(hbar - gen.decomposition.hbar_floquet)) < 1e-10  # same gauge
    diss = gen.superop + 1j * (np.kron(hbar, np.eye(d)) - np.kron(np.eye(d), hbar.T))
    eps, vecs = np.linalg.eigh(hbar)
    h0 = np.diag(np.asarray(cfg.energies, dtype=complex))
    i, j = cfg.drive.pair
    x = np.zeros((d, d))
    x[i, j] = x[j, i] = 1.0
    mu, omega = cfg.drive.mu, cfg.drive.omega
    b = cfg.target_level

    def rhs(s, y):
        u, rho = y[:n].reshape(d, d), y[n:2 * n].reshape(d, d)
        h = h0 + mu * np.cos(omega * s) * x
        p = u @ ((vecs * np.exp(1j * eps * s)) @ vecs.conj().T)
        pd = p.conj().T
        drho = -1j * (h @ rho - rho @ h) + p @ (diss @ (pd @ rho @ p).ravel()).reshape(d, d) @ pd
        return np.concatenate([(-1j * (h @ u)).ravel(), drho.ravel(), [rho[b, b]]])

    y0 = np.concatenate([np.eye(d, dtype=complex).ravel(),
                         cfg.initial_state().ravel().astype(complex), [0.0]])
    times = np.array([t] if times is None else times, dtype=float)
    sol = scipy.integrate.solve_ivp(rhs, (0.0, t), y0, method="DOP853",
                                    rtol=1e-13, atol=1e-13, dense_output=True)
    assert sol.success, sol.message
    states = sol.sol(times)[n:2 * n].T.reshape(-1, d, d)
    return float(sol.y[-1, -1].real) / t, states


def interaction_superop(gen) -> np.ndarray:
    """The micromotion-frame L less its -i[Hbar, .]: the interaction-picture
    generator of U(t) = P(t) exp(-i Hbar t)."""
    return gen.superop - sop_commutator(gen.decomposition.hbar_floquet)


def exact_eta(gen, cfg, t: float) -> float:
    if gen.decomposition is not None:
        return exact_eta_floquet_lindblad(cfg, interaction_superop(gen), t)
    return exact_eta_static(cfg, gen.superop, t)


# ---------------------------------------------------------------------------
# Criterion 1: Floquet benchmark fidelities


def test_criterion_1_floquet_benchmark():
    t0 = time.time()
    cfg = build_three_level("v0")
    dec = decompose_scenario(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = benchmark_fidelities(cfg.drive, cfg.h0, dec)
    elapsed = time.time() - t0
    min_fu = float(rep.fidelity_propagator.min())
    min_fp = float(rep.fidelity_periodicity.min())
    ok = min_fu >= 0.97 and min_fp >= 0.96 and elapsed <= 10.0
    _report("criterion 1 (Floquet benchmark)", ok,
            f"min F[U_app,U_ex]={min_fu:.4f} (>=0.97), "
            f"min F[P(t),P(t+tau)]={min_fp:.6f} (>=0.96), {elapsed:.1f}s (<=10s)")
    assert min_fu >= 0.97
    assert min_fp >= 0.96
    assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# Criterion 2: Floquet spectrum and Lamb matrices


@pytest.fixture(scope="module")
def criterion2_data(cfg_v0, cfg_v1, dec_v0, dec_v1, gen_v0, gen_v1):
    return {
        "hbar_v1": dec_v1.hbar_floquet,
        "quasi_v0": np.sort(dec_v0.quasi.energies),
        "gaps_v0": gap_set(dec_v0.quasi.energies),
        "lamb_v0_hot": gen_v0.h_lamb["hot:(1, 0)"],
        "lamb_v0_cold": gen_v0.h_lamb["cold:(1, 2)"],
    }


@pytest.fixture(scope="module")
def floquet_oracles(cfg_v0, cfg_v1):
    return {"v0": floquet_oracle(cfg_v0), "v1": floquet_oracle(cfg_v1)}


def test_criterion_2_runtime_bound():
    t0 = time.time()
    cfg = build_three_level("v1")
    dec = decompose_scenario(cfg)
    gen = build_generator(cfg, decomposition=dec)
    assert gen.h_lamb
    elapsed = time.time() - t0
    ok = elapsed <= 60.0
    _report("criterion 2 (runtime)", ok, f"decomposition + Lamb build {elapsed:.1f}s (<=60s)")
    assert elapsed <= 60.0


def test_criterion_2_reference_v1_hbar(criterion2_data, floquet_oracles, cfg_v1):
    got = criterion2_data["hbar_v1"]
    diff = float(np.max(np.abs(got - floquet_oracles["v1"]["hbar"])))
    # first order in mu: Hbar_1b = mu w^2 / (w^2 - Omega^2), w the 1-b gap
    mu, omega = cfg_v1.drive.mu, cfg_v1.drive.omega
    w = cfg_v1.energies[1] - cfg_v1.energies[2]
    first_order = mu * w**2 / (w**2 - omega**2)
    off_gap = abs(got[1, 2] - first_order)
    ok = diff <= 1e-8 and off_gap <= 1e-4
    _report("criterion 2 (V1 Hbar)", ok,
            f"max |Hbar - monodromy oracle|={diff:.1e} (<=1e-8); offdiag "
            f"{got[1, 2].real:+.6f} vs first order {first_order:+.6f} (<=1e-4); "
            f"source table {REF_V1_HBAR[1, 2].real:+.4f} "
            f"(test_reference_v1_hbar_drops_resonance_denominator)")
    assert diff <= 1e-8
    assert off_gap <= 1e-4


def test_criterion_2_reference_v0_quasienergies(criterion2_data, floquet_oracles):
    got = criterion2_data["quasi_v0"]
    oracle = floquet_oracles["v0"]
    # quasienergies are defined modulo Omega: compare the sets on the circle
    folded = np.abs((got[:, None] - oracle["quasi"][None, :] + 0.5 * oracle["omega"])
                    % oracle["omega"] - 0.5 * oracle["omega"])
    diff = float(max(folded.min(axis=0).max(), folded.min(axis=1).max()))
    ok = diff <= 1e-8
    _report("criterion 2 (V0 quasienergies)", ok,
            f"computed {np.round(got, 5)}, max |diff| to monodromy oracle mod Omega "
            f"{diff:.1e} (<=1e-8); source table {REF_V0_QUASI} "
            f"(test_reference_v0_gaps_are_differences_of_reference_quasienergies)")
    assert diff <= 1e-8


def test_criterion_2_reference_gap_set(criterion2_data, floquet_oracles):
    got = criterion2_data["gaps_v0"]
    want = gap_set(floquet_oracles["v0"]["quasi"])
    assert got.shape == want.shape
    diff = float(np.max(np.abs(got - want)))
    ok = diff <= 1e-8
    _report("criterion 2 (V0 gap set)", ok,
            f"computed {np.round(got, 4)}, max |diff| to monodromy oracle {diff:.1e} "
            f"(<=1e-8); source table {REF_V0_GAPS} "
            f"(test_reference_v0_gaps_are_differences_of_reference_quasienergies)")
    assert diff <= 1e-8


def test_criterion_2_reference_lamb_matrices(criterion2_data, lamb_oracle, floquet_oracles):
    hbar = floquet_oracles["v0"]["hbar"]
    details, checks = [], []
    for name, ref in (("hot", REF_V0_LAMB_HOT), ("cold", REF_V0_LAMB_COLD)):
        got = criterion2_data[f"lamb_v0_{name}"]
        oracle = lamb_oracle[name]
        diff = float(np.max(np.abs(got - oracle["want"])))
        comm = _commutator_max(got, hbar)
        checks += [diff <= oracle["tol"], comm <= 1e-10]
        details.append(
            f"{name}: max |diff| to QUADPACK-xi sum {diff:.1e} (<={oracle['tol']:.1e}), "
            f"max |[H_lamb, Hbar]| {comm:.1e} (<=1e-10), (1,1) entry "
            f"{got[1, 1].real:+.4f} vs source table {ref[1, 1].real:+.4f}")
    _report("criterion 2 (V0 Lamb matrices)", all(checks),
            "; ".join(details)
            + " (test_reference_lamb_tables_are_not_floquet_lindblad_shifts)")
    assert all(checks)


# ---------------------------------------------------------------------------
# Diagnosis of the source tables


def test_reference_v1_hbar_drops_resonance_denominator(cfg_v1):
    # the tabulated off-diagonal is mu w^2, the first-order term
    # mu w^2 / (w^2 - Omega^2) with its denominator dropped
    mu = cfg_v1.drive.mu
    w = cfg_v1.energies[1] - cfg_v1.energies[2]
    gap = abs(REF_V1_HBAR[1, 2] - mu * w**2)
    _report("diagnosis (V1 Hbar table)", gap <= REF_ROUNDING,
            f"tabulated offdiag {REF_V1_HBAR[1, 2].real:.4f} vs mu w^2 = {mu * w**2:.4f}")
    assert gap <= REF_ROUNDING


def test_reference_v0_gaps_are_differences_of_reference_quasienergies():
    # three tabulated numbers enter each comparison, each rounded
    diff = float(np.max(np.abs(gap_set(REF_V0_QUASI) - REF_V0_GAPS)))
    _report("diagnosis (V0 gap table)", diff <= 3 * REF_ROUNDING,
            f"max |tabulated gap - difference of tabulated quasienergies| = {diff:.1e}")
    assert diff <= 3 * REF_ROUNDING


def test_reference_lamb_tables_are_not_floquet_lindblad_shifts(floquet_oracles, lamb_oracle):
    # secular Floquet-Lindblad Lamb matrices commute with Hbar; the tables
    # commute with each other, so they share some other eigenbasis
    hbar = floquet_oracles["v0"]["hbar"]
    mutual = _commutator_max(REF_V0_LAMB_HOT, REF_V0_LAMB_COLD)
    vs_hbar = {"hot": _commutator_max(REF_V0_LAMB_HOT, hbar),
               "cold": _commutator_max(REF_V0_LAMB_COLD, hbar)}
    # the cold (1,1) entry is a weighted mean of cold xi values
    cold = lamb_oracle["cold"]
    cap = cold["level1_weight"] * cold["xi_max"]
    ok = mutual <= 1e-5 and min(vs_hbar.values()) > 1e-2 and abs(REF_V0_LAMB_COLD[1, 1]) > cap
    _report("diagnosis (V0 Lamb tables)", ok,
            f"max |[hot, cold]| {mutual:.1e} (<=1e-5); max |[table, Hbar]| hot "
            f"{vs_hbar['hot']:.3f}, cold {vs_hbar['cold']:.3f} (>1e-2); cold (1,1) "
            f"{REF_V0_LAMB_COLD[1, 1].real:.4f} vs bound {cap:.4f}")
    assert mutual <= 1e-5
    assert min(vs_hbar.values()) > 1e-2
    assert abs(REF_V0_LAMB_COLD[1, 1]) > cap


# ---------------------------------------------------------------------------
# Criterion 3: 3-level efficiency gains


def test_criterion_3_three_level_gains(long_runs, gen_v0, gen_v1):
    eta = long_runs["eta"]
    gens = {"nondriven": build_generator(long_runs["nondriven"].config),
            "v0": gen_v0, "v1": gen_v1}
    worst = 0.0
    for label, gen in gens.items():
        traj = long_runs[label]
        exact = exact_eta(gen, traj.config, float(traj.times[-1]))
        worst = max(worst, abs(eta[label] - exact))
    gain_v0 = (eta["v0"] - eta["nondriven"]) / eta["nondriven"]
    gain_v1 = (eta["v1"] - eta["nondriven"]) / eta["nondriven"]
    elapsed = long_runs["elapsed"]
    ok = worst <= 1e-8 and gain_v0 > 0 and gain_v1 > 0 and elapsed <= 300
    _report("criterion 3 (3-level efficiency gains)", ok,
            f"max |eta - exact eta| {worst:.1e} (<=1e-8); v0 gain {100 * gain_v0:.2f}%, "
            f"v1 gain {100 * gain_v1:.2f}% (>0; source figures 7% and 8%), "
            f"runtime {elapsed:.0f}s (<=300s)")
    assert elapsed <= 300.0
    assert worst <= 1e-8
    assert gain_v0 > 0 and gain_v1 > 0
    quoted = readme_gains()
    assert (quoted["v0"], quoted["v1"]) == (f"{100 * gain_v0:.2f}", f"{100 * gain_v1:.2f}")


# ---------------------------------------------------------------------------
# Criterion 4: 4-level efficiency gains


@pytest.fixture(scope="module")
def four_level_etas():
    """Per preset and kind: (pipeline eta, generator, config, time of eta)."""
    t0 = time.time()
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for gap, label in ((0.0, "degenerate"), (0.05, "nondegenerate")):
            for kind, dt in (("redfield", 0.01), ("lindblad", None)):
                cfg = build_four_level(gap, kind=kind)
                gen = build_generator(cfg)
                traj = evolve(cfg, 2800.0, dt=dt, generator=gen)
                out[label, kind] = (efficiency(traj)[0], gen, cfg, float(traj.times[-1]))
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_4_four_level_gains(four_level_etas):
    gains, worst = {}, 0.0
    for label in ("degenerate", "nondegenerate"):
        eta = {}
        for kind in ("redfield", "lindblad"):
            eta[kind], gen, cfg, t = four_level_etas[label, kind]
            worst = max(worst, abs(eta[kind] - exact_eta(gen, cfg, t)))
        gains[label] = (eta["redfield"] - eta["lindblad"]) / eta["lindblad"]
    elapsed = four_level_etas["elapsed"]
    ok = worst <= 1e-8 and min(gains.values()) > 0 and elapsed <= 600
    _report("criterion 4 (4-level efficiency gains)", ok,
            f"max |eta - exact eta| {worst:.1e} (<=1e-8); Redfield over Lindblad: "
            f"degenerate {100 * gains['degenerate']:.2f}%, "
            f"nondegenerate {100 * gains['nondegenerate']:.2f}% "
            f"(>0; source figures 8% and 24%), runtime {elapsed:.0f}s (<=600s)")
    assert elapsed <= 600.0
    assert worst <= 1e-8
    assert min(gains.values()) > 0
    quoted = readme_gains()
    assert {label: quoted[label] for label in gains} == \
        {label: f"{100 * gain:.2f}" for label, gain in gains.items()}


def _channels(bath, convention: str) -> tuple:
    """``bath`` under ``collective=True`` as its "collective" channel, or split into
    one bath per transition: its "per transition" channels."""
    if convention == "collective":
        return (bath,)
    return tuple(replace(bath, name=f"{bath.name}{t}", transitions=(t,))
                 for t in bath.transitions)


def test_readme_channel_convention_table(four_level_etas):
    # each Lindblad convention against the Redfield eta of criterion 4
    table, under_all = readme_channel_gains()
    assert len(table) == 4
    for label in ("degenerate", "nondegenerate"):
        eta_redfield, _, cfg, t = four_level_etas[label, "redfield"]
        hot_bath, cold_bath = cfg.baths
        for hot, cold in table:
            run = replace(cfg, kind="lindblad",
                          baths=_channels(hot_bath, hot) + _channels(cold_bath, cold))
            eta = efficiency(evolve(run, t, generator=build_generator(run, collective=True)))[0]
            want = table[hot, cold] if label == "degenerate" else under_all
            assert f"{100 * (eta_redfield - eta) / eta:.2f}" == want, (label, hot, cold)


@pytest.mark.parametrize("preset", ["four_level_degenerate_driven", "three_level_v0"])
def test_floquet_redfield_eta_matches_schrodinger_oracle(preset):
    # about 29 drive periods; t is off the decomposition grid, so the last
    # record is mapped back through P one Magnus step from a grid node
    cfg = replace(PRESETS[preset](), kind="floquet_redfield")
    gen = build_generator(cfg)
    t = 80.0
    gap = abs(efficiency(evolve(cfg, t, generator=gen))[0]
              - exact_eta_floquet_redfield(cfg, gen, t)[0])
    ok = gap <= 1e-8
    _report(f"Floquet-Redfield exact eta ({preset})", ok,
            f"|eta - exact eta| at t={t:g}: {gap:.1e} (<=1e-8)")
    assert gap <= 1e-8


@pytest.mark.parametrize("preset", ["four_level_degenerate_driven", "three_level_v0"])
def test_floquet_redfield_records_off_the_p_grid_match_schrodinger_oracle(preset):
    # dt = 0.05 is no multiple of tau/grid_m and t_final is off both grids,
    # so every record after the first is mapped back through P between grid
    # nodes; the states are exact, so no trapezoid error enters the gap
    cfg = replace(PRESETS[preset](), kind="floquet_redfield")
    gen = build_generator(cfg)
    traj = evolve(cfg, 80.3, dt=0.05, generator=gen)
    gap = float(np.max(np.abs(traj.states
                              - exact_eta_floquet_redfield(cfg, gen, 80.3, traj.times)[1])))
    ok = gap <= 1e-9
    _report(f"Floquet-Redfield off-grid records ({preset})", ok,
            f"max |rho - exact rho| over {len(traj.times)} records to t=80.3: "
            f"{gap:.1e} (<=1e-9)")
    assert gap <= 1e-9


# ---------------------------------------------------------------------------
# Criterion 5: property suites


def test_criterion_5a_trace_hermiticity_all_kinds(gen_v0):
    rng = np.random.default_rng(2024)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gens = {
            "lindblad": build_generator(build_three_level("nondriven")),
            "floquet_lindblad": gen_v0,
            "redfield": build_generator(build_four_level(0.05)),
            "floquet_redfield": build_generator(
                replace(build_four_level(0.0, driven=True), q_max=8)),
        }
    worst_tr, worst_h = 0.0, 0.0
    for kind, gen in gens.items():
        for _ in range(100):
            rho = random_density(rng, gen.dim)
            drho = (gen.superop @ rho.ravel()).reshape(rho.shape)
            worst_tr = max(worst_tr, abs(np.trace(drho)))
            worst_h = max(worst_h, float(np.max(np.abs(drho - drho.conj().T))))
    ok = worst_tr < 1e-11 and worst_h < 1e-10
    _report("criterion 5a (trace/Hermiticity, 4 kinds x 100 states)", ok,
            f"max |Tr|={worst_tr:.2e} (<1e-11), max herm defect={worst_h:.2e}")
    assert worst_tr < 1e-11 and worst_h < 1e-10


def test_criterion_5b_lindblad_positivity(long_runs):
    worst = min(float(long_runs[k].positivity_log.min())
                for k in ("nondriven", "v0", "v1"))
    ok = worst >= -1e-7
    _report("criterion 5b (Lindblad positivity on preset trajectories)", ok,
            f"min eigenvalue {worst:.2e} (>= -1e-7)")
    assert worst >= -1e-7


def test_criterion_5c_gibbs_stationarity():
    bath = BathSpec("hot", beta=1 / 30, j0=4e-4, omega_cutoff=np.sqrt(2),
                    transitions=((1, 0),))
    cfg = ScenarioConfig(energies=(0.0, 3.0), target_level=1, baths=(bath,), kind="lindblad")
    h0 = cfg.h0
    gen = lindblad_generator(cfg)
    resid = float(np.max(np.abs(gen.superop @ gibbs_state(h0, 1 / 30).ravel())))
    ok = resid < 1e-9
    _report("criterion 5c (Gibbs stationarity)", ok, f"|L(rho_Gibbs)| = {resid:.2e} (<1e-9)")
    assert resid < 1e-9


def test_criterion_5d_kms_ratio():
    spec = BathSpec("cold", **TABLE_BATHS["cold"])
    worst = 0.0
    for beta in (1 / 30, 1 / 4):
        for x in (0.1, 0.5, 1.0, 2.5, 3.0):
            ratio = gamma_ohmic(spec, beta, -x) / gamma_ohmic(spec, beta, x)
            worst = max(worst, abs(ratio / np.exp(beta * x) - 1.0))
    ok = worst < 1e-9
    _report("criterion 5d (KMS detailed balance)", ok,
            f"max |gamma(-x)/gamma(x)/e^(beta x) - 1| = {worst:.2e} (<1e-9)")
    assert worst < 1e-9


def test_criterion_5e_jump_table_identities(dec_v0):
    sx = np.zeros((3, 3), dtype=complex)
    sx[0, 1] = sx[1, 0] = 0.5
    harmonics = fourier_operator_coefficients(dec_v0, sx, q_max=24)
    table = gaps, _, _ = jump_operator_table(harmonics, dec_v0.quasi)
    worst_sum, worst_dag = 0.0, 0.0
    for q in range(-24, 25):
        total = np.zeros((3, 3), dtype=complex)
        for (qq, gi), op in table_entries(table).items():
            if qq == q:
                total += op
        worst_sum = max(worst_sum, float(np.max(np.abs(total - harmonics[24 + q]))))
    for (q, gi), op in table_entries(table).items():
        partner = jump_entry(table, -q, -gaps[gi])
        worst_dag = max(worst_dag, float(np.max(np.abs(op.conj().T - partner))))
    ok = worst_sum < 1e-8 and worst_dag < 1e-8
    _report("criterion 5e (jump-table identities)", ok,
            f"completeness defect {worst_sum:.2e}, dagger defect {worst_dag:.2e} (<1e-8)")
    assert worst_sum < 1e-8 and worst_dag < 1e-8


def test_criterion_5f_mu_to_zero_continuity():
    h0 = np.diag([0.0, 3.0, 2.5]).astype(complex)
    tau = 2 * np.pi / 2.25
    dec = floquet_decompose(lambda t: h0, tau, h0, grid_m=256)
    cfg_l = build_three_level("nondriven", kind="lindblad")
    gen_fl = floquet_lindblad_generator(replace(cfg_l, kind="floquet_lindblad", q_max=2), dec)
    gen_li = build_generator(cfg_l)
    norm_fl = float(np.linalg.norm(gen_fl.superop - gen_li.superop, 2))

    from floqdyn.floquet import DriveSpec

    cfg_fr = replace(build_four_level(0.0, driven=True), q_max=2)
    cfg_fr0 = replace(cfg_fr, drive=DriveSpec(0.0, 2.25, (0, 3)))
    traj_fr = evolve(cfg_fr0, 50.0, dt=0.01)
    traj_r = evolve(build_four_level(0.0, kind="redfield"), 50.0, dt=0.01)
    td = trace_distance(traj_fr.states[-1], traj_r.states[-1])
    ok = norm_fl < 1e-6 and td < 1e-4
    _report("criterion 5f (mu -> 0 continuity)", ok,
            f"FL vs Lindblad generator norm {norm_fl:.2e} (<1e-6), "
            f"FR vs Redfield trajectory distance {td:.2e} (<1e-4)")
    assert norm_fl < 1e-6 and td < 1e-4


def test_criterion_5g_qubit_calibration():
    bath = BathSpec("cold", beta=1 / 4, j0=4e-3, omega_cutoff=np.sqrt(0.2),
                    transitions=((1, 0),))
    common = dict(energies=(0.0, 0.5), target_level=1, baths=(bath,))
    tl = evolve(ScenarioConfig(label="l", kind="lindblad", **common), 500.0, dt=0.02)
    tr = evolve(ScenarioConfig(label="r", kind="redfield", **common), 500.0, dt=0.02)
    worst = max(trace_distance(a, b) for a, b in zip(tl.states, tr.states))
    ok = worst < 1e-4
    _report("criterion 5g (qubit calibration cross-method)", ok,
            f"max trace distance to t=500: {worst:.2e} (<1e-4)")
    assert worst < 1e-4


def test_criterion_5h_branch_gauge_invariance(cfg_v0, dec_v0, gen_v0):
    h = drive_hamiltonian(cfg_v0.h0, cfg_v0.drive)
    dec_folded = floquet_decompose(h, cfg_v0.drive.tau, cfg_v0.h0,
                                   grid_m=1024, unfold=False)
    gen_folded = build_generator(replace(cfg_v0, q_max=26),
                                 decomposition=dec_folded)
    # the two gauges differ in Hbar, so their frames differ; the
    # interaction-picture generators must agree
    diff = float(np.linalg.norm(interaction_superop(gen_v0) - interaction_superop(gen_folded), 2))
    ok = diff < 1e-6
    _report("criterion 5h (branch-gauge invariance)", ok,
            f"folded vs unfolded generator norm difference {diff:.2e} (<1e-6)")
    assert diff < 1e-6


# ---------------------------------------------------------------------------
# Criterion 6: figure-level qualitative claims as threshold tests


def test_criterion_6_monotone_relaxation_no_coherence(long_runs):
    traj = long_runs["nondriven"]
    off = max(float(np.max(np.abs(s - np.diag(np.diag(s))))) for s in traj.states[::500])
    pb = traj.populations[:, 2]
    monotone = bool(np.all(np.diff(pb) > -1e-12))
    ok = off < 1e-10 and monotone
    _report("criterion 6 (nondriven: monotone, coherence-free relaxation)", ok,
            f"max |offdiag|={off:.2e} (<1e-10), target population monotone={monotone}")
    assert ok


def test_criterion_6_late_time_decoherence(long_runs):
    r0b = abs(long_runs["v0"].states[-1][0, 2])
    ok = r0b < 1e-2
    _report("criterion 6 (v0 drive coherence decays by t~6000)", ok,
            f"|rho_0b|(6000) = {r0b:.2e} (<1e-2)")
    assert ok


@pytest.fixture(scope="module")
def fr_driven_runs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = build_four_level(0.0, driven=True)
        dec = decompose_scenario(cfg)
        traj = evolve(cfg, 1000.0, generator=build_generator(cfg, decomposition=dec))
        cfg_nl = replace(cfg, lamb_shift=False)
        traj_nl = evolve(cfg_nl, 1000.0,
                         generator=build_generator(cfg_nl, decomposition=dec))
    return traj, traj_nl


def test_criterion_6_driven_coherence_persistence(fr_driven_runs):
    traj, _ = fr_driven_runs
    r12 = np.abs(traj.states[:, 1, 2])
    r0b = np.abs(traj.states[:, 0, 3])
    ok = r12[-1] > 0.1 and r0b[-1] < 0.1 * r0b.max()
    _report("criterion 6 (Floquet-Redfield: |rho12| persists, |rho0b| suppressed)", ok,
            f"|rho12|(1000)={r12[-1]:.3f} (>0.1), |rho0b|(1000)={r0b[-1]:.2e} "
            f"(<10% of peak {r0b.max():.3f})")
    assert ok


def test_criterion_6_degenerate_lamb_insensitivity(fr_driven_runs):
    traj, traj_nl = fr_driven_runs
    td = trace_distance(traj.states[-1], traj_nl.states[-1])
    ok = td < 1e-2
    _report("criterion 6 (degenerate driven: Lamb terms insignificant)", ok,
            f"trace distance with/without Lamb at t=1000: {td:.2e} (<1e-2)")
    assert ok


def test_criterion_6_degenerate_static_lamb_and_c_insensitivity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t_on = evolve(replace(build_four_level(0.0), lamb_shift=True), 400.0, dt=0.02)
        t_off = evolve(replace(build_four_level(0.0), lamb_shift=False), 400.0, dt=0.02)
    worst = max(trace_distance(a, b) for a, b in zip(t_on.states[::200], t_off.states[::200]))
    ok = worst < 1e-4
    _report("criterion 6 (degenerate static: C-coefficients do not matter)", ok,
            f"max trace distance {worst:.2e} (<1e-4)")
    assert ok


def test_criterion_6_cutoff_keeps_positivity():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = evolve(build_four_level(0.05), 2800.0, dt=0.01)
    diag = trajectory_diagnostics(traj)
    ok = diag["min_eigenvalue"] > -1e-3
    _report("criterion 6 (W = 4e4 keeps Redfield dynamics positive)", ok,
            f"min eigenvalue along nondegenerate Lamb run: {diag['min_eigenvalue']:.2e} (> -1e-3)")
    assert ok


def test_criterion_6_degenerate_redfield_coherence_growth():
    traj = evolve(replace(build_four_level(0.0), lamb_shift=False), 200.0, dt=0.02)
    r12 = np.abs(traj.states[:, 1, 2])
    ok = r12[0] == 0.0 and r12[-1] > 1e-3
    _report("criterion 6 (degenerate Redfield generates rho12 from diagonal start)", ok,
            f"|rho12|: 0 -> {r12[-1]:.4f} (>1e-3)")
    assert ok
