"""Scenario presets, trajectory integration, and the energy-transfer metric.

The model family: a few-level system with a target level |b>, a hot bath
pumping the highest level(s) from the ground state, a cold bath connecting
them to |b>, and optionally a monochromatic drive coupling one level pair.

Basis ordering convention: 3-level scenarios use
{|0>, |1>, |b>} (energies 0, 3, 2.5; target index 2); 4-level scenarios use
{|0>, |1>, |2>, |b>} (energies 0, 3, 3+gap, 2.5; target index 3).

Trajectories solve d(rho~)/dt = L[rho~] exactly for the frame state
rho~ = P† rho P.  Every generator is time independent in that frame, so
the frame state at t is exp(L t) rho(0): one matrix exponential S of L
over the record interval serves the whole run.  The records are filled by
doubling: the first m records times the transposed power S^m give the
next m, so n records take about log2(n) block products and as many
squarings.  The Floquet kinds have their recorded states mapped back by
the micromotion P(t) of their decomposition.  P is tau-periodic, so on a
record step of whole P-grid steps the records fall on a few drive phases,
and one superoperator P ⊗ P* per phase maps all records of that phase in
one product; the static kinds (P = I) record directly.
Each record is stored as its Hermitian part, so its diagonal is exactly
real, and every record's minimum eigenvalue is scanned in closed form per
block of coupled levels (``operators.min_eigenvalues``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .baths import BathSpec, LambIntegralParams, OhmicSpec, spectral_density
from .errors import ConfigError, NumericalError, ValidationError, warn
from .floquet import DriveSpec, FloquetDecomposition, drive_hamiltonian, floquet_decompose
from .generators import (
    CouplingChannel,
    Generator,
    GeneratorSpec,
    floquet_lindblad_generator,
    floquet_redfield_generator,
    lindblad_generator,
    redfield_generator,
)
from .operators import expm, min_eigenvalues
from .tolerances import TOLERANCES

#: Bath temperatures and Ohmic constants of the reference model (natural units).
TABLE_BATHS = {
    "hot": {"beta": 1.0 / 30.0, "j0": 4.0e-4, "omega_cutoff": np.sqrt(2.0)},
    "cold": {"beta": 1.0 / 4.0, "j0": 4.0e-3, "omega_cutoff": np.sqrt(0.2)},
}

REFERENCE_DRIVE = {"mu": 0.1, "omega": 2.25}


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully specified simulation scenario."""

    energies: tuple[float, ...]
    target_level: int
    baths: tuple[BathSpec, ...]
    kind: str
    label: str = "custom"
    drive: DriveSpec | None = None
    lamb_shift: bool = True
    q_max: int = 0
    lamb_params: LambIntegralParams = LambIntegralParams()
    initial_level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "baths", tuple(self.baths))
        if not all(math.isfinite(e) for e in self.energies):
            raise ValidationError(f"energies must be finite, got {list(self.energies)}")
        if not (0 <= self.target_level < self.dim):
            raise ValidationError("target_level out of range")
        if not (0 <= self.initial_level < self.dim):
            raise ValidationError("initial_level out of range")
        if self.drive is not None and not all(0 <= i < self.dim for i in self.drive.pair):
            raise ValidationError(f"drive pair {self.drive.pair} out of range")
        if self.q_max < 0:
            raise ValidationError("q_max must be >= 0")
        for bath in self.baths:
            for up, lo in bath.transitions:
                if not (0 <= up < self.dim and 0 <= lo < self.dim):
                    raise ValidationError(f"bath {bath.name} transition ({up},{lo}) out of range")

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def h0(self) -> np.ndarray:
        return np.diag(np.asarray(self.energies, dtype=complex))

    def initial_state(self) -> np.ndarray:
        """The pure state |initial_level><initial_level|."""
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self.initial_level, self.initial_level] = 1.0
        return rho

    def channels(self) -> tuple[CouplingChannel, ...]:
        out = []
        for bath in self.baths:
            for up, lo in bath.transitions:
                gap = abs(self.energies[up] - self.energies[lo])
                out.append(CouplingChannel(
                    bath, (up, lo), self.dim,
                    # a zero gap has no dipole; only the Redfield kinds need one
                    dipole=qubit_dipole_calibration(bath.spectral, gap) if gap else None,
                ))
        return tuple(out)

    def default_dt(self) -> float:
        if self.drive is not None and self.kind.startswith("floquet"):
            # whole steps of every P(t) grid of decompose_scenario: records hit samples
            return self.drive.tau / 256
        return 0.05


def qubit_dipole_calibration(spec: OhmicSpec, omega10: float) -> float:
    """Dipole magnitude making the Redfield qubit decay match the Lindblad one.

    Equating the two emission rates at the transition gap gives
    mu^2 = 6*pi^2*J(omega10)/omega10^3 in natural units.
    """
    if omega10 <= 0:
        raise ValidationError("omega10 must be positive")
    j = spectral_density(spec, omega10)
    if j < 0:
        raise ValidationError(f"spectral density negative at {omega10}")
    return float(np.sqrt(6.0 * np.pi**2 * j / omega10**3))


def _bath(name: str, transitions) -> BathSpec:
    params = TABLE_BATHS[name]
    return BathSpec(
        name=name,
        beta=params["beta"],
        spectral=OhmicSpec(params["j0"], params["omega_cutoff"]),
        transitions=tuple(transitions),
    )


def build_three_level(variant: str, kind: str | None = None) -> ScenarioConfig:
    """3-level presets: hot bath on 0<->1, cold on b<->1, optional drive.

    variant 'v0' drives the (0, b) pair near resonance; 'v1' drives (1, b)
    off resonance; 'nondriven' has no field.  Basis order {|0>, |1>, |b>}.
    """
    hot = _bath("hot", [(1, 0)])
    cold = _bath("cold", [(1, 2)])
    drive = None
    q_max = 0
    if variant == "v0":
        drive = DriveSpec(REFERENCE_DRIVE["mu"], REFERENCE_DRIVE["omega"], (0, 2))
        q_max = 24
    elif variant == "v1":
        drive = DriveSpec(REFERENCE_DRIVE["mu"], REFERENCE_DRIVE["omega"], (1, 2))
        q_max = 3
    elif variant != "nondriven":
        raise ConfigError(f"unknown 3-level variant {variant!r}")
    if kind is None:
        kind = "floquet_lindblad" if drive is not None else "lindblad"
    return ScenarioConfig(
        label=f"three_level_{variant}",
        energies=(0.0, 3.0, 2.5),
        target_level=2,
        baths=(hot, cold),
        kind=kind,
        drive=drive,
        q_max=q_max,
    )


def build_four_level(gap12: float, driven: bool = False,
                     kind: str | None = None) -> ScenarioConfig:
    """4-level presets: hot bath on 0<->1 and 0<->2, cold on b<->1 and b<->2.

    gap12 is the |1>-|2> splitting (0 for the degenerate preset, 0.05 for
    the nondegenerate one); ``driven`` adds the (0, b) drive.  Basis order
    {|0>, |1>, |2>, |b>}.
    """
    if gap12 < 0:
        raise ConfigError("gap12 must be >= 0")
    hot = _bath("hot", [(1, 0), (2, 0)])
    cold = _bath("cold", [(1, 3), (2, 3)])
    drive = DriveSpec(REFERENCE_DRIVE["mu"], REFERENCE_DRIVE["omega"], (0, 3)) if driven else None
    if kind is None:
        kind = "floquet_redfield" if driven else "redfield"
    tag = "degenerate" if gap12 == 0 else "nondegenerate"
    return ScenarioConfig(
        label=f"four_level_{tag}" + ("_driven" if driven else ""),
        energies=(0.0, 3.0, 3.0 + gap12, 2.5),
        target_level=3,
        baths=(hot, cold),
        kind=kind,
        drive=drive,
        q_max=24 if driven else 0,
    )


PRESETS = {
    "three_level_nondriven": lambda: build_three_level("nondriven"),
    "three_level_v0": lambda: build_three_level("v0"),
    "three_level_v1": lambda: build_three_level("v1"),
    "four_level_degenerate": lambda: build_four_level(0.0),
    "four_level_nondegenerate": lambda: build_four_level(0.05),
    "four_level_degenerate_driven": lambda: build_four_level(0.0, driven=True),
}


def decompose_scenario(config: ScenarioConfig) -> FloquetDecomposition:
    """Floquet decomposition at the scenario's drive period, its P grid from
    1024 samples, or the power of two >= 8*q_max if larger.  A zero-amplitude
    drive is allowed (Hbar = H0, P = 1); a scenario with no drive has no period.
    """
    if config.drive is None:
        raise ConfigError(f"scenario {config.label!r} has no drive to decompose")
    h = drive_hamiltonian(config.h0, config.drive)
    grid_m = max(1024, 1 << (8 * config.q_max - 1).bit_length())
    return floquet_decompose(h, config.drive.tau, config.h0, grid_m=grid_m)


def build_generator(config: ScenarioConfig,
                    decomposition: FloquetDecomposition | None = None,
                    full_secular: bool = False,
                    collective: bool = False) -> Generator:
    """Assemble the generator selected by ``config.kind``; a static kind takes no drive."""
    is_floquet = config.kind.startswith("floquet")
    if not is_floquet and config.drive is not None:
        raise ConfigError(f'static kind {config.kind!r} would drop the drive of scenario '
                          f'{config.label!r}; set "drive": null to run it undriven')
    if is_floquet and decomposition is None:
        decomposition = decompose_scenario(config)
    spec = GeneratorSpec(
        kind=config.kind,
        channels=config.channels(),
        lamb_shift=config.lamb_shift,
        floquet=decomposition if is_floquet else None,
        lamb_params=config.lamb_params,
        q_max=config.q_max,
    )
    h0 = config.h0
    if config.kind == "lindblad":
        return lindblad_generator(h0, spec, collective=collective)
    if config.kind == "floquet_lindblad":
        return floquet_lindblad_generator(h0, spec)
    if config.kind == "redfield":
        return redfield_generator(h0, spec)
    return floquet_redfield_generator(h0, spec, full_secular=full_secular)


# ---------------------------------------------------------------------------
# trajectory integration


@dataclass(frozen=True)
class Trajectory:
    """Recorded Schrodinger-picture states on a uniform coarse grid.

    The last record is at exactly the requested end time, so the last
    interval may be shorter than the others.
    """

    times: np.ndarray
    states: np.ndarray                 # (n, d, d)
    populations: np.ndarray            # (n, d), real
    positivity_log: np.ndarray         # min eigenvalue of every recorded state, none skipped
    trace_errors: np.ndarray
    config: ScenarioConfig | None = None
    warnings_issued: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return self.states.shape[1]


#: Records per array call of the micromotion map and the Hermitian part in
#: ``evolve``; the positivity scan takes the whole record stack at once.
RECORD_CHUNK = 2048

#: Most record intervals ``evolve`` takes when no stride is given.
MAX_RECORDS = 20000
#: Most bytes of recorded states per ``evolve`` call (only a given stride asks more).
MAX_RECORD_BYTES = 2**30


def evolve(config: ScenarioConfig, t_final: float, dt: float | None = None,
           stride: int | None = None, generator: Generator | None = None) -> Trajectory:
    """Solve the scenario's master equation exactly on a record grid.

    ``dt`` (default ``config.default_dt()``) sets only the record grid:
    states are recorded at k * stride * dt, every ``stride`` multiples of
    ``dt`` (by default the smallest stride giving at most ``MAX_RECORDS``
    intervals), and the end state at exactly ``t_final``.  With
    S = exp(L * stride * dt), record k is S^k rho(0): records m..2m-1 are
    records 0..m-1 advanced by S^m, one matrix product per doubling, with
    S^m formed by repeated squaring.  The end record is the last one on
    the stride advanced by exp(L * (t_final - last record)).

    Recorded states are Schrodinger picture: a generator with a
    decomposition has its frame states mapped back by P(t) at the record
    times (the sample on the decomposition grid, which the default Floquet
    dt divides; one Magnus step from the node below between grid nodes).
    P is tau-periodic, so on a step of g whole grid steps the on-stride
    records take only grid_m / gcd(g, grid_m) phases, and all records of a
    phase map by one superoperator (``_map_back_by_phase``); off the grid
    every record is its own phase.  The off-stride end record is mapped by
    P(t_final).
    Each record is stored as its Hermitian part (s + s†)/2, which leaves the
    real diagonal, and so the populations, unchanged bit for bit and makes
    the imaginary diagonal exactly zero.  ``positivity_log`` holds the
    minimum eigenvalue of every record, from ``min_eigenvalues``.  Trace
    drift beyond tolerance raises; Redfield positivity excursions beyond
    the soft bound are warned, logged on the ``floqdyn`` logger and on the
    trajectory, and the run continues.
    """
    if t_final <= 0:
        raise ValidationError("t_final must be positive")
    dt = config.default_dt() if dt is None else dt
    if dt <= 0:
        raise ValidationError("dt must be positive")
    if not t_final / dt <= 2**53:
        raise ConfigError(f"t_final {t_final!r} over dt {dt!r} is more than 2**53 steps")
    n_dt = int(np.floor(t_final / dt + 1e-9))
    ends_on_dt = n_dt > 0 and t_final - n_dt * dt <= 1e-9 * dt
    if stride is None:
        stride = max(1, int(np.ceil((n_dt + (not ends_on_dt)) / MAX_RECORDS)))
    if stride < 1:
        raise ValidationError("stride must be >= 1")

    n_full = n_dt // stride
    ends_off_stride = n_dt % stride > 0 or not ends_on_dt
    n_records, d = n_full + 1 + ends_off_stride, config.dim
    if n_records * d * d * 16 > MAX_RECORD_BYTES:
        raise ConfigError(f"{n_records} records of {d}x{d} states (t_final {t_final!r}, "
                          f"stride {stride}, dt {dt!r}) exceed {MAX_RECORD_BYTES} bytes")
    if generator is None:
        generator = build_generator(config)
    times = np.arange(n_records) * stride * dt
    times[-1] = t_final
    states = np.empty((len(times), d * d), dtype=complex)
    states[0] = config.initial_state().ravel()
    record_map = expm(generator.superop * (stride * dt))
    # records [m, 2m) are records [0, m) advanced by power = record_map^m
    power, m = record_map, 1
    while m <= n_full:
        count = min(m, n_full + 1 - m)
        np.matmul(states[:count], power.T, out=states[m:m + count])
        m += count
        if m <= n_full:
            power = power @ power
    if ends_off_stride:
        states[-1] = expm(generator.superop * (t_final - times[-2])) @ states[-2]

    issued = []
    decomp = generator.decomposition
    if decomp is not None:
        _map_back_by_phase(states[:n_full + 1], times, decomp, stride * dt)
        if ends_off_stride:
            p = decomp.p_at(t_final)
            states[-1] = states[-1] @ np.kron(p, p.conj()).T
    states = states.reshape(-1, d, d)
    # chunks keep the temporaries of these array calls small beside the records
    for lo in range(0, len(times), RECORD_CHUNK):
        s = states[lo:lo + RECORD_CHUNK]
        s[...] = 0.5 * (s + s.conj().swapaxes(-1, -2))
    min_eigs = min_eigenvalues(states)

    traces = np.einsum("tii->t", states)
    trace_err = np.abs(traces - 1.0)
    if np.max(trace_err) > TOLERANCES.trace_drift:
        raise NumericalError(
            f"trace drift {np.max(trace_err):.2e} exceeds "
            f"{TOLERANCES.trace_drift:.0e}: the generator is not trace preserving"
        )
    pops = np.einsum("tii->ti", states).real
    worst = float(min_eigs.min())
    if worst < TOLERANCES.redfield_positivity:
        msg = (f"state positivity violated beyond soft bound: min eigenvalue "
               f"{worst:.3e} < {TOLERANCES.redfield_positivity:.0e}")
        warn(msg)
        issued.append(msg)

    return Trajectory(times=times, states=states, populations=pops,
                      positivity_log=min_eigs, trace_errors=trace_err,
                      config=config, warnings_issued=tuple(issued))


def _phase_count(decomp: FloquetDecomposition, step: float, n_records: int) -> int:
    """Distinct drive phases t mod tau among the records k * step, k < n_records.

    A step of g whole P-grid steps puts record k on the sample (k g) mod
    grid_m, so the phases repeat every grid_m / gcd(g, grid_m) records; the
    bound on g's defect is the one ``p_at`` puts on a grid time.  Any other
    step gives every record its own phase.
    """
    m = decomp.grid_m
    g = step * m / decomp.tau
    whole = round(g)
    if whole < 1 or abs(g - whole) > 1e-13 * g:
        return n_records
    return min(m // math.gcd(whole, m), n_records)


def _map_back_by_phase(states: np.ndarray, times: np.ndarray,
                       decomp: FloquetDecomposition, step: float) -> None:
    """Map the raveled frame records k * step back in place, rho = P rho~ P†.

    Record k has phase k mod N (``_phase_count``), so every record of phase
    j shares P_j = P(times[j]) and the superoperator K_j = P_j ⊗ P_j*
    (row-major vec(P s P†) = (P ⊗ P*) vec(s)): one product maps them all.
    Phases go in groups whose K_j take no more room than a chunk of
    records, and the records of a group in blocks of whole cycles of about
    a chunk; the cycle left partial at the end takes one matrix-vector
    product per record.  Phases that do not recur in two whole cycles are
    not worth a K_j (off the P grid none recur): those records are mapped
    one by one, P s P†, a chunk per array call.
    """
    n, dd = states.shape
    n_phase = _phase_count(decomp, step, n)
    n_cycles = n // n_phase
    if n_cycles < 2:
        for lo in range(0, n, RECORD_CHUNK):
            p = decomp.p_at(times[lo:min(lo + RECORD_CHUNK, n)])
            s = states[lo:lo + RECORD_CHUNK].reshape(p.shape)
            s[...] = p @ s @ p.conj().swapaxes(-1, -2)
        return
    cycles = states[:n_cycles * n_phase].reshape(n_cycles, n_phase, dd)
    rest = states[n_cycles * n_phase:]             # phases 0 .. len(rest) - 1
    group = max(1, RECORD_CHUNK // dd)
    for lo in range(0, n_phase, group):
        p = decomp.p_at(times[lo:min(lo + group, n_phase)])
        j = slice(lo, lo + len(p))
        # K_j^T, so that the raveled records (rows) map by a right product
        kt = np.einsum("jac,jbd->jcdab", p, p.conj()).reshape(len(p), dd, dd)
        per_block = max(1, RECORD_CHUNK // len(p))
        for c in range(0, n_cycles, per_block):
            block = cycles[c:c + per_block, j]
            block[...] = np.matmul(block.swapaxes(0, 1), kt).swapaxes(0, 1)
        tail = rest[j]
        tail[...] = np.matmul(tail[:, None], kt[:len(tail)])[:, 0]


# ---------------------------------------------------------------------------
# efficiency and diagnostics


@dataclass(frozen=True)
class EfficiencyReport:
    """Time-averaged target population up to t_final."""

    eta: float
    t_final: float
    cumulative: np.ndarray

    def __post_init__(self):
        if not (-1e-9 <= self.eta <= 1.0 + 1e-9):
            raise ValidationError(f"efficiency {self.eta} outside [0, 1]")


def efficiency(traj: Trajectory) -> EfficiencyReport:
    """eta(t_f) = (1/t_f) * int_0^{t_f} rho_bb(s) ds, trapezoid on the record grid."""
    ts = traj.times
    pb = traj.populations[:, traj.config.target_level]
    areas = np.concatenate([[0.0], np.cumsum(0.5 * (pb[1:] + pb[:-1]) * np.diff(ts))])
    with np.errstate(invalid="ignore", divide="ignore"):
        cumulative = np.where(ts > 0, areas / np.where(ts > 0, ts, 1.0), pb[0])
    eta = float(areas[-1] / ts[-1]) if ts[-1] > 0 else float(pb[0])
    return EfficiencyReport(eta=eta, t_final=float(ts[-1]), cumulative=cumulative)


@dataclass(frozen=True)
class DiagnosticsReport:
    min_eigenvalue: float
    max_trace_error: float
    stationarity: float


#: Records back from the end over which ``trajectory_diagnostics`` measures
#: stationarity.
STATIONARITY_WINDOW = 10


def trajectory_diagnostics(traj: Trajectory) -> DiagnosticsReport:
    """Positivity, trace-drift and stationarity summary."""
    n = len(traj.times)
    w = min(STATIONARITY_WINDOW, n - 1)
    if w >= 1:
        diff = traj.states[-1] - traj.states[-1 - w]
        stat = float(np.linalg.norm(diff))
    else:
        stat = 0.0
    return DiagnosticsReport(
        min_eigenvalue=float(traj.positivity_log.min()),
        max_trace_error=float(traj.trace_errors.max()),
        stationarity=stat,
    )
