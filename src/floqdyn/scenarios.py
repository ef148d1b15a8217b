"""Scenario presets, trajectory integration, and the energy-transfer metric.

The model family: a few-level system with a target level |b>, a hot bath
pumping the highest level(s) from the ground state, a cold bath connecting
them to |b>, and optionally a monochromatic drive coupling one level pair.

Basis ordering convention: 3-level scenarios use
{|0>, |1>, |b>} (energies 0, 3, 2.5; target index 2); 4-level scenarios use
{|0>, |1>, |2>, |b>} (energies 0, 3, 3+gap, 2.5; target index 3).

Trajectories solve d(rho~)/dt = L[rho~] exactly for the frame state
rho~ = P† rho P.  Every generator is time independent in that frame, so
the frame state at t is exp(L t) rho(0).  Each record is held as the d^2
real coordinates of its density matrix (``operators.to_coordinates``: the
populations, then Re and Im of each upper-triangle coherence, the columns
``trajectory.csv`` writes), so it is Hermitian by construction.  They
evolve under the real generator L_r = N L M (``operators.real_superop``),
built once per run: one matrix exponential S of L_r over the record
interval serves the whole run.  The records are filled by doubling: the
first m records times the transposed power S^m give the next m, so n
records take about log2(n) block products and as many squarings.  The
Floquet kinds have their records mapped back by the micromotion P(t) of
their decomposition, one real map N (P ⊗ P*) M per drive phase for all
records of that phase (P is tau-periodic: on a record step of whole P-grid
steps a few phases recur, off the grid none); the static kinds (P = I)
record directly.  A record that is not finite raises, and every record's
minimum eigenvalue is scanned in closed form per coupled block
(``operators.min_eigenvalues``).  ``Trajectory.states`` is a view
(``RecordMatrices``): its shape and size build nothing, an integer or slice
index builds the records it selects, and ``np.asarray`` the whole complex
(n, d, d) stack.  ``efficiency`` returns eta and its running value as a plain
pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .baths import BathSpec, LambIntegralParams, OhmicSpec
from .errors import ConfigError, NumericalError, ValidationError, warn
from .floquet import (REFINEMENTS, DriveSpec, FloquetDecomposition, drive_hamiltonian,
                      floquet_decompose)
from .generators import (
    GENERATOR_KINDS,
    Generator,
    floquet_lindblad_generator,
    floquet_redfield_generator,
    lindblad_generator,
    redfield_generator,
)
from .operators import (conjugation_superop, expm, fill_powers, from_coordinates, min_eigenvalues,
                        real_superop, to_coordinates)

#: Bath temperatures and Ohmic constants of the reference model (natural units).
TABLE_BATHS = {
    "hot": {"beta": 1.0 / 30.0, "j0": 4.0e-4, "omega_cutoff": np.sqrt(2.0)},
    "cold": {"beta": 1.0 / 4.0, "j0": 4.0e-3, "omega_cutoff": np.sqrt(0.2)},
}

REFERENCE_DRIVE = {"mu": 0.1, "omega": 2.25}

#: Samples per period that the P(t) grid of ``decompose_scenario`` starts from.
P_GRID_SAMPLES = 256


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
        if self.kind not in GENERATOR_KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        names = [bath.name for bath in self.baths]
        if len(set(names)) != len(names):
            raise ValidationError(f"bath names must be distinct, got {names}")
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

    def default_dt(self) -> float:
        if self.drive is not None and self.kind.startswith("floquet"):
            # whole steps of every P(t) grid of decompose_scenario: records hit samples
            return self.drive.tau / P_GRID_SAMPLES
        return 0.05


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
    ``P_GRID_SAMPLES`` samples, or the power of two >= 8*q_max if larger.  A zero-amplitude
    drive is allowed (Hbar = H0, P = 1); a scenario with no drive has no period.
    A grid that its doublings could take past ``MAX_RECORD_BYTES`` is refused first.
    """
    if config.drive is None:
        raise ConfigError(f"scenario {config.label!r} has no drive to decompose")
    grid_m = max(P_GRID_SAMPLES, 1 << (8 * config.q_max - 1).bit_length())
    samples = (grid_m << REFINEMENTS) + 1
    if samples * config.dim ** 2 * 16 > MAX_RECORD_BYTES:
        raise ConfigError(f"q_max {config.q_max} asks for a P grid of up to {samples} samples "
                          f"of {config.dim}x{config.dim}, past {MAX_RECORD_BYTES} bytes")
    h = drive_hamiltonian(config.h0, config.drive)
    return floquet_decompose(h, config.drive.tau, config.h0, grid_m=grid_m)


def build_generator(config: ScenarioConfig,
                    decomposition: FloquetDecomposition | None = None,
                    full_secular: bool = False,
                    collective: bool = False) -> Generator:
    """Assemble the generator selected by ``config.kind``; a static kind takes no
    drive, and a variant flag is refused for a kind that has no such variant."""
    for flag, value, kind in (("collective", collective, "lindblad"),
                              ("full_secular", full_secular, "floquet_redfield")):
        if value and config.kind != kind:
            raise ValidationError(f"{flag} applies only to kind {kind!r}, not {config.kind!r}")
    is_floquet = config.kind.startswith("floquet")
    if not is_floquet and config.drive is not None:
        raise ConfigError(f'static kind {config.kind!r} would drop the drive of scenario '
                          f'{config.label!r}; set "drive": null to run it undriven')
    if is_floquet and decomposition is None:
        decomposition = decompose_scenario(config)
    if config.kind == "lindblad":
        return lindblad_generator(config, decomposition, collective=collective)
    if config.kind == "floquet_lindblad":
        return floquet_lindblad_generator(config, decomposition)
    if config.kind == "redfield":
        return redfield_generator(config, decomposition)
    return floquet_redfield_generator(config, decomposition, full_secular=full_secular)


# ---------------------------------------------------------------------------
# trajectory integration


@dataclass(frozen=True)
class Trajectory:
    """Recorded Schrodinger-picture states on a uniform coarse grid, each as the
    d^2 real coordinates of its density matrix (``operators.to_coordinates``).

    The last record is at exactly the requested end time, so the last
    interval may be shorter than the others.
    """

    times: np.ndarray
    coords: np.ndarray                 # (n, d^2), real
    positivity_log: np.ndarray         # min eigenvalue of every recorded state, none skipped
    trace_errors: np.ndarray
    config: ScenarioConfig | None = None
    warnings_issued: tuple[str, ...] = ()

    @property
    def dim(self) -> int:
        return math.isqrt(self.coords.shape[1])

    @property
    def populations(self) -> np.ndarray:
        """(n, d) diagonals of the records, a view of their coordinates."""
        return self.coords[:, :self.dim]

    @property
    def states(self) -> "RecordMatrices":
        """The records as complex (n, d, d) matrices, a view that builds only what
        is read (``RecordMatrices``)."""
        return RecordMatrices(self.coords)


class RecordMatrices:
    """The complex (n, d, d) matrices of an (n, d^2) coordinate stack, built on
    access.  ``shape``, ``dtype``, ``nbytes`` and ``len`` are the stack's and build
    nothing; an index whose first part is an integer or a slice builds only the
    records it selects; any other index, and ``np.asarray``, build the whole stack."""

    dtype = np.dtype(complex)

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        d = math.isqrt(coords.shape[1])
        self.shape = (len(coords), d, d)
        self.nbytes = len(coords) * d * d * self.dtype.itemsize

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None):
        return from_coordinates(self.coords).astype(self.dtype if dtype is None else dtype,
                                                    copy=False)

    def __getitem__(self, key):
        key = key if isinstance(key, tuple) else (key,)
        if not isinstance(key[0], (int, np.integer, slice)):
            return np.asarray(self)[key]
        records = from_coordinates(self.coords[key[0]])
        return records[(slice(None),) * (records.ndim - 2) + key[1:]]


#: Records per array call of the micromotion map in ``evolve``; the positivity
#: scan takes the whole record stack at once.
RECORD_CHUNK = 2048

#: Most record intervals ``evolve`` takes (past it, a record every few ``dt``).
MAX_RECORDS = 20000
#: Most bytes of the records of ``evolve`` as complex matrices (``Trajectory.states``;
#: reached only at d >= 58), or of a P grid.
MAX_RECORD_BYTES = 2**30
#: Largest |tr rho - 1| of a record that ``evolve`` accepts.
TRACE_DRIFT_TOL = 1e-6
#: Least record eigenvalue ``evolve`` lets pass without a warning (Redfield
#: dynamics is not completely positive, so a small negative one is expected).
POSITIVITY_SOFT_BOUND = -1e-3


def evolve(config: ScenarioConfig, t_final: float, dt: float | None = None,
           generator: Generator | None = None) -> Trajectory:
    """Solve the scenario's master equation exactly on a record grid.

    ``dt`` (default ``config.default_dt()``) sets only the record grid:
    states are recorded at k * h, h = stride * dt for the smallest whole
    stride giving at most ``MAX_RECORDS`` intervals (h = dt on shorter
    runs), and the end state at exactly ``t_final``.
    Each record is held as the d^2 real coordinates x of its density matrix
    (``operators.to_coordinates``), which evolve under L_r = N L M
    (``operators.real_superop``; Hermiticity holds by construction, and
    nothing takes a Hermitian part).  With S = exp(L_r h), record k is
    S^k x(0): records m..2m-1 are records 0..m-1 advanced by S^m, one
    matrix product per doubling, with S^m formed by repeated squaring
    (``operators.fill_powers``).  The end record is the last one on the
    stride advanced by exp(L_r * (t_final - last record)).

    Recorded states are Schrodinger picture: a generator with a
    decomposition has its frame states mapped back by P(t) at the record
    times (the sample on the decomposition grid, which the default Floquet
    dt divides; one Magnus step from the node below between grid nodes).
    All records of a drive phase map by one real superoperator
    N (P ⊗ P*) M (``_map_back_by_phase``): on a step of g whole grid steps
    the on-stride records take grid_m / gcd(g, grid_m) phases, off the grid
    one each.  The off-stride end record is mapped by P(t_final).
    ``positivity_log`` holds the minimum eigenvalue of every record, from
    ``min_eigenvalues`` on the coordinates.  Trace drift beyond tolerance
    raises; Redfield positivity excursions beyond the soft bound are
    warned, logged on the ``floqdyn`` logger and on the trajectory, and the
    run continues.
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
    stride = max(1, int(np.ceil((n_dt + (not ends_on_dt)) / MAX_RECORDS)))
    n_full = n_dt // stride
    ends_off_stride = n_dt % stride > 0 or not ends_on_dt
    n_records, d = n_full + 1 + ends_off_stride, config.dim
    if n_records * d * d * 16 > MAX_RECORD_BYTES:
        raise ConfigError(f"{n_records} records of {d}x{d} states (t_final {t_final!r}, "
                          f"dt {dt!r}) exceed {MAX_RECORD_BYTES} bytes")
    if generator is None:
        generator = build_generator(config)
    times = np.arange(n_records) * stride * dt
    times[-1] = t_final
    real_generator = real_superop(generator.superop)
    coords = np.empty((len(times), d * d))
    coords[0] = to_coordinates(config.initial_state())
    fill_powers(coords[:n_full + 1], expm(real_generator * (stride * dt)))
    if ends_off_stride:
        coords[-1] = expm(real_generator * (t_final - times[-2])) @ coords[-2]

    issued = []
    decomp = generator.decomposition
    if decomp is not None:
        _map_back_by_phase(coords[:n_full + 1], times, decomp, stride * dt)
        if ends_off_stride:
            coords[-1] = conjugation_superop(decomp.p_at(t_final)[None])[0] @ coords[-1]
    if not np.isfinite(coords).all():
        k = np.flatnonzero(~np.isfinite(coords).all(axis=1))[0]
        raise NumericalError(f"record {k} (t = {float(times[k])!r}) is not finite")
    min_eigs = min_eigenvalues(coords)

    # the traces, as one matrix-vector product (a sum along the short axis costs more)
    trace_err = np.abs(coords[:, :d] @ np.ones(d) - 1.0)
    if np.max(trace_err) > TRACE_DRIFT_TOL:
        raise NumericalError(
            f"trace drift {np.max(trace_err):.2e} exceeds "
            f"{TRACE_DRIFT_TOL:.0e}: the generator is not trace preserving"
        )
    worst = float(min_eigs.min())
    if worst < POSITIVITY_SOFT_BOUND:
        msg = (f"state positivity violated beyond soft bound: min eigenvalue "
               f"{worst:.3e} < {POSITIVITY_SOFT_BOUND:.0e}")
        warn(msg)
        issued.append(msg)

    return Trajectory(times=times, coords=coords, positivity_log=min_eigs,
                      trace_errors=trace_err, config=config, warnings_issued=tuple(issued))


def _phase_count(decomp: FloquetDecomposition, step: float, n_records: int) -> int:
    """Distinct drive phases t mod tau among the records k * step, k < n_records.

    A step of g whole P-grid steps puts record k on the sample (k g) mod
    grid_m, so the phases repeat every grid_m / gcd(g, grid_m) records; the
    bound on g's defect is the one ``p_at`` puts on a grid time.  Any other
    step, one of infinitely many grid steps too, gives every record its own phase.
    """
    m = decomp.grid_m
    g = step * m / decomp.tau
    whole = round(g) if math.isfinite(g) else 0     # a step of 1e300 at Omega 1e100
    if whole < 1 or abs(g - whole) > 1e-13 * g:
        return n_records
    return min(m // math.gcd(whole, m), n_records)


def _map_back_by_phase(coords: np.ndarray, times: np.ndarray,
                       decomp: FloquetDecomposition, step: float) -> None:
    """Map the frame records k * step back in place, rho = P rho~ P†, on their
    coordinates.

    Record k has phase k mod N (``_phase_count``), so every record of phase
    j shares P_j = P(times[j]) and the real map R_j = N (P_j ⊗ P_j*) M
    (``operators.conjugation_superop``): one product maps them all.  Phases
    go in groups whose R_j take no more room than a chunk of records, and
    the records of a group in blocks of whole cycles of about a chunk; the
    cycle left partial at the end takes one matrix-vector product per
    record.  Off the P grid no phase recurs: the records are one cycle of
    N = n phases, mapped a group at a time.
    """
    n, dd = coords.shape
    n_phase = _phase_count(decomp, step, n)
    n_cycles = n // n_phase
    cycles = coords[:n_cycles * n_phase].reshape(n_cycles, n_phase, dd)
    rest = coords[n_cycles * n_phase:]             # phases 0 .. len(rest) - 1
    group = max(1, RECORD_CHUNK // dd)
    for lo in range(0, n_phase, group):
        p = decomp.p_at(times[lo:min(lo + group, n_phase)])
        j = slice(lo, lo + len(p))
        # R_j^T, so that the records (rows) map by a right product
        rt = np.ascontiguousarray(conjugation_superop(p).swapaxes(-1, -2))
        per_block = max(1, RECORD_CHUNK // len(p))
        for c in range(0, n_cycles, per_block):
            block = cycles[c:c + per_block, j]
            block[...] = np.matmul(block.swapaxes(0, 1), rt).swapaxes(0, 1)
        tail = rest[j]
        tail[...] = np.matmul(tail[:, None], rt[:len(tail)])[:, 0]


# ---------------------------------------------------------------------------
# efficiency and diagnostics


def efficiency(traj: Trajectory) -> tuple[float, np.ndarray]:
    """(eta, cumulative): eta(t_f) = (1/t_f) * int_0^{t_f} rho_bb(s) ds by the
    trapezoid rule on the record grid, and its running value at every record.
    A Redfield run may take eta as far past [0, 1] as its records' eigenvalues
    pass the positivity soft bound; past that, it is a NumericalError."""
    ts = traj.times
    pb = traj.populations[:, traj.config.target_level]
    areas = np.concatenate([[0.0], np.cumsum(0.5 * (pb[1:] + pb[:-1]) * np.diff(ts))])
    with np.errstate(invalid="ignore", divide="ignore"):
        cumulative = np.where(ts > 0, areas / np.where(ts > 0, ts, 1.0), pb[0])
    eta = float(areas[-1] / ts[-1]) if ts[-1] > 0 else float(pb[0])
    if not (POSITIVITY_SOFT_BOUND <= eta <= 1.0 - POSITIVITY_SOFT_BOUND):
        raise NumericalError(f"efficiency {eta} outside [0, 1] beyond "
                             f"{-POSITIVITY_SOFT_BOUND:.0e}")
    return eta, cumulative


#: Records back from the end over which ``trajectory_diagnostics`` measures
#: stationarity.
STATIONARITY_WINDOW = 10


def trajectory_diagnostics(traj: Trajectory) -> dict:
    """Positivity, trace-drift and stationarity summary, and the trajectory's
    warnings: the ``diagnostics`` of ``summary.json``."""
    w = min(STATIONARITY_WINDOW, len(traj.times) - 1)     # one record: w = 0, stationarity 0
    d = traj.dim
    change = traj.coords[-1] - traj.coords[-1 - w]
    # the Frobenius norm: each coherence coordinate stands for two matrix entries
    frobenius = math.sqrt(change[:d] @ change[:d] + 2.0 * (change[d:] @ change[d:]))
    return {
        "min_eigenvalue": float(traj.positivity_log.min()),
        "max_trace_error": float(traj.trace_errors.max()),
        "stationarity": frobenius,
        "warnings": list(traj.warnings_issued),
    }
