"""floqdyn: master-equation simulations of driven few-level open systems.

Library layout:

* ``operators`` -- dense matrix algebra (exponentials, logs, eigensystems,
  fidelities, trace distances, powers by doubling, prefix-product scans), and
  the real coordinates of Hermitian matrices and of their superoperators.
* ``baths`` -- Ohmic spectral data, occupation numbers, gamma/xi and Redfield
  N/C coefficients, the Redfield dipole calibration, principal-value quadrature.
* ``propagation`` -- the sixth-order Magnus step for the Schrodinger
  equation, of any length, with an exactly Hermitian exponent (unitary up
  to a rounding that grows with the phase per step): the steps of a sample
  grid in one array call, their prefix products by a log-depth scan.
* ``floquet`` -- propagator integration, Floquet decomposition with branch
  unfolding, the periodic operator P(t) on and between its sample grid,
  Fourier operator harmonics, jump-operator tables, Magnus+BCH
  approximants and their fidelity benchmarks.
* ``generators`` -- the four master-equation superoperators (Lindblad,
  Floquet-Lindblad, Redfield, Floquet-Redfield), each built from a scenario
  (and a Floquet kind's decomposition) and static in the frame P† rho P.
* ``scenarios`` -- model presets, exact trajectories (records held as real
  coordinates; one matrix exponential of the real generator over the record
  interval; the records filled by doubling, with its powers from repeated
  squaring), energy-transfer efficiency, diagnostics.
* ``cli`` -- the ``floqdyn`` command-line entry point.
"""

from .baths import (
    BathSpec,
    gamma_xi_ohmic,
    pv_quadrature,
    qubit_dipole_calibration,
    redfield_coefficients,
    spectral_density,
    thermal_occupation,
)
from .errors import (
    ConfigError,
    FloqdynError,
    NumericalError,
    ResolutionError,
    StepSizeError,
    ValidationError,
)
from .floquet import (
    BenchmarkReport,
    DriveSpec,
    FloquetDecomposition,
    benchmark_fidelities,
    drive_hamiltonian,
    floquet_decompose,
    fourier_operator_coefficients,
    jump_operator_table,
    magnus_bch_propagator,
    propagate_schrodinger,
)
from .generators import (
    Generator,
    floquet_lindblad_generator,
    floquet_redfield_generator,
    lindblad_generator,
    redfield_generator,
)
from .operators import (
    Spectrum,
    hermitian_eigensystem,
    min_eigenvalues,
    principal_unitary_log,
    trace_distance,
    unitary_fidelity,
    unitary_from_hermitian,
)
from .scenarios import (
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

__version__ = "0.1.0"
