"""floqdyn: master-equation simulations of driven few-level open systems.

Library layout:

* ``operators`` -- dense matrix algebra (exponentials, logs, eigensystems,
  fidelities) and density-matrix validation.
* ``baths`` -- Ohmic spectral data, occupation numbers, gamma/xi correlation
  coefficients, Redfield N/C coefficients, principal-value quadrature.
* ``propagation`` -- the fourth-order Magnus step for the Schrodinger
  equation, exactly unitary and of any length: the steps of a sample grid
  in one array call, one product per sample.
* ``floquet`` -- propagator integration, Floquet decomposition with branch
  unfolding, the periodic operator P(t) on and between its sample grid,
  Fourier operator harmonics, jump-operator tables, Magnus+BCH
  approximants and their fidelity benchmarks.
* ``generators`` -- the four master-equation superoperators (Lindblad,
  Floquet-Lindblad, Redfield, Floquet-Redfield), each static in the
  micromotion frame P† rho P.
* ``scenarios`` -- model presets, exact trajectories (one matrix
  exponential of the record interval; the records filled by doubling, with
  its powers from repeated squaring), energy-transfer efficiency,
  diagnostics.
* ``cli`` -- the ``floqdyn`` command-line entry point.
"""

from .baths import (
    BathSpec,
    CorrelationCoefficients,
    LambIntegralParams,
    OhmicSpec,
    RedfieldCoefficients,
    gamma_xi_ohmic,
    pv_quadrature,
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
    FourierOperatorSet,
    JumpOperatorTable,
    benchmark_fidelities,
    drive_hamiltonian,
    floquet_decompose,
    fourier_operator_coefficients,
    jump_operator_table,
    magnus_bch_propagator,
    propagate_schrodinger,
)
from .generators import (
    CouplingChannel,
    Generator,
    GeneratorSpec,
    coupling_decomposition,
    floquet_lindblad_generator,
    floquet_redfield_generator,
    lindblad_generator,
    redfield_generator,
)
from .operators import (
    DensityMatrix,
    Spectrum,
    hermitian_eigensystem,
    principal_unitary_log,
    trace_distance,
    unitary_fidelity,
    unitary_from_hermitian,
)
from .scenarios import (
    PRESETS,
    DiagnosticsReport,
    EfficiencyReport,
    ScenarioConfig,
    Trajectory,
    build_four_level,
    build_generator,
    build_three_level,
    decompose_scenario,
    efficiency,
    evolve,
    qubit_dipole_calibration,
    scenario_with,
    trajectory_diagnostics,
)
from .tolerances import TOLERANCES, ToleranceConfig, set_tolerances, tolerance_overrides

__version__ = "0.1.0"
