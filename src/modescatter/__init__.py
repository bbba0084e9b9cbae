"""modescatter: scattering, noise, and application metrics for driven mode networks.

Model a linear, time-stationary transducer as a network of internal modes
coupled by drive-activated two-mode interactions and to external ports.
The package assembles the doubled (particle/hole) dynamics, evaluates
frequency-resolved scattering matrices, transfer efficiency and added
noise, and derives application figures of merit: heterodyne sensing
probability, qubit state-transfer fidelity, photon counting yield, and
heralded remote-entanglement fidelity.
"""

from types import ModuleType as _ModuleType

from .applications import (
    AsymptoticEntangleResult,
    CountingResult,
    DarkCountResult,
    HeterodyneResult,
    ProtocolResult,
    ProtocolSpec,
    SpectralShape,
    TemporalShape,
    constructive_phase,
    counting_yield,
    dark_count_rate,
    entangle_fidelity_asymptotic,
    entangle_fidelity_exact,
    heralding_spec,
    heterodyne_bound,
    heterodyne_sensitivity,
    mode_matched_efficiency,
    protocol_enumerate,
    protocol_montecarlo,
    qubit_fidelity,
    sideband_correlation,
)
from .electromech import (
    ElectromechParams,
    PeakEstimate,
    Susceptibilities,
    build_model,
    closed_form_row,
    locate_peak,
    oracle_deviation,
    peak_eta,
    peak_eta_formula,
    peak_noise,
    peak_noise_formula,
    susceptibilities,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ModelUnstableError,
    ModelValidationError,
    ModeScatterError,
    NearSingularError,
    NoHeraldError,
    NumericalError,
    PoleError,
    QuadratureError,
    SignalNulledError,
    UndefinedNoiseError,
    ValidityWarning,
)
from .network import (
    Band,
    Coupling,
    DoubledDynamics,
    Drive,
    InternalMode,
    Port,
    RwaReport,
    TransducerModel,
    ValidationReport,
    assemble_dynamics,
    random_stable_model,
    rwa_report,
    validate_model,
)
from .scattering import (
    NoiseEnvironment,
    ScatteringMatrix,
    SpectrumGrid,
    SweepFailure,
    TransferRow,
    added_noise,
    bose_occupancy,
    consistency_checks,
    eta,
    noise_commutator_residual,
    noise_flux,
    physical_slot_mask,
    scattering_matrix,
    spectrum_sweep,
    sum_rule_residual,
    symplectic_residual,
    transfer_pair,
    transfer_row,
)

__version__ = "0.3.0"

# Every public name imported above, and the version; submodules are not part
# of the star-import surface.
__all__ = ["__version__"] + [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
