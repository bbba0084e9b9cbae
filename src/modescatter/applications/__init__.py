"""Application-level figures of merit built on transfer rows and spectra."""

from types import ModuleType as _ModuleType

from .counting import (
    CountingResult,
    DarkCountResult,
    SpectralShape,
    TemporalShape,
    counting_yield,
    dark_count_rate,
    mode_matched_efficiency,
)
from .entangle import (
    AsymptoticEntangleResult,
    ProtocolResult,
    ProtocolSpec,
    entangle_fidelity_asymptotic,
    entangle_fidelity_exact,
    heralding_spec,
    protocol_enumerate,
    protocol_montecarlo,
)
from .heterodyne import (
    HeterodyneResult,
    constructive_phase,
    heterodyne_bound,
    heterodyne_sensitivity,
    sideband_correlation,
)
from .qubit import qubit_fidelity

# Every public name imported above; the submodules themselves are left out.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
