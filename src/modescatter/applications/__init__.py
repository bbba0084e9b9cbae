"""Application-level figures of merit built on transfer rows and spectra."""

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

__all__ = [
    "CountingResult",
    "DarkCountResult",
    "SpectralShape",
    "TemporalShape",
    "counting_yield",
    "dark_count_rate",
    "mode_matched_efficiency",
    "AsymptoticEntangleResult",
    "ProtocolResult",
    "ProtocolSpec",
    "entangle_fidelity_asymptotic",
    "entangle_fidelity_exact",
    "heralding_spec",
    "protocol_enumerate",
    "protocol_montecarlo",
    "HeterodyneResult",
    "constructive_phase",
    "heterodyne_bound",
    "heterodyne_sensitivity",
    "sideband_correlation",
    "qubit_fidelity",
]
