"""Photon counting of the transduced output.

Counters are not mode-selective: every noise photon the transducer emits
near the signal band can click. The key quantities are the noise-overlap
bandwidth

    B = integral (dOmega / 2 pi) [eta(Omega)/eta+] [N(Omega)/N+]

(the effective width over which the transducer emits noise, weighted like
the signal response), the dark-count rate ``eta+ N+ B``, and, for a chosen
input spectral mode and output temporal mode, the mode-matched efficiency
and the expected number of counts in a detection window.

Unit bookkeeping: internal frequencies are angular [rad/s]. ``bandwidth``
is the value of the integral above with Omega in rad/s (a Lorentzian
efficiency of FWHM ``kappa`` and flat noise gives exactly ``kappa / 4``);
``bandwidth_hz`` divides by another 2 pi to express the same measure as an
ordinary frequency, and reported rates [counts/s] use the Hz form.

Every dark count comes from :func:`dark_count_rate`. Zero-noise rule: added
noise that is 0 at every grid point gives bandwidth and rate 0; ``N+ = 0``
with noise elsewhere on the grid is a :class:`DomainError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from ..errors import ConfigurationError, DomainError, NumericalError, QuadratureError
from ..scattering import SpectrumGrid

_TWO_PI = 2.0 * math.pi

#: Relative tolerance on the input-mode normalization integral.
NORM_TOL = 1e-6

#: Relative bandwidth change under grid halving beyond which the quadrature
#: is declared non-convergent.
CONVERGENCE_TOL = 1e-3


@dataclass(frozen=True)
class SpectralShape:
    """Named analytic input-mode spectrum |h_in(Omega)|^2.

    ``gaussian`` interprets ``width`` as the standard deviation, and
    ``lorentzian`` as the FWHM, of the normalized density. ``delta`` is an
    idealized spike at ``center``: it bypasses quadrature entirely (the
    mode-matched efficiency becomes the efficiency at ``center``).

    Note that a Lorentzian density needs an extremely wide grid to pass the
    normalization precondition (its tails carry mass ~ width/span); prefer
    gaussian or delta shapes unless the sweep window is generous.
    """

    kind: Literal["delta", "gaussian", "lorentzian"]
    center: float
    width: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("delta", "gaussian", "lorentzian"):
            raise ConfigurationError(f"unknown spectral shape {self.kind!r}")
        if not math.isfinite(self.center) or self.center <= 0.0:
            raise ConfigurationError(
                f"spectral shape center must be positive, got {self.center!r}"
            )
        if self.kind != "delta" and (not math.isfinite(self.width) or self.width <= 0.0):
            raise ConfigurationError(
                f"{self.kind} shape requires a positive width, got {self.width!r}"
            )

    @classmethod
    def delta(cls, center: float) -> "SpectralShape":
        return cls(kind="delta", center=center)

    @classmethod
    def gaussian(cls, center: float, sigma: float) -> "SpectralShape":
        return cls(kind="gaussian", center=center, width=sigma)

    @classmethod
    def lorentzian(cls, center: float, fwhm: float) -> "SpectralShape":
        return cls(kind="lorentzian", center=center, width=fwhm)

    def density(self, omegas: NDArray[np.float64]) -> NDArray[np.float64]:
        """Normalized |h_in(Omega)|^2 sampled on ``omegas`` [rad/s]."""
        x = np.asarray(omegas, dtype=np.float64) - self.center
        if self.kind == "gaussian":
            s = self.width
            return np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(_TWO_PI))
        if self.kind == "lorentzian":
            half = self.width / 2.0
            return (half / math.pi) / (x**2 + half**2)
        raise ConfigurationError("a delta shape has no grid density")


@dataclass(frozen=True)
class TemporalShape:
    """Named analytic output-mode envelope |h_out(t)|^2 on t >= 0.

    ``exponential`` interprets ``scale`` as the intensity decay rate [1/s];
    ``boxcar`` as the (flat) mode duration [s]. Both are normalized over
    [0, infinity), so the captured fraction within any window never
    exceeds 1.
    """

    kind: Literal["exponential", "boxcar"]
    scale: float

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "boxcar"):
            raise ConfigurationError(f"unknown temporal shape {self.kind!r}")
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise ConfigurationError(
                f"temporal shape scale must be positive, got {self.scale!r}"
            )

    @classmethod
    def exponential(cls, rate: float) -> "TemporalShape":
        return cls(kind="exponential", scale=rate)

    @classmethod
    def boxcar(cls, duration: float) -> "TemporalShape":
        return cls(kind="boxcar", scale=duration)

    def capture(self, window: float) -> float:
        """Fraction of the output mode inside the window [0, window]."""
        if not math.isfinite(window) or window < 0.0:
            raise DomainError(f"window must be non-negative, got {window!r}")
        if self.kind == "exponential":
            return -math.expm1(-self.scale * window)
        return min(window, self.scale) / self.scale


@dataclass(frozen=True)
class DarkCountResult:
    """Noise-overlap bandwidth and the resulting dark-count rate."""

    eta_plus: float
    n_plus: float
    bandwidth: float
    bandwidth_hz: float
    rate: float


@dataclass(frozen=True)
class CountingResult(DarkCountResult):
    """Expected photon counts for one input/output mode pair."""

    eta_h: float
    capture: float
    n_out_mean: float


def _clean_upper_arrays(
    spectrum: SpectrumGrid,
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    omegas = spectrum.omegas
    eta = spectrum.eta_up
    noise = spectrum.noise_up
    bad = ~(np.isfinite(eta) & np.isfinite(noise))
    if np.any(bad):
        raise NumericalError(
            f"{int(bad.sum())} of {omegas.size} grid points lack finite "
            "upper-sideband spectra (sweep failures or vanishing efficiency); "
            "counting integrals need a clean grid"
        )
    return omegas, eta, noise


def check_window(window: float) -> None:
    """Reject a detection window (seconds) that is negative or not finite."""
    if not 0.0 <= window < math.inf:
        raise ConfigurationError(
            f"detection window must be non-negative and finite, got {window!r} s"
        )


def check_counting_request(
    request: str,
    omega_min: float | None,
    omega_max: float | None,
    points: int,
    window: float | None,
) -> None:
    """Reject a bad grid or window of a counting or entanglement ``request``."""
    if omega_min is None or omega_max is None:
        raise ConfigurationError(
            f"{request} needs a spectrum grid: set omega_min and omega_max"
        )
    if not 0.0 < omega_min < omega_max:
        raise ConfigurationError("need 0 < omega_min < omega_max for the spectrum grid")
    if points < 3:
        raise ConfigurationError(f"spectrum grid needs at least 3 points, got {points}")
    if window is None:
        raise ConfigurationError(f"{request} needs a detection window")
    check_window(window)


def _interp_signal(
    omegas: NDArray[np.float64], values: NDArray[np.float64], omega_sig: float
) -> float:
    if not -math.inf < omega_sig < math.inf:
        raise DomainError(f"signal frequency must be finite, got {omega_sig!r}")
    if not (omegas[0] <= omega_sig <= omegas[-1]):
        raise ConfigurationError(
            f"signal frequency {omega_sig:.6e} rad/s lies outside the grid "
            f"[{omegas[0]:.6e}, {omegas[-1]:.6e}]"
        )
    return float(np.interp(omega_sig, omegas, values))


def _bandwidth(
    omegas: NDArray[np.float64],
    eta: NDArray[np.float64],
    noise: NDArray[np.float64],
    eta_plus: float,
    n_plus: float,
) -> float:
    """Trapezoid value of the overlap integral, with a grid-halving check.

    The halved grid keeps every other point; on an even-length grid it
    ends one point short, so it is compared with the full-grid value over
    that same span.
    """
    if omegas.size < 3:
        raise QuadratureError(
            "counting bandwidth needs at least 3 grid points to verify "
            "convergence"
        )
    integrand = (eta / eta_plus) * (noise / n_plus)
    full = float(np.trapezoid(integrand, omegas)) / _TWO_PI
    span = omegas.size if omegas.size % 2 else omegas.size - 1
    same_span = float(np.trapezoid(integrand[:span], omegas[:span])) / _TWO_PI
    half = float(np.trapezoid(integrand[:span:2], omegas[:span:2])) / _TWO_PI
    scale = max(abs(same_span), np.finfo(float).tiny)
    if abs(same_span - half) / scale > CONVERGENCE_TOL:
        raise QuadratureError(
            "counting bandwidth quadrature has not converged: value "
            f"{same_span:.6e} changes by {abs(same_span - half) / scale:.2e} "
            "relative under grid halving; refine or extend the sweep"
        )
    return full


def dark_count_rate(spectrum: SpectrumGrid, omega_sig: float) -> DarkCountResult:
    """Dark-count rate of non-mode-selective detection of the exit port.

    ``rate`` [counts/s] is ``eta_plus * n_plus * bandwidth_hz``; see the
    module docstring for the 2 pi bookkeeping. Added noise that is 0 at
    every grid point gives bandwidth 0 and rate 0.

    Raises
    ------
    DomainError
        If the efficiency vanishes at the signal frequency, or the added
        noise vanishes there but not elsewhere on the grid (the overlap
        normalization is then undefined).
    QuadratureError
        If the trapezoid value changes by more than 0.1% under grid halving.
    """
    omegas, eta, noise = _clean_upper_arrays(spectrum)
    eta_plus = _interp_signal(omegas, eta, omega_sig)
    n_plus = _interp_signal(omegas, noise, omega_sig)
    if eta_plus <= 0.0:
        raise DomainError(
            f"transfer efficiency vanishes at omega_sig={omega_sig:.6e} rad/s"
        )
    bandwidth = 0.0
    if noise.any():
        if n_plus <= 0.0:
            raise DomainError(
                f"added noise vanishes at omega_sig={omega_sig:.6e} rad/s but not "
                "elsewhere on the grid; the noise-overlap bandwidth is undefined"
            )
        bandwidth = _bandwidth(omegas, eta, noise, eta_plus, n_plus)
    bandwidth_hz = bandwidth / _TWO_PI
    return DarkCountResult(
        eta_plus=eta_plus,
        n_plus=n_plus,
        bandwidth=bandwidth,
        bandwidth_hz=bandwidth_hz,
        rate=eta_plus * n_plus * bandwidth_hz,
    )


def mode_matched_efficiency(spectrum: SpectrumGrid, h_in: SpectralShape) -> float:
    """Efficiency weighted by the input mode spectrum, eta_h.

    For grid shapes the density must integrate to 1 within ``NORM_TOL`` on
    the sweep grid (otherwise the grid does not resolve or contain the
    mode and the quadrature would be silently wrong).
    """
    omegas, eta, _ = _clean_upper_arrays(spectrum)
    if h_in.kind == "delta":
        return _interp_signal(omegas, eta, h_in.center)
    density = h_in.density(omegas)
    norm = float(np.trapezoid(density, omegas))
    if abs(norm - 1.0) > NORM_TOL:
        raise DomainError(
            f"input mode spectrum integrates to {norm:.8f} on this grid "
            f"(must be 1 within {NORM_TOL:g}); widen or refine the sweep"
        )
    return float(np.trapezoid(eta * density, omegas))


def counting_yield(
    spectrum: SpectrumGrid,
    h_in: SpectralShape,
    h_out: TemporalShape,
    window: float,
    omega_sig: float,
) -> CountingResult:
    """Expected counts for a single input photon plus transducer noise.

    ``n_out_mean = eta_h * capture + rate * window``: the mode-matched
    signal photon captured within the window, plus the dark counts
    accumulated over it, as :func:`dark_count_rate` gives them (so by its
    zero-noise rule, and with its errors).

    Raises
    ------
    ConfigurationError
        If ``window`` is negative or not finite.
    """
    check_window(window)
    dark = dark_count_rate(spectrum, omega_sig)
    eta_h = mode_matched_efficiency(spectrum, h_in)
    capture = h_out.capture(window)
    return CountingResult(
        **vars(dark),
        eta_h=eta_h,
        capture=capture,
        n_out_mean=eta_h * capture + dark.rate * window,
    )
