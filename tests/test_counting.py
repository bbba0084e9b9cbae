"""Photon counting: noise-overlap bandwidth, dark counts, mode matching."""

from __future__ import annotations

import math

import numpy as np
import pytest

from modescatter import (
    ConfigurationError,
    DomainError,
    NumericalError,
    QuadratureError,
    SpectralShape,
    SpectrumGrid,
    TemporalShape,
    counting_yield,
    dark_count_rate,
    mode_matched_efficiency,
)

TAU = 2.0 * math.pi


def _grid(
    omegas: np.ndarray, eta: np.ndarray, noise: np.ndarray
) -> SpectrumGrid:
    nan = np.full_like(omegas, math.nan)
    zero = np.zeros_like(omegas)
    return SpectrumGrid(
        omegas=omegas,
        eta_up=eta,
        eta_dn=nan,
        noise_up=noise,
        noise_dn=nan,
        sumrule_resid=zero,
        symplectic_resid=zero,
    )


def _lorentzian_grid(
    center: float, kappa: float, half_span: float, points: int, eta0: float, n0: float
) -> SpectrumGrid:
    omegas = np.linspace(center - half_span, center + half_span, points)
    half = kappa / 2.0
    eta = eta0 * half**2 / ((omegas - center) ** 2 + half**2)
    noise = np.full_like(omegas, n0)
    return _grid(omegas, eta, noise)


def test_lorentzian_bandwidth_quarter_kappa() -> None:
    center = TAU * 5.0e6
    kappa = TAU * 100.0
    grid = _lorentzian_grid(center, kappa, 3000.0 * kappa, 30001, 0.8, 0.25)
    result = dark_count_rate(grid, center)
    assert result.eta_plus == pytest.approx(0.8, rel=1e-12)
    assert result.n_plus == pytest.approx(0.25, rel=1e-12)
    assert result.bandwidth == pytest.approx(kappa / 4.0, rel=1e-3)
    assert result.bandwidth_hz == pytest.approx(result.bandwidth / TAU, rel=1e-12)
    assert result.rate == pytest.approx(
        0.8 * 0.25 * result.bandwidth_hz, rel=1e-12
    )


def test_lorentzian_bandwidth_stable_under_grid_doubling() -> None:
    center = TAU * 5.0e6
    kappa = TAU * 100.0
    coarse = _lorentzian_grid(center, kappa, 3000.0 * kappa, 60001, 1.0, 1.0)
    fine = _lorentzian_grid(center, kappa, 3000.0 * kappa, 120001, 1.0, 1.0)
    a = dark_count_rate(coarse, center).bandwidth
    b = dark_count_rate(fine, center).bandwidth
    assert abs(a - b) / b < 1e-3


def test_flat_band_bandwidth_is_width_over_two_pi() -> None:
    center = TAU * 5.0e6
    width = TAU * 2.0e4
    omegas = np.linspace(center - width / 2.0, center + width / 2.0, 101)
    grid = _grid(omegas, np.full(101, 0.5), np.full(101, 2.0))
    result = dark_count_rate(grid, center)
    assert result.bandwidth == pytest.approx(width / TAU, rel=1e-12)
    assert result.bandwidth_hz == pytest.approx(width / TAU**2, rel=1e-12)


def test_even_length_grid_halving_compares_the_same_span() -> None:
    # The halved grid of an even-length grid ends one point short; a flat
    # band then looked unconverged by the weight of the last interval.
    center = TAU * 5.0e6
    width = TAU * 2.0e4
    omegas = np.linspace(center - width / 2.0, center + width / 2.0, 10)
    grid = _grid(omegas, np.full(10, 0.5), np.full(10, 2.0))
    result = dark_count_rate(grid, center)
    assert result.bandwidth == pytest.approx(width / TAU, rel=1e-12)


def test_even_length_grid_still_detects_unresolved_lines() -> None:
    center = TAU * 5.0e6
    kappa = TAU * 100.0
    grid = _lorentzian_grid(center, kappa, 2.0 * kappa, 6, 1.0, 1.0)
    with pytest.raises(QuadratureError):
        dark_count_rate(grid, center)


def test_dark_count_rejects_vanishing_signal_quantities() -> None:
    omegas = np.linspace(TAU * 1.0e6, TAU * 2.0e6, 11)
    zero_eta = _grid(omegas, np.zeros(11), np.ones(11))
    with pytest.raises(DomainError):
        dark_count_rate(zero_eta, float(omegas[5]))
    zero_noise = _grid(omegas, np.ones(11), np.zeros(11))
    with pytest.raises(DomainError):
        dark_count_rate(zero_noise, float(omegas[5]))


def test_dark_count_rejects_offgrid_signal() -> None:
    omegas = np.linspace(TAU * 1.0e6, TAU * 2.0e6, 11)
    grid = _grid(omegas, np.ones(11), np.ones(11))
    with pytest.raises(ConfigurationError):
        dark_count_rate(grid, TAU * 3.0e6)


def test_dark_count_rejects_nan_entries() -> None:
    omegas = np.linspace(TAU * 1.0e6, TAU * 2.0e6, 11)
    eta = np.ones(11)
    eta[4] = math.nan
    with pytest.raises(NumericalError):
        dark_count_rate(_grid(omegas, eta, np.ones(11)), float(omegas[5]))


@pytest.mark.parametrize("omega_sig", [math.nan, math.inf, -math.inf])
def test_dark_count_rejects_non_finite_signal(omega_sig: float) -> None:
    # A numerical failure (exit 3), as in transfer_pair: not "off the grid".
    omegas = np.linspace(TAU * 1.0e6, TAU * 2.0e6, 11)
    grid = _grid(omegas, np.ones(11), np.ones(11))
    with pytest.raises(DomainError, match="signal frequency must be finite"):
        dark_count_rate(grid, omega_sig)


def test_unconverged_quadrature_raises() -> None:
    center = TAU * 5.0e6
    kappa = TAU * 100.0
    # Five points across +-2 kappa cannot resolve the line.
    grid = _lorentzian_grid(center, kappa, 2.0 * kappa, 5, 1.0, 1.0)
    with pytest.raises(QuadratureError):
        dark_count_rate(grid, center)


def test_bandwidth_needs_at_least_three_points() -> None:
    omegas = np.array([TAU * 1.0e6, TAU * 2.0e6])
    grid = _grid(omegas, np.ones(2), np.ones(2))
    with pytest.raises(QuadratureError):
        dark_count_rate(grid, float(omegas[0]))


def test_delta_shape_reads_interpolated_efficiency() -> None:
    omegas = np.linspace(TAU * 1.0e6, TAU * 2.0e6, 11)
    eta = np.linspace(0.2, 0.4, 11)
    grid = _grid(omegas, eta, np.ones(11))
    center = 0.5 * (omegas[3] + omegas[4])
    shape = SpectralShape.delta(float(center))
    expected = 0.5 * (eta[3] + eta[4])
    assert mode_matched_efficiency(grid, shape) == pytest.approx(expected, rel=1e-12)


def test_gaussian_shape_weights_efficiency() -> None:
    center = TAU * 5.0e6
    sigma = TAU * 1.0e3
    omegas = np.linspace(center - 5.5 * sigma, center + 5.5 * sigma, 2001)
    grid = _grid(omegas, np.full(2001, 0.37), np.ones(2001))
    shape = SpectralShape.gaussian(center, sigma)
    assert mode_matched_efficiency(grid, shape) == pytest.approx(0.37, rel=1e-6)


def test_gaussian_shape_rejects_unresolved_grid() -> None:
    center = TAU * 5.0e6
    sigma = TAU * 1.0e3
    omegas = np.linspace(center - 2.0 * sigma, center + 2.0 * sigma, 201)
    grid = _grid(omegas, np.ones(201), np.ones(201))
    with pytest.raises(DomainError):
        mode_matched_efficiency(grid, SpectralShape.gaussian(center, sigma))


def test_lorentzian_shape_needs_generous_span() -> None:
    center = TAU * 5.0e6
    fwhm = TAU * 1.0e3
    omegas = np.linspace(center - 50.0 * fwhm, center + 50.0 * fwhm, 2001)
    grid = _grid(omegas, np.ones(2001), np.ones(2001))
    # Tails carry ~ fwhm / span of mass, far above the 1e-6 normalization
    # tolerance on this span.
    with pytest.raises(DomainError):
        mode_matched_efficiency(grid, SpectralShape.lorentzian(center, fwhm))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"kind": "triangle", "center": 1.0, "width": 1.0},
        {"kind": "gaussian", "center": -1.0, "width": 1.0},
        {"kind": "gaussian", "center": 1.0, "width": 0.0},
        {"kind": "delta", "center": 0.0},
    ],
)
def test_spectral_shape_validation(kwargs: dict[str, float | str]) -> None:
    with pytest.raises(ConfigurationError):
        SpectralShape(**kwargs)


def test_delta_shape_has_no_density() -> None:
    shape = SpectralShape.delta(1.0e6)
    with pytest.raises(ConfigurationError):
        shape.density(np.array([1.0e6]))


def test_temporal_capture_exponential() -> None:
    shape = TemporalShape.exponential(rate=2.0e4)
    assert shape.capture(0.0) == 0.0
    assert shape.capture(5.0e-5) == pytest.approx(-math.expm1(-1.0), rel=1e-12)
    assert shape.capture(10.0) == pytest.approx(1.0, abs=1e-15)


def test_temporal_capture_boxcar() -> None:
    shape = TemporalShape.boxcar(duration=1.0e-3)
    assert shape.capture(5.0e-4) == pytest.approx(0.5, rel=1e-15)
    assert shape.capture(2.0e-3) == 1.0


def test_temporal_shape_validation() -> None:
    with pytest.raises(ConfigurationError):
        TemporalShape(kind="ramp", scale=1.0)
    with pytest.raises(ConfigurationError):
        TemporalShape.exponential(0.0)
    with pytest.raises(DomainError):
        TemporalShape.boxcar(1.0).capture(-1.0)


def test_counting_yield_composes_signal_and_dark_counts() -> None:
    center = TAU * 5.0e6
    width = TAU * 2.0e4
    omegas = np.linspace(center - width / 2.0, center + width / 2.0, 101)
    grid = _grid(omegas, np.full(101, 0.5), np.full(101, 0.1))
    h_in = SpectralShape.delta(center)
    h_out = TemporalShape.exponential(rate=1.0e4)
    window = 2.0e-4
    result = counting_yield(grid, h_in, h_out, window, center)
    assert result.eta_h == pytest.approx(0.5, rel=1e-12)
    assert result.capture == pytest.approx(-math.expm1(-2.0), rel=1e-12)
    expected_rate = 0.5 * 0.1 * (width / TAU**2)
    assert result.rate == pytest.approx(expected_rate, rel=1e-12)
    assert result.n_out_mean == pytest.approx(
        result.eta_h * result.capture + result.rate * window, rel=1e-14
    )


def test_counting_yield_zero_noise_has_no_dark_counts() -> None:
    center = TAU * 5.0e6
    omegas = np.linspace(center - TAU * 1.0e4, center + TAU * 1.0e4, 51)
    grid = _grid(omegas, np.full(51, 0.9), np.zeros(51))
    result = counting_yield(
        grid, SpectralShape.delta(center), TemporalShape.boxcar(1.0e-3), 1.0e-3, center
    )
    assert result.bandwidth == 0.0
    assert result.rate == 0.0
    assert result.n_out_mean == pytest.approx(0.9, rel=1e-12)


@pytest.mark.parametrize("window", [-1.0, -1.0e-300, math.nan, math.inf])
def test_counting_yield_rejects_bad_window(window: float) -> None:
    # Bad input (exit 2), whatever the grid holds.
    center = TAU * 5.0e6
    omegas = np.linspace(center - TAU * 1.0e4, center + TAU * 1.0e4, 51)
    grid = _grid(omegas, np.full(51, 0.9), np.full(51, 0.1))
    with pytest.raises(ConfigurationError) as info:
        counting_yield(
            grid, SpectralShape.delta(center), TemporalShape.boxcar(1.0e-3), window,
            center,
        )
    assert str(info.value) == (
        f"detection window must be non-negative and finite, got {window!r} s"
    )
