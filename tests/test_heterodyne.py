"""Heterodyne sensing sensitivity and its Cauchy-Schwarz bound."""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np
import pytest
from conftest import plain_row, synthetic_row_pair, wide_model

from modescatter import (
    ConfigurationError,
    DomainError,
    NoiseEnvironment,
    SignalNulledError,
    TransducerModel,
    assemble_dynamics,
    constructive_phase,
    heterodyne_bound,
    heterodyne_sensitivity,
    random_stable_model,
    sideband_correlation,
    transfer_pair,
)

TAU = 2.0 * math.pi


def _ideal_pair() -> tuple:
    # Lossless, noiseless transfer on the upper sideband only.
    up = plain_row(TAU * 1.0e6, {"s": 1.0}, {})
    dn = plain_row(-TAU * 1.0e6, {"e": 1.0}, {})
    env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
    return up, dn, env


def test_ideal_transducer_reaches_quantum_limit() -> None:
    up, dn, env = _ideal_pair()
    result = heterodyne_sensitivity(up, dn, env)
    assert result.p_s == pytest.approx(1.0, abs=1e-12)
    assert result.bound == pytest.approx(1.0, abs=1e-12)
    assert result.eta_up == pytest.approx(1.0, abs=1e-15)
    assert result.eta_dn == 0.0
    assert result.flux_up == 0.0


def test_symmetric_two_sideband_configuration() -> None:
    # Equal-strength sidebands with carefully balanced noise: the upper row
    # mixes the signal with one hot line, the lower row phase-conjugates the
    # signal; occupancies chosen so P_s lands exactly at 3/2.
    r = math.sqrt(0.5)
    up = plain_row(TAU * 1.0e6, {"s": r, "n1": r, "n2": 0.0}, {}, signal="s")
    dn = plain_row(
        -TAU * 1.0e6, {"n2": math.sqrt(1.5)}, {"s": r, "n1": 0.0}, signal="s"
    )
    env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0, "n1": 1.0, "n2": 1.0 / 3.0})
    result = heterodyne_sensitivity(up, dn, env)
    assert result.theta_lo == 0.0
    assert result.p_s == pytest.approx(1.5, abs=1e-12)
    assert result.eta_up == pytest.approx(0.5, abs=1e-15)
    assert result.eta_dn == pytest.approx(0.5, abs=1e-15)


def test_bound_approaches_unity_with_vanishing_conjugate_leak() -> None:
    # A nearly ideal row family: sum rule fixed, conjugate leakage eps -> 0.
    # The conjugate channel lowers the ceiling below 1 (its vacuum fluctuations
    # enter without carrying signal), and the gap closes as eps vanishes.
    previous = math.inf
    for eps in (1.0e-4, 1.0e-8, 1.0e-14):
        up = plain_row(TAU * 1.0e6, {"s": 1.0}, {})
        dn = plain_row(
            -TAU * 1.0e6, {"e": math.sqrt(1.0 + eps)}, {"s": math.sqrt(eps)}
        )
        env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
        result = heterodyne_sensitivity(up, dn, env)
        gap = abs(result.bound - 1.0)
        assert gap < previous
        previous = gap
    assert previous < 1e-6


def test_random_rows_respect_bound() -> None:
    rng = np.random.default_rng(42)
    for _ in range(300):
        up, dn, env = synthetic_row_pair(rng)
        result = heterodyne_sensitivity(up, dn, env)
        # The Cauchy-Schwarz ceiling holds at the constructive phase.
        assert result.p_s <= result.bound + 1e-9
        assert result.p_s >= 0.5


@pytest.mark.parametrize("draw", [wide_model, random_stable_model])
def test_model_rows_respect_bound(
    draw: Callable[[np.random.Generator], TransducerModel],
) -> None:
    # The ceiling holds on the rows of whole networks, not only on random
    # rows: P_s at the constructive phase never exceeds it. An exit port in
    # a zero-centred band has no lower output sideband, so such points are
    # refused, not scored.
    omegas = np.geomspace(1.0e2, 1.0e8, 13)
    checked = 0
    for seed in range(40):
        dyn = assemble_dynamics(draw(np.random.default_rng(seed)))
        env = NoiseEnvironment.from_dynamics(dyn)
        for omega in omegas.tolist():
            up, dn = transfer_pair(dyn, omega)
            if not (up.physical_output and dn.physical_output):
                continue
            result = heterodyne_sensitivity(up, dn, env)
            assert result.p_s <= result.bound * (1.0 + 1e-12), (seed, omega)
            checked += 1
    assert checked >= 400


def test_constructive_phase_maximizes_transfer() -> None:
    rng = np.random.default_rng(7)
    up, dn, env = synthetic_row_pair(rng)
    theta_star = constructive_phase(up, dn)
    best = abs(
        cmath.exp(-1j * theta_star) * up.u_coeffs["s"]
        + cmath.exp(1j * theta_star) * dn.v_coeffs["s"].conjugate()
    )
    for theta in np.linspace(-math.pi, math.pi, 37):
        t = abs(
            cmath.exp(-1j * theta) * up.u_coeffs["s"]
            + cmath.exp(1j * theta) * dn.v_coeffs["s"].conjugate()
        )
        assert t <= best + 1e-12


def test_phase_sweep_with_single_sideband_is_flat() -> None:
    # Without a conjugate signal coefficient |t| is theta-independent, so
    # P_s at any requested phase matches the constructive-phase value.
    up, dn, env = _ideal_pair()
    reference = heterodyne_sensitivity(up, dn, env).p_s
    for theta in (0.3, 1.2, -2.5):
        result = heterodyne_sensitivity(up, dn, env, theta_lo=theta)
        assert result.p_s == pytest.approx(reference, abs=1e-12)
        assert result.theta_lo == theta


def test_sideband_correlation_skips_masked_and_signal_columns() -> None:
    up = plain_row(TAU * 1.0e6, {"s": 1.0, "n0": 0.5}, {"n0": 0.25})
    dn = plain_row(-TAU * 1.0e6, {"n0": 0.125}, {"s": 0.3, "n0": 0.7})
    env = NoiseEnvironment.constant({"s": 9.9, "e": 0.0, "n0": 1.0})
    # Only the n0 column contributes: u_up * v_dn and v_up * u_dn, each
    # weighted by 2 n + 1 = 3.
    expected = (0.5 * 0.7 + 0.25 * 0.125) * 3.0
    assert sideband_correlation(up, dn, env) == pytest.approx(expected, rel=1e-12)


def test_heterodyne_requires_matched_rows() -> None:
    up, dn, env = _ideal_pair()
    with pytest.raises(ConfigurationError):
        heterodyne_sensitivity(dn, up, env)
    mismatched = plain_row(-TAU * 2.0e6, {"e": 1.0}, {})
    with pytest.raises(ConfigurationError):
        heterodyne_sensitivity(up, mismatched, env)


def test_heterodyne_rejects_unphysical_output() -> None:
    up, dn, env = _ideal_pair()
    bad_dn = plain_row(-TAU * 1.0e6, {"e": 1.0}, {})
    object.__setattr__(bad_dn, "physical_output", False)
    with pytest.raises(DomainError):
        heterodyne_sensitivity(up, bad_dn, env)


def test_signal_nulled_at_destructive_phase() -> None:
    # Opposite-sign signal coefficients cancel exactly at theta = 0, a
    # quarter turn away from the constructive phase.
    r = math.sqrt(0.5)
    up = plain_row(TAU * 1.0e6, {"s": r, "e": r}, {})
    dn = plain_row(-TAU * 1.0e6, {"e": math.sqrt(1.5)}, {"s": -r})
    env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
    assert constructive_phase(up, dn) == pytest.approx(math.pi / 2.0, abs=1e-12)
    with pytest.raises(SignalNulledError):
        heterodyne_sensitivity(up, dn, env, theta_lo=0.0)


def test_bound_rejects_invalid_inputs() -> None:
    with pytest.raises(DomainError):
        heterodyne_bound(0.0, 0.0, 0.1, 0.1)
    with pytest.raises(DomainError):
        heterodyne_bound(-0.1, 0.0, 0.1, 0.1)
    with pytest.raises(DomainError):
        heterodyne_bound(0.5, 0.0, math.nan, 0.1)


def test_bound_formula_value() -> None:
    eta_up, eta_dn, flux_up, flux_dn = 0.5, 0.125, 0.2, 0.05
    a = flux_up + 0.5 * (1.0 - eta_up)
    b = flux_dn + 0.5 * (1.0 + eta_dn)
    expected = 0.5 + (math.sqrt(a) + math.sqrt(b)) ** 2 / (
        math.sqrt(eta_up) + math.sqrt(eta_dn)
    ) ** 2
    assert heterodyne_bound(eta_up, eta_dn, flux_up, flux_dn) == pytest.approx(
        expected, rel=1e-14
    )
