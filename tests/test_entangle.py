"""Heralded entanglement: closed form, exhaustive enumeration, Monte Carlo."""

from __future__ import annotations

import math

import pytest

from modescatter import (
    ConfigurationError,
    DarkCountResult,
    DomainError,
    NoHeraldError,
    ProtocolSpec,
    ValidityWarning,
    entangle_fidelity_asymptotic,
    entangle_fidelity_exact,
    heralding_spec,
    protocol_enumerate,
    protocol_montecarlo,
)

_POPULATION_KEYS = {"00", "psi_plus", "01", "10", "11"}


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "three-click", "p_e": 0.1, "p_d": 0.01, "eta": 0.5},
        {"scheme": "one-click", "p_e": -0.1, "p_d": 0.01, "eta": 0.5},
        {"scheme": "one-click", "p_e": 1.1, "p_d": 0.01, "eta": 0.5},
        {"scheme": "one-click", "p_e": 0.1, "p_d": 1.0, "eta": 0.5},
        {"scheme": "one-click", "p_e": 0.1, "p_d": 0.01, "eta": 1.5},
    ],
)
def test_spec_validation(kwargs: dict[str, float | str]) -> None:
    with pytest.raises(ConfigurationError):
        ProtocolSpec(**kwargs)


def test_one_click_lossless_dark_free_value() -> None:
    spec = ProtocolSpec(scheme="one-click", p_e=0.1, p_d=0.0, eta=1.0)
    result = entangle_fidelity_exact(spec)
    assert result.fidelity == pytest.approx(1.8 / 1.9, abs=1e-13)
    assert result.success_probability == pytest.approx(0.19, abs=1e-14)
    assert result.populations["psi_plus"] == pytest.approx(18.0 / 19.0, abs=1e-13)
    assert result.populations["11"] == pytest.approx(1.0 / 19.0, abs=1e-13)
    assert result.populations["00"] == 0.0
    # With eta = 1 and no dark counts every herald is photon-caused.
    assert result.photon_herald_probability == pytest.approx(0.19, abs=1e-14)


def test_two_click_is_dark_count_limited() -> None:
    # Without dark counts the two-click herald filters every loss event.
    for p_e in (0.1, 0.5, 0.9):
        for eta in (0.05, 0.4, 1.0):
            spec = ProtocolSpec(scheme="two-click", p_e=p_e, p_d=0.0, eta=eta)
            result = entangle_fidelity_exact(spec)
            assert result.fidelity == pytest.approx(1.0, abs=1e-13)
            assert result.populations["psi_plus"] == pytest.approx(1.0, abs=1e-13)


def test_populations_normalized_and_complete() -> None:
    spec = ProtocolSpec(scheme="one-click", p_e=0.3, p_d=0.02, eta=0.6)
    result = entangle_fidelity_exact(spec)
    assert set(result.populations) == _POPULATION_KEYS
    assert sum(result.populations.values()) == pytest.approx(1.0, abs=1e-13)
    assert result.normalization == pytest.approx(
        result.success_probability, abs=1e-15
    )
    assert 0.0 <= result.fidelity <= 1.0


@pytest.mark.parametrize("scheme", ["one-click", "two-click"])
@pytest.mark.parametrize(
    "p_e,p_d,eta",
    [
        (0.1, 0.0, 1.0),
        (0.25, 0.01, 0.6),
        (0.5, 0.05, 0.3),
        (0.9, 0.002, 0.95),
        (1.0, 0.1, 0.5),
        (0.4, 0.3, 0.0),
    ],
)
def test_exact_matches_enumeration(
    scheme: str, p_e: float, p_d: float, eta: float
) -> None:
    spec = ProtocolSpec(scheme=scheme, p_e=p_e, p_d=p_d, eta=eta)
    exact = entangle_fidelity_exact(spec)
    brute = protocol_enumerate(spec)
    assert exact.fidelity == pytest.approx(brute.fidelity, abs=1e-13)
    assert exact.success_probability == pytest.approx(
        brute.success_probability, abs=1e-13
    )
    assert exact.photon_herald_probability == pytest.approx(
        brute.photon_herald_probability, abs=1e-13
    )
    for key in _POPULATION_KEYS:
        assert exact.populations[key] == pytest.approx(
            brute.populations[key], abs=1e-13
        )


def test_no_herald_without_photons_or_dark_counts() -> None:
    spec = ProtocolSpec(scheme="one-click", p_e=0.5, p_d=0.0, eta=0.0)
    with pytest.raises(NoHeraldError) as excinfo:
        entangle_fidelity_exact(spec)
    assert excinfo.value.herald_count == 0
    with pytest.raises(NoHeraldError):
        protocol_enumerate(spec)
    with pytest.raises(NoHeraldError):
        protocol_montecarlo(spec, trials=1000, seed=3)


def test_dark_counts_degrade_one_click_fidelity() -> None:
    clean = entangle_fidelity_exact(
        ProtocolSpec(scheme="one-click", p_e=0.05, p_d=0.0, eta=0.4)
    )
    noisy = entangle_fidelity_exact(
        ProtocolSpec(scheme="one-click", p_e=0.05, p_d=0.01, eta=0.4)
    )
    assert noisy.fidelity < clean.fidelity


def test_montecarlo_reproducible_across_chunks() -> None:
    # 300000 trials spans two vectorized chunks; the result must be
    # bit-identical for a fixed seed.
    spec = ProtocolSpec(scheme="one-click", p_e=0.2, p_d=0.001, eta=0.5)
    a = protocol_montecarlo(spec, trials=300000, seed=11)
    b = protocol_montecarlo(spec, trials=300000, seed=11)
    assert a.fidelity == b.fidelity
    assert a.success_probability == b.success_probability
    assert a.populations == b.populations
    c = protocol_montecarlo(spec, trials=300000, seed=12)
    assert c.fidelity != a.fidelity


@pytest.mark.parametrize(
    ("spec", "trials", "seed", "herald_count", "fidelity", "populations"),
    [
        (
            ProtocolSpec(scheme="one-click", p_e=0.1, p_d=1.0e-3, eta=0.6),
            300000,
            7,
            35166,
            0.9158846613205938,
            {
                "00": 0.013820167206961269,
                "psi_plus": 0.9152306204856964,
                "01": 0.0005118580447022692,
                "10": 0.0007962236250924188,
                "11": 0.06964113063754764,
            },
        ),
        (
            ProtocolSpec(scheme="two-click", p_e=0.5, p_d=0.01, eta=0.5),
            100000,
            3,
            13375,
            0.9285233644859813,
            {
                "00": 0.02699065420560748,
                "psi_plus": 0.9105794392523364,
                "01": 0.018093457943925233,
                "10": 0.017794392523364486,
                "11": 0.026542056074766354,
            },
        ),
    ],
    ids=["one-click-two-chunks", "two-click"],
)
def test_montecarlo_stream_is_pinned(
    spec: ProtocolSpec,
    trials: int,
    seed: int,
    herald_count: int,
    fidelity: float,
    populations: dict[str, float],
) -> None:
    # Exact values of a given seed: the random stream, its order of use and
    # the fidelity-weight sums must not move.
    result = protocol_montecarlo(spec, trials=trials, seed=seed)
    assert result.herald_count == herald_count
    assert result.fidelity == fidelity
    assert result.populations == populations


def _dark(rate: float, eta_plus: float) -> DarkCountResult:
    return DarkCountResult(
        eta_plus=eta_plus, n_plus=0.0, bandwidth=1.0, bandwidth_hz=1.0, rate=rate
    )


def test_heralding_spec_policy() -> None:
    one = heralding_spec(_dark(rate=20.0, eta_plus=0.8), 1.0e-4, "one-click")
    assert one.p_d == 20.0 * 1.0e-4
    assert one.p_e == math.sqrt(2.0e-3 / (0.8 * (1.0 - 0.4)))
    assert heralding_spec(_dark(20.0, 0.8), 1.0e-4, "two-click").p_e == 0.5
    # The efficiency is capped at 1; the one-click p_e at 1/2 and above 1e-6.
    assert heralding_spec(_dark(20.0, 1.3), 1.0e-4, "two-click").eta == 1.0
    assert heralding_spec(_dark(1.0e3, 1.0e-3), 1.0e-4, "one-click").p_e == 0.5
    assert heralding_spec(_dark(1.0e-9, 0.9), 1.0e-4, "one-click").p_e == 1.0e-6
    assert heralding_spec(_dark(0.0, 0.9), 1.0e-4, "one-click", p_e=0.3).p_e == 0.3


@pytest.mark.parametrize(
    ("rate", "eta_plus", "scheme"),
    [
        (1.0e4, 0.8, "two-click"),  # p_d = 1
        (-1.0, 0.8, "two-click"),
        (math.nan, 0.8, "one-click"),
        (20.0, 0.0, "one-click"),  # no optimal p_e without transfer
    ],
)
def test_heralding_spec_domain_errors(rate: float, eta_plus: float, scheme: str) -> None:
    with pytest.raises(DomainError):
        heralding_spec(_dark(rate, eta_plus), 1.0e-4, scheme)  # type: ignore[arg-type]


@pytest.mark.parametrize("window", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("rate", [0.0, 20.0])
def test_heralding_spec_rejects_bad_window(rate: float, window: float) -> None:
    # Bad input (exit 2), not a dark-click probability out of range.
    with pytest.raises(ConfigurationError) as info:
        heralding_spec(_dark(rate, 0.8), window, "two-click")
    assert str(info.value) == (
        f"detection window must be non-negative and finite, got {window!r} s"
    )


def test_heralding_spec_accepts_zero_window() -> None:
    assert heralding_spec(_dark(20.0, 0.8), 0.0, "two-click").p_d == 0.0


def test_montecarlo_agrees_with_enumeration() -> None:
    spec = ProtocolSpec(scheme="two-click", p_e=0.5, p_d=0.01, eta=0.6)
    exact = protocol_enumerate(spec)
    mc = protocol_montecarlo(spec, trials=200000, seed=21)
    assert mc.fidelity_stderr is not None
    assert mc.success_stderr is not None
    assert abs(mc.fidelity - exact.fidelity) < 4.0 * mc.fidelity_stderr
    assert abs(mc.success_probability - exact.success_probability) < (
        4.0 * mc.success_stderr
    )
    assert mc.herald_count is not None and mc.herald_count > 0
    assert mc.trials == 200000


def test_montecarlo_rejects_bad_trials() -> None:
    spec = ProtocolSpec(scheme="one-click", p_e=0.2, p_d=0.001, eta=0.5)
    with pytest.raises(ConfigurationError):
        protocol_montecarlo(spec, trials=0, seed=0)


def test_asymptotic_one_click_formula() -> None:
    spec = ProtocolSpec(scheme="one-click", p_e=0.05, p_d=1.0e-5, eta=0.5)
    result = entangle_fidelity_asymptotic(spec)
    expected = 1.0 - 0.05 * (1.0 - 0.25) - 1.0e-5 / (0.5 * 0.05)
    assert result.fidelity == pytest.approx(expected, rel=1e-14)
    assert result.p_e_opt == pytest.approx(
        math.sqrt(1.0e-5 / (0.5 * 0.75)), rel=1e-14
    )
    assert result.fidelity_opt == pytest.approx(
        1.0 - 2.0 * math.sqrt(1.5 * 1.0e-5), rel=1e-14
    )


def test_asymptotic_optimum_is_stationary() -> None:
    p_d, eta = 1.0e-5, 0.5
    opt = entangle_fidelity_asymptotic(
        ProtocolSpec(scheme="one-click", p_e=0.05, p_d=p_d, eta=eta)
    )

    def expansion(p_e: float) -> float:
        return (
            entangle_fidelity_asymptotic(
                ProtocolSpec(scheme="one-click", p_e=p_e, p_d=p_d, eta=eta)
            ).fidelity
        )

    at_opt = expansion(opt.p_e_opt)
    assert at_opt == pytest.approx(opt.fidelity_opt, rel=1e-12)
    assert expansion(opt.p_e_opt * 1.2) < at_opt
    assert expansion(opt.p_e_opt * 0.8) < at_opt


def test_asymptotic_two_click_formula() -> None:
    spec = ProtocolSpec(scheme="two-click", p_e=0.5, p_d=1.0e-4, eta=0.4)
    result = entangle_fidelity_asymptotic(spec)
    assert result.fidelity == pytest.approx(1.0 - (6.0 / 0.4 - 4.0) * 1.0e-4, rel=1e-14)
    assert result.p_e_opt == 0.5
    assert result.fidelity_opt == result.fidelity


def test_asymptotic_warns_outside_regime() -> None:
    with pytest.warns(ValidityWarning):
        entangle_fidelity_asymptotic(
            ProtocolSpec(scheme="one-click", p_e=0.5, p_d=0.0, eta=0.5)
        )
    with pytest.warns(ValidityWarning):
        entangle_fidelity_asymptotic(
            ProtocolSpec(scheme="one-click", p_e=0.01, p_d=0.01, eta=0.5)
        )
    with pytest.warns(ValidityWarning):
        entangle_fidelity_asymptotic(
            ProtocolSpec(scheme="two-click", p_e=0.5, p_d=0.1, eta=0.5)
        )


def test_asymptotic_domain_errors() -> None:
    with pytest.raises(DomainError):
        entangle_fidelity_asymptotic(
            ProtocolSpec(scheme="one-click", p_e=0.1, p_d=0.0, eta=0.0)
        )
    with pytest.raises(DomainError):
        entangle_fidelity_asymptotic(
            ProtocolSpec(scheme="one-click", p_e=0.0, p_d=0.0, eta=0.5)
        )


def test_asymptotic_tracks_exact_in_its_regime() -> None:
    p_d, eta = 1.0e-6, 0.8
    asym = entangle_fidelity_asymptotic(
        ProtocolSpec(scheme="one-click", p_e=0.02, p_d=p_d, eta=eta)
    )
    exact = entangle_fidelity_exact(
        ProtocolSpec(scheme="one-click", p_e=0.02, p_d=p_d, eta=eta)
    )
    assert asym.fidelity == pytest.approx(exact.fidelity, abs=2e-3)
