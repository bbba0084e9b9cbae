"""Heralded entanglement: closed form, exhaustive enumeration, Monte Carlo."""

from __future__ import annotations

import math

import numpy as np
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
from modescatter.applications import entangle

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


def test_montecarlo_rejects_negative_seed() -> None:
    spec = ProtocolSpec(scheme="two-click", p_e=0.5, p_d=0.001, eta=0.8)
    with pytest.raises(ConfigurationError, match="seed must be non-negative"):
        protocol_montecarlo(spec, trials=1000, seed=-1)


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
            35331,
            0.9138716707707113,
            {
                "00": 0.013868840395120433,
                "psi_plus": 0.913164076873001,
                "01": 0.0007642014095270443,
                "10": 0.000650986385893408,
                "11": 0.07155189493645807,
            },
        ),
        (
            ProtocolSpec(scheme="two-click", p_e=0.5, p_d=0.01, eta=0.5),
            100000,
            3,
            13317,
            0.9256213861980926,
            {
                "00": 0.029811519110910865,
                "psi_plus": 0.90831268303672,
                "01": 0.017196065179845312,
                "10": 0.017421341142900053,
                "11": 0.02725839152962379,
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


# Specs for the seed-ensemble check of the Monte Carlo against enumeration.
# Between them they cover both schemes; p_d = 0, p_d = 1e-3 to 2e-2 (rare
# dark clicks) and p_d = 0.25 to 0.3 (dense ones); small p_e and p_e = 1;
# eta = 1 and small eta.
_ENSEMBLE_SPECS = [
    ProtocolSpec("two-click", 0.5, 0.0, 0.8),
    ProtocolSpec("two-click", 0.5, 1.0e-3, 0.8),
    ProtocolSpec("two-click", 0.3, 0.3, 0.5),
    ProtocolSpec("two-click", 0.05, 0.02, 1.0),
    ProtocolSpec("two-click", 1.0, 0.05, 0.1),
    ProtocolSpec("two-click", 0.5, 0.01, 0.1),
    ProtocolSpec("one-click", 0.2, 0.0, 0.5),
    ProtocolSpec("one-click", 0.2, 0.01, 0.5),
    ProtocolSpec("one-click", 0.4, 0.25, 0.7),
    ProtocolSpec("one-click", 0.02, 2.0e-3, 0.05),
    ProtocolSpec("one-click", 1.0, 0.02, 1.0),
]
_ENSEMBLE_SEEDS = range(5000, 5100)
_ENSEMBLE_TRIALS = 20000


@pytest.mark.parametrize(
    "spec",
    _ENSEMBLE_SPECS,
    ids=[f"{s.scheme}-pe{s.p_e}-pd{s.p_d}-eta{s.eta}" for s in _ENSEMBLE_SPECS],
)
def test_montecarlo_z_scores_over_seeds(spec: ProtocolSpec) -> None:
    # Over many fixed seeds, the z-scores of the Monte Carlo estimates
    # against enumeration must look standard normal: a mean within three
    # standard errors of 0 and a sample sd within three of its own
    # standard errors of 1. A biased or over-dispersed sampler fails this
    # long before a single-seed 3-sigma check would.
    exact = protocol_enumerate(spec)
    n = _ENSEMBLE_TRIALS
    # Overlap weight per heralded trial: 1 (Bell), 1/2 (mixed), 0 otherwise.
    pops = exact.populations
    weight_var = (
        pops["psi_plus"] + 0.25 * (pops["01"] + pops["10"]) - exact.fidelity**2
    )
    z: dict[str, list[float]] = {"success": [], "photon": [], "fidelity": []}
    for seed in _ENSEMBLE_SEEDS:
        mc = protocol_montecarlo(spec, trials=n, seed=seed)
        assert mc.herald_count is not None and mc.herald_count > 0
        for key, value, truth, se in (
            (
                "success",
                mc.success_probability,
                exact.success_probability,
                math.sqrt(
                    exact.success_probability * (1.0 - exact.success_probability) / n
                ),
            ),
            (
                "photon",
                mc.photon_herald_probability,
                exact.photon_herald_probability,
                math.sqrt(
                    exact.photon_herald_probability
                    * (1.0 - exact.photon_herald_probability)
                    / n
                ),
            ),
            (
                "fidelity",
                mc.fidelity,
                exact.fidelity,
                math.sqrt(max(weight_var, 0.0) / mc.herald_count),
            ),
        ):
            if se < 1e-12:
                # A degenerate quantity (every herald Bell, or none can be)
                # must come out exactly.
                assert value == pytest.approx(truth, abs=1e-12), key
            else:
                z[key].append((value - truth) / se)
    n_seeds = len(_ENSEMBLE_SEEDS)
    for key, scores in z.items():
        if not scores:
            continue
        mean = sum(scores) / n_seeds
        sd = math.sqrt(sum((s - mean) ** 2 for s in scores) / (n_seeds - 1))
        assert abs(mean) <= 3.0 / math.sqrt(n_seeds), (key, mean)
        assert abs(sd - 1.0) <= 3.0 / math.sqrt(2.0 * (n_seeds - 1)), (key, sd)


def test_ensemble_specs_straddle_the_sparse_cutoff() -> None:
    # The ensemble above must reach both ways of drawing a dark click.
    dark = [s.p_d for s in _ENSEMBLE_SPECS if s.p_d > 0.0]
    assert min(dark) < entangle._SPARSE_BELOW < max(dark)


class _CountingGenerator:
    """A Generator that counts the values each of its methods draws."""

    def __init__(self, rng: np.random.Generator, counts: dict[str, int]) -> None:
        self._rng = rng
        self._counts = counts

    def random(self, *, out: np.ndarray) -> np.ndarray:
        self._counts["random"] += out.size
        return self._rng.random(out=out)

    def integers(self, low: int, high: int, *, size: int, dtype: type) -> np.ndarray:
        drawn = self._rng.integers(low, high, size=size, dtype=dtype)
        self._counts["integer bytes"] += drawn.nbytes
        return drawn


def test_montecarlo_draws_scale_with_events(monkeypatch: pytest.MonkeyPatch) -> None:
    # Two-click at p_e = 0.5, eta = 0.8, p_d = 1e-3. Integer bytes: one
    # per emitter per trial and one per 8 trials' arm bits in each round.
    # Doubles go only to events: a trial's byte ties with its emitter's
    # thresholds 0.4 or 0.6 (0.5 is a multiple of 1/256) with probability
    # 2/256 per emitter, and dark clicks cost draws in proportion to their
    # number (about 4 p_d per trial), not per trial.
    counts = {"random": 0, "integer bytes": 0}
    real = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _CountingGenerator(real(seed), counts)
    )
    trials, p_d = 200000, 1.0e-3
    spec = ProtocolSpec("two-click", p_e=0.5, p_d=p_d, eta=0.8)
    result = protocol_montecarlo(spec, trials=trials, seed=4)
    monkeypatch.undo()
    assert result == protocol_montecarlo(spec, trials=trials, seed=4)
    ties = 2 * trials * 2 / 256
    ties_sd = math.sqrt(2 * trials * 2 / 256 * (1 - 2 / 256))
    dark_clicks = 4 * p_d * trials
    low = ties - 5 * ties_sd + dark_clicks - 5 * math.sqrt(dark_clicks)
    high = ties + 5 * ties_sd + 2 * dark_clicks + 100
    assert low < counts["random"] <= high
    assert counts["integer bytes"] == 2 * trials + 2 * trials // 8


class _ScriptedGenerator:
    """Returns the given uniforms, in order, from ``random(out=...)``.

    ``integers`` returns full-range uint64 words whose little-endian bytes
    are the given octets, zero-padded to whole words.
    """

    def __init__(self, uniforms: list[float], octets: list[int] | None = None) -> None:
        self._uniforms = iter(uniforms)
        self._octets = octets or []

    def random(self, out: np.ndarray) -> np.ndarray:
        out[:] = [next(self._uniforms) for _ in range(out.size)]
        return out

    def integers(self, low: int, high: int, *, size: int, dtype: type) -> np.ndarray:
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        octets = np.zeros(8 * size, dtype=np.uint8)
        octets[: len(self._octets)] = self._octets
        return octets.view("<u8").astype(np.uint64)

    def exhausted(self) -> bool:
        return next(self._uniforms, None) is None


def test_below_decides_by_the_byte_and_refines_ties() -> None:
    # U = (B + V) / 256 < t: a byte below c = floor(256 t) passes, one
    # above fails, and a tied byte passes iff V < 256 t - c. Only the five
    # tied trials draw V, in trial order, and 10 trials take two words.
    t = 0.3
    frac = 256.0 * t - 76
    assert 0.0 < frac < 1.0
    octets = [75, 76, 77, 76, 76, 0, 255, 76, 76, 200]
    below, above = np.nextafter(frac, 0.0), np.nextafter(frac, 1.0)
    tie_values = [below, frac, above, 0.0, 1.0 - 2.0**-53]
    rng = _ScriptedGenerator(tie_values, octets)
    out = np.empty(len(octets), dtype=bool)
    entangle._below(rng, (t,), (out,), np.empty(len(octets)))  # type: ignore[arg-type]
    assert rng.exhausted()
    expected = [True, True, False, False, False, True, False, True, False, False]
    assert out.tolist() == expected


def test_below_shares_one_double_across_thresholds() -> None:
    # Thresholds 0.3 and 0.299 tie at the same byte (76) and read the same
    # V; 0.1 ties at 25; 0.5 is a multiple of 1/256 and never ties. Three
    # trials are tied, so three doubles are drawn.
    octets = [76, 25, 128, 76, 10]
    rng = _ScriptedGenerator([0.6, 0.7, 0.9], octets)
    outs = tuple(np.empty(len(octets), dtype=bool) for _ in range(4))
    thresholds = (0.3, 0.299, 0.1, 0.5)
    entangle._below(rng, thresholds, outs, np.empty(8))  # type: ignore[arg-type]
    assert rng.exhausted()
    assert [o.tolist() for o in outs] == [
        [True, True, False, False, True],  # V < 0.8 at trial 0, not at trial 3
        [False, True, False, False, True],  # V = 0.6 is above 256 * 0.299 - 76
        [False, False, False, False, True],  # V = 0.7 is above 256 * 0.1 - 25
        [True, True, False, True, True],
    ]


def _raw_octets(seed: np.random.SeedSequence, n: int) -> np.ndarray:
    """The first ``n`` bytes, little-endian, of the PCG64 words of ``seed``."""
    raw = np.random.PCG64(seed).random_raw(-(-n // 8))
    return raw.astype("<u8").view(np.uint8)[:n]


@pytest.mark.parametrize("k", [0, 1, 77, 128, 255, 256])
def test_below_reads_byte_i_as_trial_i(k: int) -> None:
    # At t = k/256 (including t = 0 and t = 1) the byte decides every
    # trial and no double is drawn; the flags must be byte i of the
    # little-endian PCG64 words below k, on any host byte order. An odd
    # row length leaves part of the last word unused.
    n = 1001
    seed = np.random.SeedSequence(23)
    counts = {"random": 0, "integer bytes": 0}
    rng = _CountingGenerator(np.random.default_rng(seed), counts)
    out = np.empty(n, dtype=bool)
    entangle._below(rng, (k / 256,), (out,), np.empty(n))  # type: ignore[arg-type]
    assert np.array_equal(out, _raw_octets(seed, n).astype(int) < k)
    assert counts == {"random": 0, "integer bytes": 8 * -(-n // 8)}


def test_below_draws_one_double_per_tied_trial() -> None:
    # Ties go through Generator.random(out=...), one double per trial tied
    # with any threshold that is not a multiple of 1/256.
    n = 20000
    seed = np.random.SeedSequence(29)
    counts = {"random": 0, "integer bytes": 0}
    rng = _CountingGenerator(np.random.default_rng(seed), counts)
    outs = tuple(np.empty(n, dtype=bool) for _ in range(3))
    entangle._below(rng, (0.3, 0.299, 0.1), outs, np.empty(n))  # type: ignore[arg-type]
    octets = _raw_octets(seed, n)
    assert counts["random"] == int(np.count_nonzero((octets == 76) | (octets == 25)))
    assert counts["integer bytes"] == n


@pytest.mark.parametrize("seed", range(6))
def test_emitter_flags_nest(seed: int) -> None:
    # det1 (emits in round 1, detected) lies inside emit; det2 (emits in
    # round 2, detected) lies outside it. Parameters include ones whose
    # thresholds tie at the same byte, and the ends of [0, 1].
    gen = np.random.default_rng(seed)
    params = [(float(gen.random()), float(gen.random())) for _ in range(8)]
    params += [(0.3, 0.999), (0.5, 0.001), (0.0, 0.5), (1.0, 0.5)]
    params += [(0.4, 0.0), (0.4, 1.0)]
    n = 4099
    rows = np.empty((3, n), dtype=bool)
    rng = np.random.default_rng(100 + seed)
    for p_e, eta in params:
        entangle._mc_emitter(rng, p_e, eta, np.empty(n), rows[0], rows[1], rows[2])
        emit, det1, det2 = rows
        assert not np.any(det1 & ~emit), (p_e, eta)
        assert not np.any(det2 & emit), (p_e, eta)
        if p_e in (0.0, 1.0):
            assert np.all(emit == bool(p_e))
        if eta == 0.0:
            assert not np.any(det1 | det2)
        if eta == 1.0:
            assert np.all(det1 == emit) and np.all(det2 == ~emit)


@pytest.mark.parametrize("p", [0.02, 0.98])
def test_sparse_bernoulli_places_geometric_gaps(p: float) -> None:
    # 1 - U = (1 - rare)^(k + 1/2) leaves exactly k trials before the next
    # rare outcome; the gaps 3, 0, 5 and then one past the row give
    # outcomes at 3, 4 and 10 of 12.
    rare = min(p, 1.0 - p)
    gaps = [3, 0, 5, 40]
    uniforms = [1.0 - (1.0 - rare) ** (k + 0.5) for k in gaps] + [0.0] * 20
    out = np.empty(12, dtype=bool)
    rng = _ScriptedGenerator(uniforms)
    entangle._bernoulli(rng, p, np.empty(12), out)  # type: ignore[arg-type]
    expected = np.zeros(12, dtype=bool)
    expected[[3, 4, 10]] = True
    assert np.array_equal(out, expected if p < 0.5 else ~expected)


@pytest.mark.parametrize("p", [0.0, 4.0e-3, 0.06, 0.3, 0.94, 0.996, 1.0])
def test_bernoulli_frequencies(p: float) -> None:
    # Row counts over 40 seeds, on a full chunk (several gap batches at
    # p = 0.06 and 0.94) and on a short odd row, must look binomial; each
    # half of the long row must carry its share.
    for n in (entangle._MC_CHUNK, 999):
        u, out = np.empty(n), np.empty(n, dtype=bool)
        z, halves = [], []
        for seed in range(40):
            entangle._bernoulli(np.random.default_rng(seed), p, u, out)
            count = int(np.count_nonzero(out))
            if p in (0.0, 1.0):
                assert count == round(p * n)
                continue
            z.append((count - n * p) / math.sqrt(n * p * (1.0 - p)))
            halves.append(int(np.count_nonzero(out[: n // 2])) - count * (n // 2) / n)
        if not z:
            continue
        mean = sum(z) / len(z)
        sd = math.sqrt(sum((v - mean) ** 2 for v in z) / (len(z) - 1))
        assert abs(mean) <= 3.0 / math.sqrt(len(z))
        assert abs(sd - 1.0) <= 3.0 / math.sqrt(2.0 * (len(z) - 1))
        # Given the count, the first half's share of it is hypergeometric,
        # with an sd of about sqrt(n p (1 - p)) / 2.
        half_sd = math.sqrt(n * p * (1.0 - p)) / 2.0
        assert abs(sum(halves) / len(halves)) <= 3.0 * half_sd / math.sqrt(len(halves))


def test_fair_bits_are_balanced_and_uncorrelated() -> None:
    # The photons' arm is symmetric with the two arms' dark clicks, so no
    # protocol statistic sees a biased or correlated arm bit; check the
    # bits themselves. Each eighth of the row comes from one bit offset.
    n = 1 << 16
    bits = entangle._fair_bits(np.random.default_rng(5), np.empty(n, dtype=bool))
    blocks = bits.reshape(8, -1).astype(float)
    m = blocks.shape[1]
    assert np.all(np.abs(blocks.mean(axis=1) - 0.5) <= 4.0 * 0.5 / math.sqrt(m))
    corr = np.corrcoef(blocks)[np.triu_indices(8, 1)]
    assert np.all(np.abs(corr) <= 4.0 / math.sqrt(m))
    assert abs(np.corrcoef(bits[:-1], bits[1:])[0, 1]) <= 4.0 / math.sqrt(n)


def test_montecarlo_draws_are_raw_pcg64_words() -> None:
    # The sampler draws only through Generator.random (doubles) and
    # full-range uint64 Generator.integers. Both are fixed functions of the
    # PCG64 words, so the pinned streams hold on every NumPy release where
    # these identities do.
    def fresh() -> np.random.SeedSequence:
        return np.random.SeedSequence(17).spawn(2)[1]

    raw = np.random.PCG64(fresh()).random_raw(6)
    words = np.random.default_rng(fresh()).integers(0, 1 << 64, size=6, dtype=np.uint64)
    assert np.array_equal(words, raw)
    doubles = np.random.default_rng(fresh()).random(out=np.empty(6))
    assert np.array_equal(doubles, (raw >> np.uint64(11)) * 2.0**-53)
