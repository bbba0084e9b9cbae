"""Acceptance gate: one test per shipped guarantee, at its stated tolerance.

Each test is self-contained and exercises the library through its public
API only; tolerances and ensemble sizes match the package's documented
commitments, so a red line here means a real regression rather than a
flaky fixture.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from conftest import TAU, plain_row, synthetic_row_pair

from modescatter import (
    ElectromechParams,
    NoiseEnvironment,
    ProtocolSpec,
    SpectrumGrid,
    assemble_dynamics,
    build_model,
    closed_form_row,
    dark_count_rate,
    entangle_fidelity_asymptotic,
    entangle_fidelity_exact,
    heterodyne_sensitivity,
    locate_peak,
    noise_commutator_residual,
    oracle_deviation,
    peak_eta,
    peak_eta_formula,
    peak_noise,
    protocol_enumerate,
    protocol_montecarlo,
    qubit_fidelity,
    random_stable_model,
    scattering_matrix,
    spectrum_sweep,
    sum_rule_residual,
    symplectic_residual,
    transfer_pair,
)
from modescatter.optimize import OptimizeSpec, run_optimization

_ENSEMBLE_SEED = 20260825


def _probe_grid(dyn_matrix: np.ndarray, count: int = 50) -> np.ndarray:
    scale = float(np.max(np.abs(np.linalg.eigvals(dyn_matrix))))
    return np.geomspace(0.01 * scale, 10.0 * scale, count)


def test_c01_symplectic_identity_on_random_ensemble() -> None:
    # 100 random stable networks x 50 frequencies each; the doubled-basis
    # scattering matrix must preserve the commutation metric to 1e-9.
    rng = np.random.default_rng(_ENSEMBLE_SEED)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        dyn = assemble_dynamics(random_stable_model(rng))
        for omega in _probe_grid(dyn.dyn_matrix):
            s = scattering_matrix(dyn, float(omega))
            worst = max(worst, symplectic_residual(s.matrix, dyn.metric))
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 30.0


def test_c02_sum_rule_and_noise_commutator_on_random_ensemble() -> None:
    # Same ensemble (same seed): transfer-row flux balance and the noise
    # commutator identity both hold to 1e-9 on every physical row.
    rng = np.random.default_rng(_ENSEMBLE_SEED)
    worst_sum = 0.0
    worst_comm = 0.0
    for _ in range(100):
        dyn = assemble_dynamics(random_stable_model(rng))
        for omega in _probe_grid(dyn.dyn_matrix):
            for row in transfer_pair(dyn, float(omega)):
                worst_sum = max(worst_sum, abs(sum_rule_residual(row)))
                worst_comm = max(worst_comm, abs(noise_commutator_residual(row)))
    assert worst_sum < 1e-9
    assert worst_comm < 1e-9


def test_c03_electromech_closed_form_oracle() -> None:
    # The generic engine and the independent closed-form row must agree to
    # relative 1e-8 over 1000 frequencies, and coefficient by coefficient
    # (to 1e-9) around the resonance for several parameter sets, which
    # pins every sign and scale between the two derivations.
    param_sets = (
        ElectromechParams(),
        ElectromechParams(g=TAU * 8.0e4, gamma_tx=TAU * 2.5e5, t_tx=0.1),
        ElectromechParams(omega_m=TAU * 1.2e7, gamma_m=TAU * 40.0, t_m=0.3),
    )
    for p in param_sets:
        assert oracle_deviation(p, assemble_dynamics(build_model(p))) < 1e-9

    p = param_sets[0]
    dyn = assemble_dynamics(build_model(p))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.geomspace(0.3 * p.omega_m, 3.0 * p.omega_m, 1000)
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures
    worst = 0.0
    for i, omega in enumerate(omegas):
        engine = grid.rows_up[i]
        ref = closed_form_row(p, float(omega))
        num = np.array(
            [engine.u_coeffs[k] for k in sorted(engine.u_coeffs)]
            + [engine.v_coeffs[k] for k in sorted(engine.v_coeffs)]
        )
        want = np.array(
            [ref.u_coeffs[k] for k in sorted(ref.u_coeffs)]
            + [ref.v_coeffs[k] for k in sorted(ref.v_coeffs)]
        )
        assert num.shape == want.shape
        worst = max(
            worst, float(np.max(np.abs(num - want)) / np.max(np.abs(want)))
        )
    assert worst < 1e-8


def test_c04_peak_formulas_converge_under_rate_downscaling() -> None:
    # Resolved-sideband peak formulas: < 1% at the base point, and the
    # numeric-vs-formula error shrinks monotonically when every coupling
    # and decay rate is scaled down jointly (frequencies held fixed).
    eta_errors = []
    noise_errors = []
    for s in (1.0, 0.5, 0.25):
        worst_noise = 0.0
        eta_err = 0.0
        for temp in (0.0, 0.03, 4.0):
            p = ElectromechParams(
                omega_m=TAU * 2.0e7,
                omega_lc=TAU * 5.0e9,
                g=TAU * 5.0e4 * s,
                gamma_tx=TAU * 1.0e5 * s,
                gamma_m=TAU * 10.0 * s,
                t_tx=temp,
                t_wg=temp,
                t_m=temp,
            )
            peak = locate_peak(p)
            eta_err = abs(peak.eta - peak_eta(p)) / peak_eta(p)
            assert eta_err < 0.01
            want = peak_noise(p)
            noise_err = abs(peak.noise - want) / want
            assert noise_err < 0.01
            worst_noise = max(worst_noise, noise_err)
        eta_errors.append(eta_err)
        noise_errors.append(worst_noise)
    assert eta_errors[0] > eta_errors[1] > eta_errors[2]
    assert noise_errors[0] > noise_errors[1] > noise_errors[2]


def test_c05_ideal_matched_limit() -> None:
    # Deep resolved sidebands (ratio 1e-3), matched readout, no intrinsic
    # mechanical loss, zero temperature: unit efficiency and negligible
    # added noise, plus the exact closed-form substitution points.
    p = ElectromechParams(
        omega_m=TAU * 1.0e8,
        omega_lc=TAU * 5.0e9,
        g=TAU * 5.0e4,
        gamma_tx=TAU * 1.0e5,
        gamma_m=0.0,
        t_tx=0.0,
        t_wg=0.0,
        t_m=0.0,
    )
    assert p.gamma_tx / p.omega_m == pytest.approx(1e-3, rel=1e-12)
    assert p.gamma_wg == pytest.approx(p.g**2 / p.gamma_tx, rel=1e-12)
    peak = locate_peak(p)
    assert 0.99 <= peak.eta <= 1.01
    assert peak.noise < 1e-2
    assert peak_eta_formula(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert peak_eta_formula(1.0, 1.0, 1.0, 0.0) == pytest.approx(
        4.0 / 9.0, abs=1e-12
    )
    assert peak_eta_formula(1.0, 0.0, 1.0, 0.5) == pytest.approx(
        16.0 / 9.0, abs=1e-12
    )


def test_c06_heterodyne_sensitivity_bound() -> None:
    # 1000 random physical row pairs never beat the Cauchy-Schwarz ceiling;
    # the ideal and balanced-sideband references are exact; the ceiling
    # approaches 1 as the phase-conjugating leak vanishes.
    rng = np.random.default_rng(617)
    for _ in range(1000):
        up, dn, env = synthetic_row_pair(rng)
        result = heterodyne_sensitivity(up, dn, env)
        assert result.p_s <= result.bound + 1e-9

    up = plain_row(TAU * 1.0e6, {"s": 1.0}, {})
    dn = plain_row(-TAU * 1.0e6, {"e": 1.0}, {})
    env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
    assert heterodyne_sensitivity(up, dn, env).p_s == pytest.approx(
        1.0, abs=1e-12
    )

    r = math.sqrt(0.5)
    up = plain_row(TAU * 1.0e6, {"s": r, "n1": r, "n2": 0.0}, {})
    dn = plain_row(-TAU * 1.0e6, {"n2": math.sqrt(1.5)}, {"s": r, "n1": 0.0})
    env = NoiseEnvironment.constant(
        {"s": 0.0, "e": 0.0, "n1": 1.0, "n2": 1.0 / 3.0}
    )
    assert heterodyne_sensitivity(up, dn, env).p_s == pytest.approx(
        1.5, abs=1e-12
    )

    previous = math.inf
    for eps in (1.0e-4, 1.0e-8, 1.0e-14):
        up = plain_row(TAU * 1.0e6, {"s": 1.0}, {})
        dn = plain_row(
            -TAU * 1.0e6, {"e": math.sqrt(1.0 + eps)}, {"s": math.sqrt(eps)}
        )
        env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
        gap = abs(heterodyne_sensitivity(up, dn, env).bound - 1.0)
        assert gap < previous
        previous = gap
    assert previous < 1e-6


def test_c07_qubit_fidelity_reference_values() -> None:
    assert qubit_fidelity(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert qubit_fidelity(1.0, 0.06) == pytest.approx(0.9, abs=1e-12)
    assert qubit_fidelity(0.96, 0.0) == pytest.approx(
        0.9865986323710904, abs=1e-5
    )


def _reference_grid(
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


def test_c08_counting_bandwidth_reference_values() -> None:
    # Lorentzian efficiency with flat noise: the overlap bandwidth is
    # kappa/4 within 0.1%, stable under grid doubling; a flat band of
    # width W gives exactly W / (2 pi).
    center = TAU * 5.0e6
    kappa = TAU * 100.0
    half = kappa / 2.0
    values = []
    for points in (30001, 60001):
        omegas = np.linspace(
            center - 3000.0 * kappa, center + 3000.0 * kappa, points
        )
        eta = 0.8 * half**2 / ((omegas - center) ** 2 + half**2)
        grid = _reference_grid(omegas, eta, np.full_like(omegas, 0.25))
        bandwidth = dark_count_rate(grid, center).bandwidth
        assert bandwidth == pytest.approx(kappa / 4.0, rel=1e-3)
        values.append(bandwidth)
    assert abs(values[0] - values[1]) / values[1] < 1e-3

    width = TAU * 2.0e4
    omegas = np.linspace(center - width / 2.0, center + width / 2.0, 4001)
    grid = _reference_grid(
        omegas, np.full_like(omegas, 0.5), np.full_like(omegas, 2.0)
    )
    assert dark_count_rate(grid, center).bandwidth == pytest.approx(
        width / TAU, rel=1e-6
    )


def test_c09_entanglement_exact_vs_enumeration_and_montecarlo() -> None:
    start = time.monotonic()
    worst = 0.0
    for scheme in ("one-click", "two-click"):
        for p_e in np.linspace(0.1, 1.0, 10):
            for p_d in np.geomspace(1.0e-6, 0.3, 10):
                for eff in np.linspace(0.0, 1.0, 10):
                    spec = ProtocolSpec(
                        scheme, float(p_e), float(p_d), float(eff)
                    )
                    a = entangle_fidelity_exact(spec)
                    b = protocol_enumerate(spec)
                    gap = max(
                        abs(a.fidelity - b.fidelity),
                        abs(a.success_probability - b.success_probability),
                        abs(
                            a.photon_herald_probability
                            - b.photon_herald_probability
                        ),
                        max(
                            abs(a.populations[k] - b.populations[k])
                            for k in a.populations
                        ),
                    )
                    worst = max(worst, gap)
    assert worst <= 1e-12

    # Two-click heralding filters every dark-free error pattern.
    assert (
        entangle_fidelity_exact(ProtocolSpec("two-click", 0.37, 0.0, 0.81)).fidelity
        == pytest.approx(1.0, abs=1e-15)
    )
    # One-click with perfect detection: double-excitation floor only.
    assert entangle_fidelity_exact(
        ProtocolSpec("one-click", 0.1, 0.0, 1.0)
    ).fidelity == pytest.approx(1.8 / 1.9, abs=1e-12)

    # Small-noise optimum and its agreement with the exact result there.
    asym = entangle_fidelity_asymptotic(ProtocolSpec("one-click", 0.01, 1.0e-6, 0.01))
    assert asym.fidelity_opt == pytest.approx(0.98005, abs=1e-5)
    exact_at_opt = entangle_fidelity_exact(
        ProtocolSpec("one-click", asym.p_e_opt, 1.0e-6, 0.01)
    ).fidelity
    assert abs(asym.fidelity_opt - exact_at_opt) < 1e-3

    # Monte Carlo agrees with enumeration within 3 standard errors.
    mc_spec = ProtocolSpec("one-click", 0.2, 0.01, 0.5)
    enum = protocol_enumerate(mc_spec)
    mc = protocol_montecarlo(mc_spec, 1_000_000, seed=2026)
    assert abs(mc.fidelity - enum.fidelity) <= 3.0 * mc.fidelity_stderr
    assert (
        abs(mc.success_probability - enum.success_probability)
        <= 3.0 * mc.success_stderr
    )
    assert time.monotonic() - start < 60.0


def test_c10_optimizer_recovers_matched_readout() -> None:
    # Starting from a deliberately over-coupled waveguide, the bounded
    # search finds the matched readout rate g**2 / gamma_tx within 1%
    # using fewer than 200 objective evaluations.
    p = ElectromechParams(gamma_wg=TAU * 3.0e5)
    spec = OptimizeSpec(
        variables=(("ports.wg.rate", TAU * 1.0e3, TAU * 1.0e6),),
        objective="max-eta",
        omega_sig=p.omega_m,
        budget=150,
        seed=0,
    )
    result = run_optimization(build_model(p), spec)
    matched = p.g**2 / p.gamma_tx
    assert result.n_evals <= 150 < 200
    best = result.best_params["ports.wg.rate"]
    assert abs(best - matched) / matched < 0.01


def test_c11_dense_sweep_completes_quickly() -> None:
    p = ElectromechParams()
    dyn = assemble_dynamics(build_model(p))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.linspace(0.5 * p.omega_m, 1.5 * p.omega_m, 10_000)
    start = time.monotonic()
    grid = spectrum_sweep(dyn, env, omegas)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert not grid.failures
    assert bool(np.all(np.isfinite(grid.eta_up)))
