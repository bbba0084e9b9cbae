"""Electromechanical transducer: closed forms against the generic engine."""

from __future__ import annotations

import math

import numpy as np
import pytest

from modescatter import (
    ConfigurationError,
    DomainError,
    DoubledDynamics,
    ElectromechParams,
    NearSingularError,
    NoiseEnvironment,
    ValidityWarning,
    assemble_dynamics,
    bose_occupancy,
    build_model,
    closed_form_row,
    eta,
    locate_peak,
    oracle_deviation,
    peak_eta,
    peak_eta_formula,
    peak_noise,
    peak_noise_formula,
    scattering_matrix,
    susceptibilities,
    transfer_row,
)
from modescatter import scattering
from modescatter.cli import main
from modescatter.electromech import _golden_max
from modescatter.modelfile import electromech_params, get_builtin

TAU = 2.0 * math.pi


def test_params_apply_matched_defaults() -> None:
    p = ElectromechParams()
    assert p.gamma_wg == pytest.approx(p.g**2 / p.gamma_tx, rel=1e-15)
    assert p.omega_drive == pytest.approx(p.omega_lc - p.omega_m, rel=1e-15)
    assert p.detuning == pytest.approx(p.omega_m, rel=1e-12)
    assert p.conversion_rate == pytest.approx(p.g**2 / p.gamma_tx, rel=1e-15)


def test_params_sideband_leakage() -> None:
    p = ElectromechParams()
    half = p.gamma_tx / 2.0
    expected = half**2 / ((2.0 * p.omega_m) ** 2 + half**2)
    assert p.sideband_leakage == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"omega_m": 0.0},
        {"omega_m": TAU * 6.0e9},  # above omega_lc
        {"g": 0.0},
        {"g": -1.0},
        {"gamma_tx": 0.0},
        {"gamma_wg": -1.0},
        {"gamma_m": -1.0},
        {"t_tx": -0.1},
        {"t_m": math.inf},
    ],
)
def test_params_reject_bad_values(kwargs: dict[str, float]) -> None:
    with pytest.raises(ConfigurationError):
        ElectromechParams(**kwargs)


def test_susceptibilities_dressing_identity() -> None:
    p = ElectromechParams()
    chi = susceptibilities(p, 0.93 * p.omega_m)
    inv_bare = 1.0 / chi.chi_m0
    dressed = 1.0 / (inv_bare - p.g**2 * (chi.chi_lc_plus + chi.chi_lc_minus))
    assert chi.chi_m == pytest.approx(dressed, rel=1e-14)


def test_susceptibilities_electrical_centers() -> None:
    # On the lower-sideband drive the co-rotating response peaks at
    # omega = detuning = omega_m.
    p = ElectromechParams()
    chi = susceptibilities(p, p.omega_m)
    assert chi.chi_lc_plus == pytest.approx(0.5 / (-0.5j * p.gamma_tx), rel=1e-9)


def test_build_model_structure() -> None:
    p = ElectromechParams()
    model = build_model(p)
    names = [q.name for q in model.ports]
    assert names == ["wg", "mech_loss", "tx"]
    assert model.signal_port.name == "tx"
    assert model.exit_port.name == "wg"
    by_name = {q.name: q for q in model.ports}
    assert by_name["wg"].flavor == "lab-quadrature"
    assert by_name["tx"].flavor == "rotating"
    assert by_name["wg"].rate == pytest.approx(p.gamma_wg)
    assert by_name["tx"].rate == pytest.approx(p.gamma_tx)
    assert by_name["mech_loss"].rate == pytest.approx(p.gamma_m)
    mech = model.modes[0]
    assert mech.band.center_frequency == 0.0
    assert mech.frame == "lab-quadrature"


def test_build_model_omits_zero_rate_loss_port() -> None:
    p = ElectromechParams(gamma_m=0.0)
    model = build_model(p)
    assert [q.name for q in model.ports] == ["wg", "tx"]


def test_engine_matches_closed_form_row() -> None:
    p = ElectromechParams()
    dyn = assemble_dynamics(build_model(p))
    for factor in (0.6, 0.95, 1.0, 1.05, 1.4):
        omega = factor * p.omega_m
        engine = transfer_row(scattering_matrix(dyn, omega))
        closed = closed_form_row(p, omega)
        assert set(engine.u_coeffs) == set(closed.u_coeffs)
        assert set(engine.v_coeffs) == set(closed.v_coeffs)
        assert sorted(engine.dropped) == sorted(closed.dropped)
        for block in ("u_coeffs", "v_coeffs"):
            for name, ref in getattr(closed, block).items():
                got = getattr(engine, block)[name]
                assert got == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_engine_matches_closed_form_without_loss_port() -> None:
    p = ElectromechParams(gamma_m=0.0)
    dyn = assemble_dynamics(build_model(p))
    omega = 1.02 * p.omega_m
    engine = transfer_row(scattering_matrix(dyn, omega))
    closed = closed_form_row(p, omega)
    assert set(engine.u_coeffs) == {"wg", "tx"}
    for name, ref in closed.u_coeffs.items():
        assert engine.u_coeffs[name] == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_closed_form_row_requires_positive_frequency() -> None:
    with pytest.raises(DomainError):
        closed_form_row(ElectromechParams(), 0.0)
    with pytest.raises(DomainError):
        closed_form_row(ElectromechParams(), -1.0e6)


@pytest.mark.parametrize(
    "overrides", [{}, {"g": 8.0e4, "t_m": 0.0}], ids=["defaults", "override"]
)
def test_oracle_deviation_on_the_builtin(
    overrides: dict[str, float], capsys: pytest.CaptureFixture[str]
) -> None:
    # Overrides in Hz / kelvin, as `--set` passes them.
    params = electromech_params(overrides)
    dyn = assemble_dynamics(get_builtin("electromech", overrides))
    deviation = oracle_deviation(params, dyn)
    assert deviation < 1e-6
    # The dynamics of other parameters than the closed form's fail the oracle.
    other = assemble_dynamics(get_builtin("electromech", {"g": 2.0e4}))
    assert oracle_deviation(params, other) > 1e-6

    argv = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    assert main(["validate", "--builtin", "electromech", *argv]) == 0
    line = f"oracle: closed-form row max relative deviation = {deviation:.3e}"
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "overrides",
    [{}, {"gamma_m": TAU * 1.0e3}, {"g": TAU * 2.0e4}, {"t_wg": 0.0}, {"gamma_tx": TAU * 3.0e5}],
    ids=["default", "gamma_m", "g", "cold-waveguide", "gamma_tx"],
)
def test_oracle_solves_its_five_frequencies_in_one_block(
    monkeypatch: pytest.MonkeyPatch, overrides: dict[str, float]
) -> None:
    # One block at the five +omega points, and the value of the upper rows
    # of transfer_pair at each of them, bit for bit.
    p = ElectromechParams(**overrides)
    dyn = assemble_dynamics(build_model(p))
    omegas = [factor * p.omega_m for factor in (0.5, 0.9, 1.0, 1.1, 1.5)]
    worst = 0.0
    for omega in omegas:
        up, _ = scattering.transfer_pair(dyn, omega)
        ref = closed_form_row(p, omega)
        num, want = (
            np.array([c[k] for c in (row.u_coeffs, row.v_coeffs) for k in sorted(c)])
            for row in (up, ref)
        )
        worst = max(worst, float(np.max(np.abs(num - want))) / float(np.max(np.abs(want))))
    solve_block = scattering._solve_block
    solved: list[list[float]] = []

    def record(dyn: DoubledDynamics, omegas: np.ndarray) -> tuple:
        solved.append(omegas.tolist())
        return solve_block(dyn, omegas)

    monkeypatch.setattr(scattering, "_solve_block", record)
    assert oracle_deviation(p, dyn) == worst
    assert solved == [omegas]


def test_peak_eta_formula_limits() -> None:
    assert peak_eta_formula(1.0, 0.0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # Halving the readout rate relative to matching costs symmetric loss.
    assert peak_eta_formula(0.5, 0.0, 1.0, 0.0) == pytest.approx(
        8.0 / 9.0, rel=1e-15
    )


def test_peak_formulas_match_located_peak() -> None:
    p = ElectromechParams()
    estimate = locate_peak(p)
    assert abs(estimate.omega - p.omega_m) < 1e-3 * p.omega_m
    assert estimate.eta == pytest.approx(peak_eta(p), rel=1e-3)
    assert estimate.noise == pytest.approx(peak_noise(p), rel=0.05)


def test_located_peak_of_a_narrow_line_at_high_frequency() -> None:
    # The tolerance, 1e-9 of the ~7 rad/s linewidth, is below the float
    # spacing at 2 pi GHz: the search still ends, and lands on the
    # closed-form peak.
    calls = 0

    def bump(x: float) -> float:
        nonlocal calls
        calls += 1
        assert calls < 1000, "golden-section search did not end"
        return -((x - TAU * 1.0e9) ** 2)

    assert _golden_max(bump, TAU * 1.0e9 - 10.0, TAU * 1.0e9 + 20.0, 1e-9) == (
        pytest.approx(TAU * 1.0e9, abs=1e-5)
    )
    p = ElectromechParams(
        omega_m=TAU * 1.0e9,
        omega_lc=TAU * 5.0e10,
        g=TAU * 10.0,
        gamma_tx=TAU * 100.0,
        gamma_m=TAU * 0.01,
        gamma_wg=TAU * 1.0,
    )
    estimate = locate_peak(p)
    assert estimate.eta == pytest.approx(peak_eta(p), rel=1e-9)
    assert estimate.noise == pytest.approx(peak_noise(p), rel=1e-9)


def test_located_peak_refuses_a_failed_scan_point(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A coarse point the sweep records as failed holds NaN, which np.argmax
    # would pick; the search must raise instead of refining around it.
    solve_block = scattering._solve_block

    def fail_one(dyn: DoubledDynamics, omegas: np.ndarray) -> tuple:
        inv, good, cond = solve_block(dyn, omegas)
        if omegas.size > 2:
            good[3], cond[3] = False, 2.0 * scattering.CONDITION_LIMIT
        return inv, good, cond

    monkeypatch.setattr(scattering, "_solve_block", fail_one)
    with pytest.raises(NearSingularError, match="condition estimate 2.000e"):
        locate_peak(ElectromechParams())


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"gamma_m": TAU * 1.0e3},
        {"g": TAU * 2.0e4},
        {"t_wg": 0.0},
        {"gamma_tx": TAU * 3.0e5},
    ],
    ids=["default", "gamma_m", "g", "cold-waveguide", "gamma_tx"],
)
def test_located_peak_solves_only_the_upper_sideband(
    monkeypatch: pytest.MonkeyPatch, overrides: dict[str, float]
) -> None:
    # After the scan, every solve is one +omega point, and the located eta
    # and noise are those of the upper row of transfer_pair, bit for bit.
    p = ElectromechParams(**overrides)
    dyn = assemble_dynamics(build_model(p))
    solve_block = scattering._solve_block
    solved: list[list[float]] = []

    def record(dyn: DoubledDynamics, omegas: np.ndarray) -> tuple:
        solved.append(omegas.tolist())
        return solve_block(dyn, omegas)

    monkeypatch.setattr(scattering, "_solve_block", record)
    estimate = locate_peak(p, dyn=dyn)
    monkeypatch.undo()
    assert len(solved[0]) == 257
    assert all(len(omegas) == 1 and omegas[0] > 0.0 for omegas in solved[1:])
    assert solved[-1] == [estimate.omega]
    up, _ = scattering.transfer_pair(dyn, estimate.omega)
    assert estimate.eta == eta(up)
    env = NoiseEnvironment.from_dynamics(dyn)
    assert estimate.noise == scattering.added_noise(up, env)


def test_peak_noise_env_override_matches_temperatures() -> None:
    p = ElectromechParams()
    image = p.omega_lc - 2.0 * p.omega_m
    env = NoiseEnvironment.constant(
        {
            "tx": bose_occupancy(image, p.t_tx),
            "wg": bose_occupancy(p.omega_m, p.t_wg),
            "mech_loss": bose_occupancy(p.omega_m, p.t_m),
        }
    )
    assert peak_noise(p, env) == pytest.approx(peak_noise(p), rel=1e-14)


def test_peak_noise_formula_channel_sum() -> None:
    leakage = 1.0e-4
    value = peak_noise_formula(1.0, 0.1, 1.0, leakage, 2.0, 3.0, 4.0)
    efficiency = peak_eta_formula(1.0, 0.1, 1.0, leakage)
    reflect = (1.0 - 1.0 / math.sqrt(efficiency)) ** 2
    expected = leakage * 3.0 + 0.1 * 3.0 + reflect * 4.0
    assert value == pytest.approx(expected, rel=1e-12)


def test_peak_formula_warns_outside_regime() -> None:
    bad = ElectromechParams(gamma_tx=TAU * 4.0e6)  # gamma_tx > omega_m / 2
    with pytest.warns(ValidityWarning):
        peak_eta(bad)


def test_peak_formula_warns_off_lower_sideband() -> None:
    p = ElectromechParams(omega_drive=TAU * (5.0e9 - 2.5e6))
    with pytest.warns(ValidityWarning):
        peak_eta(p)


def test_upper_sideband_efficiency_profile() -> None:
    # The conversion line is narrow (width ~ gamma_wg + conversion rate);
    # a detuning of many linewidths suppresses the efficiency.
    p = ElectromechParams()
    dyn = assemble_dynamics(build_model(p))
    on = eta(transfer_row(scattering_matrix(dyn, p.omega_m)))
    off = eta(transfer_row(scattering_matrix(dyn, 1.5 * p.omega_m)))
    assert on > 0.9
    assert off < 1e-3
