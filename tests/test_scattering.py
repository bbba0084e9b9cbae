"""Scattering matrices, transfer rows, spectra and their invariants."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from conftest import TAU, near_singular_model, two_mode_converter, wide_model
from hypothesis import given, settings
from hypothesis import strategies as st

from modescatter import (
    Band,
    ConfigurationError,
    Coupling,
    Drive,
    InternalMode,
    Port,
    SpectrumGrid,
    TransducerModel,
    DomainError,
    NearSingularError,
    NoiseEnvironment,
    UndefinedNoiseError,
    added_noise,
    assemble_dynamics,
    bose_occupancy,
    consistency_checks,
    eta,
    noise_commutator_residual,
    noise_flux,
    physical_slot_mask,
    random_stable_model,
    scattering_matrix,
    spectrum_sweep,
    sum_rule_residual,
    symplectic_residual,
    transfer_pair,
    transfer_row,
)
from modescatter import scattering
from modescatter.errors import ModeScatterError
from modescatter.modelfile import get_builtin
from modescatter.network import DoubledDynamics
from modescatter.scattering import _BLOCK, CONDITION_LIMIT


def _converter_cooperativity(g_hz: float, kappa_hz: float) -> float:
    g = TAU * g_hz
    kappa = TAU * kappa_hz
    return 4.0 * g**2 / (kappa * kappa)


def test_bose_occupancy_zero_temperature() -> None:
    assert bose_occupancy(TAU * 5.0e9, 0.0) == 0.0


def test_physical_constants_are_scipys_floats() -> None:
    # The exact SI values, written out so that importing the package does
    # not load SciPy; every occupancy keeps its bits.
    import scipy.constants

    assert scattering.hbar == scipy.constants.hbar
    assert scattering.k_boltzmann == scipy.constants.k


def test_bose_occupancy_classical_limit() -> None:
    # k T >> hbar omega: occupancy approaches kT / (hbar omega) - 1/2.
    from scipy.constants import hbar, k

    omega = TAU * 5.0e6
    t = 0.03
    classical = k * t / (hbar * omega)
    value = bose_occupancy(omega, t)
    assert value == pytest.approx(classical - 0.5, rel=1e-3)


def test_bose_occupancy_deep_quantum_tail() -> None:
    # Far above the expm1 cutoff only the exponential tail survives.
    from scipy.constants import hbar, k

    omega = TAU * 5.0e9
    t = hbar * omega / (k * 800.0)  # x = 800 > 700 cutoff
    assert bose_occupancy(omega, t) == pytest.approx(math.exp(-800.0), rel=1e-12)


def test_bose_occupancy_rejects_nonpositive_frequency() -> None:
    with pytest.raises(DomainError):
        bose_occupancy(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_occupancy(-1.0, 1.0)


def test_bose_occupancy_rejects_negative_temperature() -> None:
    with pytest.raises(DomainError):
        bose_occupancy(1.0e9, -0.1)


@pytest.mark.parametrize("temperature", [0.0, 1.0e-3, 0.05, 2.0])
def test_bose_array_follows_bose_occupancy_point_by_point(temperature: float) -> None:
    # Every branch of the scalar rule, at every point: masked points (some
    # at negative lab frequencies) and T = 0 give +0.0, x <= 700 gives
    # 1/expm1(x) (700 itself and its neighbours included), the tail
    # exp(-x), floored at exp(-745). NumPy's expm1 and exp are not libm's
    # (SIMD loops on some hosts), so the rule is evaluated with NumPy's
    # functions for the bits, and with bose_occupancy to within 2 ulp.
    t_ref = temperature or 0.05
    xs = np.concatenate(
        [
            np.geomspace(1.0e-9, 40.0, 301),
            np.linspace(650.0, 760.0, 301),
            [np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, 800.0)],
            [745.0, 745.2, 800.0, 1.0e4],
        ]
    )
    omegas = xs * scattering.k_boltzmann * t_ref / scattering.hbar
    valid = np.random.default_rng(7).random(omegas.size) < 0.7
    omegas[~valid & (np.arange(omegas.size) % 2 == 0)] *= -1.0

    got = scattering._bose_array(omegas, temperature, valid)

    def rule(omega: float) -> float:
        if temperature == 0.0:
            return 0.0
        x = scattering.hbar * omega / (scattering.k_boltzmann * temperature)
        if x > 700.0:
            return float(np.exp(-min(x, 745.0)))
        return float(1.0 / np.expm1(x))

    want = np.array([rule(w) if ok else 0.0 for w, ok in zip(omegas.tolist(), valid)])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    scalar = np.array([bose_occupancy(w, temperature) for w in omegas[valid].tolist()])
    floored = (scalar == 0.0) & (got[valid] > 0.0)
    assert np.all(got[valid][floored] == np.exp(-745.0))
    ulps = np.abs(got[valid].view(np.int64) - scalar.view(np.int64))
    assert np.max(ulps[~floored], initial=0) <= 2

    # A stack of slots in one pass: temperatures broadcast down the rows
    # (0 K among them), a constant entry, and each row over every branch,
    # the tail past _EXPM1_CUTOFF included. Each row has the bits of the
    # one-port calls.
    spec = {
        "p": ("temperature", temperature),
        "cold": ("temperature", 0.0),
        "warm": ("temperature", 2.0),
        "fixed": ("constant", 0.7),
        "ref": ("temperature", t_ref),
    }
    env = NoiseEnvironment(spec)
    ports = ["p", "cold", "warm", "fixed", "ref", "warm"]
    lab = np.array([xs * scattering.k_boltzmann * (spec[port][1] or t_ref) for port in ports])
    lab /= scattering.hbar
    masked = np.random.default_rng(11).random(lab.shape) >= 0.7
    lab[masked & (np.arange(lab.shape[1]) % 2 == 0)] *= -1.0
    stacked = env._occupancy_rows(ports)(lab, ~masked)
    assert stacked.shape == lab.shape and stacked[~masked].any()
    for port, row, ok, got_row in zip(ports, lab, ~masked, stacked):
        kind, value = spec[port]
        alone = (
            np.where(ok, value, 0.0)
            if kind == "constant"
            else scattering._bose_array(row, value, ok)
        )
        assert got_row.tobytes() == alone.tobytes(), port
        one_port = env._occupancy_rows([port])(row[None], ok[None])[0]
        assert got_row.tobytes() == one_port.tobytes(), port


def test_environment_constant_and_temperature() -> None:
    env = NoiseEnvironment.constant({"a": 2.5})
    assert env.occupancy("a", 1.0) == 2.5
    env_t = NoiseEnvironment.from_temperatures({"a": 0.0})
    assert env_t.occupancy("a", TAU * 1.0e9) == 0.0


def test_environment_unknown_port_raises() -> None:
    env = NoiseEnvironment.constant({"a": 1.0})
    with pytest.raises(ConfigurationError):
        env.occupancy("b", 1.0)


def test_spectrum_sweep_rejects_a_port_without_occupancy() -> None:
    # The occupancies are read only with the noise, on first read; the
    # sweep still refuses the environment itself.
    dyn = assemble_dynamics(two_mode_converter())
    env = NoiseEnvironment.constant({"sig": 0.0})
    with pytest.raises(ConfigurationError, match="no occupancy defined for port 'out'"):
        spectrum_sweep(dyn, env, np.array([TAU * 1.0e6]), symplectic=False)


def test_environment_from_dynamics_copies_port_temperatures() -> None:
    dyn = assemble_dynamics(two_mode_converter(t_a=0.05, t_b=0.01))
    env = NoiseEnvironment.from_dynamics(dyn)
    assert env.spec["sig"] == ("temperature", 0.05)
    assert env.spec["out"] == ("temperature", 0.01)


def test_converter_efficiency_matches_closed_form() -> None:
    # Matched two-mode conversion: eta(resonance) = 4C/(1+C)^2 with the
    # cooperativity C = 4 g^2 / (kappa_a kappa_b).
    g_hz, kappa_hz, detune_hz = 1.0e6, 4.0e6, 1.0e6
    dyn = assemble_dynamics(two_mode_converter(g_hz, kappa_hz, kappa_hz, detune_hz))
    c = _converter_cooperativity(g_hz, kappa_hz)
    row = transfer_row(scattering_matrix(dyn, TAU * detune_hz))
    assert eta(row) == pytest.approx(4.0 * c / (1.0 + c) ** 2, rel=1e-12)


def test_converter_added_noise_matches_closed_form() -> None:
    # At resonance the only noise reaching the exit is its own thermal
    # back-reflection |S_bb|^2 n_b with S_bb = (C-1)/(C+1).
    g_hz, kappa_hz, detune_hz = 1.0e6, 4.0e6, 1.0e6
    dyn = assemble_dynamics(two_mode_converter(g_hz, kappa_hz, kappa_hz, detune_hz))
    c = _converter_cooperativity(g_hz, kappa_hz)
    n_b = 1.7
    env = NoiseEnvironment.constant({"sig": 0.0, "out": n_b})
    row = transfer_row(scattering_matrix(dyn, TAU * detune_hz))
    efficiency = 4.0 * c / (1.0 + c) ** 2
    reflect = ((c - 1.0) / (c + 1.0)) ** 2
    assert added_noise(row, env) == pytest.approx(
        reflect * n_b / efficiency, rel=1e-10
    )


def test_scattering_matrix_is_quasi_unitary() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    for omega_hz in (1.0e5, 1.0e6, 3.7e6):
        s = scattering_matrix(dyn, TAU * omega_hz)
        assert symplectic_residual(s.matrix, s.metric) < 1e-12


def test_particle_hole_mirror() -> None:
    # S(-omega) equals the slot-swapped conjugate of S(+omega).
    dyn = assemble_dynamics(two_mode_converter())
    omega = TAU * 0.7e6
    s_up = scattering_matrix(dyn, omega).matrix
    s_dn = scattering_matrix(dyn, -omega).matrix
    p = 2
    swap = np.concatenate([np.arange(p, 2 * p), np.arange(0, p)])
    np.testing.assert_allclose(
        s_dn, s_up.conj()[np.ix_(swap, swap)], atol=1e-14
    )


def test_physical_slot_mask_positive_centers() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    mask = physical_slot_mask(dyn.ports, TAU * 1.0e6)
    assert mask.all()
    # A sideband beyond the acoustic band center kills that creation slot.
    mask_far = physical_slot_mask(dyn.ports, TAU * 4.5e9)
    assert mask_far[0] and mask_far[1]
    assert not mask_far[3]


def test_transfer_row_masks_unphysical_columns() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    omega = TAU * 4.5e9  # above the 4 GHz acoustic center
    row = transfer_row(scattering_matrix(dyn, omega))
    assert ("out", "v") in row.dropped
    assert row.v_coeffs["out"] == 0.0j
    assert row.physical_output  # exit lab frequency stays positive


def test_transfer_row_unknown_exit_raises() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    s = scattering_matrix(dyn, TAU * 1.0e6)
    with pytest.raises(ConfigurationError):
        transfer_row(s, exit_port="nope")


def test_transfer_pair_requires_positive_frequency() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    with pytest.raises(DomainError):
        transfer_pair(dyn, -1.0)
    with pytest.raises(DomainError):
        transfer_pair(dyn, 0.0)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_non_finite_frequency_is_domain_error(omega: float) -> None:
    # Rejected before the solve, whose SVD would not converge on NaN entries.
    dyn = assemble_dynamics(two_mode_converter())
    with pytest.raises(DomainError, match="finite frequency"):
        scattering_matrix(dyn, omega)
    with pytest.raises(DomainError, match="positive finite frequency"):
        transfer_pair(dyn, omega)


def test_row_invariants_on_rotating_network() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    for omega_hz in (2.0e5, 1.0e6, 8.0e6):
        up, dn = transfer_pair(dyn, TAU * omega_hz)
        for row in (up, dn):
            assert sum_rule_residual(row) < 1e-12
            assert noise_commutator_residual(row) < 1e-12


def _rotating_wide_model(seed: int) -> TransducerModel:
    """The first ``wide_model`` draw of a seed whose modes all rotate in bands
    centred away from zero, so that no slot of any row is masked."""
    rng = np.random.default_rng(seed)
    while True:
        model = wide_model(rng)
        if all(m.frame == "rotating" and m.band.center_frequency > 0.0 for m in model.modes):
            return model


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_invariants_on_rotating_wide_models(seed: int) -> None:
    # S is quasi-unitary and no column is masked, so every exit row balances
    # its flux and its noise commutator is 1 -+ eta, whether the row comes
    # from transfer_pair or from a block of the sweep.
    dyn = assemble_dynamics(_rotating_wide_model(seed))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.geomspace(1.0e2, 1.0e8, 37)
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures
    assert grid.symplectic_resid is not None and np.all(grid.symplectic_resid < 1e-12)
    assert np.all(grid.sumrule_resid < 1e-12)
    assert grid.rows_up is not None and grid.rows_dn is not None
    for i, omega in enumerate(omegas.tolist()):
        for row in (*transfer_pair(dyn, omega), grid.rows_up[i], grid.rows_dn[i]):
            assert row is not None and not row.dropped
            assert sum_rule_residual(row) < 1e-12
            assert noise_commutator_residual(row) < 1e-12


def test_added_noise_undefined_where_efficiency_vanishes() -> None:
    u = {"s": 0.0, "e": 1.0}
    v = {"s": 0.0, "e": 0.0}
    from conftest import plain_row

    row = plain_row(TAU * 1.0e6, u, v)
    env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
    with pytest.raises(UndefinedNoiseError):
        added_noise(row, env)


def test_noise_flux_counts_vacuum_on_creation_columns() -> None:
    from conftest import plain_row

    # One noise creation coefficient of weight |v|^2 = 0.25 at n = 0 adds
    # a quarter quantum of amplified vacuum.
    row = plain_row(TAU * 1.0e6, {"s": 1.0, "e": 0.0}, {"e": 0.5})
    env = NoiseEnvironment.constant({"s": 0.0, "e": 0.0})
    assert noise_flux(row, env) == pytest.approx(0.25, abs=1e-15)


def test_near_singular_point_raises_with_frequency() -> None:
    model = near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5)
    dyn = assemble_dynamics(model)
    with pytest.raises(NearSingularError) as excinfo:
        scattering_matrix(dyn, TAU * 2.0e6)
    assert excinfo.value.omega == pytest.approx(TAU * 2.0e6)
    # Away from the undamped eigenvalue the solve is fine.
    s = scattering_matrix(dyn, TAU * 3.0e6)
    assert symplectic_residual(s.matrix, s.metric) < 1e-10


def test_spectrum_sweep_matches_pointwise_evaluation() -> None:
    dyn = assemble_dynamics(two_mode_converter(t_a=0.05, t_b=0.02))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.linspace(TAU * 2.0e5, TAU * 3.0e6, 41)
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures
    for i in (0, 13, 40):
        up, dn = transfer_pair(dyn, float(omegas[i]))
        assert grid.eta_up[i] == eta(up)
        assert grid.noise_up[i] == pytest.approx(added_noise(up, env), rel=1e-10)
        assert grid.sumrule_resid[i] < 1e-12
        assert grid.symplectic_resid[i] < 1e-12
        # A pure beam-splitter network has no phase-conjugating transfer,
        # so the lower-sideband efficiency vanishes identically and its
        # added noise is undefined.
        assert eta(dn) == 0.0
        assert grid.eta_dn[i] == 0.0
        assert math.isnan(grid.noise_dn[i])
        with pytest.raises(UndefinedNoiseError):
            added_noise(dn, env)


def test_spectrum_sweep_lower_sideband_with_conjugating_transfer() -> None:
    # Two-mode squeezing gives a nonzero creation-coefficient transfer, so
    # the lower sideband carries finite efficiency and noise.
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    env = NoiseEnvironment.constant({"pa": 0.4, "pb": 1.1})
    omegas = np.array([TAU * 2.6e6, TAU * 3.0e6, TAU * 3.4e6])
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures
    for i in range(omegas.size):
        up, dn = transfer_pair(dyn, float(omegas[i]))
        assert eta(dn) > 0.0
        assert grid.eta_dn[i] == pytest.approx(eta(dn), rel=1e-12)
        assert grid.noise_dn[i] == pytest.approx(added_noise(dn, env), rel=1e-10)
        # The mirror statement of the beam-splitter case: a pure squeezer
        # converts nothing on the upper sideband.
        assert eta(up) == 0.0
        assert math.isnan(grid.noise_up[i])


def test_spectrum_sweep_rows_match_transfer_rows() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.array([TAU * 5.0e5, TAU * 1.0e6])
    grid = spectrum_sweep(dyn, env, omegas)
    assert grid.rows_up is not None and grid.rows_dn is not None
    up, dn = transfer_pair(dyn, float(omegas[1]))
    stored_up = grid.rows_up[1]
    stored_dn = grid.rows_dn[1]
    assert stored_up is not None and stored_dn is not None
    for name in ("sig", "out"):
        assert stored_up.u_coeffs[name] == pytest.approx(up.u_coeffs[name], abs=1e-14)
        assert stored_dn.v_coeffs[name] == pytest.approx(dn.v_coeffs[name], abs=1e-14)


def test_spectrum_sweep_builds_rows_on_first_read(monkeypatch: pytest.MonkeyPatch) -> None:
    dyn = assemble_dynamics(two_mode_converter())
    env = NoiseEnvironment.from_dynamics(dyn)
    calls = []
    transfer_rows = scattering._transfer_rows
    monkeypatch.setattr(
        scattering,
        "_transfer_rows",
        lambda *args: calls.append(len(args[3])) or transfer_rows(*args),
    )
    grid = spectrum_sweep(dyn, env, np.linspace(TAU * 1.0e5, TAU * 2.0e6, 11))
    assert calls == []
    rows = grid.rows_up
    assert calls == [11]
    assert grid.rows_up is rows
    assert calls == [11]
    assert grid.rows_dn is not None and len(grid.rows_dn) == 11
    assert calls == [11, 11]


def test_spectra_are_derived_per_sideband_on_first_read(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # One pass per sideband gives its eta, noise and half of the sum rule,
    # so reading everything derives each sideband once, and counting, which
    # reads only eta_up and noise_up, never derives the lower one. The exit
    # rows are assembled from the sweep's blocks only when they or their
    # views are read. Each output has the same bits whatever was read
    # before it. The grid holds a failed point and a partial last block.
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    env = NoiseEnvironment.constant({"pa": 0.4, "pb": 1.1})
    omegas = np.linspace(TAU * 1.0e6, TAU * 3.0e6, _BLOCK + 41)
    names = ("eta_up", "noise_up", "eta_dn", "noise_dn", "sumrule_resid")
    names += ("exit_rows", "rows_dn")

    def bits(grid: SpectrumGrid, name: str) -> bytes:
        value = getattr(grid, name)
        if name != "rows_dn":
            return value.tobytes()
        return b"|".join(
            b"-"
            if row is None
            else np.array([*row.u_coeffs.values(), *row.v_coeffs.values()]).tobytes()
            for row in value
        )

    # Each output read first, on a grid of its own.
    want_bytes = {name: bits(spectrum_sweep(dyn, env, omegas), name) for name in names}
    sides = []
    sideband = SpectrumGrid._sideband
    monkeypatch.setattr(
        SpectrumGrid,
        "_sideband",
        lambda grid, side: sides.append(side) or sideband(grid, side),
    )
    # The sum rule read first derives both sidebands.
    spectrum_sweep(dyn, env, omegas).sumrule_resid
    assert sides == [0, 1]
    sides.clear()
    grid = spectrum_sweep(dyn, env, omegas)
    assert sides == []
    for name, derived in zip(names, ([0], [], [1], [], [], [], [])):
        # Not assembled before its own read, which comes after the spectra.
        assert ("exit_rows" in vars(grid)) == (name == "rows_dn"), name
        sides.clear()
        assert bits(grid, name) == want_bytes[name], name
        assert sides == derived, name
    assert grid.exit_rows is not None and grid.rows_dn is not None
    failed = [f.index for f in grid.failures]
    assert failed and failed[0] < _BLOCK < omegas.size < 2 * _BLOCK
    solved = np.ones(omegas.size, dtype=bool)
    solved[failed] = False
    assert np.isnan(grid.exit_rows[:, ~solved]).all()
    assert np.isfinite(grid.exit_rows[:, solved]).all()
    assert [i for i, row in enumerate(grid.rows_dn) if row is None] == failed
    # A spectrum given to the constructor is kept as given.
    given = np.zeros(3)
    assert SpectrumGrid(omegas=np.arange(1.0, 4.0), eta_up=given).eta_up is given


def test_sweep_working_set_stays_block_sized() -> None:
    # The README's 8001-point cold counting sweep, with what fom --app
    # counting reads. Besides the arrays it keeps, the sweep allocates
    # about 1.56 MB on the way (a kernel that also formed A^-1 G and a
    # transposed copy of it, per block: 2.08 MB), and reading the upper
    # sideband about 0.35 MB, one block at a time.
    dyn = assemble_dynamics(get_builtin("electromech", {"t_wg": 0.0, "t_m": 0.0}))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.linspace(TAU * 4.0e6, TAU * 6.0e6, 8001)
    spectrum_sweep(dyn, env, omegas, symplectic=False).noise_up
    tracemalloc.start()
    try:
        grid = spectrum_sweep(dyn, env, omegas, symplectic=False)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        grid.eta_up, grid.noise_up
        read_kept, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 1.8e6
    assert read_peak - read_kept < 0.5e6


def test_spectrum_sweep_rows_are_none_at_failed_points() -> None:
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.array([TAU * 1.0e6, TAU * 2.0e6, TAU * 3.0e6])
    grid = spectrum_sweep(dyn, env, omegas)
    assert [f.index for f in grid.failures] == [1]
    for rows in (grid.rows_up, grid.rows_dn):
        assert rows is not None and len(rows) == 3
        assert rows[1] is None
        assert rows[0] is not None and rows[2] is not None


def test_spectrum_sweep_records_singular_points_as_failures() -> None:
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.array([TAU * 1.0e6, TAU * 2.0e6, TAU * 3.0e6])
    grid = spectrum_sweep(dyn, env, omegas)
    assert len(grid.failures) == 1
    failure = grid.failures[0]
    assert failure.index == 1
    assert failure.omega == pytest.approx(TAU * 2.0e6)
    assert math.isnan(grid.eta_up[1])
    assert math.isnan(grid.noise_dn[1])
    assert math.isfinite(grid.eta_up[0])
    assert math.isfinite(grid.eta_up[2])


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(2, 3 * _BLOCK).filter(lambda n: n % _BLOCK != 0),
)
def test_spectrum_sweep_blocks_match_pointwise_evaluation(seed: int, points: int) -> None:
    rng = np.random.default_rng(seed)
    dyn = assemble_dynamics(random_stable_model(rng))
    env = NoiseEnvironment.constant({info.name: 0.3 for info in dyn.ports})
    omegas = np.geomspace(1.0e3, 1.0e10, points)
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures
    # Both sides of every block edge of the signed grid (upper block, then
    # lower block), plus a random sample.
    edges = np.arange(_BLOCK, 2 * points, _BLOCK)
    picks = np.concatenate([edges - 1, edges, rng.integers(0, 2 * points, 8)]) % points
    for i in np.unique(picks):
        up, dn = transfer_pair(dyn, float(omegas[i]))
        # A chain with an odd number of squeezers converts only into the
        # lower sideband; the noise is compared where it is defined.
        for row, eta_grid, noise_grid in (
            (up, grid.eta_up, grid.noise_up),
            (dn, grid.eta_dn, grid.noise_dn),
        ):
            # The sweep mirrors the lower row that transfer_pair solves.
            if row is up:
                assert eta_grid[i] == eta(row)
            else:
                assert eta_grid[i] == pytest.approx(eta(row), rel=1e-12)
            if eta(row) > 0.0:
                assert noise_grid[i] == pytest.approx(added_noise(row, env), rel=1e-12)
        # The residual balances terms of order one.
        resid = max(sum_rule_residual(up), sum_rule_residual(dn))
        assert grid.sumrule_resid[i] == pytest.approx(resid, abs=1e-12)


def _non_normal_singular_dynamics(omega0: float) -> DoubledDynamics:
    """Resolvent singular at omega0 whose 2-norm condition exceeds its 1-norm one.

    The null direction of the annihilation block is a unit vector on the
    right and spread evenly on the left, so a screen on the 1-norm
    condition alone misses points. The creation block is its conjugate,
    which keeps the particle-hole symmetry the sweep requires.
    """
    dyn = assemble_dynamics(two_mode_converter())
    n = dyn.n_modes
    a = -(1.0e5 + 1j * omega0) * np.eye(n)
    a[0, 0] = -1j * omega0
    a[0, 1:] = -1.0e5
    m = np.zeros_like(dyn.dyn_matrix)
    m[:n, :n], m[n:, n:] = a, a.conj()
    return dataclasses.replace(dyn, dyn_matrix=m)


@pytest.mark.parametrize(
    ("dyn", "omega0", "one_norm_misses"),
    [
        (assemble_dynamics(near_singular_model(2.0e6, 1.0e5)), TAU * 2.0e6, False),
        (_non_normal_singular_dynamics(2.0**20), 2.0**20, True),
    ],
    ids=["near-singular-model", "non-normal"],
)
def test_spectrum_sweep_failures_match_two_norm_condition(
    dyn: DoubledDynamics, omega0: float, one_norm_misses: bool
) -> None:
    env = NoiseEnvironment.from_dynamics(dyn)
    offsets = np.geomspace(1.0e-15, 1.0e-2, 600)
    omegas = np.unique(np.concatenate([omega0 * (1.0 - offsets), omega0 * (1.0 + offsets)]))
    grid = spectrum_sweep(dyn, env, omegas)

    eye = np.eye(dyn.dimension)
    a_up = 1j * omegas[:, None, None] * eye + dyn.dyn_matrix
    a_dn = -1j * omegas[:, None, None] * eye + dyn.dyn_matrix
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond_up, cond_dn = np.linalg.cond(a_up), np.linalg.cond(a_dn)
        cond_1 = np.linalg.cond(a_up, 1)
    bad_up = ~(np.isfinite(cond_up) & (cond_up <= CONDITION_LIMIT))
    bad_dn = ~(np.isfinite(cond_dn) & (cond_dn <= CONDITION_LIMIT))
    expected = np.nonzero(bad_up | bad_dn)[0]
    # The grid exercises the screen: some points fail the 1-norm screen
    # and pass on the exact 2-norm condition.
    screened = (dyn.dimension * cond_1 > 0.5 * CONDITION_LIMIT) & ~bad_up & ~bad_dn
    assert expected.size > 0 and np.any(screened)
    # On the non-normal resolvent some failing points have a 1-norm
    # condition within the limit, so a 1-norm test alone would miss them.
    assert np.any(bad_up & (cond_1 <= CONDITION_LIMIT)) == one_norm_misses

    assert [f.index for f in grid.failures] == expected.tolist()
    for f in grid.failures:
        worst = cond_up[f.index] if bad_up[f.index] else cond_dn[f.index]
        assert f.message == (
            f"resolvent is near-singular at omega=+-{omegas[f.index]:.9e} rad/s "
            f"(condition estimate {worst:.3e})"
        )
    assert np.all(np.isfinite(grid.eta_up[screened]))
    for i in expected[:3]:
        with pytest.raises(NearSingularError):
            transfer_pair(dyn, float(omegas[i]))


def _approach(omega0: float) -> np.ndarray:
    """Both signs of a grid closing in on ``omega0`` from both sides."""
    offsets = np.geomspace(1.0e-15, 1.0e-2, 40)
    grid = np.concatenate([omega0 * (1.0 - offsets), omega0 * (1.0 + offsets)])
    return np.concatenate([grid, -grid])


def _resolvent_cases() -> list[tuple[DoubledDynamics, np.ndarray, bool]]:
    electromech = assemble_dynamics(get_builtin("electromech"))
    network = assemble_dynamics(random_stable_model(np.random.default_rng(3)))
    near = assemble_dynamics(near_singular_model(2.0e6, 1.0e5))
    return [
        (electromech, np.array([TAU * 5.0e6]), False),
        (electromech, np.array([TAU * 5.0e6, -TAU * 5.0e6]), False),
        (electromech, np.linspace(TAU * 4.0e6, TAU * 6.0e6, _BLOCK + 7), False),
        (network, -np.geomspace(1.0e3, 1.0e10, _BLOCK - 5), False),
        (near, _approach(TAU * 2.0e6), True),
    ]


def test_port_sums_keep_the_bits_of_a_point_major_sum() -> None:
    # The sweep sums over ports on port-major arrays; the bits must be
    # those of a sum along the contiguous port axis of point-major rows.
    rng = np.random.default_rng(7)
    for ports in range(1, 21):
        rows = rng.random((1000, ports)) * 10.0 ** rng.uniform(-8.0, 8.0, (1000, ports))
        want = rows.sum(axis=1).tobytes()
        assert scattering._port_sums(np.ascontiguousarray(rows.T)).tobytes() == want, ports
        assert scattering._port_sums(rows.T).tobytes() == want, ports


@pytest.mark.parametrize(
    ("dyn", "omegas", "near"),
    _resolvent_cases(),
    ids=["1-point", "2-point", "block+7", "network-block-5", "near-singular"],
)
def test_solve_block_matches_pointwise_solve(
    dyn: DoubledDynamics, omegas: np.ndarray, near: bool
) -> None:
    inv, good, cond = scattering._solve_block(dyn, omegas)
    rows = scattering._s_rows(dyn, inv, slice(None))
    dim = dyn.dimension
    flagged = 0
    for i, omega in enumerate(omegas.tolist()):
        a = 1j * omega * np.eye(dim) + dyn.dyn_matrix
        cond_2 = np.linalg.cond(a)
        assert good[i] == (cond_2 <= CONDITION_LIMIT)
        bound = dim * np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
        if bound <= 0.5 * CONDITION_LIMIT:
            assert cond[i] == pytest.approx(bound, rel=1e-14)
        else:
            flagged += 1
            assert cond[i] == pytest.approx(cond_2, rel=1e-14)
        if good[i]:
            want = np.linalg.inv(a)
            assert np.abs(inv[i] - want).max() <= 1e-13 * np.abs(want).max()
            # Off the diagonal S is G'A^-1 G itself; on it the added 1 rounds.
            product = dyn.out_coupling @ np.linalg.solve(a, dyn.in_coupling)
            off = ~np.eye(2 * dyn.n_ports, dtype=bool)
            err = np.abs(rows[:, i] - product)[off].max()
            assert err <= 1e-13 * np.abs(product).max()
            want = np.eye(2 * dyn.n_ports) + product
            err = np.abs(np.diag(rows[:, i]) - np.diag(want)).max()
            assert err <= 1e-13 * np.abs(want).max()
    # The near-singular grid holds points flagged by the 1-norm screen
    # that pass on the 2-norm condition, and points that fail.
    if near:
        assert 0 < np.count_nonzero(~good) < flagged
    else:
        assert flagged == 0 and good.all()


# The ids name the one lower-sideband path of the sweep: the mirror of the
# upper solve.
@pytest.mark.parametrize("model", [near_singular_model(2.0e6, 1.0e5)], ids=["mirrored"])
def test_spectrum_sweep_keeps_the_condition_of_each_resolvent(
    model: TransducerModel,
) -> None:
    dyn = assemble_dynamics(model)
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.sort(_approach(TAU * 2.0e6)[:80])
    grid = spectrum_sweep(dyn, env, omegas)
    # One condition per frequency: the mirrored lower sideband shares the
    # condition of the upper resolvent, which has the same singular values.
    assert grid.cond is not None and grid.cond.shape == omegas.shape
    cond_2 = np.linalg.cond(1j * omegas[:, None, None] * np.eye(dyn.dimension) + dyn.dyn_matrix)
    exact = grid.cond > 0.5 * CONDITION_LIMIT
    np.testing.assert_allclose(grid.cond[exact], cond_2[exact], rtol=1e-14)
    assert np.all(cond_2[~exact] <= grid.cond[~exact] * (1.0 + 1e-14))
    failed = grid.cond > CONDITION_LIMIT
    assert [f.index for f in grid.failures] == np.nonzero(failed)[0].tolist()


@pytest.mark.parametrize(
    "points", [1, 2, _BLOCK + 40], ids=["mirrored-1-point", "mirrored-2-point", "mirrored-block+40"]
)
def test_spectrum_sweep_condition_bound_is_the_one_norm_product(points: int) -> None:
    # Where the 1-norm screen rules out failure, cond holds its bound
    # d * |A|_1 * |A^-1|_1 itself, not some looser number.
    dyn = assemble_dynamics(near_singular_model(2.0e6, 1.0e5))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.array([TAU * 1.0e6, TAU * 3.0e6])[:points]
    if points > 2:
        # Two blocks, the second holding points near the singular one.
        omegas = np.unique(np.concatenate([np.linspace(TAU * 1.0e5, TAU * 1.0e7, _BLOCK), _approach(TAU * 2.0e6)[:40]]))
    grid = spectrum_sweep(dyn, env, omegas)
    assert grid.cond is not None
    a = 1j * omegas[:, None, None] * np.eye(dyn.dimension) + dyn.dyn_matrix
    bound = (
        dyn.dimension
        * np.linalg.norm(a, 1, axis=(1, 2))
        * np.linalg.norm(np.linalg.inv(a), 1, axis=(1, 2))
    )
    screened = bound <= 0.5 * CONDITION_LIMIT
    assert screened.sum() >= min(points, _BLOCK)
    # Elsewhere the screen gave way to the exact 2-norm condition.
    cond_2 = np.linalg.cond(a[~screened])
    # One value per frequency, the condition of the upper resolvent.
    assert grid.cond.shape == omegas.shape
    np.testing.assert_allclose(grid.cond[screened], bound[screened], rtol=1e-14)
    np.testing.assert_allclose(grid.cond[~screened], cond_2, rtol=1e-14)


def test_exactly_singular_resolvent_is_reported() -> None:
    # A resolvent with an exactly zero row at omega0: the LU solve itself
    # fails, and that block falls back to the condition-first screen. The
    # creation row of the same mode mirrors it, which keeps the particle-hole
    # symmetry the sweep requires.
    dyn = assemble_dynamics(two_mode_converter())
    omega0 = 2.0**22
    n = dyn.n_modes
    singular = dyn.dyn_matrix.copy()
    singular[[0, n], :] = 0.0
    singular[0, 0], singular[n, n] = -1j * omega0, 1j * omega0
    dyn = dataclasses.replace(dyn, dyn_matrix=singular)
    a = 1j * omega0 * np.eye(dyn.dimension) + dyn.dyn_matrix
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, dyn.in_coupling)

    with pytest.raises(NearSingularError) as excinfo:
        scattering_matrix(dyn, omega0)
    assert excinfo.value.omega == omega0
    assert "condition estimate inf" in str(excinfo.value)

    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.array([0.5 * omega0, omega0, 2.0 * omega0])
    grid = spectrum_sweep(dyn, env, omegas)
    assert [f.index for f in grid.failures] == [1]
    assert grid.failures[0].omega == omega0
    assert math.isnan(grid.eta_up[1])
    # The fallback gives the other points the same digits as a clean grid.
    clean = spectrum_sweep(dyn, env, omegas[[0, 2]])
    for name in ("eta_up", "eta_dn", "sumrule_resid", "symplectic_resid"):
        got, want = getattr(grid, name)[[0, 2]], getattr(clean, name)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_assembled_dynamics_are_particle_hole_symmetric(seed: int) -> None:
    # M = P conj(M) P, G = P conj(G) Q and G' = Q conj(G') P exactly (up
    # to the sign of zeros), with P and Q swapping the annihilation and
    # creation mode/port slots.
    dyn = assemble_dynamics(wide_model(np.random.default_rng(seed)))
    n, p = dyn.n_modes, dyn.n_ports
    swap_b = np.r_[n : 2 * n, :n]
    swap_a = np.r_[p : 2 * p, :p]
    m, g, g_out = dyn.dyn_matrix, dyn.in_coupling, dyn.out_coupling
    assert np.array_equal(m, m[np.ix_(swap_b, swap_b)].conj())
    assert np.array_equal(g, g[np.ix_(swap_b, swap_a)].conj())
    assert np.array_equal(g_out, g_out[np.ix_(swap_a, swap_b)].conj())
    assert scattering._particle_hole_symmetric(dyn)


def _assert_sweep_matches_transfer_pair(
    dyn: DoubledDynamics, env: NoiseEnvironment, omegas: np.ndarray
) -> None:
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures
    assert grid.rows_up is not None and grid.rows_dn is not None
    for i, omega in enumerate(omegas):
        up, dn = transfer_pair(dyn, float(omega))
        for row, stored, eta_grid, noise_grid in (
            (up, grid.rows_up[i], grid.eta_up, grid.noise_up),
            (dn, grid.rows_dn[i], grid.eta_dn, grid.noise_dn),
        ):
            # The coefficients themselves, phases included.
            assert stored is not None and stored.omega == row.omega
            assert stored.dropped == row.dropped
            assert stored.physical_output == row.physical_output
            for coeffs, want in ((stored.u_coeffs, row.u_coeffs), (stored.v_coeffs, row.v_coeffs)):
                for name, value in want.items():
                    assert coeffs[name] == pytest.approx(value, rel=1e-12, abs=1e-12)
            if not row.physical_output:
                assert math.isnan(eta_grid[i]) and math.isnan(noise_grid[i])
                continue
            # Both rows square by one rule; the sweep mirrors the lower row
            # that transfer_pair solves.
            assert eta_grid[i] == eta(stored)
            if row is up:
                assert eta_grid[i] == eta(row)
            else:
                assert eta_grid[i] == pytest.approx(eta(row), rel=1e-12)
            if eta(row) > 0.0:
                assert noise_grid[i] == pytest.approx(added_noise(row, env), rel=1e-12)
        resid = np.fmax(sum_rule_residual(up), sum_rule_residual(dn))
        assert grid.sumrule_resid[i] == pytest.approx(resid, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_mirrored_lower_sideband_matches_pointwise_solve(seed: int) -> None:
    dyn = assemble_dynamics(wide_model(np.random.default_rng(seed)))
    env = NoiseEnvironment.from_dynamics(dyn)
    _assert_sweep_matches_transfer_pair(dyn, env, np.geomspace(1.0e2, 1.0e8, 37))


def test_electromech_masked_lower_sideband_matches_pointwise_solve() -> None:
    # The exit (waveguide) band is centred at zero: every lower-sideband
    # exit output is unphysical and the sweep holds NaN there.
    dyn = assemble_dynamics(get_builtin("electromech"))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.linspace(TAU * 4.0e6, TAU * 6.0e6, 41)
    _assert_sweep_matches_transfer_pair(dyn, env, omegas)
    assert np.all(np.isnan(spectrum_sweep(dyn, env, omegas).eta_dn))


def _assert_scalar_figures_keep_sweep_bits(
    dyn: DoubledDynamics, env: NoiseEnvironment, omegas: np.ndarray
) -> None:
    """The scalar API squares and sums as the sweep does, so it gives its bits.

    eta of the upper row at every solved point. N and the flux balance too
    below eight ports (from eight on the sweep sums ports pairwise) where
    every occupancy is a constant or zero: NumPy's ``expm1`` is not libm's,
    so thermal occupancies may differ in the last bits. The flux balance
    of the lower side reads the sweep's own mirrored row, which
    :func:`transfer_pair` solves instead.
    """
    noise = dyn.n_ports < 8 and all(
        kind == "constant" or value == 0.0 for kind, value in env.spec.values()
    )
    grid = spectrum_sweep(dyn, env, omegas, symplectic=False)
    assert grid.rows_dn is not None
    failed = {f.index for f in grid.failures}
    for i, omega in enumerate(omegas.tolist()):
        if i in failed:
            continue
        up, _ = transfer_pair(dyn, omega)
        if not up.physical_output:
            assert math.isnan(grid.eta_up[i])
            continue
        assert grid.eta_up[i] == eta(up), i
        if not noise:
            continue
        if eta(up) > 0.0:
            assert grid.noise_up[i] == added_noise(up, env), i
        resid = np.fmax(sum_rule_residual(up), sum_rule_residual(grid.rows_dn[i]))
        assert grid.sumrule_resid[i] == resid, i


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_scalar_figures_keep_sweep_bits(seed: int) -> None:
    rng = np.random.default_rng(seed)
    omegas = np.geomspace(1.0e2, 1.0e10, 40)
    for model in (random_stable_model(rng), wide_model(rng)):
        dyn = assemble_dynamics(model)
        occupancies = {info.name: rng.uniform(0.0, 2.0) for info in dyn.ports}
        for env in (NoiseEnvironment.from_dynamics(dyn), NoiseEnvironment.constant(occupancies)):
            _assert_scalar_figures_keep_sweep_bits(dyn, env, omegas)


def test_cold_electromech_figures_keep_sweep_bits() -> None:
    dyn = assemble_dynamics(get_builtin("electromech", {"t_tx": 0.0, "t_wg": 0.0, "t_m": 0.0}))
    env = NoiseEnvironment.from_dynamics(dyn)
    _assert_scalar_figures_keep_sweep_bits(dyn, env, np.linspace(TAU * 4.0e6, TAU * 6.0e6, 201))


def test_scalar_and_array_squares_agree_bit_for_bit() -> None:
    # 10^6 coefficients with parts over the whole double range, subnormal
    # to overflowing, as Python complex numbers and as one array.
    rng = np.random.default_rng(18)
    n = 10**6
    with np.errstate(over="ignore", under="ignore"):
        parts = np.ldexp(rng.uniform(-1.0, 1.0, (2, n)), rng.integers(-1074, 1025, (2, n)))
        parts[:, :6] = [[0.0, -0.0, 5e-324, 1.0, 1.7976931348623157e308, math.inf]] * 2
        z = np.empty(n, dtype=np.complex128)
        z.real, z.imag = parts
        want = scattering._abs2_array(z)
    got = np.array([scattering._abs2(c) for c in z.tolist()])
    assert got.tobytes() == want.tobytes()
    assert want[2] == 0.0 and want[3] == 2.0 and want[4] == want[5] == math.inf
    # Python's ** 2 would raise OverflowError here.
    assert scattering._abs2(1e200 + 0j) == math.inf


def _reference_exit_rows(dyn: DoubledDynamics, signed: np.ndarray) -> list[list[mpmath.mpc]]:
    """Exit rows of S at each signed frequency, by LU at mpmath's working precision.

    Row ``exit`` of ``S = 1 + G' A^-1 G`` is ``e_exit + y^T G`` with
    ``A^T y = G'[exit]^T``: one solve per frequency, on the float inputs
    taken as exact.
    """
    d, p = dyn.dimension, dyn.n_ports
    col = dyn.port_index[dyn.exit_port]
    m = mpmath.matrix([[mpmath.mpc(complex(v)) for v in r] for r in dyn.dyn_matrix])
    g = [[mpmath.mpc(complex(v)) for v in r] for r in dyn.in_coupling]
    g_out = mpmath.matrix([mpmath.mpc(complex(v)) for v in dyn.out_coupling[col]])
    rows = []
    for omega in signed.tolist():
        a = m.copy()
        for k in range(d):
            a[k, k] += mpmath.mpc(0.0, omega)
        y = mpmath.lu_solve(a.T, g_out)
        row = [mpmath.fsum(y[k] * g[k][j] for k in range(d)) for j in range(2 * p)]
        row[col] += 1
        rows.append(row)
    return rows


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6, 7, 999999])
def test_sweep_matches_fifty_digit_reference(seed: int) -> None:
    # The bounds are about 2.5 times the worst relative errors of an LU
    # solve against [G | 1] on these seeds: rows 2.1e-13 and N 1.6e-13 on
    # seed 2, eta 2.1e-14 on seed 6. Seed 999999 takes eta down to 7e-41.
    dyn = assemble_dynamics(wide_model(np.random.default_rng(seed)))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.geomspace(1.0e2, 1.0e8, 37)
    grid = spectrum_sweep(dyn, env, omegas, symplectic=False)
    assert not grid.failures and grid.exit_rows is not None
    p, sig = dyn.n_ports, dyn.port_index[dyn.signal_port]
    exit_col = dyn.port_index[dyn.exit_port]
    centers = np.array([info.band_center for info in dyn.ports])
    worst = {"rows": 0.0, "eta": 0.0, "noise": 0.0}
    # The reference, and every quantity built from it, to 50 digits.
    with mpmath.workdps(50):
        for side, signed in enumerate((omegas, -omegas)):
            lab_u, lab_v, mask_u, mask_v = scattering._slots(signed[:, None], centers)
            for i, ref in enumerate(_reference_exit_rows(dyn, signed)):
                for got, want in zip(grid.exit_rows[side, i].tolist(), ref):
                    if want == 0:
                        assert got == 0.0
                    else:
                        worst["rows"] = max(worst["rows"], float(abs(got - want) / abs(want)))
                if not mask_u[i, exit_col]:
                    continue
                u = [c if keep else 0 for c, keep in zip(ref[:p], mask_u[i])]
                v = [c if keep else 0 for c, keep in zip(ref[p:], mask_v[i])]
                efficiency = abs((u if side == 0 else v)[sig]) ** 2
                flux = mpmath.mpf(0)
                for j, info in enumerate(dyn.ports):
                    if mask_u[i, j] and (j != sig or side == 1):
                        flux += abs(u[j]) ** 2 * env.occupancy(info.name, float(lab_u[i, j]))
                    if mask_v[i, j] and (j != sig or side == 0):
                        flux += abs(v[j]) ** 2 * (env.occupancy(info.name, float(lab_v[i, j])) + 1)
                got_eta = (grid.eta_up, grid.eta_dn)[side][i]
                got_noise = (grid.noise_up, grid.noise_dn)[side][i]
                if efficiency == 0:
                    assert got_eta == 0.0 and math.isnan(got_noise)
                    continue
                worst["eta"] = max(worst["eta"], float(abs(got_eta - efficiency) / efficiency))
                if flux == 0:
                    assert got_noise == 0.0
                    continue
                noise = flux / efficiency
                worst["noise"] = max(worst["noise"], float(abs(got_noise - noise) / noise))
    assert worst["rows"] <= 5e-13
    assert worst["eta"] <= 5e-14
    assert worst["noise"] <= 4e-13


def _asymmetric_squeezer() -> DoubledDynamics:
    """A squeezing converter, which has a lower-sideband signal path, with
    only the annihilation slot of a mode detuned: not particle-hole
    symmetric, so the sweep refuses it.
    """
    model = two_mode_converter()
    pump = Drive("pump", sum(band.center_frequency for band in model.bands))
    squeezer = dataclasses.replace(model.couplings[0], form="two-mode-squeezing", drive=pump)
    model = dataclasses.replace(model, drives=(pump,), couplings=(squeezer,))
    dyn = assemble_dynamics(model)
    m = dyn.dyn_matrix.copy()
    m[0, 0] -= 1j * TAU * 3.0e5
    return dataclasses.replace(dyn, dyn_matrix=m)


def test_sweep_refuses_asymmetric_dynamics_before_solving(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Mirroring the upper solve would give this squeezer a wrong lower
    # sideband, so the sweep raises before any solve.
    dyn = _asymmetric_squeezer()
    env = NoiseEnvironment.from_dynamics(dyn)
    calls = []
    monkeypatch.setattr(scattering, "_solve_block", lambda d, w: calls.append(w))
    with pytest.raises(ConfigurationError, match="particle-hole symmetric"):
        spectrum_sweep(dyn, env, np.linspace(TAU * 1.0e5, TAU * 3.0e6, 23))
    assert calls == []


def _sweep_case(
    case: str, rng: np.random.Generator, points: int
) -> tuple[DoubledDynamics, np.ndarray]:
    if case == "wide":
        return assemble_dynamics(wide_model(rng)), np.geomspace(1.0e2, 1.0e8, points)
    if case == "electromech":
        dyn = assemble_dynamics(get_builtin("electromech"))
        return dyn, np.linspace(TAU * 4.0e6, TAU * 6.0e6, points)
    # Near-singular: the singular point omega = delta is always on the grid.
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    omegas = np.linspace(TAU * 1.0e6, TAU * 3.0e6, points)
    return dyn, np.union1d(omegas, [TAU * 2.0e6])


@settings(max_examples=24, deadline=None, derandomize=True)
@given(
    case=st.sampled_from(["wide", "electromech", "near-singular"]),
    seed=st.integers(0, 2**32 - 1),
    points=st.integers(1, _BLOCK + 40),
)
def test_sweep_without_symplectic_residual_is_bit_identical(
    case: str, seed: int, points: int
) -> None:
    # Forming only the exit rows of S must not move a bit of any output.
    rng = np.random.default_rng(seed)
    dyn, omegas = _sweep_case(case, rng, points)
    exit_port = dyn.ports[int(rng.integers(dyn.n_ports))].name
    env = NoiseEnvironment.from_dynamics(dyn)
    want = spectrum_sweep(dyn, env, omegas, exit_port=exit_port)
    got = spectrum_sweep(dyn, env, omegas, exit_port=exit_port, symplectic=False)
    assert got.symplectic_resid is None
    assert want.symplectic_resid is not None
    for name in ("eta_up", "eta_dn", "noise_up", "noise_dn", "sumrule_resid", "exit_rows"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    failures = [[(f.index, f.omega, f.message) for f in g.failures] for g in (got, want)]
    assert failures[0] == failures[1]
    assert case != "near-singular" or failures[0]
    assert got.rows_up is not None and got.rows_dn is not None
    assert want.rows_up is not None and want.rows_dn is not None
    for got_row, want_row in zip(got.rows_up + got.rows_dn, want.rows_up + want.rows_dn):
        if want_row is None:
            assert got_row is None
            continue
        assert got_row is not None
        for f in dataclasses.fields(want_row):
            assert getattr(got_row, f.name) == getattr(want_row, f.name), f.name
        for coeffs in ("u_coeffs", "v_coeffs"):
            bits = [np.array(list(getattr(r, coeffs).values())) for r in (got_row, want_row)]
            assert bits[0].tobytes() == bits[1].tobytes()


def test_symmetric_dynamics_solve_once_per_block(monkeypatch: pytest.MonkeyPatch) -> None:
    dyn = assemble_dynamics(get_builtin("electromech"))
    env = NoiseEnvironment.from_dynamics(dyn)
    omegas = np.linspace(TAU * 1.0e3, TAU * 1.0e8, 2 * _BLOCK + 5)
    calls = []
    solve_block = scattering._solve_block
    monkeypatch.setattr(
        scattering, "_solve_block", lambda d, w: calls.append(w.min()) or solve_block(d, w)
    )
    spectrum_sweep(dyn, env, omegas)
    assert len(calls) == 3 and min(calls) > 0.0


def _assert_pair_equals_single_rows(
    dyn: DoubledDynamics, omegas: np.ndarray, exit_port: str | None = None
) -> None:
    # transfer_pair solves both sidebands in one block; every field, down to
    # the last bit of each coefficient, must equal the one-point path.
    for omega in omegas.tolist():
        pair = transfer_pair(dyn, omega, exit_port)
        single = (
            transfer_row(scattering_matrix(dyn, omega), exit_port),
            transfer_row(scattering_matrix(dyn, -omega), exit_port),
        )
        for got, want in zip(pair, single):
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), f.name


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_transfer_pair_equals_single_rows_on_wide_models(seed: int) -> None:
    dyn = assemble_dynamics(wide_model(np.random.default_rng(seed)))
    _assert_pair_equals_single_rows(dyn, np.geomspace(1.0e2, 1.0e8, 13))
    for info in dyn.ports:
        _assert_pair_equals_single_rows(dyn, np.array([3.0e5]), info.name)


@pytest.mark.parametrize(
    "model, omegas",
    [
        (get_builtin("electromech"), np.geomspace(TAU * 1.0e3, TAU * 1.0e8, 25)),
        (two_mode_converter(t_b=0.05), np.geomspace(TAU * 1.0e4, TAU * 1.0e10, 25)),
    ],
    ids=["electromech", "converter"],
)
def test_transfer_pair_equals_single_rows(
    model: TransducerModel, omegas: np.ndarray
) -> None:
    dyn = assemble_dynamics(model)
    _assert_pair_equals_single_rows(dyn, omegas)
    for info in dyn.ports:
        _assert_pair_equals_single_rows(dyn, omegas[::6], info.name)


def test_transfer_pair_near_singular_error_matches_scattering_matrix() -> None:
    dyn = assemble_dynamics(near_singular_model())
    omega = TAU * 2.0e6
    with pytest.raises(NearSingularError) as want:
        scattering_matrix(dyn, omega)
    with pytest.raises(NearSingularError) as got:
        transfer_pair(dyn, omega)
    assert got.value.omega == want.value.omega == omega
    assert str(got.value) == str(want.value)


def test_transfer_pair_checks_exit_port_before_solving() -> None:
    # At the singular point the solve would raise NearSingularError; the
    # unknown exit port is reported first.
    dyn = assemble_dynamics(near_singular_model())
    with pytest.raises(ConfigurationError, match="unknown exit port 'nope'"):
        transfer_pair(dyn, TAU * 2.0e6, exit_port="nope")


def _reference_checks(dyn: DoubledDynamics, omegas: np.ndarray) -> dict[str, float]:
    """Per-probe loop over one-point solves, the reference for ``consistency_checks``."""
    p = dyn.n_ports
    swap = np.concatenate([np.arange(p, 2 * p), np.arange(0, p)])
    worst = {"unitarity": 0.0, "particle_hole": 0.0, "sum_rule": 0.0}
    skipped = 0
    for omega in omegas:
        try:
            s_up = scattering_matrix(dyn, float(omega))
            s_dn = scattering_matrix(dyn, -float(omega))
        except NearSingularError:
            skipped += 1
            continue
        mask = physical_slot_mask(dyn.ports, float(omega))
        worst["unitarity"] = max(
            worst["unitarity"],
            symplectic_residual(s_up.matrix, dyn.metric, mask=mask),
        )
        mismatch = float(
            np.max(np.abs(s_dn.matrix - np.conj(s_up.matrix)[np.ix_(swap, swap)]))
        )
        worst["particle_hole"] = max(worst["particle_hole"], mismatch)
        for s in (s_up, s_dn):
            resid = sum_rule_residual(transfer_row(s))
            if math.isfinite(resid):
                worst["sum_rule"] = max(worst["sum_rule"], abs(resid))
    worst["skipped"] = float(skipped)
    return worst


def _assert_checks_match_reference(
    dyn: DoubledDynamics, omegas: np.ndarray
) -> dict[str, float]:
    got = consistency_checks(dyn, omegas)
    want = _reference_checks(dyn, omegas)
    assert got.keys() == want.keys()
    for key in ("unitarity", "particle_hole", "skipped"):
        assert got[key] == want[key], key
    # Both square by one rule and sum the ports in order below eight ports;
    # from eight on the batched rows sum pairwise, and the last bits may
    # differ.
    if dyn.n_ports < 8:
        assert got["sum_rule"] == want["sum_rule"]
    else:
        assert got["sum_rule"] == pytest.approx(want["sum_rule"], rel=0.0, abs=1e-15)
    return got


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_consistency_checks_match_per_probe_loop_on_wide_models(seed: int) -> None:
    dyn = assemble_dynamics(wide_model(np.random.default_rng(seed)))
    _assert_checks_match_reference(dyn, np.geomspace(1.0e2, 1.0e8, 13))


@pytest.mark.parametrize(
    "model, omegas",
    [
        (get_builtin("electromech"), np.geomspace(TAU * 1.0e3, TAU * 1.0e8, 25)),
        (two_mode_converter(t_b=0.05), np.geomspace(TAU * 1.0e4, TAU * 1.0e10, 25)),
    ],
    ids=["electromech", "converter"],
)
def test_consistency_checks_match_per_probe_loop(
    model: TransducerModel, omegas: np.ndarray, monkeypatch: pytest.MonkeyPatch
) -> None:
    dyn = assemble_dynamics(model)
    calls = []
    solve_block = scattering._solve_block
    monkeypatch.setattr(
        scattering, "_solve_block", lambda d, w: calls.append(w.tolist()) or solve_block(d, w)
    )
    got = _assert_checks_match_reference(dyn, omegas)
    assert got["skipped"] == 0.0
    # One block holds every probe at both signs; the reference then makes
    # two one-point solves per probe.
    assert calls[0] == omegas.tolist() + (-omegas).tolist()
    assert len(calls) == 1 + 2 * omegas.size


def test_consistency_checks_skip_the_singular_probe() -> None:
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    omegas = np.union1d(np.linspace(TAU * 1.0e6, TAU * 3.0e6, 9), [TAU * 2.0e6])
    got = _assert_checks_match_reference(dyn, omegas)
    assert got["skipped"] >= 1.0


def test_all_singular_block_records_failures() -> None:
    # A block whose every point is near-singular forms no row of S: the
    # sweep records each point as a failure and the checks skip each probe.
    dyn = assemble_dynamics(near_singular_model(delta_hz=2.0e6, gamma_hz=1.0e5))
    env = NoiseEnvironment.from_dynamics(dyn)
    grid = spectrum_sweep(dyn, env, [TAU * 2.0e6])
    assert [f.index for f in grid.failures] == [0]
    # 1025 points: the one-point last block is the pole.
    omegas = np.linspace(TAU * 1.0e6, TAU * 2.0e6, 1025)
    assert [f.index for f in spectrum_sweep(dyn, env, omegas).failures] == [1024]
    got = consistency_checks(dyn, [TAU * 2.0e6])
    assert got == {"unitarity": 0.0, "particle_hole": 0.0, "sum_rule": 0.0, "skipped": 1.0}


def test_consistency_checks_solve_the_lower_sideband() -> None:
    # The asymmetric squeezer breaks particle-hole symmetry: a check that
    # mirrored S(omega) instead of solving at -omega would read 0 here.
    dyn = _asymmetric_squeezer()
    got = _assert_checks_match_reference(dyn, np.linspace(TAU * 1.0e5, TAU * 3.0e6, 23))
    assert got["particle_hole"] > 1e-3


def _assert_one_row_function(dyn: DoubledDynamics, omegas: np.ndarray) -> None:
    """Every S comes from one row function, so its consumers share its bytes.

    At each frequency the sweep's upper exit row, the upper row of
    transfer_pair and the exit row of scattering_matrix hold the same
    bytes on the physical slots, signs of zeros included; the unitarity of
    consistency_checks is the sweep's worst symplectic residual.
    """
    env = NoiseEnvironment.from_dynamics(dyn)
    grid = spectrum_sweep(dyn, env, omegas)
    assert not grid.failures and grid.exit_rows is not None
    exit_col = dyn.port_index[dyn.exit_port]
    for i, omega in enumerate(omegas.tolist()):
        mask = physical_slot_mask(dyn.ports, omega)
        up, _ = transfer_pair(dyn, omega)
        pair = np.array([*up.u_coeffs.values(), *up.v_coeffs.values()])
        sweep = np.where(mask, grid.exit_rows[0, i], 0j)
        matrix = np.where(mask, scattering_matrix(dyn, omega).matrix[exit_col], 0j)
        assert sweep.tobytes() == pair.tobytes() == matrix.tobytes(), i
    assert grid.symplectic_resid is not None
    checks = consistency_checks(dyn, omegas)
    assert checks["skipped"] == 0.0
    assert checks["unitarity"] == np.max(grid.symplectic_resid)


def test_electromech_takes_s_from_one_row_function() -> None:
    dyn = assemble_dynamics(get_builtin("electromech"))
    _assert_one_row_function(dyn, np.linspace(TAU * 4.0e6, TAU * 6.0e6, 41))
    _assert_one_row_function(dyn, np.geomspace(TAU * 1.0e3, TAU * 1.0e8, 25))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_models_take_s_from_one_row_function(seed: int) -> None:
    rng = np.random.default_rng(seed)
    for model in (random_stable_model(rng), wide_model(rng)):
        _assert_one_row_function(assemble_dynamics(model), np.geomspace(1.0e2, 1.0e10, 40))


@pytest.mark.parametrize(
    "omegas",
    [
        np.array([]),
        np.array([-1.0, 1.0]),
        np.array([2.0, 1.0]),
        np.array([1.0, 1.0]),
    ],
)
def test_spectrum_sweep_rejects_bad_grids(omegas: np.ndarray) -> None:
    dyn = assemble_dynamics(two_mode_converter())
    env = NoiseEnvironment.from_dynamics(dyn)
    with pytest.raises(ConfigurationError):
        spectrum_sweep(dyn, env, omegas)


def test_spectrum_sweep_unknown_exit_port() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    env = NoiseEnvironment.from_dynamics(dyn)
    with pytest.raises(ConfigurationError):
        spectrum_sweep(dyn, env, np.array([1.0, 2.0, 3.0]), exit_port="nope")


def test_errors_share_base_class() -> None:
    assert issubclass(NearSingularError, ModeScatterError)
    assert issubclass(ConfigurationError, ModeScatterError)
    assert issubclass(DomainError, ModeScatterError)
