"""Model construction, validation and doubled-basis assembly."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from conftest import TAU, readme_model_json, two_mode_converter, wide_model

from modescatter import (
    Band,
    ConfigurationError,
    Coupling,
    Drive,
    InternalMode,
    ModelUnstableError,
    ModelValidationError,
    NumericalError,
    Port,
    TransducerModel,
    assemble_dynamics,
    random_stable_model,
    rwa_report,
    scattering_matrix,
)
import modescatter.network
from modescatter.modelfile import get_builtin, parse_model
from modescatter.network import validate_model


def _single_mode_model(detune_hz: float = 0.0) -> TransducerModel:
    center = TAU * 5.0e9
    band = Band("b", center)
    mode = InternalMode("m", band, "rotating", center + TAU * detune_hz)
    port = Port("p", mode, TAU * 1.0e6, 0.0, role="signal")
    return TransducerModel((band,), (mode,), (), (), (port,))


def test_validate_clean_model() -> None:
    report = validate_model(two_mode_converter())
    assert report.ok
    assert report.errors == []
    assert report.warnings == []
    assert any("occupanc" in note for note in report.notes)


def test_validate_detects_duplicate_names() -> None:
    base = _single_mode_model()
    model = TransducerModel(
        bands=base.bands,
        modes=base.modes,
        drives=(),
        couplings=(),
        ports=(base.ports[0], base.ports[0]),
    )
    report = validate_model(model)
    assert not report.ok
    assert any("duplicate port name" in e for e in report.errors)


def test_validate_requires_exactly_one_signal_port() -> None:
    base = _single_mode_model()
    mode = base.modes[0]
    loss_only = TransducerModel(
        bands=base.bands,
        modes=base.modes,
        drives=(),
        couplings=(),
        ports=(Port("p", mode, TAU * 1.0e6, 0.0, role="loss"),),
    )
    report = validate_model(loss_only)
    assert any("exactly one signal port" in e for e in report.errors)


def test_validate_rejects_nonpositive_port_rate() -> None:
    base = _single_mode_model()
    mode = base.modes[0]
    bad = TransducerModel(
        bands=base.bands,
        modes=base.modes,
        drives=(),
        couplings=(),
        ports=(Port("p", mode, -1.0, 0.0, role="signal"),),
    )
    report = validate_model(bad)
    assert any("rate must be positive" in e for e in report.errors)


def test_validate_rejects_quadrature_port_on_rotating_mode() -> None:
    base = _single_mode_model()
    mode = base.modes[0]
    bad = TransducerModel(
        bands=base.bands,
        modes=base.modes,
        drives=(),
        couplings=(),
        ports=(
            Port("p", mode, TAU * 1.0e6, 0.0, role="signal", flavor="lab-quadrature"),
        ),
    )
    report = validate_model(bad)
    assert any("lab-quadrature flavor" in e for e in report.errors)


def test_validate_detects_drive_mismatch() -> None:
    model = two_mode_converter()
    required = (
        model.bands[0].center_frequency - model.bands[1].center_frequency
    )
    bad_drive = Drive("pump", required * (1.0 + 1e-6))
    coupling = Coupling(
        model.modes[0], model.modes[1], TAU * 1.0e6, "beam-splitter", drive=bad_drive
    )
    bad = TransducerModel(
        bands=model.bands,
        modes=model.modes,
        drives=(bad_drive,),
        couplings=(coupling,),
        ports=model.ports,
    )
    report = validate_model(bad)
    assert any("drive mismatch" in e for e in report.errors)


def test_validate_accepts_drive_within_tolerance() -> None:
    model = two_mode_converter()
    required = (
        model.bands[0].center_frequency - model.bands[1].center_frequency
    )
    drive = Drive("pump", required * (1.0 + 1e-10))
    coupling = Coupling(
        model.modes[0], model.modes[1], TAU * 1.0e6, "beam-splitter", drive=drive
    )
    ok = TransducerModel(
        bands=model.bands,
        modes=model.modes,
        drives=(drive,),
        couplings=(coupling,),
        ports=model.ports,
    )
    assert validate_model(ok).ok


def test_validate_warns_on_marginal_band_separation() -> None:
    # Gap of 2 GHz against a 300 MHz linewidth falls below the default
    # 10x separation requirement.
    model = two_mode_converter(kappa_a_hz=3.0e8, kappa_b_hz=3.0e8)
    report = validate_model(model)
    assert report.ok
    assert any("RWA separation" in w for w in report.warnings)


def test_validate_lists_every_fault_in_order() -> None:
    # Faults in ports, signal roles, mode totals and couplings together,
    # and a marginal band gap: the full lists, text and order.
    b1, b2 = Band("b1", TAU * 5.0e9), Band("b2", TAU * 4.0e9)
    m1 = InternalMode("m1", b1, "rotating", TAU * 5.001e9)
    m2 = InternalMode("m2", b2, "rotating", TAU * 4.001e9)
    m3 = InternalMode("m3", b2, "rotating", TAU * 4.002e9)
    ghost = InternalMode("ghost", b2, "rotating", TAU * 4.003e9)
    pump = Drive("pump", 1.0e9)
    ports = (
        Port("p", m1, -1.0, 0.0, role="signal"),
        Port("p", m1, TAU * 3.0e8, 0.01, role="signal", flavor="lab-quadrature"),
        Port("q", m2, 0.0, 0.0, role="exit"),
        Port("r", m2, TAU * 1.0e6, -1.0),
        Port("s", m3, -5.0, 0.0),
        Port("t", ghost, TAU * 1.0e6, 0.0),
    )
    couplings = (
        Coupling(m1, m2, TAU * 1.0e6, "beam-splitter", drive=pump),
        Coupling(m2, m3, TAU * 1.0e6, "beam-splitter", drive=Drive("ghost", 0.0)),
    )
    model = TransducerModel((b1, b2), (m1, m2, m3), (pump,), couplings, ports)
    report = validate_model(model)
    assert report.errors == [
        "duplicate port name 'p'",
        "port 'p': rate must be positive, got -1.0",
        "port 'p': lab-quadrature flavor requires a lab-quadrature mode, but 'm1' is rotating",
        "port 'q': rate must be positive, got 0.0",
        "port 'r': temperature must be non-negative",
        "port 's': rate must be positive, got -5.0",
        "port 't': unknown mode 'ghost'",
        "exactly one signal port is required, found 2",
        "mode 'm3': total port rate must be positive",
        "coupling[0] (m1-m2): drive mismatch, band structure requires 6.283185e+09"
        " rad/s but the drive supplies 1.000000e+09",
        "coupling[1] (m2-m3): unknown drive 'ghost'",
    ]
    assert report.warnings == [
        "RWA separation violated on coupling[0]: band gap 6.283e+09 rad/s vs 10"
        " x max linewidth 1.885e+09 rad/s"
    ]
    assert report.notes == [modescatter.network.OCCUPANCY_NOTE]


def test_degenerate_model_raises() -> None:
    with pytest.raises(ConfigurationError):
        validate_model(TransducerModel((), (), (), (), ()))


def test_assemble_raises_on_validation_errors() -> None:
    base = _single_mode_model()
    mode = base.modes[0]
    bad = TransducerModel(
        bands=base.bands,
        modes=base.modes,
        drives=(),
        couplings=(),
        ports=(Port("p", mode, -1.0, 0.0, role="signal"),),
    )
    with pytest.raises(ModelValidationError) as excinfo:
        assemble_dynamics(bad)
    assert excinfo.value.errors
    assert any("rate must be positive" in e for e in excinfo.value.errors)


def test_exit_defaults_to_signal_port() -> None:
    model = _single_mode_model()
    assert model.exit_port.name == model.signal_port.name == "p"
    dyn = assemble_dynamics(model)
    assert dyn.exit_port == "p"
    assert dyn.signal_port == "p"


def test_single_mode_reflection_is_full_and_lossless() -> None:
    gamma = TAU * 1.0e6
    dyn = assemble_dynamics(_single_mode_model(detune_hz=0.0))
    # On resonance a single lossless port reflects with a pi phase flip.
    s0 = scattering_matrix(dyn, 1e-6 * gamma)
    assert s0.matrix[0, 0] == pytest.approx(-1.0, abs=1e-5)
    for omega in (0.1 * gamma, gamma, 10.0 * gamma):
        s = scattering_matrix(dyn, omega)
        assert abs(s.matrix[0, 0]) == pytest.approx(1.0, abs=1e-12)
        expected = 1.0 + gamma / (1j * omega - gamma / 2.0)
        assert s.matrix[0, 0] == pytest.approx(expected, abs=1e-12)


def test_doubled_layout_and_metric() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    assert dyn.dimension == 4
    assert dyn.n_ports == 2
    assert dyn.port_index == {"sig": 0, "out": 1}
    assert dyn.mode_index == {"ma": 0, "mb": 1}
    np.testing.assert_array_equal(dyn.metric, [1.0, 1.0, -1.0, -1.0])
    np.testing.assert_array_equal(dyn.mode_metric, [1.0, 1.0, -1.0, -1.0])


def test_output_coupling_follows_metric_relation() -> None:
    dyn = assemble_dynamics(two_mode_converter())
    expected = (dyn.metric[:, None] * dyn.in_coupling.conj().T) * dyn.mode_metric[
        None, :
    ]
    np.testing.assert_allclose(dyn.out_coupling, expected, atol=0.0)


_ASSEMBLY_DIGESTS = {
    "electromech": "ba47970cabd3a37f8995b8c7a8f26931e3f6a921e5d047cabd777f88f9964850",
    "readme-converter": "1d186255ae2279c5ba43f6bcd189a9573d6053fad22f4090d566ae140c23c89f",
    "wide-0": "ed6b2962eae279d229e0251ef13cdc90dba29b7ccffb3f04abdfb23e3dfe5bbc",
    "wide-1": "6a25aa6642ba1b8160ab6fa5cc3c3ba238d8efdf533c7a3e136d0e5f4ad1745c",
    "wide-2": "721804636e12234512823285e77f8eb77a7f26fc8b32125ee2b398d05a8b7603",
    "wide-3": "d3ed80bccf578257d2603d1c85915cd5ba1a11f38136a5cbb2f1c38fd47e0fca",
    "wide-4": "3658086d7c0188e7f61518669366bcb57e6d77d305725fda8823598c6b3b3faa",
    "wide-5": "b45a4dd1bd958993a93e0c8bb6bfea6787577b23b3332b766ba69ae61aba7518",
}


@pytest.mark.parametrize("case", sorted(_ASSEMBLY_DIGESTS))
def test_assembled_arrays_are_pinned(case: str) -> None:
    # SHA-256 over the shape, strides and bytes of M, G and G': assembly is
    # plain IEEE arithmetic, so its bits hold on every platform, and the
    # memory layout decides which BLAS path later products take. The
    # eigenvalues come from the platform's LAPACK, whose last bits vary
    # between builds, so they are pinned to those of M itself.
    if case == "electromech":
        model = get_builtin("electromech")
    elif case == "readme-converter":
        model = parse_model(readme_model_json())
    else:
        model = wide_model(np.random.default_rng(int(case.removeprefix("wide-"))))
    dyn = assemble_dynamics(model)
    digest = hashlib.sha256()
    for array in (dyn.dyn_matrix, dyn.in_coupling, dyn.out_coupling):
        assert array.dtype == np.complex128
        digest.update(repr((array.shape, array.strides)).encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == _ASSEMBLY_DIGESTS[case]
    assert dyn.eigenvalues.tobytes() == np.linalg.eigvals(dyn.dyn_matrix).tobytes()


def test_unstable_squeezer_rejected() -> None:
    # Resonant two-mode squeezing above gamma/2 makes the pair antidamped.
    ca, cb = TAU * 3.0e9, TAU * 1.0e9
    gamma = TAU * 1.0e5
    band_a, band_b = Band("a", ca), Band("b", cb)
    ma = InternalMode("ma", band_a, "rotating", ca)
    mb = InternalMode("mb", band_b, "rotating", cb)
    pump = Drive("pump", ca + cb)
    coupling = Coupling(ma, mb, 0.6 * gamma, "two-mode-squeezing", drive=pump)
    ports = (
        Port("pa", ma, gamma, 0.0, role="signal"),
        Port("pb", mb, gamma, 0.0, role="exit"),
    )
    model = TransducerModel((band_a, band_b), (ma, mb), (pump,), (coupling,), ports)
    with pytest.raises(ModelUnstableError):
        assemble_dynamics(model)


def test_rwa_report_ratios() -> None:
    model = two_mode_converter(kappa_a_hz=4.0e6, kappa_b_hz=2.0e6)
    report = rwa_report(model)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.gap == pytest.approx(TAU * 2.0e9)
    assert entry.linewidth == pytest.approx(TAU * 4.0e6)
    assert report.min_ratio == pytest.approx(500.0)


def test_rwa_report_marks_dc_couplings() -> None:
    center = TAU * 5.0e9
    band = Band("b", center)
    m1 = InternalMode("m1", band, "rotating", center + TAU * 1.0e6)
    m2 = InternalMode("m2", band, "rotating", center - TAU * 1.0e6)
    coupling = Coupling(m1, m2, TAU * 1.0e5, "beam-splitter", drive=None)
    ports = (
        Port("p1", m1, TAU * 1.0e6, 0.0, role="signal"),
        Port("p2", m2, TAU * 1.0e6, 0.0, role="exit"),
    )
    model = TransducerModel((band,), (m1, m2), (), (coupling,), ports)
    assert validate_model(model).ok
    report = rwa_report(model)
    assert report.entries[0].ratio is None
    assert report.min_ratio is None


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_random_stable_model_reproducible(seed: int) -> None:
    a = random_stable_model(np.random.default_rng(seed))
    b = random_stable_model(np.random.default_rng(seed))
    assert a == b
    dyn = assemble_dynamics(a)
    assert dyn.n_ports >= 2


def test_random_stable_model_respects_mode_count() -> None:
    model = random_stable_model(np.random.default_rng(5), n_modes=3)
    assert len(model.modes) == 3
    roles = [p.role for p in model.ports]
    assert roles.count("signal") == 1
    assert roles.count("exit") == 1


def test_random_stable_model_rejects_bad_count() -> None:
    with pytest.raises(ConfigurationError):
        random_stable_model(np.random.default_rng(0), n_modes=0)


def test_random_stable_model_gives_up_with_numerical_error(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    calls = []

    def always_unstable(model: TransducerModel) -> None:
        calls.append(model)
        raise ModelUnstableError("unstable")

    monkeypatch.setattr(modescatter.network, "assemble_dynamics", always_unstable)
    with pytest.raises(NumericalError, match="60 attempts") as excinfo:
        random_stable_model(np.random.default_rng(0))
    assert excinfo.value.exit_code == 3
    assert len(calls) == 60
