"""JSON model files, builtins and dotted-path overrides."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import pytest
from conftest import TAU, readme_model_json, two_mode_converter, wide_model
from hypothesis import given, settings
from hypothesis import strategies as st

from modescatter import (
    ConfigurationError,
    TransducerModel,
    ElectromechParams,
    ModelValidationError,
    assemble_dynamics,
    build_model,
    random_stable_model,
    validate_model,
)
from modescatter.modelfile import (
    BUILTIN_MODELS,
    angular_to_hz,
    electromech_params,
    get_builtin,
    hz_to_angular,
    load_model,
    model_with,
    parse_model,
    save_model,
)

_VALID = {
    "bands": [{"name": "b", "center_hz": 5.0e9}],
    "drives": [],
    "modes": [
        {"name": "m", "band": "b", "frame": "rotating", "resonance_hz": 5.000001e9}
    ],
    "couplings": [],
    "ports": [
        {
            "name": "p",
            "mode": "m",
            "rate_hz": 1.0e6,
            "temperature_k": 0.0,
            "role": "signal",
            "flavor": "rotating",
        }
    ],
}


def _doc(**changes: object) -> str:
    data = json.loads(json.dumps(_VALID))
    data.update(changes)
    return json.dumps(data)


def test_parse_minimal_model() -> None:
    model = parse_model(_doc())
    assert model.bands[0].center_frequency == hz_to_angular(5.0e9)
    assert model.ports[0].rate == hz_to_angular(1.0e6)
    assert model.signal_port.name == "p"


def test_unit_round_trip_is_ulp_accurate() -> None:
    # Multiplying and dividing by 2 pi costs at most one rounding step each.
    rng = np.random.default_rng(17)
    values = 10.0 ** rng.uniform(0.0, 10.0, size=1000)
    for value in values:
        back = angular_to_hz(hz_to_angular(float(value)))
        assert abs(back - value) <= 2.0 * math.ulp(float(value))
    assert hz_to_angular(1.0) == TAU
    assert angular_to_hz(TAU) == 1.0


def test_save_load_round_trip(tmp_path: Path) -> None:
    model = two_mode_converter(t_a=0.05, t_b=0.01)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model


def test_save_is_idempotent(tmp_path: Path) -> None:
    model = two_mode_converter()
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_text() == second.read_text()


def _leaves(obj: Any, path: str = "model") -> Iterator[tuple[str, Any]]:
    """Every scalar field of a model, by path through its dataclasses and tuples."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def _generated_model(seed: int, wide: bool) -> TransducerModel:
    rng = np.random.default_rng(seed)
    return wide_model(rng) if wide else random_stable_model(rng)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_save_load_round_trip_on_generated_models(
    tmp_path_factory: pytest.TempPathFactory, seed: int, wide: bool
) -> None:
    # The file holds Hz. An angular value that is some float times 2 pi
    # comes back bit for bit; a drawn one may have no such preimage and
    # then comes back one ulp away, on its first save only: a loaded model
    # round-trips bit for bit, and so does its file text.
    model = _generated_model(seed, wide)
    folder = tmp_path_factory.mktemp("round-trip")
    paths = [folder / f"{k}.json" for k in range(2)]
    save_model(model, paths[0])
    loaded = load_model(paths[0])
    save_model(loaded, paths[1])
    assert load_model(paths[1]) == loaded
    assert paths[1].read_text() == paths[0].read_text()
    for (path, want), (_, got) in zip(_leaves(model), _leaves(loaded), strict=True):
        in_hz = isinstance(want, float) and not path.endswith(".temperature")
        if in_hz and hz_to_angular(angular_to_hz(want)) != want:
            assert abs(got - want) <= math.ulp(want), path
        else:
            assert got == want, path


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), wide=st.booleans())
def test_model_with_then_revalidation_on_generated_models(seed: int, wide: bool) -> None:
    # Stronger damping, new temperatures and weaker couplings: the copy
    # holds exactly the assigned values, still validates and still
    # assembles stable dynamics, and the original is untouched.
    model = _generated_model(seed, wide)
    before = list(_leaves(model))
    rng = np.random.default_rng(seed)
    assignments = {}
    for port in model.ports:
        assignments[f"ports.{port.name}.rate"] = port.rate * rng.uniform(1.0, 2.0)
        assignments[f"ports.{port.name}.temperature"] = rng.uniform(0.0, 0.1)
    for i, coupling in enumerate(model.couplings):
        assignments[f"couplings.{i}.rate"] = coupling.rate * rng.uniform(0.5, 1.0)
    updated = model_with(model, assignments)
    for port in updated.ports:
        assert port.rate == assignments[f"ports.{port.name}.rate"]
        assert port.temperature == assignments[f"ports.{port.name}.temperature"]
    for i, coupling in enumerate(updated.couplings):
        assert coupling.rate == assignments[f"couplings.{i}.rate"]
    report = validate_model(updated)
    assert report.ok, report.errors
    assemble_dynamics(updated)
    assert list(_leaves(model)) == before


def test_saved_payload_units_are_hz(tmp_path: Path) -> None:
    model = two_mode_converter(g_hz=1.0e6)
    path = tmp_path / "model.json"
    save_model(model, path)
    data = json.loads(path.read_text())
    assert data["bands"][0]["center_hz"] == 6.0e9
    assert data["couplings"][0]["rate_hz"] == 1.0e6
    assert data["couplings"][0]["drive"] == "pump"
    assert data["couplings"][0]["order"] == 1
    assert data["ports"][0]["temperature_k"] == 0.0


_SAVED_CONVERTER = """\
{
  "bands": [
    {
      "name": "uwave",
      "center_hz": 6000000000.0
    },
    {
      "name": "acoustic",
      "center_hz": 4000000000.0
    }
  ],
  "drives": [
    {
      "name": "pump",
      "frequency_hz": 2000000000.0
    }
  ],
  "modes": [
    {
      "name": "ma",
      "band": "uwave",
      "frame": "rotating",
      "resonance_hz": 6001000000.0
    },
    {
      "name": "mb",
      "band": "acoustic",
      "frame": "rotating",
      "resonance_hz": 4001000000.0
    }
  ],
  "couplings": [
    {
      "mode_a": "ma",
      "mode_b": "mb",
      "rate_hz": 1000000.0,
      "form": "beam-splitter",
      "order": 1,
      "drive": "pump"
    }
  ],
  "ports": [
    {
      "name": "sig",
      "mode": "ma",
      "rate_hz": 4000000.0,
      "temperature_k": 0.0,
      "role": "signal",
      "flavor": "rotating"
    },
    {
      "name": "out",
      "mode": "mb",
      "rate_hz": 4000000.0,
      "temperature_k": 0.05,
      "role": "exit",
      "flavor": "rotating"
    }
  ]
}
"""

_SAVED_ELECTROMECH = """\
{
  "bands": [
    {
      "name": "mech_band",
      "center_hz": 0.0
    },
    {
      "name": "lc_band",
      "center_hz": 4995000000.0
    }
  ],
  "drives": [
    {
      "name": "pump",
      "frequency_hz": 4995000000.0
    }
  ],
  "modes": [
    {
      "name": "mech",
      "band": "mech_band",
      "frame": "lab-quadrature",
      "resonance_hz": 5000000.0
    },
    {
      "name": "lc",
      "band": "lc_band",
      "frame": "rotating",
      "resonance_hz": 5000000000.0
    }
  ],
  "couplings": [
    {
      "mode_a": "mech",
      "mode_b": "lc",
      "rate_hz": 50000.0,
      "form": "quadrature-position",
      "order": 1,
      "drive": "pump"
    }
  ],
  "ports": [
    {
      "name": "wg",
      "mode": "mech",
      "rate_hz": 25000.0,
      "temperature_k": 0.03,
      "role": "exit",
      "flavor": "lab-quadrature"
    },
    {
      "name": "mech_loss",
      "mode": "mech",
      "rate_hz": 10.0,
      "temperature_k": 0.03,
      "role": "loss",
      "flavor": "lab-quadrature"
    },
    {
      "name": "tx",
      "mode": "lc",
      "rate_hz": 100000.0,
      "temperature_k": 0.03,
      "role": "signal",
      "flavor": "rotating"
    }
  ]
}
"""


@pytest.mark.parametrize(
    ("build", "text"),
    [
        (lambda: parse_model(readme_model_json()), _SAVED_CONVERTER),
        (lambda: get_builtin("electromech"), _SAVED_ELECTROMECH),
    ],
    ids=["readme-converter", "electromech"],
)
def test_saved_file_text(tmp_path: Path, build: Any, text: str) -> None:
    # Sections and keys in file order; a coupling writes its order first.
    path = tmp_path / "model.json"
    save_model(build(), path)
    assert path.read_text() == text


def test_dc_coupling_saves_no_drive(tmp_path: Path) -> None:
    model = parse_model(readme_model_json())
    dc = dataclasses.replace(model.couplings[0], drive=None)
    path = tmp_path / "model.json"
    save_model(dataclasses.replace(model, couplings=(dc,)), path)
    coupling = json.loads(path.read_text())["couplings"][0]
    assert list(coupling) == ["mode_a", "mode_b", "rate_hz", "form", "order"]


def _shared_band_converter() -> dict[str, Any]:
    """The README converter with both modes in one band, where DC may couple them."""
    data = json.loads(readme_model_json())
    data["modes"][1].update(band="uwave", resonance_hz=6.002e9)
    return data


def test_null_drive_is_dc_and_missing_order_is_one() -> None:
    data = _shared_band_converter()
    assert "order" not in data["couplings"][0]
    data["couplings"][0]["drive"] = None
    coupling = parse_model(json.dumps(data)).couplings[0]
    assert coupling.drive is None
    assert coupling.order == 1
    del data["couplings"][0]["drive"]
    assert parse_model(json.dumps(data)).couplings[0] == coupling


def test_null_order_is_a_type_error() -> None:
    data = _shared_band_converter()
    data["couplings"][0]["order"] = None
    with pytest.raises(ConfigurationError) as excinfo:
        parse_model(json.dumps(data))
    assert str(excinfo.value) == "couplings[0].order: expected int, got NoneType"


@pytest.mark.parametrize(
    ("misspelt", "value", "key"),
    [("ordr", 2, None), ("drve", "pump", "drive")],
)
def test_misspelt_item_key_is_rejected(
    misspelt: str, value: object, key: str | None
) -> None:
    # Read as the default, "ordr" would load as order 1 and "drve" as a DC
    # coupling between the two bands.
    data = json.loads(readme_model_json())
    coupling = data["couplings"][0]
    if key is not None:
        del coupling[key]
    coupling[misspelt] = value
    with pytest.raises(ConfigurationError) as excinfo:
        parse_model(json.dumps(data))
    assert str(excinfo.value) == f"couplings[0]: unknown keys [{misspelt!r}]"


def test_invalid_json_reports_position() -> None:
    with pytest.raises(ConfigurationError, match=r"line 1, column"):
        parse_model('{"bands": [,]}', source="broken.json")


def test_top_level_must_be_object() -> None:
    with pytest.raises(ConfigurationError, match="top level"):
        parse_model("[1, 2]")


def test_unknown_top_level_key() -> None:
    with pytest.raises(ConfigurationError, match="unknown top-level keys"):
        parse_model(_doc(extras=[]))


def test_missing_required_sections() -> None:
    data = json.loads(_doc())
    del data["ports"]
    with pytest.raises(ConfigurationError, match="missing top-level keys"):
        parse_model(json.dumps(data))


def test_missing_field_reports_path() -> None:
    data = json.loads(_doc())
    del data["bands"][0]["center_hz"]
    with pytest.raises(ConfigurationError, match=r"bands\[0\]"):
        parse_model(json.dumps(data))


def test_wrong_type_reports_path() -> None:
    data = json.loads(_doc())
    data["ports"][0]["rate_hz"] = "fast"
    with pytest.raises(ConfigurationError, match=r"ports\[0\]"):
        parse_model(json.dumps(data))


def test_boolean_is_not_a_number() -> None:
    data = json.loads(_doc())
    data["ports"][0]["rate_hz"] = True
    with pytest.raises(ConfigurationError, match=r"ports\[0\]"):
        parse_model(json.dumps(data))


def test_dangling_band_reference() -> None:
    data = json.loads(_doc())
    data["modes"][0]["band"] = "ghost"
    with pytest.raises(ConfigurationError, match=r"modes\[0\]\.band"):
        parse_model(json.dumps(data))


def test_dangling_drive_reference() -> None:
    data = json.loads(_doc())
    data["couplings"] = [
        {
            "mode_a": "m",
            "mode_b": "m",
            "rate_hz": 1.0e3,
            "form": "beam-splitter",
            "drive": "ghost",
        }
    ]
    with pytest.raises(ConfigurationError, match=r"couplings\[0\]\.drive"):
        parse_model(json.dumps(data))


def test_unknown_enum_choice() -> None:
    data = json.loads(_doc())
    data["ports"][0]["role"] = "drain"
    with pytest.raises(ConfigurationError, match=r"ports\[0\]\.role"):
        parse_model(json.dumps(data))


def test_duplicate_names_rejected_at_parse_time() -> None:
    data = json.loads(_doc())
    data["bands"].append({"name": "b", "center_hz": 1.0e9})
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_model(json.dumps(data))


def test_physics_validation_runs_at_parse_time() -> None:
    data = json.loads(_doc())
    data["ports"][0]["rate_hz"] = -1.0e6
    text = json.dumps(data)
    with pytest.raises(ModelValidationError) as excinfo:
        parse_model(text)
    assert any("rate must be positive" in e for e in excinfo.value.errors)


def test_builtin_matches_direct_construction() -> None:
    assert "electromech" in BUILTIN_MODELS
    assert get_builtin("electromech") == build_model(ElectromechParams())


def test_builtin_overrides_in_hz() -> None:
    model = get_builtin("electromech", {"gamma_wg": 3.0e4, "t_wg": 0.0})
    wg = next(p for p in model.ports if p.name == "wg")
    assert wg.rate == pytest.approx(TAU * 3.0e4, rel=1e-15)
    assert wg.temperature == 0.0


def test_builtin_params_reject_unknown_key() -> None:
    with pytest.raises(ConfigurationError, match="unknown electromech parameter"):
        electromech_params({"kappa": 1.0})


def test_unknown_builtin_name() -> None:
    with pytest.raises(ConfigurationError, match="unknown builtin"):
        get_builtin("flux-capacitor")


def test_model_with_port_and_coupling_overrides() -> None:
    model = two_mode_converter()
    updated = model_with(
        model,
        {
            "ports.sig.rate": TAU * 2.0e6,
            "ports.out.temperature": 0.2,
            "couplings.0.rate": TAU * 5.0e5,
        },
    )
    assert updated.ports[0].rate == pytest.approx(TAU * 2.0e6)
    assert updated.ports[1].temperature == 0.2
    assert updated.couplings[0].rate == pytest.approx(TAU * 5.0e5)
    # The original is untouched.
    assert model.ports[0].rate == pytest.approx(TAU * 4.0e6)


@pytest.mark.parametrize(
    "path",
    [
        "ports.sig",
        "ports.ghost.rate",
        "ports.sig.color",
        "couplings.x.rate",
        "couplings.5.rate",
        "couplings.0.form",
        "modes.ma.rate",
    ],
)
def test_model_with_rejects_bad_paths(path: str) -> None:
    with pytest.raises(ConfigurationError):
        model_with(two_mode_converter(), {path: 1.0})


def test_load_model_missing_file(tmp_path: Path) -> None:
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_model(tmp_path / "absent.json")
