"""JSON model files, builtin models, and parameter overrides.

File schema (all frequencies and rates in Hz, temperatures in kelvin;
internally everything is angular, rad/s)::

    {
      "bands":     [{"name", "center_hz"}],
      "drives":    [{"name", "frequency_hz"}],
      "modes":     [{"name", "band", "frame", "resonance_hz"}],
      "couplings": [{"mode_a", "mode_b", "rate_hz", "form",
                     "drive" (optional), "order" (default 1)}],
      "ports":     [{"name", "mode", "rate_hz", "temperature_k",
                     "role", "flavor"}],
    }

``drives`` and ``couplings`` may be omitted. Cross references (``band``,
``mode_a``, ``drive``, ...) are by name. Saving converts rad/s back to Hz
choosing, when one exists, the Hz float whose product with 2*pi reproduces
the angular value bit-for-bit, so save -> load round-trips exactly for
models built from Hz inputs. A model drawn in rad/s may move by at most one
ulp per angular field on save -> load; a second round trip is exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Mapping

from .electromech import ElectromechParams, build_model
from .errors import ConfigurationError, ModelValidationError
from .network import (
    _FORMS,
    _FRAMES,
    _ROLES,
    Band,
    Coupling,
    Drive,
    InternalMode,
    Port,
    TransducerModel,
    validate_model,
)

_TOP_KEYS = ("bands", "drives", "modes", "couplings", "ports")
_REQUIRED_TOP = ("bands", "modes", "ports")

BUILTIN_MODELS = ("electromech",)

_ELECTROMECH_ANGULAR_FIELDS = frozenset(
    {"omega_m", "omega_lc", "g", "gamma_tx", "gamma_wg", "gamma_m", "omega_drive"}
)
_ELECTROMECH_TEMP_FIELDS = frozenset({"t_tx", "t_wg", "t_m"})


def angular_to_hz(omega: float) -> float:
    """Hz float whose product with 2*pi reproduces ``omega`` exactly if possible.

    The naive ``omega / (2*pi)`` usually fails ``hz * 2*pi == omega`` by one
    ulp; searching the few neighboring floats recovers the exact preimage
    whenever the angular value was itself produced as ``hz * 2*pi``.
    """
    if omega == 0.0 or not math.isfinite(omega):
        return omega
    guess = omega / math.tau
    up = guess
    down = guess
    candidates = [guess]
    for _ in range(2):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        candidates.extend((up, down))
    for candidate in candidates:
        if candidate * math.tau == omega:
            return candidate
    return guess


def hz_to_angular(value: float) -> float:
    return value * math.tau


def _require(
    obj: Mapping[str, Any], key: str, path: str, kind: type | tuple[type, ...]
) -> Any:
    if key not in obj:
        raise ConfigurationError(f"{path}: missing required field {key!r}")
    return _coerce(obj[key], f"{path}.{key}", kind)


def _coerce(value: Any, path: str, kind: type | tuple[type, ...]) -> Any:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if float in kinds and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, kinds):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ConfigurationError(
            f"{path}: expected {expected}, got {type(value).__name__}"
        )
    return value


def _check_choice(value: str, choices: tuple[str, ...], path: str) -> str:
    if value not in choices:
        raise ConfigurationError(
            f"{path}: {value!r} is not one of {', '.join(choices)}"
        )
    return value


def _section(data: Mapping[str, Any], key: str, source: str) -> list[Any]:
    if key not in data:
        return []
    items = data[key]
    if not isinstance(items, list):
        raise ConfigurationError(f"{source}: {key!r} must be a list")
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise ConfigurationError(f"{source}: {key}[{i}] must be an object")
    return items


def _unique_names(items: list[Any], section: str) -> None:
    seen: set[str] = set()
    for i, item in enumerate(items):
        name = item.get("name")
        if isinstance(name, str):
            if name in seen:
                raise ConfigurationError(
                    f"{section}[{i}]: duplicate name {name!r}"
                )
            seen.add(name)


def parse_model(
    text: str, source: str = "<string>", validate: bool = True
) -> TransducerModel:
    """Parse a JSON model description.

    Raises :class:`ConfigurationError` for malformed JSON, missing or
    mistyped fields, and dangling name references (the message carries the
    offending field path); with ``validate=True`` additionally runs
    :func:`validate_model` and raises :class:`ModelValidationError` if it
    reports errors.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}:"
            f" {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{source}: top level must be a JSON object")
    unknown = sorted(set(data) - set(_TOP_KEYS))
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown top-level keys {unknown}; expected"
            f" {list(_TOP_KEYS)}"
        )
    missing = [k for k in _REQUIRED_TOP if k not in data]
    if missing:
        raise ConfigurationError(f"{source}: missing top-level keys {missing}")

    band_items = _section(data, "bands", source)
    drive_items = _section(data, "drives", source)
    mode_items = _section(data, "modes", source)
    coupling_items = _section(data, "couplings", source)
    port_items = _section(data, "ports", source)
    _unique_names(band_items, "bands")
    _unique_names(drive_items, "drives")
    _unique_names(mode_items, "modes")
    _unique_names(port_items, "ports")

    bands: dict[str, Band] = {}
    for i, item in enumerate(band_items):
        path = f"bands[{i}]"
        name = _require(item, "name", path, str)
        center = _require(item, "center_hz", path, float)
        bands[name] = Band(name=name, center_frequency=hz_to_angular(center))

    drives: dict[str, Drive] = {}
    for i, item in enumerate(drive_items):
        path = f"drives[{i}]"
        name = _require(item, "name", path, str)
        freq = _require(item, "frequency_hz", path, float)
        drives[name] = Drive(name=name, frequency=hz_to_angular(freq))

    modes: dict[str, InternalMode] = {}
    for i, item in enumerate(mode_items):
        path = f"modes[{i}]"
        name = _require(item, "name", path, str)
        band_name = _require(item, "band", path, str)
        if band_name not in bands:
            raise ConfigurationError(
                f"{path}.band: no band named {band_name!r}"
            )
        frame = _check_choice(
            _require(item, "frame", path, str), _FRAMES, f"{path}.frame"
        )
        resonance = _require(item, "resonance_hz", path, float)
        modes[name] = InternalMode(
            name=name,
            band=bands[band_name],
            frame=frame,
            resonance_frequency=hz_to_angular(resonance),
        )

    couplings: list[Coupling] = []
    for i, item in enumerate(coupling_items):
        path = f"couplings[{i}]"
        name_a = _require(item, "mode_a", path, str)
        name_b = _require(item, "mode_b", path, str)
        for label, ref in (("mode_a", name_a), ("mode_b", name_b)):
            if ref not in modes:
                raise ConfigurationError(
                    f"{path}.{label}: no mode named {ref!r}"
                )
        rate = _require(item, "rate_hz", path, float)
        form = _check_choice(
            _require(item, "form", path, str), _FORMS, f"{path}.form"
        )
        drive = None
        if "drive" in item and item["drive"] is not None:
            drive_name = _coerce(item["drive"], f"{path}.drive", str)
            if drive_name not in drives:
                raise ConfigurationError(
                    f"{path}.drive: no drive named {drive_name!r}"
                )
            drive = drives[drive_name]
        order = 1
        if "order" in item:
            order = _coerce(item["order"], f"{path}.order", int)
        couplings.append(
            Coupling(
                mode_a=modes[name_a],
                mode_b=modes[name_b],
                rate=hz_to_angular(rate),
                form=form,
                drive=drive,
                order=order,
            )
        )

    ports: list[Port] = []
    for i, item in enumerate(port_items):
        path = f"ports[{i}]"
        name = _require(item, "name", path, str)
        mode_name = _require(item, "mode", path, str)
        if mode_name not in modes:
            raise ConfigurationError(f"{path}.mode: no mode named {mode_name!r}")
        rate = _require(item, "rate_hz", path, float)
        temperature = _require(item, "temperature_k", path, float)
        role = _check_choice(
            _require(item, "role", path, str), _ROLES, f"{path}.role"
        )
        flavor = _check_choice(
            _require(item, "flavor", path, str), _FRAMES, f"{path}.flavor"
        )
        ports.append(
            Port(
                name=name,
                mode=modes[mode_name],
                rate=hz_to_angular(rate),
                temperature=temperature,
                role=role,
                flavor=flavor,
            )
        )

    model = TransducerModel(
        bands=tuple(bands.values()),
        modes=tuple(modes.values()),
        drives=tuple(drives.values()),
        couplings=tuple(couplings),
        ports=tuple(ports),
    )
    if validate:
        report = validate_model(model)
        if report.errors:
            raise ModelValidationError(
                f"{source}: model failed validation", errors=tuple(report.errors)
            )
    return model


def load_model(path: str | Path, validate: bool = True) -> TransducerModel:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {p}: {exc}") from exc
    return parse_model(text, source=str(p), validate=validate)


def _model_payload(model: TransducerModel) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "bands": [
            {"name": b.name, "center_hz": angular_to_hz(b.center_frequency)}
            for b in model.bands
        ],
        "drives": [
            {"name": d.name, "frequency_hz": angular_to_hz(d.frequency)}
            for d in model.drives
        ],
        "modes": [
            {
                "name": m.name,
                "band": m.band.name,
                "frame": m.frame,
                "resonance_hz": angular_to_hz(m.resonance_frequency),
            }
            for m in model.modes
        ],
        "couplings": [],
        "ports": [
            {
                "name": p.name,
                "mode": p.mode.name,
                "rate_hz": angular_to_hz(p.rate),
                "temperature_k": p.temperature,
                "role": p.role,
                "flavor": p.flavor,
            }
            for p in model.ports
        ],
    }
    for c in model.couplings:
        entry: dict[str, Any] = {
            "mode_a": c.mode_a.name,
            "mode_b": c.mode_b.name,
            "rate_hz": angular_to_hz(c.rate),
            "form": c.form,
            "order": c.order,
        }
        if c.drive is not None:
            entry["drive"] = c.drive.name
        payload["couplings"].append(entry)
    return payload


def save_model(model: TransducerModel, path: str | Path) -> None:
    """Write ``model`` to ``path`` as JSON (Hz / kelvin units)."""
    Path(path).write_text(json.dumps(_model_payload(model), indent=2) + "\n")


def get_builtin(
    name: str, overrides: Mapping[str, float] | None = None
) -> TransducerModel:
    """Build a named builtin model.

    ``overrides`` are keyed by the builtin's parameter names; frequency and
    rate parameters are given in Hz, temperatures in kelvin. Currently the
    only builtin is ``"electromech"``, the mechanically mediated
    microwave-to-waveguide converter, with parameters ``omega_m``,
    ``omega_lc``, ``g``, ``gamma_tx``, ``gamma_wg``, ``gamma_m``,
    ``omega_drive`` (Hz) and ``t_tx``, ``t_wg``, ``t_m`` (K).
    """
    if name not in BUILTIN_MODELS:
        raise ConfigurationError(
            f"unknown builtin model {name!r}; available: {', '.join(BUILTIN_MODELS)}"
        )
    return build_model(electromech_params(overrides))


def electromech_params(
    overrides: Mapping[str, float] | None = None,
) -> ElectromechParams:
    """ElectromechParams from Hz / kelvin overrides (see :func:`get_builtin`)."""
    kwargs: dict[str, float] = {}
    for key, value in (overrides or {}).items():
        if key in _ELECTROMECH_ANGULAR_FIELDS:
            kwargs[key] = hz_to_angular(float(value))
        elif key in _ELECTROMECH_TEMP_FIELDS:
            kwargs[key] = float(value)
        else:
            known = sorted(_ELECTROMECH_ANGULAR_FIELDS | _ELECTROMECH_TEMP_FIELDS)
            raise ConfigurationError(
                f"unknown electromech parameter {key!r}; known: {', '.join(known)}"
            )
    return ElectromechParams(**kwargs)


def override_target(model: TransducerModel, raw_path: str) -> tuple[str, int, str]:
    """Where a dotted override path points: ``(section, index, field)``.

    ``section`` is ``"ports"`` or ``"couplings"``, ``index`` the position in
    that tuple of ``model`` and ``field`` the attribute, as
    :func:`model_with` reads the path. Raises :class:`ConfigurationError`
    for a path it cannot apply.
    """
    parts = raw_path.split(".")
    if len(parts) != 3:
        raise ConfigurationError(
            f"cannot parse override path {raw_path!r}; expected"
            " ports.NAME.FIELD or couplings.INDEX.rate"
        )
    section, key, field_name = parts
    if section == "ports":
        index = next((i for i, p in enumerate(model.ports) if p.name == key), None)
        if index is None:
            raise ConfigurationError(f"{raw_path}: no port named {key!r}")
        if field_name not in ("rate", "temperature"):
            raise ConfigurationError(
                f"{raw_path}: port overrides support rate and temperature"
            )
        return section, index, field_name
    if section == "couplings":
        try:
            index = int(key)
        except ValueError:
            raise ConfigurationError(
                f"{raw_path}: coupling overrides are indexed by integer"
            ) from None
        if not 0 <= index < len(model.couplings):
            raise ConfigurationError(
                f"{raw_path}: coupling index out of range"
                f" (model has {len(model.couplings)})"
            )
        if field_name != "rate":
            raise ConfigurationError(
                f"{raw_path}: coupling overrides support only rate"
            )
        return section, index, field_name
    raise ConfigurationError(
        f"{raw_path}: overrides must start with ports. or couplings."
    )


def model_with(
    model: TransducerModel, assignments: Mapping[str, float]
) -> TransducerModel:
    """Copy of ``model`` with dotted-path overrides applied (angular units).

    Supported paths: ``ports.NAME.rate``, ``ports.NAME.temperature`` and
    ``couplings.I.rate`` with ``I`` the coupling's position in declaration
    order (see :func:`override_target`). Values are rad/s (or kelvin for
    temperatures).
    """
    items = {"ports": list(model.ports), "couplings": list(model.couplings)}
    for raw_path, value in assignments.items():
        section, index, field_name = override_target(model, raw_path)
        items[section][index] = dataclasses.replace(
            items[section][index], **{field_name: float(value)}
        )
    return dataclasses.replace(
        model, ports=tuple(items["ports"]), couplings=tuple(items["couplings"])
    )
