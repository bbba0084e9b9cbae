"""JSON model files, builtin models, and parameter overrides.

File schema (all frequencies and rates in Hz, temperatures in kelvin;
internally everything is angular, rad/s); ``_FORMAT`` below is the one
description of it that both :func:`parse_model` and :func:`save_model`
read::

    {
      "bands":     [{"name", "center_hz"}],
      "drives":    [{"name", "frequency_hz"}],
      "modes":     [{"name", "band", "frame", "resonance_hz"}],
      "couplings": [{"mode_a", "mode_b", "rate_hz", "form",
                     "order" (default 1), "drive" (absent or null: DC)}],
      "ports":     [{"name", "mode", "rate_hz", "temperature_k",
                     "role", "flavor"}],
    }

``drives`` and ``couplings`` may be omitted; a key an item does not list
above is an error. Cross references (``band``, ``mode_a``, ``drive``, ...)
are by name. Saving converts rad/s back to Hz choosing, when one exists,
the Hz float whose product with 2*pi reproduces the angular value
bit-for-bit, so save -> load round-trips exactly for models built from Hz
inputs. A model drawn in rad/s may move by at most one ulp per angular
field on save -> load; a second round trip is exact.
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


# The file format. Per section, in file order: the class its items build,
# then per JSON key, in saved order, the attribute it fills, its JSON type,
# how the value is read and its default (``...``: the key is required).
# A value is read by ``hz_to_angular`` (Hz in the file, rad/s in the model),
# as the item of the earlier section it names, as one of a tuple of allowed
# choices, or (None) as it is. A key whose default is None reads null as
# None too, and is not written when its value is None: a DC coupling.
_FORMAT: dict[str, tuple[type, dict[str, tuple[Any, ...]]]] = {
    "bands": (Band, {
        "name": ("name", str, None, ...),
        "center_hz": ("center_frequency", float, hz_to_angular, ...),
    }),
    "drives": (Drive, {
        "name": ("name", str, None, ...),
        "frequency_hz": ("frequency", float, hz_to_angular, ...),
    }),
    "modes": (InternalMode, {
        "name": ("name", str, None, ...),
        "band": ("band", str, "bands", ...),
        "frame": ("frame", str, _FRAMES, ...),
        "resonance_hz": ("resonance_frequency", float, hz_to_angular, ...),
    }),
    "couplings": (Coupling, {
        "mode_a": ("mode_a", str, "modes", ...),
        "mode_b": ("mode_b", str, "modes", ...),
        "rate_hz": ("rate", float, hz_to_angular, ...),
        "form": ("form", str, _FORMS, ...),
        "order": ("order", int, None, 1),
        "drive": ("drive", str, "drives", None),
    }),
    "ports": (Port, {
        "name": ("name", str, None, ...),
        "mode": ("mode", str, "modes", ...),
        "rate_hz": ("rate", float, hz_to_angular, ...),
        "temperature_k": ("temperature", float, None, ...),
        "role": ("role", str, _ROLES, ...),
        "flavor": ("flavor", str, _FRAMES, ...),
    }),
}
_REQUIRED_TOP = ("bands", "modes", "ports")


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


def parse_model(text: str, source: str = "<string>") -> TransducerModel:
    """Parse and validate a JSON model description.

    Raises :class:`ConfigurationError` for malformed JSON, missing,
    mistyped or unknown fields, and dangling name references (the message
    carries the offending field path), then runs :func:`validate_model` and
    raises :class:`ModelValidationError` if it reports errors.
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
    unknown = sorted(set(data) - set(_FORMAT))
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown top-level keys {unknown}; expected"
            f" {list(_FORMAT)}"
        )
    missing = [k for k in _REQUIRED_TOP if k not in data]
    if missing:
        raise ConfigurationError(f"{source}: missing top-level keys {missing}")
    sections = {key: _section(data, key, source) for key in _FORMAT}
    for key, (_, fields) in _FORMAT.items():
        if "name" in fields:
            _unique_names(sections[key], key)

    built: dict[str, tuple[Any, ...]] = {}
    named: dict[str, dict[str, Any]] = {}
    for key, (cls, fields) in _FORMAT.items():
        objs = []
        for i, item in enumerate(sections[key]):
            if not item.keys() <= fields.keys():
                raise ConfigurationError(
                    f"{key}[{i}]: unknown keys {sorted(item.keys() - fields.keys())}"
                )
            values = {}
            for name, (attr, kind, read, default) in fields.items():
                value = item.get(name, default)
                # By type, not isinstance: a JSON bool is no int and no float.
                if type(value) is not kind:
                    if value is ...:
                        raise ConfigurationError(
                            f"{key}[{i}]: missing required field {name!r}"
                        )
                    if value is None and default is None:
                        values[attr] = None
                        continue
                    if kind is not float or type(value) is not int:
                        raise ConfigurationError(
                            f"{key}[{i}].{name}: expected {kind.__name__},"
                            f" got {type(value).__name__}"
                        )
                    value = float(value)
                if read is hz_to_angular:
                    value = hz_to_angular(value)
                elif type(read) is tuple:
                    if value not in read:
                        raise ConfigurationError(
                            f"{key}[{i}].{name}: {value!r} is not one of"
                            f" {', '.join(read)}"
                        )
                elif read is not None:
                    target = named[read].get(value)
                    if target is None:
                        raise ConfigurationError(
                            f"{key}[{i}].{name}: no {read[:-1]} named {value!r}"
                        )
                    value = target
                values[attr] = value
            objs.append(cls(**values))
        built[key] = tuple(objs)
        if "name" in fields:
            named[key] = {obj.name: obj for obj in objs}

    model = TransducerModel(**built)
    report = validate_model(model)
    if report.errors:
        raise ModelValidationError(
            f"{source}: model failed validation", errors=tuple(report.errors)
        )
    return model


def load_model(path: str | Path) -> TransducerModel:
    """Read the model file at ``path`` and parse it with :func:`parse_model`."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read model file {p}: {exc}") from exc
    return parse_model(text, source=str(p))


def _model_payload(model: TransducerModel) -> dict[str, Any]:
    payload: dict[str, Any] = {}
    for key, (_, fields) in _FORMAT.items():
        payload[key] = entries = []
        for obj in getattr(model, key):
            entry: dict[str, Any] = {}
            for name, (attr, _, read, _) in fields.items():
                value = getattr(obj, attr)
                if value is None:
                    continue
                if read is hz_to_angular:
                    value = angular_to_hz(value)
                elif isinstance(read, str):
                    value = value.name
                entry[name] = value
            entries.append(entry)
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
