"""One codec for the JSON/YAML spec surface, and the preset lookup.

Fault scenarios (:mod:`repro.faults.spec`), fleet-chaos scenarios
(:mod:`repro.faults.fleet`) and arrival traces
(:mod:`repro.workloads.spec`) are frozen dataclasses whose
``__post_init__`` checks values.  This module maps any of them to and
from plain dicts by reading the dataclass's fields and type hints:

* ``float`` takes any finite number, and ``inf`` only where the
  field's default is ``inf`` (an open-ended ``duration``); ``int``
  only an integer (no bool, no float); ``str`` only a string;
* an :class:`~enum.Enum` takes its ``value``, and an unknown value
  lists the known ones;
* a nested spec takes a mapping, and ``Tuple[X, ...]`` a list;
* a missing key takes the dataclass default.

An unknown key, a wrong type, an unreadable file, bad JSON or bad
YAML each raises one one-line :class:`ConfigurationError`, labelled
with the dotted path of the offending key.  :func:`spec_to_dict` is
the exact inverse and writes strict JSON: a field left at a
non-finite default (an open-ended ``duration``) is omitted.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import re
import typing
from typing import Any, Callable, Dict, List, Mapping, Type, TypeVar

from repro.errors import ConfigurationError

__all__ = ["build_all", "load_spec", "lookup", "spec_from_dict",
           "spec_to_dict"]

S = TypeVar("S")

#: Scalar field types: what each accepts, and how errors name it.
_SCALARS = {float: ("a number", (int, float)),
            int: ("an integer", int),
            str: ("a string", str)}


def _unknown(what: str, name: Any, known: List[str]) -> ConfigurationError:
    """``unknown <what> <name>; known <noun>s: ...`` — one line."""
    return ConfigurationError(
        f"unknown {what} {name!r}; known {what.split()[-1]}s: "
        f"{', '.join(known)}")


def spec_from_dict(cls: Type[S], data: Any, where: str) -> S:
    """Build a ``cls`` spec from its dict form; ``where`` names it in
    errors (nested keys extend it: ``fleet scenario.health``)."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"{where} must be a mapping, got {type(data).__name__}")
    fields = dataclasses.fields(cls)
    allowed = sorted(field.name for field in fields)
    unknown = sorted(set(data) - set(allowed), key=str)
    if unknown:
        raise ConfigurationError(
            f"{where} has unknown keys {unknown}; allowed: {allowed}")
    hints = typing.get_type_hints(cls)
    values = {}
    for field in fields:
        if field.name in data:
            values[field.name] = _decode(hints[field.name],
                                         data[field.name],
                                         f"{where}.{field.name}",
                                         field.default)
        elif (field.default is dataclasses.MISSING
              and field.default_factory is dataclasses.MISSING):
            raise ConfigurationError(
                f"{where} is missing required key {field.name!r}")
    return cls(**values)


def _decode(hint: Any, value: Any, where: str,
            default: Any = dataclasses.MISSING) -> Any:
    if dataclasses.is_dataclass(hint):
        return spec_from_dict(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"{where} must be a list, got {type(value).__name__}")
        item = typing.get_args(hint)[0]
        return tuple(_decode(item, entry, f"{where}[{index}]")
                     for index, entry in enumerate(value))
    if issubclass(hint, enum.Enum):
        try:
            return hint(value)
        except ValueError:
            what = re.sub(r"(?<=[a-z])(?=[A-Z])", " ",
                          hint.__name__).lower()
            raise _unknown(what, value,
                           [member.value for member in hint]) from None
    noun, accepted = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigurationError(
            f"{where} must be {noun}, got {type(value).__name__}")
    if hint is not float:
        return value
    try:
        number = float(value)
    except OverflowError:  # an integer literal past float range
        raise ConfigurationError(
            f"{where} is out of float range") from None
    # JSON's NaN/Infinity tokens and YAML's .nan/.inf parse as floats;
    # the dataclass checks cannot be trusted with NaN, and spec_to_dict
    # can only omit an infinity that is the default.
    if math.isnan(number):
        raise ConfigurationError(f"{where} must be a number, got NaN")
    if math.isinf(number) and number != default:
        raise ConfigurationError(f"{where} must be finite, got {number}")
    return number


def spec_to_dict(spec: Any) -> Dict[str, Any]:
    """The inverse of :func:`spec_from_dict`, as strict JSON."""
    out: Dict[str, Any] = {}
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        if (isinstance(value, float) and not math.isfinite(value)
                and value == field.default):
            continue
        out[field.name] = _encode(value)
    return out


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return spec_to_dict(value)
    if isinstance(value, tuple):
        return [_encode(entry) for entry in value]
    if isinstance(value, enum.Enum):
        return value.value
    return value


def load_spec(cls: Type[S], path: str, where: str) -> S:
    """Load a ``cls`` spec from a ``.json``/``.yaml``/``.yml`` file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeError) as error:
        raise ConfigurationError(
            f"cannot read {where} {path!r}: {error}") from None
    return spec_from_dict(cls, _parse(text, path, where), where)


def _parse(text: str, path: str, where: str) -> Any:
    if not path.endswith((".yaml", ".yml")):
        try:
            return json.loads(text)
        except ValueError as error:
            raise _malformed(where, path, "JSON", error) from None
    try:
        import yaml
    except ImportError:
        raise ConfigurationError(
            f"{where} {path!r} is YAML but PyYAML is not installed; "
            "use the JSON form instead") from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as error:
        raise _malformed(where, path, "YAML", error) from None


def _malformed(where: str, path: str, language: str,
               error: Exception) -> ConfigurationError:
    # YAML parser messages span several lines; fold them onto one.
    return ConfigurationError(
        f"{where} {path!r} is not valid {language}: "
        f"{' '.join(str(error).split())}")


def lookup(presets: Mapping[str, Callable[[], S]], name: str,
           what: str) -> S:
    """Build preset ``name``; an unknown name lists the known ones."""
    try:
        build = presets[name]
    except KeyError:
        raise _unknown(what, name, sorted(presets)) from None
    return build()


def build_all(presets: Mapping[str, Callable[[], S]]) -> Dict[str, S]:
    """Every preset, built, by name (sorted)."""
    return {name: presets[name]() for name in sorted(presets)}
