"""Reading experiment config documents into their dataclasses, and back.

A config dataclass is the only schema of its part of a document: its fields
give the key names, the types and the defaults. ``read_config`` checks a
document against one or more such classes, lays explicit flag values over
it, and raises ConfigError (CLI exit code 2) for an unknown key, a missing
required field or a wrongly typed value instead of running something other
than what was asked for. ``echo`` writes the same dataclasses back as the
``config`` block of a sidecar, which ``read_config`` reads into equal ones.
"""

from __future__ import annotations

from dataclasses import MISSING, fields, is_dataclass

from .errors import ConfigError, check_int, check_number
from .service_dist import ServiceDistributionSpec


def _as_int(name: str, value):
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return check_int(name, value, None)


def _as_str(name: str, value):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _as_list(name: str, value):
    """A JSON array of numbers; each entry is checked like a ``float`` field."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [check_number(f"{name}[{i}]", v) for i, v in enumerate(value)]


def _as_service(name: str, value):
    try:
        return read_config(value, {}, ServiceDistributionSpec)[0]
    except ConfigError as e:
        raise ConfigError(f"{name}: {e}") from None


# keyed by field annotation; the config classes use no other field types
_CONVERT = {"int": _as_int, "float": check_number, "str": _as_str, "list": _as_list,
            "ServiceDistributionSpec": _as_service}


def _typed(field, value):
    kinds = field.type.split(" | ")
    if value is None and "None" in kinds:
        return None
    return _CONVERT[kinds[0]](field.name, value)


def read_config(doc: dict, flags: dict, *classes) -> list:
    """One instance of each dataclass in ``classes``, read from ``doc``.

    Every key of ``doc`` must be a field of one of the classes. A
    value in ``flags`` that is not None wins over the document; a field
    given by neither takes its class default.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a document, got {doc!r}")
    unknown = set(doc) - {f.name for cls in classes for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown config fields {sorted(unknown)}")
    out = []
    for cls in classes:
        kwargs = {}
        for f in fields(cls):
            if flags.get(f.name) is not None:
                kwargs[f.name] = _typed(f, flags[f.name])
            elif f.name in doc:
                kwargs[f.name] = _typed(f, doc[f.name])
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required field {f.name!r}")
        out.append(cls(**kwargs))
    return out


def echo(mode: str, *objs) -> dict:
    """The ``mode`` document of every field of ``objs``; a nested one (the service) omits its Nones."""
    doc = {"mode": mode}
    for obj in objs:
        for f in fields(obj):
            value = getattr(obj, f.name)
            if is_dataclass(value):
                value = {g.name: v for g in fields(value) if (v := getattr(value, g.name)) is not None}
            doc[f.name] = value
    return doc
