"""Reading experiment config documents into their dataclasses.

A config dataclass is the only schema of its part of a document: its fields
give the key names, the types and the defaults. ``read_config`` checks a
document against one or more such classes, lays explicit flag values over
it, and raises ConfigError (CLI exit code 2) for an unknown key, a missing
required field or a wrongly typed value instead of running something other
than what was asked for.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

from .errors import ConfigError
from .service_dist import ServiceDistributionSpec


def _as_int(name: str, value):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _as_float(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_list(name: str, value):
    """A JSON array of numbers; each entry is checked like a ``float`` field."""
    if not isinstance(value, list):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [_as_float(f"{name}[{i}]", v) for i, v in enumerate(value)]


def _as_service(name: str, value):
    if isinstance(value, ServiceDistributionSpec):
        return value
    return ServiceDistributionSpec.from_config(value)


# keyed by field annotation; the config classes use no other field types
_CONVERT = {"int": _as_int, "float": _as_float, "list": _as_list, "ServiceDistributionSpec": _as_service}


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
