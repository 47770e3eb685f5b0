"""Exception hierarchy shared across the package.

``ConfigError`` maps to CLI exit code 2, I/O problems (plain ``OSError``)
to exit code 3, and every other ``GraphCPError`` to exit code 4.
"""

import dataclasses
import math
import operator
from typing import NamedTuple


class GraphCPError(Exception):
    """Base class for all package errors."""


class ConfigError(GraphCPError):
    """Bad configuration file, flag, or subcommand."""


class UnknownMethod(ConfigError):
    """Interval method name outside {poisson, vanilla, temporal, graph}."""


class ValidationError(GraphCPError):
    """Input data violates a documented contract."""


class DuplicateEdge(ValidationError):
    pass


class SymmetricEdgePair(ValidationError):
    """Both (a, b) and (b, a) present for distinct a, b."""


class UnknownNodeReference(ValidationError):
    pass


class MalformedRow(ValidationError):
    pass


class MissingCell(ValidationError):
    pass


class NegativeCount(ValidationError):
    pass


class NonIntegerCount(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class BadFractions(ValidationError):
    pass


class DegenerateData(ValidationError):
    """Empty or NaN-bearing training data for the forest."""


class AlignmentError(ValidationError):
    """Interval records and truth values do not line up on (node, time)."""


class NonFiniteLoss(GraphCPError):
    """Likelihood became non-finite and step-size halving did not recover."""


class ExplosiveConfig(GraphCPError):
    """Simulated intensity mean ran past the configured cap."""


class InsufficientHistory(GraphCPError):
    """Not enough residuals to build features or warm up calibration."""


class NoEligibleNodes(GraphCPError):
    """Winner table requested but no node clears the outage threshold."""


class ListOf(NamedTuple):
    """A ``coerce`` kind: a JSON list of ``kind`` values, read as a tuple of
    ``length`` items when ``length`` is given."""

    kind: object
    length: "int | None" = None


def coerce(kind, value, what: str):
    """``kind(value)`` for a config value; a wrong-typed value raises ConfigError.

    ``bool``, ``str``, ``list`` and ``dict`` are not conversions: the value
    must be a JSON value of that type, so ``"false"`` is not a boolean and
    ``5`` is not a path.  Neither are ``int`` and ``float``: an int takes a
    JSON integer (``1.5`` is not one), a float a finite JSON number, and
    neither a string or a boolean.  A ``ListOf`` reads each item as its
    kind, and a dataclass kind reads a JSON object through its ``from_dict``.
    """
    if isinstance(kind, ListOf):
        items = coerce(list, value, what)
        if kind.length not in (None, len(items)):
            raise ConfigError(f"{what}: expected {kind.length} items, got {value!r}")
        return tuple(coerce(kind.kind, item, f"{what}[{i}]") for i, item in enumerate(items))
    if dataclasses.is_dataclass(kind):
        return kind.from_dict(coerce(dict, value, what), what + ".")
    if kind in (bool, str, list, dict) and not isinstance(value, kind):
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}")
    if kind in (int, float) and isinstance(value, (str, bool)):
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}")
    try:
        result = operator.index(value) if kind is int else kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}") from exc
    if kind is float and not math.isfinite(result):
        raise ConfigError(f"{what}: expected a finite number, got {value!r}")
    return result


_REQUIRED = object()  # the ``take`` default of a key that must be present


def take(doc: dict, key: str, kind, default=_REQUIRED, where: str = "", nullable=False):
    """Pop ``doc[key]`` (``default`` when absent) and ``coerce`` it to ``kind``.

    ``where`` is the dotted path of ``doc`` (``"conformal.forest."``) that
    error messages put before ``key``.  ``None`` passes when ``nullable``.
    Parsers pop every key they know from a copy of their section, so
    ``done`` can reject what is left.
    """
    value = doc.pop(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"{where}{key}: missing")
    return None if nullable and value is None else coerce(kind, value, where + key)


def done(doc: dict, where: str = "") -> None:
    """Reject the keys a parser left in its section: they are unknown."""
    if doc:
        raise ConfigError(f"unknown key(s) {[where + key for key in sorted(doc)]}")


def read_fields(cls, doc: dict, kinds: dict, where: str = ""):
    """The dataclass ``cls`` read from the JSON object ``doc``.

    Each field that ``kinds`` names is ``take``n as ``kinds[name]``.  An
    absent field keeps its dataclass default, a field whose default is None
    may be null, and any other key in ``doc`` raises ConfigError.
    """
    doc = dict(doc)
    values = {
        field.name: take(doc, field.name, kinds[field.name], where=where,
                         nullable=field.default is None)
        for field in dataclasses.fields(cls)
        if field.name in kinds and (field.name in doc or field.default is dataclasses.MISSING)
    }
    done(doc, where)
    return cls(**values)


def field_dict(obj) -> dict:
    """The JSON object of the dataclass ``obj``, the inverse of ``read_fields``:
    its fields by name, nested objects through their ``to_dict``, tuples and arrays as lists."""
    return {field.name: _json_value(getattr(obj, field.name)) for field in dataclasses.fields(obj)}


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if hasattr(value, "tolist"):
        return value.tolist()
    return value.to_dict() if hasattr(value, "to_dict") else value
