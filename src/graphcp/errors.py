"""Exception hierarchy shared across the package.

``ConfigError`` maps to CLI exit code 2, I/O problems (plain ``OSError``)
to exit code 3, and every other ``GraphCPError`` to exit code 4.
"""

import math
import operator


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


def coerce(kind, value, what: str):
    """``kind(value)`` for a config value; a wrong-typed value raises ConfigError.

    ``bool``, ``str``, ``list`` and ``dict`` are not conversions: the value
    must be a JSON value of that type, so ``"false"`` is not a boolean and
    ``5`` is not a path.  Neither are ``int`` and ``float``: an int takes a
    JSON integer (``1.5`` is not one), a float a finite JSON number, and
    neither a string or a boolean.
    """
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
