"""Exception hierarchy shared across the package.

``ConfigError`` maps to CLI exit code 2, I/O problems (plain ``OSError``)
to exit code 3, and every other ``GraphCPError`` to exit code 4.
"""


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
    """``kind(value)`` for a config value; a wrong-typed value raises ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}") from exc


def section(doc: dict, key: str, what: "str | None" = None) -> dict:
    """The JSON object ``doc[key]`` ({} when absent); any other value raises ConfigError."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{what or key}: expected a JSON object, got {value!r}")
    return value
