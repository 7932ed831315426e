"""Exception hierarchy shared across the package, and the table of numeric spec fields."""

from contextlib import contextmanager
from numbers import Integral, Real
from typing import NamedTuple


class GaplabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(GaplabError, ValueError):
    """A parameter is outside its documented range or malformed."""


class DimensionMismatchError(InvalidParameterError):
    """A point's dimension does not match the class or distribution."""


class PointNotInDomainError(InvalidParameterError):
    """A point is not part of a table class's enumerated domain."""


class InconsistentSampleError(InvalidParameterError):
    """A labeled sample contradicts itself or every concept in the class."""


class OracleUnavailableError(InvalidParameterError):
    """No exact oracle exists for the requested combination, so the spec is rejected."""


class SearchBracketError(GaplabError):
    """The sample-size search hit its cap without bracketing the target."""


class SpecField(NamedTuple):
    """A numeric spec field: its kind, interval, and whether None (the default) is allowed."""

    kind: type  # int, float, or Real: an int or a float kept as spelled
    interval: str
    optional: bool = False


# Flags and flat config entries by flag name, document keys by their last
# part ("dist.n" is "n") unless the dotted key has a row.  Rules that depend
# on the rest of the spec, such as n >= 2 for a pne family, stay where that
# context is known.
SPEC_FIELDS = {
    "n": SpecField(int, "[1, 2^63 - 1]"),
    "i": SpecField(int, "[1, 2^63 - 1]"),
    "m": SpecField(int, "[0, 2^63 - 1]", optional=True),
    "trials": SpecField(int, "[1, 2^63 - 1]"),
    "m_max": SpecField(int, "[1, 2^63 - 1]"),
    "d_max": SpecField(int, "[0, 2^63 - 1]", optional=True),
    "domain_size": SpecField(int, "[1, 12]"),
    "cover_size": SpecField(int, "[1, 2^63 - 1]"),
    "d": SpecField(int, "[0, 2^63 - 1]"),
    "k": SpecField(int, "[0, 2^63 - 1]"),
    "memorizer_default": SpecField(int, "[0, 1]"),
    "seed": SpecField(int, "[0, 2^64 - 1]"),
    "seed.master": SpecField(int, "[0, 2^64 - 1]"),
    "seed.stream": SpecField(int, "[0, 2^64 - 1]"),
    "eps": SpecField(float, "(0, 1]"),
    "eps_acc": SpecField(float, "(0, inf)"),
    "gamma": SpecField(float, "(0, 1)"),
    "delta": SpecField(float, "(0, 1)"),
    "level": SpecField(float, "(0, 1]", optional=True),
    "cover_level": SpecField(Real, "(0, 1]", optional=True),
    "learner_eps": SpecField(Real, "(0, 1/2)", optional=True),
}

# The interval ends that are not plain integers.
_ENDS = {"1/2": 0.5, "2^63 - 1": 2**63 - 1, "2^64 - 1": 2**64 - 1, "inf": float("inf")}
_NOUNS = {int: "a valid integer", float: "a valid float", Real: "a number"}


def spec_value(key: str, value, where: str = "trial config", label: str | None = None):
    """value read as its spec field's kind (16.0 as 16 for an int, 1 as 1.0
    for a float), or a spec error that names `where` and key for the wrong
    kind, and `label` (default key) for a value outside the interval, NaN too."""
    row = SPEC_FIELDS[key if key in SPEC_FIELDS else key.rpartition(".")[2]]
    if value is None and row.optional:
        return None
    if (isinstance(value, bool) or not isinstance(value, Real)
            or row.kind is int and not (isinstance(value, Integral) or value.is_integer())):
        raise InvalidParameterError(f"{where} key {key!r}: {value!r} is not {_NOUNS[row.kind]}")
    number = value if row.kind is Real else row.kind(value)
    low, high = (_ENDS.get(end) or int(end) for end in row.interval[1:-1].split(", "))
    low_ok = low < number if row.interval[0] == "(" else low <= number
    high_ok = number < high if row.interval[-1] == ")" else number <= high
    if not (low_ok and high_ok):
        raise InvalidParameterError(f"{label or key} must lie in {row.interval}, got {value!r}")
    return number


def config_value(kind, value, key: str, where: str = "trial config"):
    """kind(value) for a list-valued key (points, tables, a vector), or a
    spec error naming the key of `where` the value came from.  A package
    error keeps its type, such as DimensionMismatchError, and its reason."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        ours = isinstance(exc, InvalidParameterError)
        raise (type(exc) if ours else InvalidParameterError)(
            f"{where} key {key!r}: {value!r} is not a valid {kind.__name__}"
            + (f": {exc}" if ours else "")
        ) from None


@contextmanager
def spec_object(value, key: str, where: str = "trial config"):
    """Read the JSON object at `key` of `where` ("" for the whole of it)
    through the getter this yields.  A value that is not an object, and a
    key the reader leaves unread, is a spec error that names its dotted path."""
    if not isinstance(value, dict):
        raise InvalidParameterError(f"{where} key {key!r}: {value!r} is not a JSON object")
    read = set()
    yield lambda name, default=None: read.add(name) or value.get(name, default)
    unread = [repr(f"{key}.{name}" if key else name) for name in value if name not in read]
    if unread:
        raise InvalidParameterError(f"{where} has unknown key {', '.join(unread)}")
