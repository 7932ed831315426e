"""Exception hierarchy shared across the package."""


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


def misread_as(kind, value) -> bool:
    """Whether kind(value), for kind int or float, would misread value: a
    bool for either, or for int a float that is not whole.  A whole float
    such as 16.0 reads as 16."""
    if isinstance(value, bool):
        return kind in (int, float)
    return kind is int and isinstance(value, float) and not value.is_integer()


def config_value(kind, value, key: str, where: str = "trial config"):
    """kind(value), or a spec error naming the key of `where` the value came from.

    An int or float key takes no bool, and an int key no value that int()
    would truncate.
    """
    try:
        if misread_as(kind, value):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{where} key {key!r}: {value!r} is not a valid {kind.__name__}"
        ) from None
