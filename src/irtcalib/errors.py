"""Exception types shared across the package, and the number checks that raise them."""

import numbers


class IrtcalibError(Exception):
    """Base class for all package errors."""


class ParameterError(IrtcalibError, ValueError):
    """A value is outside its mathematical domain; message names the field."""


class EmptyRequestError(IrtcalibError, ValueError):
    """A sample of size zero (or an empty input collection) was requested."""


class ConfigurationError(IrtcalibError, ValueError):
    """Fields are individually valid but the combination is not."""


class IngestionError(IrtcalibError):
    """A data file is missing, unreadable, or malformed."""


class InsufficientDataError(IrtcalibError, ValueError):
    """Fewer observations than the operation mathematically requires."""


class DegenerateInputError(IrtcalibError, ValueError):
    """Input has no variation where variation is required."""


class NumericalError(IrtcalibError, ArithmeticError):
    """A numerical routine produced non-finite values or failed to converge."""


class DivergedObjectiveError(NumericalError):
    """The stochastic objective became infinite (information underflow)."""


class FeasibilityWarning(UserWarning):
    """Requested target lies outside the attainable reliability bracket."""


def real_number(name: str, value) -> float:
    """``value`` as a float; anything but a real number raises :class:`ParameterError`.

    A bool is an int subclass, but ``True`` is no location, scale or count.
    """
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{name} is an integer too large for a float") from None


def whole_number(name: str, value) -> int:
    """``value`` as an int; a float is accepted when integral (``500.0`` reads as 500)."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if not integral or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)
