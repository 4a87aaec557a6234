"""Exception types: parameter domain, state domain, data sufficiency, numerics;
the one finite-and-positive check that the parameter records share, the
one finite check of a reported figure, and the one check of a divisor that
underflowed."""

import math


class ParameterError(ValueError):
    """A physical parameter or argument lies outside its allowed domain."""


class StateDomainError(ValueError):
    """A Gaussian state violates its positivity requirements."""


class InsufficientDataError(ValueError):
    """Too few samples for the requested inference."""


class DegenerateSeriesError(ValueError):
    """A sample series carries no usable variation."""


class NumericalFailureError(ArithmeticError):
    """A computation produced non-finite values."""


class ConfigError(ValueError):
    """A run configuration is missing, malformed, or inconsistent."""


def require_positive(name: str, value, error: type[ValueError] = ParameterError) -> None:
    """Raise ``error`` naming ``name`` unless value is a finite real number > 0."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise error(f"{name} must be finite and > 0, got {value!r}")


def require_finite(name: str, value: float) -> float:
    """Return value, or raise NumericalFailureError naming ``name`` if it is
    not finite: a reported figure that overflows is a failed computation."""
    if not math.isfinite(value):
        raise NumericalFailureError(f"{name} is not finite: {value!r}")
    return value


def require_nonzero(name: str, value: float, **at: float) -> float:
    """Return value, or raise NumericalFailureError naming ``name`` and the
    parameters ``at`` if it is 0: a product of positive parameters that
    underflowed, which would otherwise divide by zero unnamed."""
    if value == 0.0:
        where = ", ".join(f"{key}={parameter!r}" for key, parameter in at.items())
        raise NumericalFailureError(f"{name} underflows to 0 at {where}")
    return value
