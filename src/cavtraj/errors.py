"""Exception types shared across the pipeline, and the one rule for numeric inputs."""

import math
from numbers import Integral, Real


class CavtrajError(Exception):
    """Base class for all pipeline errors."""


class InvalidArgument(CavtrajError, ValueError):
    """An argument violates a precondition (non-finite, wrong range, ...)."""


class DegenerateGeometry(CavtrajError, ValueError):
    """Geometry input is degenerate (too few points, collinear, zero area)."""


class ValidationError(CavtrajError, ValueError):
    """A config file, map file, or input stream failed validation."""


def check_number(value, name: str, *, least=None, positive=False, integer=False, error=InvalidArgument) -> None:
    """Raise `error` unless value is a finite real (an integer if `integer`), >= least and > 0 if `positive`.

    True and false are not numbers here, and an integer too large for a float
    is not finite.
    """
    if isinstance(value, bool) or not isinstance(value, Integral if integer else Real):
        raise error(f"{name} must be {'an integer' if integer else 'a real number'}: {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        raise error(f"{name} is too large for a float") from None
    if not finite:
        raise error(f"non-finite {name}: {value!r}")
    if positive and not value > 0 or least is not None and value < least:
        raise error(f"{name} must be {'> 0' if positive else f'>= {least}'}: {value!r}")
