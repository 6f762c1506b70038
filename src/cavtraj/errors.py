"""Exception types shared across the pipeline."""


class CavtrajError(Exception):
    """Base class for all pipeline errors."""


class InvalidArgument(CavtrajError, ValueError):
    """An argument violates a precondition (non-finite, wrong range, ...)."""


class DegenerateGeometry(CavtrajError, ValueError):
    """Geometry input is degenerate (too few points, collinear, zero area)."""


class ValidationError(CavtrajError, ValueError):
    """A config file, map file, or input stream failed validation."""

