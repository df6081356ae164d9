"""Exception types raised by the regvar library."""

import math


class RegvarError(Exception):
    """Base class for all regvar errors."""


class DegeneratePoint(RegvarError):
    """Polar decomposition requested for the zero vector."""


class NonFiniteInput(RegvarError):
    """Sample coordinates contain NaN or infinity."""


class DimensionMismatch(RegvarError):
    """Operation requires a different ambient dimension (usually d = 2)."""


class EmptyMeasure(RegvarError):
    """Measure with zero total mass where positive mass is required."""


class InvalidGain(RegvarError):
    """Radial gain evaluated to a negative or non-finite value."""


class MomentDivergence(RegvarError):
    """A moment integral or series diverges (or is numerically infinite)."""


class UnsupportedPair(RegvarError):
    """Distance not defined for this pair of measure representations."""


class InvalidConstruction(RegvarError):
    """Model parameters violate a construction's validity condition."""


class DegenerateTail(RegvarError):
    """Tail-index estimation impossible (all top order statistics equal)."""


class EmptyInput(RegvarError):
    """An estimator received an empty sample."""


class SpecError(RegvarError):
    """Malformed JSON spec for a measure, model, gain or map."""


class InvalidParameter(RegvarError, ValueError):
    """A numeric parameter lies outside its admissible range."""


def positive_finite(value, name: str) -> float:
    """value as a float; InvalidParameter unless 0 < value < infinity."""
    x = float(value)
    if not 0.0 < x < math.inf:
        raise InvalidParameter(f"{name} must be positive and finite, got {x!r}")
    return x
