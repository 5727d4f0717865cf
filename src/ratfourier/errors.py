"""Exception types shared across the package, and the guards that raise them."""

import numpy as np

DENOM_FLOOR = 1e-300


class RangeError(ValueError):
    """An index or argument fell outside its documented range."""


class DirectionError(ValueError):
    """A coefficient set was fed to an evaluator of the opposite direction."""


def check_direction(coeffs, direction, what: str) -> None:
    """Raise DirectionError unless coeffs were built for `direction`."""
    if coeffs.direction is not direction:
        raise DirectionError(f"{what} needs {direction.value} coefficients, got {coeffs.direction.value}")


class PoleError(ArithmeticError):
    """A rational-term or pole-residue denominator vanished (evaluation at or near a pole)."""


def check_denominator(denom, what: str) -> None:
    """Raise PoleError if any |denom| < DENOM_FLOOR."""
    if (np.abs(denom) < DENOM_FLOOR).any():
        raise PoleError(f"{what} below {DENOM_FLOOR:g} in magnitude (at or next to a pole)")


class ConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its panel budget before reaching tolerance."""


class DampingError(ValueError):
    """An infinite-limit integral was requested without positive damping."""


class FileFormatError(ValueError):
    """A coefficient or curve file does not match the documented schema."""
