"""Exception types shared across the package, and the guards that raise them."""

import numpy as np

DENOM_FLOOR = 1e-300

# A lower bound (Re s)^2 on the computed |gamma^2 + s*s| must reach this
# before a caller skips check_denominator.  With r = Re s and q = Im s as
# computed, the computed s*s has imaginary part 2 r q and real part
# r^2 - q^2, each rounded only relative to its own size: if |q| >= |r|/2 the
# imaginary part is at least fl(r^2), and if |q| < |r|/2 the real part of
# gamma^2 + s*s is at least (3/4) fl(r^2), as gamma^2 >= 0 only adds to it.
# So every computed |denominator| exceeds 0.74 fl(r^2); a factor 4 leaves
# room to spare.
BOUND_CLEARS = 4.0 * DENOM_FLOOR


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
