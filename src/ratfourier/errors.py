"""Exception types shared across the package, and the guards that raise them.

The truncation order, integration interval and quadrature tolerance
limits each have their one guard here, which every module that takes
such an input calls.
"""

import math

import numpy as np

DENOM_FLOOR = 1e-300
MAX_ORDER = 24  # 2^(M-1) summation terms; larger orders are not desk-scale
# the smallest tolerance the quadrature engine and the oracles accept
TOL_FLOOR = 1e-15

# check_denominator skips its full test where the caller's lower bound on
# the magnitudes reaches this.  Take the evaluator's bound (Re s)^2 on the
# computed |gamma^2 + s*s|: with r = Re s and q = Im s as computed, the
# computed s*s has imaginary part 2 r q and real part r^2 - q^2, each
# rounded only relative to its own size.  If |q| >= |r|/2 the imaginary
# part is at least fl(r^2), and if |q| < |r|/2 the real part of
# gamma^2 + s*s is at least (3/4) fl(r^2), as gamma^2 >= 0 only adds to it.
# So every computed |denominator| exceeds 0.74 fl(r^2); a factor 4 leaves
# room to spare.
_BOUND_CLEARS = 4.0 * DENOM_FLOOR


class RangeError(ValueError):
    """An index or argument fell outside its documented range."""


def check_order(M: int) -> None:
    """Raise RangeError unless the truncation order M is in 1..MAX_ORDER."""
    if M < 1:
        raise RangeError(f"M >= 1 violated (got {M})")
    if M > MAX_ORDER:
        raise RangeError(f"M <= {MAX_ORDER} violated (got {M}); 2^(M-1) terms is not desk-scale")


def check_interval(lo, hi) -> None:
    """Raise ValueError unless 0 < hi - lo < inf, so lo < hi are finite and so is the width."""
    if not 0 < hi - lo < math.inf:
        raise ValueError(f"finite lo < hi violated: hi - lo must lie in (0, inf) (got {lo}, {hi})")


def check_tol(tol) -> None:
    """Raise ValueError unless tol is a finite number >= TOL_FLOOR."""
    if not TOL_FLOOR <= tol < math.inf:
        raise ValueError(f"finite tol >= {TOL_FLOOR:g} violated (got {tol})")


class DirectionError(ValueError):
    """A coefficient set was fed to an evaluator of the opposite direction."""


def check_direction(coeffs, direction, what: str) -> None:
    """Raise DirectionError unless coeffs were built for `direction`."""
    if coeffs.direction is not direction:
        raise DirectionError(f"{what} needs {direction.value} coefficients, got {coeffs.direction.value}")


class PoleError(ArithmeticError):
    """A rational-term or pole-residue denominator vanished (evaluation at or near a pole)."""


def check_denominator(denom, what: str, bound=0.0) -> None:
    """Raise PoleError if any |denom| < DENOM_FLOOR.

    `bound` is the caller's lower bound on the computed magnitudes, rounding
    included.  Where it reaches four times DENOM_FLOOR no |denom| can fall
    below the floor, so the full test is skipped; a NaN bound never skips it.
    """
    if not bound >= _BOUND_CLEARS and (np.abs(denom) < DENOM_FLOOR).any():
        raise PoleError(f"{what} below {DENOM_FLOOR:g} in magnitude (at or next to a pole)")


class ConvergenceError(RuntimeError):
    """Adaptive quadrature exhausted its panel budget before reaching tolerance."""


class DampingError(ValueError):
    """An infinite-limit integral was requested without positive damping."""


class FileFormatError(ValueError):
    """A coefficient or curve file does not match the documented schema."""
