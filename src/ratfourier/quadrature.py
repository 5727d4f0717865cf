"""Adaptive panel integration with an embedded 7/15-point Gauss-Kronrod rule.

Global-adaptive scheme in rounds: evaluate every panel with the 15-point
Kronrod rule and estimate the panel error as the modulus of the difference
against the embedded 7-point Gauss result.  While the summed estimate
exceeds the tolerance, a round keeps the largest set of best panels whose
estimates sum to at most tol/2 and bisects all the others, the batching
rule of scipy.integrate.quad_vec.  Halving the target lets one round
usually finish the refinement: the halves of a resolved panel carry a small
fraction of its estimate, so the kept tol/2 plus the halves' share lands
below tol.  Integrands are called vectorized (one call per batch of nodes)
and may return real or complex values.

Bookkeeping.  The breakpoints inside (lo, hi), duplicates dropped, cut the
interval into segments, and max_width cuts each segment into
ceil(width / max_width) equal panels at left + i * (width / n), the points
np.linspace gives; the default max_width = math.inf leaves each segment
one panel.  All initial panels go to the integrand in one batch, the
halves of all the panels a round bisects in another, so there is one call
per round, not per bisection; only the rule runs in numpy.  Between
batches the engine keeps one plain Python list of (err, value, left, right)
panel records.  A round sorts it by estimate (stably, so tied panels keep
their order), keeps the prefix and puts the records of the halves of the
rest in its place.  Exactly rounded math.fsum sums the estimates and, at
the end, the kept panel values.  A tol-1e-14 voigt_quadrature point takes
1.04, 0.99, 1.14 and 1.24 rounds on average at y = 1, 0.1, 0.01 and 1e-4
(251 x in [-2 pi, 2 pi]).
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .errors import ConvergenceError, check_interval, check_tol

# 7/15 Gauss-Kronrod abscissae and weights on [-1, 1].
_XK = np.array([
    -0.99145537112081264, -0.94910791234275852, -0.86486442335976907,
    -0.74153118559939444, -0.58608723546769113, -0.40584515137739717,
    -0.20778495500789847, 0.0, 0.20778495500789847, 0.40584515137739717,
    0.58608723546769113, 0.74153118559939444, 0.86486442335976907,
    0.94910791234275852, 0.99145537112081264,
])
_WK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783, 0.20443294007529889,
    0.19035057806478541, 0.16900472663926790, 0.14065325971552592,
    0.10479001032225018, 0.063092092629978553, 0.022935322010529225,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927667, 0.38183005050511894,
    0.41795918367346939, 0.38183005050511894, 0.27970539148927667,
    0.12948496616886969,
])
_GAUSS_SLOTS = slice(1, 15, 2)  # the 7 Gauss nodes sit at the odd Kronrod slots
# a panel narrower than this times its largest edge magnitude (at least 1)
# cannot be bisected meaningfully
_ROUNDING_FLOOR = 64.0 * float(np.finfo(float).eps)
# the most panels the initial subdivision or a round may leave
_MAX_PANELS = 10**6
# the error estimate of an (err, value, left, right) panel record
_estimate = itemgetter(0)


def _eval_panels(f, edges):
    """Apply the rule to a batch of (left, right) panels.

    Returns one (err, value, left, right) record of Python numbers per panel.
    """
    mid = np.array([0.5 * (left + right) for left, right in edges])
    half = np.array([0.5 * (right - left) for left, right in edges])
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    fv = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    resk = (fv @ _WK) * half
    resg = (fv[:, _GAUSS_SLOTS] @ _WG) * half
    return [(err, value, left, right) for err, value, (left, right)
            in zip(np.abs(resk - resg).tolist(), resk.tolist(), edges)]


def _initial_edges(lo, hi, breakpoints, max_width):
    pts = ([float(lo)] + sorted(float(p) for p in set(breakpoints) if lo < p < hi)
           + [float(hi)])
    segments = list(zip(pts, pts[1:]))
    ratios = [(right - left) / max_width for left, right in segments]
    # an inf ratio, from a tiny max_width or a huge interval, is counted as
    # inf rather than handed to ceil, which overflows on it; the budget is
    # checked on the counts, before any panel list is built
    counts = [max(1, math.ceil(r)) if r < math.inf else r for r in ratios]
    if sum(counts) > _MAX_PANELS:
        raise ConvergenceError(
            f"initial subdivision needs {sum(counts):.7g} panels, budget is {_MAX_PANELS}"
        )
    edges = []
    for (left, right), nsub in zip(segments, counts):
        step = (right - left) / nsub
        cuts = [left + i * step for i in range(nsub)] + [right]
        edges.extend(zip(cuts, cuts[1:]))
    return edges


@dataclass(frozen=True)
class QuadratureResult:
    """An integral with its certificate.

    err_est is the summed 7/15 error estimate of the kept panels, panels
    their count and rounds the number of refinement rounds (integrand calls
    after the first).
    """

    value: complex
    err_est: float
    panels: int
    rounds: int


def integrate(f, lo, hi, tol, breakpoints=(), max_width=math.inf):
    """Integrate f over [lo, hi] to absolute tolerance tol.

    f must accept a 1-D ndarray of abscissae and return values of matching
    shape.  `breakpoints` seeds panel edges at known features; `max_width`
    caps the initial panel width (needed for oscillatory integrands so the
    error estimate is meaningful from the start); the default math.inf sets
    no cap.  Returns a QuadratureResult.  Raises ValueError unless
    0 < hi - lo < inf (errors.check_interval), max_width > 0 and tol is a
    finite number >= 1e-15 (errors.check_tol).  Raises
    ConvergenceError if the initial subdivision or a round would take the
    panel count past _MAX_PANELS (checked on the counts, before the panels
    are built or the integrand called) or a round must bisect a panel at the
    rounding floor.
    """
    check_interval(lo, hi)
    if not max_width > 0:
        raise ValueError(f"max_width > 0 violated (got {max_width})")
    check_tol(tol)
    panels = _eval_panels(f, _initial_edges(lo, hi, breakpoints, max_width))
    total_err = math.fsum(map(_estimate, panels))
    rounds = 0

    while total_err > tol:
        # keep the longest prefix of best panels whose running sum of estimates
        # stays <= tol/2 and bisect the rest; the running sums of non-negative
        # estimates never decrease, so panels with a zero estimate are kept
        panels.sort(key=_estimate)
        cut = bisect_right(list(accumulate(map(_estimate, panels))), 0.5 * tol)
        if 2 * len(panels) - cut > _MAX_PANELS:
            raise ConvergenceError(
                f"panel budget {_MAX_PANELS} exhausted (error estimate {total_err:.3e}, tol {tol:.3e})"
            )
        halves = []
        for err, _, left, right in panels[cut:]:
            if err <= 0.0 or right - left < _ROUNDING_FLOOR * max(abs(left), abs(right), 1.0):
                # a panel that must be split is at the rounding floor; tol is unreachable
                raise ConvergenceError(
                    f"panel refinement hit the rounding floor at estimate {total_err:.3e} "
                    f"(tol {tol:.3e})"
                )
            midpoint = 0.5 * (left + right)
            halves += ((left, midpoint), (midpoint, right))
        panels[cut:] = _eval_panels(f, halves)
        total_err = math.fsum(map(_estimate, panels))
        rounds += 1

    # fsum is order-independent, so the panel order cannot leak into the result
    value = complex(math.fsum(p[1].real for p in panels), math.fsum(p[1].imag for p in panels))
    return QuadratureResult(value, total_err, len(panels), rounds)
