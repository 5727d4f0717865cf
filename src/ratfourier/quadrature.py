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
one panel.  The panel budget is checked on these counts before any panel
is built.  The panels tile [lo, hi], so one list of cuts gives both edge
lists.  All initial panels go to the integrand in one batch, the halves of
all the panels a round bisects in another, so there is one call per
round, not per bisection.  A batch travels as two lists of floats, its
left and its right edges; the rule forms midpoints and half-widths from
them in numpy and returns the error estimates as floats and the values as
an array.
(err, value, left, right) records are built only when a round has to
sort: the round zips the batch behind the records it kept before, sorts
them by estimate (stably, so tied panels keep their order), keeps the
prefix and sends the halves of the rest out as two edge lists.  Exactly
rounded math.fsum sums the estimates and, at the end, the real and the
imaginary parts of the kept values.  A call that meets tol on its first
batch builds no record at all.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
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


def _eval_panels(f, lefts, rights):
    """Apply the rule to a batch of panels given by their edge lists.

    Returns the panels' error estimates as a list of floats and their values
    as an array.
    """
    left, right = np.array(lefts), np.array(rights)
    half = 0.5 * (right - left)
    nodes = (0.5 * (left + right))[:, None] + half[:, None] * _XK
    fv = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    resk = (fv @ _WK) * half
    resg = (fv[:, _GAUSS_SLOTS] @ _WG) * half
    return np.abs(resk - resg).tolist(), resk


def _initial_edges(lo, hi, breakpoints, max_width):
    """The left and the right edges of the initial panels, as two lists."""
    pts = [float(lo), *sorted([float(p) for p in set(breakpoints) if lo < p < hi]), float(hi)]
    # an inf ratio, from a tiny max_width or a huge interval, is counted as
    # inf rather than handed to ceil, which overflows on it; the budget is
    # checked on the counts, before any panel is built
    counts = [math.ceil(r) or 1 if (r := (right - left) / max_width) < math.inf else r
              for left, right in zip(pts, pts[1:])]
    if sum(counts) > _MAX_PANELS:
        raise ConvergenceError(
            f"initial subdivision needs {sum(counts):.7g} panels, budget is {_MAX_PANELS}"
        )
    # the panels tile [lo, hi], so one list of cuts holds both edge lists
    cuts = []
    for left, right, nsub in zip(pts, pts[1:], counts):
        step = (right - left) / nsub
        cuts += [left + i * step for i in range(nsub)]
    cuts.append(pts[-1])
    return cuts[:-1], cuts[1:]


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
    are built or the integrand called), a round must bisect a panel at the
    rounding floor, or the summed error estimate is nan (a nan integrand
    value makes it nan, and so does an infinite one at a Gauss node; an
    infinite estimate is refined like any other).
    """
    check_interval(lo, hi)
    if not max_width > 0:
        raise ValueError(f"max_width > 0 violated (got {max_width})")
    check_tol(tol)
    lefts, rights = _initial_edges(lo, hi, breakpoints, max_width)
    errs, values = _eval_panels(f, lefts, rights)
    # the (err, value, left, right) records of the panels the rounds kept; the
    # last batch, still in arrays, follows them
    kept = []
    total_err = math.fsum(errs)
    rounds = 0

    while not total_err <= tol:
        if math.isnan(total_err):
            # nan > tol is false, so a nan estimate would pass as converged;
            # it can be neither ordered nor refined.  An inf one is refined
            raise ConvergenceError(f"non-finite error estimate {total_err} (tol {tol:.3e})")
        # keep the longest prefix of best panels whose running sum of estimates
        # stays <= tol/2 and bisect the rest; the running sums of non-negative
        # estimates never decrease, so panels with a zero estimate are kept
        panels = kept + list(zip(errs, values.tolist(), lefts, rights))
        panels.sort(key=_estimate)
        cut = bisect_right(list(accumulate(map(_estimate, panels))), 0.5 * tol)
        if 2 * len(panels) - cut > _MAX_PANELS:
            raise ConvergenceError(
                f"panel budget {_MAX_PANELS} exhausted (error estimate {total_err:.3e}, tol {tol:.3e})"
            )
        kept = panels[:cut]
        lefts, rights = [], []
        for err, _, left, right in panels[cut:]:
            if err <= 0.0 or right - left < _ROUNDING_FLOOR * max(abs(left), abs(right), 1.0):
                # a panel that must be split is at the rounding floor; tol is unreachable
                raise ConvergenceError(
                    f"panel refinement hit the rounding floor at estimate {total_err:.3e} "
                    f"(tol {tol:.3e})"
                )
            midpoint = 0.5 * (left + right)
            lefts += (left, midpoint)
            rights += (midpoint, right)
        errs, values = _eval_panels(f, lefts, rights)
        total_err = math.fsum(chain(map(_estimate, kept), errs))
        rounds += 1

    # fsum is order-independent, so the panel order cannot leak into the result
    if kept:
        values = np.concatenate(([p[1] for p in kept], values))
    value = complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))
    return QuadratureResult(value, total_err, len(values), rounds)
