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
np.linspace gives.  All initial panels go to the integrand in one batch,
the halves of all the panels a round bisects in another, so there is one
call per round, not per bisection; only the rule runs in numpy.  Between
batches the engine works on plain Python lists: one sort of the panels by
estimate per round, list rebuilds of the kept panels and the halves, and
exactly rounded math.fsum sums of the estimates and, at the end, of the
kept panel values.  A tol-1e-14 voigt_quadrature point takes 1.04, 0.99,
1.14 and 1.24 rounds on average at y = 1, 0.1, 0.01 and 1e-4 (251 x in
[-2 pi, 2 pi]).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

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
# the smallest tolerance the oracles accept
_TOL_FLOOR = 1e-15


def _check_tol(tol):
    if not _TOL_FLOOR <= tol < math.inf:
        raise ValueError(f"finite tol >= {_TOL_FLOOR:g} violated (got {tol})")


def _eval_panels(f, edges):
    """Apply the rule to a batch of (left, right) panels.

    Returns the panel values and error estimates as lists of Python numbers.
    """
    mid = np.array([0.5 * (left + right) for left, right in edges])
    half = np.array([0.5 * (right - left) for left, right in edges])
    nodes = mid[:, None] + half[:, None] * _XK[None, :]
    fv = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
    resk = (fv @ _WK) * half
    resg = (fv[:, _GAUSS_SLOTS] @ _WG) * half
    return resk.tolist(), np.abs(resk - resg).tolist()


def _initial_edges(lo, hi, breakpoints, max_width):
    pts = ([float(lo)] + sorted(float(p) for p in set(breakpoints) if lo < p < hi)
           + [float(hi)])
    edges = []
    for left, right in zip(pts, pts[1:]):
        nsub = 1
        if max_width is not None and max_width > 0:
            nsub = max(1, math.ceil((right - left) / max_width))
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


def integrate(f, lo, hi, tol, max_panels=10**6, breakpoints=(), max_width=None):
    """Integrate f over [lo, hi] to absolute tolerance tol.

    f must accept a 1-D ndarray of abscissae and return values of matching
    shape.  `breakpoints` seeds panel edges at known features; `max_width`
    caps the initial panel width (needed for oscillatory integrands so the
    error estimate is meaningful from the start).  Returns a
    QuadratureResult.  Raises ConvergenceError if a round would take the
    panel count past max_panels (checked before its integrand call) or must
    bisect a panel at the rounding floor.
    """
    if not lo < hi:
        raise ValueError(f"integration bounds must satisfy lo < hi (got {lo}, {hi})")
    edges = _initial_edges(lo, hi, breakpoints, max_width)
    if len(edges) > max_panels:
        raise ConvergenceError(
            f"initial subdivision needs {len(edges)} panels, budget is {max_panels}"
        )
    values, errors = _eval_panels(f, edges)
    total_err = math.fsum(errors)
    rounds = 0

    while total_err > tol:
        # keep the best panels while their estimates sum to at most tol/2 and
        # bisect the rest; summing from the small end cannot cancel, so panels
        # with a zero estimate are always kept
        order = sorted(range(len(errors)), key=errors.__getitem__)
        kept_err = 0.0
        cut = 0
        for i in order:
            kept_err += errors[i]
            if kept_err > 0.5 * tol:
                break
            cut += 1
        kept, split = order[:cut], order[cut:]
        if len(errors) + len(split) > max_panels:
            raise ConvergenceError(
                f"panel budget {max_panels} exhausted (error estimate {total_err:.3e}, tol {tol:.3e})"
            )
        halves = []
        for i in split:
            left, right = edges[i]
            if errors[i] <= 0.0 or right - left < _ROUNDING_FLOOR * max(abs(left), abs(right), 1.0):
                # a panel that must be split is at the rounding floor; tol is unreachable
                raise ConvergenceError(
                    f"panel refinement hit the rounding floor at estimate {total_err:.3e} "
                    f"(tol {tol:.3e})"
                )
            midpoint = 0.5 * (left + right)
            halves += ((left, midpoint), (midpoint, right))
        new_values, new_errors = _eval_panels(f, halves)
        edges = [edges[i] for i in kept] + halves
        values = [values[i] for i in kept] + new_values
        errors = [errors[i] for i in kept] + new_errors
        total_err = math.fsum(errors)
        rounds += 1

    # fsum is order-independent, so the panel order cannot leak into the result
    value = complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))
    return QuadratureResult(value, total_err, len(values), rounds)
