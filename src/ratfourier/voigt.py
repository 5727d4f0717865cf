"""Voigt function evaluation: pole-residue formula plus an integral reference.

The Voigt function
    K(x, y) = (y/pi) integral e^(-tau^2) / (y^2 + (x - tau)^2) dtau
is the Lorentzian-weighted integral of the Gaussian.  Substituting the
rational approximant of e^(-nu^2) (built from Gaussian-target forward
coefficients) and closing the contour gives a finite sum over the
approximant's poles: three bracket terms per expansion index m.  The sum
is evaluated verbatim here; its correctness is certified against
voigt_quadrature, an independent adaptive integration of the defining
integral.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, Direction
from .errors import RangeError, check_denominator, check_direction, check_tol
from .quadrature import integrate
from .targets import TargetKind

# relative rounding allowance of the residue's first two denominators:
# twice the 32 eps their error analysis needs (_residue_terms)
_ROUNDING = 64 * sys.float_info.epsilon
# below this damping voigt_quadrature integrates the Gaussian less its
# second-order Taylor part at the peak, whose integral it takes in closed form
_SUBTRACT_BELOW = 0.12


@dataclass(frozen=True)
class VoigtPoint:
    """Finite dimensionless detuning x and damping y > 0, stored as floats."""

    x: float
    y: float

    def __post_init__(self):
        if not math.isfinite(self.x):
            raise ValueError(f"x must be finite (got {self.x})")
        if not 0 < self.y < math.inf:
            raise ValueError(f"finite y > 0 violated (got {self.y})")
        # a numpy scalar would take the residue's scalar arithmetic, and its
        # overflow test, into numpy, which warns before the RangeError
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


def _require_gaussian(coeffs):
    check_direction(coeffs, Direction.FORWARD, "Voigt evaluation")
    if coeffs.target is not TargetKind.GAUSSIAN:
        raise ValueError(
            f"Voigt evaluation needs Gaussian-target coefficients, "
            f"got {coeffs.target.value}"
        )


def _point_free_factors(coeffs):
    """The residue sum's factors that do not depend on (x, y), per set.

    The first two pole families are stacked as one, with c = [g - i sigma,
    -(g + i sigma)] and numerators [num1, -num2].  The factors are kept on
    the coefficient set itself, whose arrays are read-only, so each set
    computes them once and the cache goes away with the set.
    """
    factors = vars(coeffs).get("_voigt_factors")
    if factors is None:
        sigma = coeffs.params.sigma
        a = coeffs.params.a
        g = coeffs.gamma
        alpha = coeffs.alpha
        beta = coeffs.beta
        c = np.concatenate((g - 1j * sigma, -(g + 1j * sigma)))
        num1 = np.exp(-a * (1j * g + sigma)) * (beta - 1j * alpha * g)
        num2 = 1j * np.exp(a * (1j * g - sigma)) * (alpha * g - 1j * beta)
        # gamma_1, gamma_max and (gamma_max + sigma)^2 as floats, for the pole
        # bounds; multiplied, not raised with **, so a huge set gives inf
        g1, g_top = float(g[0]), float(g[-1])
        factors = (c, c * c, np.concatenate((g, g)), g * g, np.concatenate((num1, -num2)),
                   g1, g_top, (g_top + sigma) * (g_top + sigma))
        object.__setattr__(coeffs, "_voigt_factors", factors)
    return factors


def _residue_terms(coeffs, p):
    """The 3 * 2^(M-1) residue terms; 2 pi i y times their sum is the contour value."""
    _require_gaussian(coeffs)
    x, y = p.x, p.y
    sigma = coeffs.params.sigma
    a = coeffs.params.a
    alpha = coeffs.alpha
    beta = coeffs.beta
    c, c2, g12, g2, num12, g1, g_top, top2 = _point_free_factors(coeffs)

    four_pi2_r2 = 4.0 * math.pi**2 * (x * x + y * y)
    t = math.tau * y
    # (gamma_max + 2 pi y)(4 pi^2 (x^2 + y^2) + (gamma_max + sigma)^2) bounds
    # |den12| and |den3| from above, so below it nothing overflows
    if not math.isfinite((g_top + t) * (four_pi2_r2 + top2)):
        raise RangeError(f"|x| or y too large for the residue sum (got x={x}, y={y}); "
                         f"its denominators would overflow")
    den12 = g12 * (four_pi2_r2 + 4.0 * math.pi * x * c + c2)
    w = math.tau * (x + 1j * y) - 1j * sigma
    den3 = t * (g2 - w * w)
    # den12 = g (u + 2 pi i y)(u - 2 pi i y) with u = 2 pi x + c and
    # Im u = -sigma, so |den12| >= gamma_1 |sigma^2 - (2 pi y)^2|.  The
    # expanded sums and the bound round with an absolute error below
    # 32 eps gamma_max (4 pi^2 (x^2 + y^2) + (gamma_max + sigma)^2), which is
    # taken off the bound.
    check_denominator(den12, "residue denominator",
                      g1 * abs(sigma * sigma - t * t) - _ROUNDING * g_top * (four_pi2_r2 + top2))
    # |g -/+ w| >= |Im w|, so |den3| >= 2 pi y (Im w)^2; g2 - w*w rounds as
    # gamma^2 + s*s does with s = i w, Re s = -Im w, which the floor's
    # factor 4 covers (errors)
    wi = w.imag
    check_denominator(den3, "residue denominator", t * wi * wi)

    term3 = (1j * np.exp(2j * a * math.pi * (x + 1j * y))
             * (alpha * (math.tau * (y - 1j * x) - sigma) - beta) / den3)
    return np.concatenate((num12 / den12, term3))


def voigt_residue_complex(coeffs: CoefficientSet, p: VoigtPoint) -> complex:
    """Full complex value of the residue sum (imaginary part is diagnostic)."""
    terms = _residue_terms(coeffs, p)
    total = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return math.tau * 1j * p.y * total


def voigt_residue(coeffs: CoefficientSet, p: VoigtPoint) -> float:
    """Voigt function via the pole-residue sum (real part of the contour value).

    The sum is the Lorentzian smoothing of the real-axis approximant Re F(nu)
    of e^(-nu^2), and the Lorentzian has unit mass, so the absolute error is
    bounded by the approximant's: |K_approx - K| <= sup_nu |Re F(nu) -
    e^(-nu^2)|, for every x and every y > 0.  At the Voigt preset
    (gauss-derivative parameters, Gaussian target, M=6) that sup is 1.56e-11,
    from error_scan on 480,001 points over |nu| <= 120.  It is essentially
    the replica envelope: the expansion's first replica is a negated copy
    at 2^M h, damped by e^(-sigma 2^M h) = e^(-5 * 4.992) = 1.445e-11.
    Against the Faddeeva function, K = Re scipy.special.wofz(x + iy), the
    worst absolute error on 251 x in [-2 pi, 2 pi] is 4.4e-16, 8.1e-13,
    1.07e-11 and 1.47e-11 at y = 1, 0.1, 0.01 and 1e-4.  Small y removes
    the smoothing, so the error approaches the bound; it does not break the
    sum.  That bound is the M=6 preset's, not the method's: at M = 9 and
    sigma = 1 (a, N and h kept) the same errors are 2.78e-16, 6.11e-16,
    6.66e-16 and 5.55e-16.  Near the pole line y = sigma/(2 pi) every set
    loses accuracy: on it, 2.9e-12 at M = 9 and 7e-13 at the preset.

    The relative errors follow from the bound and the size of K: 1.6e-14,
    2.3e-11, 9.4e-10 and 9.0e-8 on the same grid, and on 2001 x in [0, 100]
    1.2e-14, 5.5e-10, 1.9e-8 and 2.1e-6, the last at x = 92.6, where an
    absolute error of 1.4e-14 meets K = 6.6e-9.  Rounding in the binary64
    terms, not the method, sets those small-y figures at large x: the same
    coefficients with the terms formed and summed in longdouble give
    7.3e-11, 2.3e-9 and 2.6e-7 on [0, 100], 7.5-8.3 times lower, while the
    worst absolute error barely moves (1.47e-11 and 1.45e-11 at y = 1e-4),
    so near the peak the method's floor rules.  Correctly rounded
    coefficients give the same figures.

    Cost per point is O(2^M); perfbench/run.py records the measured times.
    The point-free factors of the sum are formed on a set's first call and
    kept on the set.  At M=10 the exactly rounded math.fsum over the
    3 * 2^(M-1) terms is about 60% of the time.  The first two pole
    families share one denominator array, g (4 pi^2 (x^2 + y^2) + 4 pi x c
    + c^2).  check_denominator gets a lower bound with each family's array
    and tests it in full only where the bound does not clear the floor:
    gamma_1 |sigma^2 - (2 pi y)^2| less a rounding allowance for the first
    two, 2 pi y (2 pi y - sigma)^2 for the third.  Both fall short on and
    next to the line 2 pi y = sigma, where all the poles lie; the first also
    where |x| is so large that the allowance outweighs it (from about 6.4e5
    at the Voigt preset and y = 1).

    Domain: RangeError where (gamma_max + 2 pi y)(4 pi^2 (x^2 + y^2)
    + (gamma_max + sigma)^2) overflows, although VoigtPoint accepts every
    finite x and y > 0.  That scalar bounds |den12| and |den3| from above,
    so below it nothing overflows and the absolute bound holds (x = 1e150
    gives -5.2e-170); past it a denominator would overflow and drop terms
    or give NaN.  At y = 1 the edge is |x| = 3.15e152 at M=6 and 8.37e151
    at M=10, at x = 0 it is y = 8.98e101 at both orders.
    """
    # Re(2 pi i y (re + i im)) = -2 pi y im: the real parts of the terms
    # only feed the diagnostic imaginary part, so they are not summed here
    return -(math.tau * p.y) * math.fsum(_residue_terms(coeffs, p).imag.tolist())


def _mesh(tol, y):
    """The truncation L and the initial panel cap of voigt_quadrature.

    L is the smallest integer >= 1 with e^(-L^2) <= tol/10 (see
    voigt_quadrature for both).  sqrt(-ln(tol/10)) rounded to the nearest
    integer is L or L - 1, so one test of that inequality settles it.
    """
    t = tol / 10.0
    L = max(1.0, float(round(math.sqrt(max(0.0, -math.log(t))))))
    if math.exp(-L * L) > t:
        L += 1.0
    cap = 1.0
    if y >= 0.4:
        cap = min(cap, min(0.4 * y, 0.6) * (tol / 1e-14) ** (1.0 / 15.0))
    return L, cap


def voigt_quadrature(p: VoigtPoint, tol: float) -> float:
    """Adaptive integration of the defining Voigt integral to tolerance tol.

    tol steers the adaptive refinement.  Against 40-digit mpmath values of
    Re w(x + iy) on 251 x in [-2 pi, 2 pi] at tol = 1e-14 the worst errors
    are 5.6e-17, 1.1e-16, 1.4e-16 and 1.6e-16 at y = 1, 0.1, 0.01 and
    1e-4, and 1.6e-16 down to y = 1e-8, at tol 1e-15 and 1e-10 as well;
    scipy.special.wofz is within 4.4e-16 of the same values.

    Below y = 0.12 the integrand is the Gaussian less its second-order
    Taylor part at the peak, T(u) = g + g' u + (g''/2) u^2 with u = tau - x
    and g = e^(-x^2), times the Lorentzian, and the three Lorentzian moments
    of T over [-L, L] are added in closed form (singularity subtraction;
    Davis and Rabinowitz, Methods of Numerical Integration, 1984).  math.fsum
    adds them to the integral, so the peak value g enters unrounded.  What
    is left vanishes to third order at the peak.  The plain integrand kept
    the peak, of height 1/(pi y) and width y, and the nodes next to x, which
    round to the binary64 grid around x, turned it into errors growing as y
    fell: 2.6e-14, 1.6e-12 and 7.8e-12 at y = 1e-4, 1e-6 and 1e-8 and tol
    1e-14, up to 778 times tol, and at tol 1e-15 and y = 1e-8 the panel
    budget ran out.  Now every point from y = 1e-3 down to 1e-8 meets tol
    1e-15, 1e-14 or 1e-10 on its first batch.  From y = 0.12 up the
    integrand, and every result, is the plain one: there the subtracted
    form was one ulp worse at some y from 0.15 up (on 251 and 1001 x in
    [-2 pi, 2 pi] and 300 x in [-9, 9]), while from 0.12 down to 1e-8, at
    tol 1e-15, 1e-14 and 1e-10, it was never worse.

    The integral is truncated to [-L, L], L the smallest integer with
    e^(-L^2) <= tol/10.  Outside that interval the Gaussian factor is at
    most e^(-L^2) and the Lorentzian has unit mass, so the truncated mass is
    at most tol/10 for every x and every y > 0.  tol is absolute only, so
    where K(x, y) < tol, as at small y and large |x|, relative accuracy is
    not guaranteed.

    The initial panels are at most min(0.4 y, 0.6) (tol/1e-14)^(1/15) wide,
    or 1 wide where that exceeds 1 or y < 0.4.  Width 1 is too wide where
    the Lorentzian is wide: at tol 1e-14, of 251 x in [-2 pi, 2 pi], none
    meets tol on its first batch at y = 2 and 60 do at y = 1, so the rest
    pay for a round.  Two parts of the integrand need narrower panels.  The
    Gaussian factor needs width 0.7 at y = 2, and less than 1 up to y of
    about 50.  The innermost panels of the breakpoint cascade, width y with
    the pole x + iy over one end, need cutting in three.  The 7/15 estimate
    of a smooth panel falls as its width to the 15th power, hence the
    exponent.  With the cap, every point from y = 0.4 to 200 at tol 1e-12
    to 1e-14 meets tol on its first batch (431 x in [-9, 9] and
    [-2 pi, 2 pi], and x = +-7 and +-50); at tol 1e-15 a few points near
    y = 1.4 still take a round.  Below y = 0.4 the cap would add panels
    across all of [-L, L] that cost more than the round bisecting the few
    innermost ones, so there the panels, and the results, are those of
    width 1.  Where width 1 would pass already or nearly, as from y = 60
    at tol 1e-14 or at y = 0.4 to 1 from tol 1e-10, the cap adds panels
    but saves few rounds or none.
    perfbench/run.py records the times.

    Domain: RangeError where y^2 + (|x| + L)^2, a bound on every
    denominator, overflows: from y or |x| = 1.3408e154 at x = 0 or y = 1.
    The residue sum's edge lies inside this one.
    """
    check_tol(tol)
    x, y = p.x, p.y
    L, max_width = _mesh(tol, y)
    # |x - tau| <= |x| + L bounds every denominator; d * d gives inf where ** raises
    d = abs(x) + L
    if not math.isfinite(y * y + d * d):
        raise RangeError(f"|x| or y too large for the quadrature reference (got x={x}, y={y})")

    if y >= _SUBTRACT_BELOW:
        def integrand(tau):
            return (y / math.pi) * np.exp(-tau * tau) / (y * y + (x - tau) ** 2)
        moments = ()
    else:
        # T(u) = g + g1 u + g2 u^2, e^(-tau^2) to second order at tau = x.
        # x * x is finite below the overflow edge, and 2 (x^2 - 1/2) g is
        # 0, not inf * 0, where g underflows
        g = math.exp(-x * x)
        g1 = -2.0 * x * g
        g2 = 2.0 * (x * x - 0.5) * g
        # atan((L - x)/y) + atan((L + x)/y) = pi - outside, outside/pi the
        # Lorentzian's mass beyond [-L, L]; g enters unrounded, so the
        # moments lose no bits to the peak value
        outside = math.atan2(y, L - x) + math.atan2(y, L + x)
        moments = (g, -g * (outside / math.pi),
                   g1 * (y / math.pi) * (math.log(math.hypot(y, L - x))
                                         - math.log(math.hypot(y, L + x))),
                   g2 * (y / math.pi) * (2.0 * L - y * (math.pi - outside)))

        def integrand(tau):
            u = tau - x
            return (y / math.pi) * (np.exp(-tau * tau) - (g + u * (g1 + u * g2))) / (y * y + u * u)

    breakpoints = []
    if -L < x < L:
        width = y
        while width < 2.0:
            breakpoints.extend((x - width, x + width))
            width *= 3.0
        breakpoints.append(x)
    value = integrate(integrand, -L, L, tol, breakpoints=breakpoints,
                      max_width=max_width).value
    return math.fsum((value.real, *moments))
