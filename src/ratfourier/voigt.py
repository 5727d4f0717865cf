"""Voigt function evaluation: pole-residue formula plus integral references.

The Voigt function
    K(x, y) = (y/pi) integral e^(-tau^2) / (y^2 + (x - tau)^2) dtau
is the Lorentzian-weighted integral of the Gaussian.  Substituting the
rational approximant of e^(-nu^2) (built from Gaussian-target forward
coefficients) and closing the contour gives a finite sum over the
approximant's poles: three bracket terms per expansion index m.  The sum
is evaluated verbatim here; its correctness is certified against
voigt_quadrature, an independent adaptive integration of the defining
integral, and against voigt_inverse_route, which reaches K(x, y) through
the inverse-transform approximant instead.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, Direction
from .errors import check_denominator, check_direction
from .quadrature import integrate
from .rational_eval import eval_inverse
from .targets import TargetKind

# voigt_inverse_route's integration range and tolerance
_ROUTE_HALFWIDTH = 400.0
_ROUTE_TOL = 1e-11


@dataclass(frozen=True)
class VoigtPoint:
    """Dimensionless detuning x and damping y > 0."""

    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise ValueError(f"y > 0 violated (got {self.y})")


def _require_gaussian(coeffs, direction):
    check_direction(coeffs, direction, "Voigt evaluation")
    if coeffs.target is not TargetKind.GAUSSIAN:
        raise ValueError(
            f"Voigt evaluation needs Gaussian-target coefficients, "
            f"got {coeffs.target.value}"
        )


def _point_free_factors(coeffs):
    """The residue sum's factors that do not depend on (x, y), per set.

    They are kept on the coefficient set itself, whose arrays are read-only,
    so each set computes them once and the cache goes away with the set.
    """
    factors = vars(coeffs).get("_voigt_factors")
    if factors is None:
        sigma = coeffs.params.sigma
        a = coeffs.params.a
        g = coeffs.gamma
        alpha = coeffs.alpha
        beta = coeffs.beta
        gm = g - 1j * sigma
        gp = g + 1j * sigma
        num1 = np.exp(-a * (1j * g + sigma)) * (beta - 1j * alpha * g)
        num2 = 1j * np.exp(a * (1j * g - sigma)) * (alpha * g - 1j * beta)
        factors = (gm, gp, gm * gm, gp * gp, g * g, num1, num2)
        object.__setattr__(coeffs, "_voigt_factors", factors)
    return factors


def _residue_terms(coeffs, p):
    """The 3 * 2^(M-1) residue terms; 2 pi i y times their sum is the contour value."""
    _require_gaussian(coeffs, Direction.FORWARD)
    x, y = p.x, p.y
    sigma = coeffs.params.sigma
    a = coeffs.params.a
    g = coeffs.gamma
    alpha = coeffs.alpha
    beta = coeffs.beta
    gm, gp, gm2, gp2, g2, num1, num2 = _point_free_factors(coeffs)

    four_pi2_r2 = 4.0 * math.pi**2 * (x * x + y * y)
    den1 = g * (four_pi2_r2 + 4.0 * math.pi * x * gm + gm2)
    den2 = g * (four_pi2_r2 - 4.0 * math.pi * x * gp + gp2)
    w = math.tau * (x + 1j * y) - 1j * sigma
    den3 = math.tau * y * (g2 - w * w)
    for den in (den1, den2, den3):
        check_denominator(den, "residue denominator")

    term1 = num1 / den1
    term2 = num2 / den2
    term3 = (1j * np.exp(2j * a * math.pi * (x + 1j * y))
             * (alpha * (math.tau * (y - 1j * x) - sigma) - beta) / den3)
    return np.concatenate((term1, -term2, term3))


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
    from error_scan on 480,001 points over |nu| <= 120; against the Faddeeva
    function, K = Re scipy.special.wofz(x + iy), the worst absolute error on
    251 x in [-2 pi, 2 pi] is 4.4e-16, 8.1e-13, 1.07e-11 and 1.47e-11 at
    y = 1, 0.1, 0.01 and 1e-4.  Small y removes the smoothing, so the error
    approaches the bound; it does not break the sum.

    The relative errors follow from the bound and the size of K: 1.6e-14,
    2.3e-11, 9.4e-10 and 9.0e-8 on the same grid, and on 2001 x in [0, 100]
    1.2e-14, 5.5e-10, 1.9e-8 and 2.1e-6, the last at x = 92.6, where an
    absolute error of 1.4e-14 meets K = 6.6e-9.  The method, not
    rounding, sets the small-y figures; correctly rounded coefficients give
    the same ones.

    Cost per point is O(2^M): about 30-45 us at M=6 and 130-160 us at M=10
    on one core of a 2-core Intel Xeon VM.  The point-free factors of the
    sum are formed on a set's first call and kept on the set.  At M=10 the
    exactly rounded math.fsum over the 3 * 2^(M-1) terms is about half of
    the time.
    """
    # Re(2 pi i y (re + i im)) = -2 pi y im: the real parts of the terms
    # only feed the diagnostic imaginary part, so they are not summed here
    return -(math.tau * p.y) * math.fsum(_residue_terms(coeffs, p).imag.tolist())


@functools.lru_cache(maxsize=128)
def _gaussian_cutoff(y: float, bound: float) -> float:
    # smallest integer L whose truncated mass min(erfc(L)/(y sqrt(pi)),
    # e^(-L^2)) drops below bound; erfc underflows to 0 by L = 28, so the
    # loop always terminates
    for L in range(1, 41):
        tail = min(math.erfc(L) / (y * math.sqrt(math.pi)), math.exp(-float(L * L)))
        if tail <= bound:
            return float(L)
    return 40.0


def voigt_quadrature(p: VoigtPoint, tol: float) -> float:
    """Adaptive integration of the defining Voigt integral to tolerance tol.

    tol steers the adaptive refinement; it is not a strict bound on the
    error at small y.  At y = 1e-4 and tol = 1e-14 the result lies up to
    2.6e-14 from 40-digit mpmath values of Re w(x + iy) on 251 x in
    [-2 pi, 2 pi], about 2.6 times tol; scipy.special.wofz is within
    4.4e-16 of the same values, so a gap of that size between this
    reference and wofz is the quadrature's.  At y = 1, 0.1 and 0.01 the
    worst errors are 5.6e-17, 1.1e-16 and 3.9e-16.
    """
    if not tol >= 1e-15:
        raise ValueError(f"tol >= 1e-15 violated (got {tol})")
    x, y = p.x, p.y
    # truncation: outside [-L, L] the integrand is bounded by both
    # e^(-tau^2)/y^2 (Gaussian tail) and e^(-L^2) times the Lorentzian mass
    L = _gaussian_cutoff(y, tol / 10.0)

    def integrand(tau):
        return (y / math.pi) * np.exp(-tau * tau) / (y * y + (x - tau) ** 2)

    breakpoints = []
    if -L < x < L:
        width = y
        while width < 2.0:
            breakpoints.extend((x - width, x + width))
            width *= 3.0
        breakpoints.append(x)
    value = integrate(integrand, -L, L, tol, breakpoints=breakpoints, max_width=1.0).value
    return value.real


def voigt_inverse_route(coeffs: CoefficientSet, p: VoigtPoint) -> float:
    """K(x, y) through the inverse-transform approximant.

    Pairs the inverse approximant of e^(-t^2) with the Lorentzian kernel
    h(t) = y / (pi (y^2 + (x - t)^2)) and integrates over [-400, 400] to
    tolerance 1e-11.  No closed-form residue algebra exists for this route;
    the truncation is set by the approximant's O(1/t^2) far tail (its
    damping envelope in the transform variable does not decay along the
    real t axis), so the half-width trades runtime against the tail bias.
    """
    _require_gaussian(coeffs, Direction.INVERSE)
    x, y = p.x, p.y

    def integrand(t):
        lorentz = y / (math.pi * (y * y + (x - t) ** 2))
        return eval_inverse(coeffs, t) * lorentz

    breakpoints = []
    if -_ROUTE_HALFWIDTH < x < _ROUTE_HALFWIDTH:
        breakpoints = [x - y, x, x + y]
    max_width = 1.0 / (8.0 * max(coeffs.params.a, 1.0))
    value = integrate(
        integrand, -_ROUTE_HALFWIDTH, _ROUTE_HALFWIDTH, _ROUTE_TOL,
        breakpoints=breakpoints, max_width=max_width,
    ).value
    return value.real
