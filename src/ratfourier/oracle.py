"""Brute-force integral references used to certify the approximants.

Two validators, both driven by the adaptive Gauss-Kronrod engine and
sharing no arithmetic with the rational evaluators:

* fourier_forward_quadrature computes F(nu) = integral f(t - shift)
  e^(-2 pi i nu t) dt directly from the target catalogue.
* damped_expansion_quadrature integrates the damped cosine expansion
  reconstructed from a coefficient set, times the transform kernel, over
  [0, upper].  With upper = infinity the damping envelope e^(-sigma t)
  justifies truncating where the envelope falls below 1e-18.  The
  odd-harmonic grid gamma_m = (2m - 1) gamma_1, an invariant of every
  CoefficientSet, turns the expansion into two polynomials in
  w = e^(2 i gamma_1 t), summed by Horner's rule with one complex
  exponential per node and O(nodes) memory.

Both cap the panel width at 1/(8|nu|), an eighth of the kernel's period,
and refuse |nu| > 100: past that the kernel oscillation would need more
panels than a spot-check oracle should ever spend.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientSet, Direction
from .errors import DampingError, RangeError, check_direction, check_interval, check_tol
from .quadrature import integrate
from .targets import SURROGATE_K, TargetKind, target_value

_NU_LIMIT = 100.0
_ENVELOPE_CUTOFF = 1e-18


@dataclass(frozen=True)
class QuadratureSpec:
    """Finite domain and tolerance for one oracle integration."""

    lo: float
    hi: float
    tol: float

    def __post_init__(self):
        check_interval(self.lo, self.hi)
        check_tol(self.tol)


def _check_nu(nu):
    if not abs(nu) <= _NU_LIMIT:
        raise RangeError(
            f"|nu| <= {_NU_LIMIT:g} violated (got {nu}); oscillation too fast for the oracle"
        )


def _osc_width(nu):
    # an eighth of a period of the kernel e^(-2 pi i nu t); no cap at nu = 0
    return 1.0 / (8.0 * abs(nu)) if nu != 0 else math.inf


def fourier_forward_quadrature(target: TargetKind, shift: float, nu: float,
                               spec: QuadratureSpec, k: int = SURROGATE_K) -> complex:
    """Direct transform of the shifted target over [spec.lo, spec.hi]."""
    _check_nu(nu)
    if not math.isfinite(shift):
        raise ValueError(f"shift must be finite (got {shift})")

    def integrand(t):
        return target_value(target, t - shift, k) * np.exp(-math.tau * 1j * nu * t)

    breakpoints = []
    if target is TargetKind.RECT_SURROGATE:
        # surrogate shoulders: the only places with appreciable curvature
        breakpoints = [shift - 0.5, shift + 0.5]
    return integrate(integrand, spec.lo, spec.hi, spec.tol, breakpoints=breakpoints,
                     max_width=_osc_width(nu)).value


def _horner(c, w):
    # sum_m c_m w^(m-1) by Horner's rule, in place on one (nodes,) array
    acc = np.full(w.shape, c[-1])
    for cm in c[-2::-1].tolist():
        acc *= w
        acc += cm
    return acc


def damped_expansion_quadrature(coeffs: CoefficientSet, nu: float, upper,
                                spec: QuadratureSpec) -> complex:
    """Transform of the damped cosine expansion over [0, upper].

    The expansion is rebuilt from (alpha, beta, gamma) via the exact
    identity sum_n v_n cos(gamma (t - nh)) = alpha cos(gamma t)
    + (beta/gamma) sin(gamma t) per term, so the integrand matches the
    pre-rearrangement double-sum form without quadratic cost.  Written as
    p_m e^(i gamma_m t) + q_m e^(-i gamma_m t), with
    p_m, q_m = (alpha_m -/+ i beta_m/gamma_m)/2, and with the grid invariant
    gamma_m = (2m - 1) gamma_1, the bracket is z P(w) + conj(z) Q(conj(w)),
    z = e^(i gamma_1 t), w = z^2, P and Q the polynomials with coefficients
    p and q.  Horner's rule sums both on arrays of the nodes' length, so a
    call costs one complex exponential and O(terms) multiply-adds per node
    and O(nodes) memory.  spec.lo and spec.hi are ignored; the domain is
    dictated by `upper`, a positive number or math.inf (not -math.inf).
    """
    check_direction(coeffs, Direction.FORWARD, "damped-expansion oracle")
    _check_nu(nu)
    sigma = coeffs.params.sigma
    if upper == math.inf:
        if sigma <= 0:
            raise DampingError(
                "infinite upper limit needs sigma > 0 to damp the expansion"
            )
        upper = -math.log(_ENVELOPE_CUTOFF) / sigma
    if not upper > 0:
        raise ValueError(f"upper > 0 violated (got {upper})")

    gamma = coeffs.gamma
    beta_over_gamma = coeffs.beta / gamma
    p = 0.5 * (coeffs.alpha - 1j * beta_over_gamma)
    q = 0.5 * (coeffs.alpha + 1j * beta_over_gamma)
    gamma_1 = float(gamma[0])

    def integrand(t):
        # gamma_m = (2m-1) gamma_1, so e^(i gamma_m t) = z w^(m-1)
        z = np.exp(1j * gamma_1 * t)
        w = z * z
        bracket = z * _horner(p, w)
        bracket += z.conjugate() * _horner(q, w.conjugate())
        bracket *= np.exp(-(sigma + math.tau * 1j * nu) * t)
        return bracket

    max_width = min(4.0 / gamma[-1], _osc_width(nu))
    return integrate(integrand, 0.0, upper, spec.tol, max_width=max_width).value
