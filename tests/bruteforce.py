"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way -- per-term loops over
plain Python scalars -- precisely so it shares no code path, no
vectorization, and no accumulation strategy with the library under test.
"""

import cmath
import math

import mpmath


def brute_coefficients(samples):
    """Naive double-loop coefficient formation in plain binary64.

    Returns (alpha, beta, gamma) as Python lists.  Each projection sum is
    accumulated with math.fsum over per-sample products computed with
    math.cos / math.sin, one scalar at a time.
    """
    params = samples.params
    terms = params.terms
    scale = 2.0 ** (1 - params.M)
    values = [complex(v) for v in samples.values]
    alpha, beta, gamma = [], [], []
    for m in range(1, terms + 1):
        g = math.pi * (2 * m - 1) / (2 ** params.M * params.h)
        cos_re, cos_im, sin_re, sin_im = [], [], [], []
        for n, v in enumerate(values):
            c = math.cos(g * n * params.h)
            s = math.sin(g * n * params.h)
            cos_re.append(v.real * c)
            cos_im.append(v.imag * c)
            sin_re.append(v.real * s)
            sin_im.append(v.imag * s)
        alpha.append(scale * complex(math.fsum(cos_re), math.fsum(cos_im)))
        beta.append(scale * g * complex(math.fsum(sin_re), math.fsum(sin_im)))
        gamma.append(g)
    return alpha, beta, gamma


def mpmath_coefficients(samples, dps=40):
    """The coefficient sums in dps-digit arithmetic, rounded once to binary64.

    The phases gamma_m n h = pi (2m - 1) n / 2^M are taken exactly through
    mpmath.cospi / mpmath.sinpi of the rational (2m - 1) n / 2^M, so past
    the dps-digit arithmetic the only rounding is the final one.  Returns
    (alpha, beta) as lists.
    """
    params = samples.params
    values = [mpmath.mpc(complex(v)) for v in samples.values]
    alpha, beta = [], []
    with mpmath.workdps(dps):
        scale = mpmath.mpf(2) ** (1 - params.M)
        for m in range(1, params.terms + 1):
            g = mpmath.pi * (2 * m - 1) / (2 ** params.M * mpmath.mpf(params.h))
            phases = [mpmath.mpf((2 * m - 1) * n) / 2 ** params.M
                      for n in range(len(values))]
            cos_sum = mpmath.fsum(v * mpmath.cospi(r) for v, r in zip(values, phases))
            sin_sum = mpmath.fsum(v * mpmath.sinpi(r) for v, r in zip(values, phases))
            alpha.append(complex(scale * cos_sum))
            beta.append(complex(scale * g * sin_sum))
    return alpha, beta


def mpmath_voigt(x, y, dps=40):
    """K(x, y) = Re w(x + iy) = Re e^(-z^2) erfc(-iz) in dps-digit arithmetic.

    x and y are taken exactly as binary64 values; the result is rounded once.
    """
    with mpmath.workdps(dps):
        z = mpmath.mpc(x, y)
        return float(mpmath.re(mpmath.exp(-z * z) * mpmath.erfc(-1j * z)))


def brute_forward(samples, nu):
    """Per-(m, n) closed-form evaluation of the damped expansion transform.

    Integrates each damped cosine term analytically,

        integral_0^inf cos(g*(t - n*h)) e^(-s*t) dt
            = (s*cos(g*n*h) + g*sin(g*n*h)) / (s^2 + g^2),

    and sums the double series term by term without ever forming the
    merged alpha/beta coefficients.  This checks that the library's
    rearranged pole-residue form is an identical function.
    """
    params = samples.params
    terms = params.terms
    scale = 2.0 ** (1 - params.M)
    s = params.sigma + 2j * math.pi * nu
    values = [complex(v) for v in samples.values]
    parts_re, parts_im = [], []
    for m in range(1, terms + 1):
        g = math.pi * (2 * m - 1) / (2 ** params.M * params.h)
        den = s * s + g * g
        for n, v in enumerate(values):
            num = s * math.cos(g * n * params.h) + g * math.sin(g * n * params.h)
            term = scale * v * num / den
            parts_re.append(term.real)
            parts_im.append(term.imag)
    total = complex(math.fsum(parts_re), math.fsum(parts_im))
    return cmath.exp(2j * math.pi * nu * params.a) * total
