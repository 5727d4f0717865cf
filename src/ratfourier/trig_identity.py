"""Truncated cosine products, their exact sum form, and the derived sinc series.

The M-factor cosine product prod_{m=1..M} cos(t/2^m) (the truncated Viete
product for sinc) rewrites exactly as the average of 2^(M-1) cosines with
odd-multiple arguments:

    prod_{m=1..M} cos(t/2^m) = 2^(1-M) * sum_{m=1..2^(M-1)} cos((2m-1)*t/2^M)

Both sides are implemented independently so each can certify the other.
Substituting t -> pi*t/h turns the sum side into a periodic cosine-series
approximation of sinc(pi*t/h) with period T = 2^(M+1)*h, valid on
|t| <= T/4.  Its odd harmonics make it anti-periodic as well: a shift by
T/2 = 2^M*h negates it, so the damped expansion's first replica is a
negated copy at T/2 with envelope e^(-sigma*2^M*h).  This module is the
correctness anchor for everything downstream: every cosine argument is
recomputed directly (no recurrences) and the sum is exactly rounded, the
value math.fsum gives.  Above a few hundred terms it is formed by
error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
summation part I: faithful rounding", SIAM J. Sci. Comput. 31, 2008) in a
few numpy passes: O(2^M) time, and no Python object per term.
"""

import math

import numpy as np

from .errors import check_order
from .targets import ApproxParams


def viete_product(t: float, M: int) -> float:
    """Truncated cosine product prod_{m=1..M} cos(t / 2^m)."""
    check_order(M)
    prod = 1.0
    for m in range(1, M + 1):
        prod *= math.cos(t / 2.0**m)
    return prod


# below this many terms math.fsum over a list is faster than extraction
_EXTRACT_MIN_TERMS = 512


def _fsum(v: np.ndarray) -> float:
    """math.fsum(v.tolist()) of a 1-D float64 array, bit for bit.

    With n terms, bits = (n + 2).bit_length() and max|v| < 2^e, extraction
    at sigma = 2^(bits + e) splits each term exactly into q = (sigma + v) -
    sigma, a multiple of 2^-53 sigma, and r = v - q, with |r| <= 2^-53 sigma.
    Every partial sum of the q is such a multiple below sigma, so numpy sums
    them exactly in any order.  A second extraction at sigma * 2^(bits - 53)
    splits r alike, and math.fsum of the two row sums and the nonzero
    leftovers is the exactly rounded total.  Arrays shorter than
    _EXTRACT_MIN_TERMS go to math.fsum itself, and so do those whose max|v|
    lies outside (2^-900, 2^960), where some step could underflow or
    overflow: zeros, NaN, inf and huge terms.  So every result and every
    exception stays math.fsum's own.
    """
    top = float(np.abs(v).max()) if len(v) >= _EXTRACT_MIN_TERMS else math.nan
    if not 2.0**-900 < top < 2.0**960:
        return math.fsum(v.tolist())
    bits = (len(v) + 2).bit_length()
    sigma = math.ldexp(1.0, bits + math.frexp(top)[1])
    q = (sigma + v) - sigma
    r = v - q
    sigma *= 2.0 ** (bits - 53)
    q2 = (sigma + r) - sigma
    r -= q2
    return math.fsum([float(q.sum()), float(q2.sum()), *r[r != 0.0].tolist()])


def cosine_sum(t: float, M: int) -> float:
    """Sum form 2^(1-M) * sum_{m=1..2^(M-1)} cos((2m-1) * t / 2^M).

    Equals viete_product(t, M) exactly in real arithmetic; in binary64 the
    two sides agree to ~1e-13 over |t| <= 100 for M up to MAX_ORDER.  The
    cosines are summed exactly rounded by _fsum, in O(2^M) time with a few
    float64 arrays of 2^(M-1) entries and no Python object per term.
    """
    check_order(M)
    terms = 1 << (M - 1)
    odd = np.arange(1.0, 2.0 * terms, 2.0)
    return _fsum(np.cos(odd * (t / 2.0**M))) / terms


def sinc_series(t: float, params: ApproxParams) -> float:
    """Periodic cosine-series approximation of sinc(pi*t/h).

    2^(1-M) * sum_{m=1..2^(M-1)} cos(pi*(2m-1)*t / (2^M*h)).  The series
    has period T = 2^(M+1)*h, changes sign under a shift by T/2 = 2^M*h
    (so its first replica is a negated copy at T/2, damped by
    e^(-sigma*2^M*h)), and approximates sinc only on |t| <= T/4; staying
    inside that window is the caller's job.
    """
    return cosine_sum(math.pi * t / params.h, params.M)
