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
correctness anchor for everything downstream, so it favours accuracy over speed: every cosine argument is
recomputed directly (no recurrences) and the sum is accumulated with
math.fsum, which tracks rounding exactly.
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


def cosine_sum(t: float, M: int) -> float:
    """Sum form 2^(1-M) * sum_{m=1..2^(M-1)} cos((2m-1) * t / 2^M).

    Equals viete_product(t, M) exactly in real arithmetic; in binary64 the
    two sides agree to ~1e-13 over |t| <= 100 for M up to MAX_ORDER.
    """
    check_order(M)
    terms = 1 << (M - 1)
    odd = 2.0 * np.arange(1, terms + 1) - 1.0
    values = np.cos(odd * (t / 2.0**M))
    return math.fsum(values.tolist()) / terms


def sinc_series(t: float, params: ApproxParams) -> float:
    """Periodic cosine-series approximation of sinc(pi*t/h).

    2^(1-M) * sum_{m=1..2^(M-1)} cos(pi*(2m-1)*t / (2^M*h)).  The series
    has period T = 2^(M+1)*h, changes sign under a shift by T/2 = 2^M*h
    (so its first replica is a negated copy at T/2, damped by
    e^(-sigma*2^M*h)), and approximates sinc only on |t| <= T/4; staying
    inside that window is the caller's job.
    """
    return cosine_sum(math.pi * t / params.h, params.M)
