"""Catalogue of sampled target functions and the damped grid sampler.

The approximation pipeline samples a shifted target function f(t - a),
premultiplied by the growth factor e^(sigma*t), on the uniform grid
t_n = n*h for n = 0..N.  Damping the resulting cosine expansion by
e^(-sigma*t) then suppresses all periodic replicas except the one near the
origin, which is what makes the closed-form integration (and hence the
rational approximant) valid on the whole positive axis.

Only the catalogue below is supported: the smooth rectangle surrogate
1/((2t)^(2k) + 1) whose transform approximates sinc(pi*nu), the odd
Gaussian-derivative bump whose transform is nu*exp(-nu^2), and the plain
Gaussian bump paired with exp(-nu^2).
"""

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import RangeError, check_order

_LOG_MAX = math.log(sys.float_info.max)  # ~709.78, binary64 overflow threshold
# the most samples N + 1 a run may take, set by memory, not time: at its
# peak sample_grid holds 48 B per sample for the Gaussian target (56 and
# 66-74 B for the others; tracemalloc), about 200 MB at the cap
MAX_SAMPLES = 1 << 22

SQRT_PI = math.sqrt(math.pi)
# default half-exponent k of the rectangle surrogate 1/((2t)^(2k) + 1)
SURROGATE_K = 35


class GridCoverageWarning(UserWarning):
    """The sample grid does not span the target's effective support."""


class TargetKind(Enum):
    """Sampled functions f(t) feeding the coefficient computation."""

    RECT_SURROGATE = "rect-surrogate"
    GAUSSIAN_DERIVATIVE = "gauss-derivative"
    GAUSSIAN = "gauss"


class ReferenceKind(Enum):
    """Closed-form references the approximants are scanned against."""

    SINC = "sinc"
    NU_GAUSS = "nu-gauss"
    GAUSS = "gauss"


@dataclass(frozen=True)
class ApproxParams:
    """Tunable parameters of one approximation run.

    a      shift moving the target support into the first quadrant
    M      truncation order; the expansion has 2^(M-1) terms
    N      last sample index (N + 1 samples on t_n = n*h)
    h      grid step
    sigma  damping constant of the e^(sigma*t) premultiplier
    k      surrogate half-exponent (the rectangle surrogate uses power 2k)

    M, N and k must be integers (numpy integers included) and a, h and
    sigma real numbers, not bools, and each must be finite and within the
    double range; a violation raises ValueError naming the field.  Each
    is stored as its field's type, int or float.  M must lie in
    1..errors.MAX_ORDER and N + 1 must not exceed MAX_SAMPLES; those two raise
    RangeError, a ValueError.
    """

    a: float
    M: int
    N: int
    h: float
    sigma: float
    k: int = SURROGATE_K

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is int:
                kind, noun = numbers.Integral, "an integer"
            else:
                kind, noun = numbers.Real, "a real number"
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {noun} (got {value!r})")
            # not repr(value): an integer past the double range may have too many digits
            if not abs(value) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite and within the double range")
            object.__setattr__(self, f.name, f.type(value))
        check_order(self.M)
        if not self.h > 0:
            raise ValueError(f"h > 0 violated (got {self.h})")
        if self.sigma < 0:
            raise ValueError(f"sigma >= 0 violated (got {self.sigma})")
        if self.k < 1:
            raise ValueError(f"k >= 1 violated (got {self.k})")
        if self.N < 0:
            raise ValueError(f"N >= 0 violated (got {self.N})")
        if self.N + 1 > MAX_SAMPLES:
            raise RangeError(f"N + 1 <= {MAX_SAMPLES} violated (got {self.N + 1})")
        if not math.isfinite(self.period):
            raise ValueError(f"h = {self.h} is too large: the period 2^(M+1)*h overflows")
        if self.N * self.h < 2.0 * self.a:
            warnings.warn(
                f"sample grid ends at N*h = {self.N * self.h:g} but the shifted target "
                f"effectively covers [0, {2.0 * self.a:g}]",
                GridCoverageWarning,
                stacklevel=3,  # past __post_init__ and the generated __init__
            )

    @property
    def period(self) -> float:
        """Period T = 2^(M+1)*h of the truncated cosine expansion.

        The odd harmonics make the expansion anti-periodic: a shift by
        T/2 = 2^M*h negates it.  The damped expansion's first replica is
        therefore a negated copy at T/2, with envelope e^(-sigma*2^M*h).
        """
        return 2.0 ** (self.M + 1) * self.h

    @property
    def terms(self) -> int:
        """Number of expansion terms, 2^(M-1)."""
        return 1 << (self.M - 1)


def rect_surrogate(t, k: int = SURROGATE_K):
    """Smooth stand-in 1/((2t)^(2k) + 1) for the rectangular function.

    Total on the real line: for |2t| > 1 the power is taken in the log
    domain, so arguments that would overflow (2t)^(2k) return the correct
    subnormal/zero tail instead of inf.  Accepts scalars or arrays.
    """
    if k < 1:
        raise ValueError(f"k >= 1 violated (got {k})")
    scalar = np.ndim(t) == 0
    x = np.abs(2.0 * np.atleast_1d(np.asarray(t, dtype=float)))
    out = np.empty_like(x)
    small = x <= 1.0
    out[small] = 1.0 / (x[small] ** (2 * k) + 1.0)
    if not small.all():
        # (2t)^(2k) = e^u, u = 2k log|2t|; past u = 700, e^(-u) is the tail
        u = 2 * k * np.log(x[~small])
        out[~small] = np.where(u > 700.0, np.exp(-u),
                               1.0 / (np.exp(np.minimum(u, 700.0)) + 1.0))
    return float(out[0]) if scalar else out


def target_value(kind: TargetKind, t, k: int = SURROGATE_K):
    """Evaluate the target function `kind` at t (scalar or array, complex result)."""
    scalar = np.ndim(t) == 0
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if kind is TargetKind.RECT_SURROGATE:
        out = rect_surrogate(t, k) + 0j
    elif kind is TargetKind.GAUSSIAN_DERIVATIVE:
        out = math.pi ** 1.5 * 1j * t * np.exp(-((math.pi * t) ** 2))
    elif kind is TargetKind.GAUSSIAN:
        out = SQRT_PI * np.exp(-((math.pi * t) ** 2)) + 0j
    else:
        raise ValueError(f"unknown target kind {kind!r}")
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class SampleSet:
    """Damped samples v_n = f(n*h - a) * e^(sigma*n*h), n = 0..N."""

    params: ApproxParams
    target: TargetKind
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.params.N + 1:
            raise ValueError(
                f"sample count {len(self.values)} != N + 1 = {self.params.N + 1}"
            )
        if not np.all(np.isfinite(self.values)):
            raise OverflowError(
                "non-finite sample value; sigma*N*h drives e^(sigma*n*h) out of range"
            )
        self.values.setflags(write=False)


def sample_grid(target: TargetKind, params: ApproxParams) -> SampleSet:
    """Sample f(n*h - a) * e^(sigma*n*h) on the grid n = 0..N."""
    if params.sigma * params.N * params.h > _LOG_MAX:
        raise OverflowError(
            f"e^(sigma*N*h) overflows binary64 (sigma*N*h = {params.sigma * params.N * params.h:g})"
        )
    n = np.arange(params.N + 1)
    tn = n * params.h - params.a
    weights = np.exp(params.sigma * params.h * n)
    values = np.asarray(target_value(target, tn, params.k), dtype=complex) * weights
    return SampleSet(params=params, target=target, values=values)


def reference_value(kind: ReferenceKind, x):
    """Closed-form reference curves (scalar or array).

    SINC is sin(pi*x)/(pi*x) with the removable singularity filled by 1.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if kind is ReferenceKind.SINC:
        out = np.sinc(x)
    elif kind is ReferenceKind.NU_GAUSS:
        out = x * np.exp(-(x**2))
    elif kind is ReferenceKind.GAUSS:
        out = np.exp(-(x**2))
    else:
        raise ValueError(f"unknown reference kind {kind!r}")
    return float(out[0]) if scalar else out
