"""Expansion coefficients for the rational transform approximant.

The damped samples v_n = f(nh - a) e^{sigma n h} are projected onto the
odd-harmonic frequencies gamma_m = pi (2m - 1) / (2^M h): a cosine moment
alpha_m and a sine moment beta_m per frequency, which with gamma determine
the rational approximant evaluated in rational_eval.  On the grid nh the
phases are 2 pi (2m - 1) n / 2^(M+1), so the moments are the odd bins of
one real DFT of length 2^(M+1) of the samples folded modulo 2^(M+1).
Direction tags whether the samples came from the original function
(forward) or from its transform (inverse); the formulas are the same.
"""

import json
import math
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .targets import ApproxParams, SampleSet, TargetKind

_FIELDS = (*(f.name for f in fields(ApproxParams)),
           "direction", "target", "alpha", "beta", "gamma")


class Direction(Enum):
    FORWARD = "forward"
    INVERSE = "inverse"


def gamma_grid(params: ApproxParams) -> np.ndarray:
    """Frequencies gamma_m = pi (2m - 1) / (2^M h) of the terms m = 1..2^(M-1)."""
    m = np.arange(1, params.terms + 1)
    return math.pi * (2 * m - 1) / (2 ** params.M * params.h)


@dataclass(frozen=True)
class CoefficientSet:
    """Frozen (alpha, beta, gamma) triple plus the parameters that built it.

    gamma is not an argument: it is gamma_grid(params), so every set holds
    the grid gamma_m = (2m - 1) gamma_1 that the damped-expansion oracle
    relies on.
    """

    params: ApproxParams
    direction: Direction
    target: TargetKind
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", gamma_grid(self.params))
        terms = self.params.terms
        for name in ("alpha", "beta", "gamma"):
            arr = getattr(self, name)
            if arr.shape != (terms,):
                raise ValueError(
                    f"{name} must have {terms} entries for M={self.params.M} "
                    f"(got shape {arr.shape})"
                )
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)


def compute_coefficients(samples: SampleSet, direction: Direction = Direction.FORWARD) -> CoefficientSet:
    """Fold a damped sample set into expansion coefficients.

    Each nonzero part of the samples, real and imaginary, is folded and
    transformed on its own and written into the same part of alpha and
    beta; a part that is all zeros is skipped and leaves zeros.  So purely
    real or purely imaginary samples, which every catalogue target gives,
    take one transform, and the alpha of purely imaginary samples stays
    purely imaginary.  Time is O(N + 2^M M) per nonzero part and memory
    O(N + 2^M): by tracemalloc, 16 B per padded sample of the longdouble
    row plus about 44 B per slot of the 2^(M+1)-point fold and transform.
    The fold and the rfft run in longdouble and only the final alpha, beta
    are rounded to binary64: the damped samples span many decades and the
    projections cancel, so a binary64 transform leaves up to five times the
    error of one rounding.  A binary64 longdouble degrades the results
    gracefully to that.
    """
    params = samples.params
    ld = np.longdouble
    L = 2 ** (params.M + 1)
    # the binary64 pi of gamma_grid, so beta_m carries the evaluator's gamma_m
    g = ld(np.pi) * np.arange(1, L // 2, 2, dtype=ld) / (ld(2.0) ** params.M * ld(params.h))
    alpha = np.zeros(params.terms, dtype=complex)
    beta = np.zeros(params.terms, dtype=complex)
    # the zero padding past sample N is shared by both parts
    row = np.zeros(-(-(params.N + 1) // L) * L, dtype=ld)
    for part, alpha_part, beta_part in ((samples.values.real, alpha.real, beta.real),
                                        (samples.values.imag, alpha.imag, beta.imag)):
        if part.any():
            row[:params.N + 1] = part
            # bin 2m-1 holds sum_n v_n (cos - i sin)(gamma_m n h); the 2^(1-M) scale is exact
            u = np.fft.rfft(row.reshape(-1, L).sum(axis=0))[1::2] * ld(2.0) ** (1 - params.M)
            alpha_part[:] = u.real
            beta_part[:] = -g * u.imag
    # a sine bin of exactly zero gives beta = -g * 0 = -0; adding 0.0 clears
    # such negative zeros, so every zero coefficient is +0, as a skipped part's
    alpha += 0.0
    beta += 0.0
    return CoefficientSet(
        params=params,
        direction=direction,
        target=samples.target,
        alpha=alpha,
        beta=beta,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _param_text(params: ApproxParams):
    """(name, text) per ApproxParams field: floats by _fmt, integers as they are."""
    return [(f.name, (_fmt if f.type is float else str)(getattr(params, f.name)))
            for f in fields(params)]


def _write_csv(path, header: str, rows) -> None:
    # curve files: comma-separated text, 17 significant digits per field
    lines = [header] + [",".join(_fmt(v) for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def save_coefficients(coeffs: CoefficientSet, path) -> None:
    """Write a coefficient file; field order and float formatting are fixed.

    Floats carry 17 significant digits, enough to round-trip any double, so
    saving and reloading reproduces the set bit for bit.
    """
    pair = lambda z: f"[{_fmt(z.real)}, {_fmt(z.imag)}]"
    lines = [
        "{",
        *(f'  "{name}": {text},' for name, text in _param_text(coeffs.params)),
        f'  "direction": "{coeffs.direction.value}",',
        f'  "target": "{coeffs.target.value}",',
        f'  "alpha": [{", ".join(pair(z) for z in coeffs.alpha)}],',
        f'  "beta": [{", ".join(pair(z) for z in coeffs.beta)}],',
        f'  "gamma": [{", ".join(_fmt(g) for g in coeffs.gamma)}]',
        "}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def _is_double(value):
    # a json number that a finite double holds; json's true is an int to Python
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _complex_column(raw, name, terms):
    if not isinstance(raw, list) or len(raw) != terms:
        raise FileFormatError(f"{name} must be a list of {terms} [re, im] pairs")
    out = np.empty(terms, dtype=complex)
    for i, entry in enumerate(raw):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(_is_double(v) for v in entry)):
            raise FileFormatError(f"{name}[{i}] is not a [re, im] pair of finite numbers")
        out[i] = complex(entry[0], entry[1])
    return out


def _parse_int(text):
    # _fmt writes a negative zero as "-0", which is an integer to json
    return -0.0 if text == "-0" else int(text)


def load_coefficients(path) -> CoefficientSet:
    """Read a coefficient file back, validating structure and consistency."""
    try:
        raw = json.loads(Path(path).read_text(), parse_int=_parse_int)
    except OSError as exc:
        raise FileFormatError(f"cannot read coefficient file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"coefficient file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise FileFormatError("coefficient file must hold a single JSON object")
    missing = [k for k in _FIELDS if k not in raw]
    if missing:
        raise FileFormatError(f"coefficient file is missing fields: {', '.join(missing)}")
    extra = [k for k in raw if k not in _FIELDS]
    if extra:
        raise FileFormatError(f"coefficient file has unknown fields: {', '.join(extra)}")

    try:
        # no coercion: ApproxParams refuses "M": 6.5, "a": "2.0" or "a": true,
        # and stores the "a": 2 that _fmt writes for 2.0 as a float
        params = ApproxParams(**{f.name: raw[f.name] for f in fields(ApproxParams)})
    except ValueError as exc:
        raise FileFormatError(f"invalid parameters in coefficient file: {exc}") from None
    try:
        direction = Direction(raw["direction"])
        target = TargetKind(raw["target"])
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None

    alpha = _complex_column(raw["alpha"], "alpha", params.terms)
    beta = _complex_column(raw["beta"], "beta", params.terms)
    coeffs = CoefficientSet(
        params=params, direction=direction, target=target, alpha=alpha, beta=beta,
    )
    # gamma is derived from (M, h); the file's copy is only checked against it
    stored = raw["gamma"]
    if (not isinstance(stored, list) or len(stored) != params.terms
            or not all(_is_double(g) for g in stored)
            or not np.allclose(stored, coeffs.gamma, rtol=1e-14, atol=0.0)):
        raise FileFormatError("gamma grid does not match the stored (M, h)")
    return coeffs
