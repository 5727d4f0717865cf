"""Rational approximations of Fourier transforms by damped cosine-series sampling.

A target function is sampled on a uniform grid with an exponential growth
premultiplier, folded into a finite cosine expansion through the cosine
product-to-sum identity, and integrated in closed form against the
transform kernel.  The result is a rational function of the transform
variable that reproduces, e.g., the sinc function to a few parts in 10^3
with 32 terms, or nu e^(-nu^2) to ~1e-12.  A pole-residue evaluator for
the Voigt spectral line profile builds on the Gaussian-target approximant,
and an independent adaptive quadrature oracle certifies every quoted
error figure.
"""

from .coefficients import (CoefficientSet, Direction, compute_coefficients,
                           gamma_grid, load_coefficients, save_coefficients)
from .errors import (ConvergenceError, DampingError, DirectionError,
                     FileFormatError, PoleError, RangeError)
from .oracle import (QuadratureSpec, damped_expansion_quadrature,
                     fourier_forward_quadrature)
from .quadrature import QuadratureResult, integrate
from .rational_eval import EvaluationCurve, error_scan, eval_forward, eval_inverse
from .targets import (ApproxParams, GridCoverageWarning, ReferenceKind,
                      SampleSet, TargetKind, rect_surrogate, reference_value,
                      sample_grid, target_value)
from .trig_identity import cosine_sum, sinc_series, viete_product
from .voigt import (VoigtPoint, voigt_inverse_route, voigt_quadrature,
                    voigt_residue, voigt_residue_complex)

__version__ = "0.1.0"

__all__ = [
    "ApproxParams", "CoefficientSet", "ConvergenceError", "DampingError",
    "Direction", "DirectionError", "EvaluationCurve",
    "FileFormatError", "GridCoverageWarning", "PoleError", "QuadratureResult",
    "QuadratureSpec", "RangeError", "ReferenceKind", "SampleSet", "TargetKind",
    "VoigtPoint",
    "compute_coefficients", "cosine_sum", "damped_expansion_quadrature",
    "error_scan", "eval_forward", "eval_inverse", "fourier_forward_quadrature",
    "gamma_grid", "integrate", "load_coefficients",
    "rect_surrogate", "reference_value", "sample_grid", "save_coefficients",
    "sinc_series", "target_value", "viete_product", "voigt_inverse_route",
    "voigt_quadrature", "voigt_residue", "voigt_residue_complex",
]
