"""The exception taxonomy callers are allowed to catch broadly, and the pole guard."""

import math

import numpy as np
import pytest

from ratfourier import (
    ConvergenceError,
    DampingError,
    DirectionError,
    FileFormatError,
    PoleError,
    RangeError,
)
from ratfourier.errors import check_denominator


def test_domain_errors_are_value_errors():
    for exc in (RangeError, DirectionError, DampingError, FileFormatError):
        assert issubclass(exc, ValueError)


def test_numeric_errors_are_arithmetic_errors():
    for exc in (PoleError,):
        assert issubclass(exc, ArithmeticError)


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)
    assert not issubclass(ConvergenceError, ValueError)


@pytest.mark.parametrize("bound", [{}, {"bound": math.nan}], ids=["default", "nan"])
def test_check_denominator_runs_the_full_test_without_a_clearing_bound(bound):
    with pytest.raises(PoleError, match="below 1e-300"):
        check_denominator(np.array([0j]), "denominator", **bound)


def test_check_denominator_trusts_a_clearing_bound():
    # the caller's bound vouches for every magnitude, so the array is not read
    check_denominator(np.array([0j]), "denominator", bound=4e-300)
