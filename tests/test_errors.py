"""The exception taxonomy callers are allowed to catch broadly."""

from ratfourier import (
    ConvergenceError,
    DampingError,
    DirectionError,
    FileFormatError,
    PoleError,
    RangeError,
)


def test_domain_errors_are_value_errors():
    for exc in (RangeError, DirectionError, DampingError, FileFormatError):
        assert issubclass(exc, ValueError)


def test_numeric_errors_are_arithmetic_errors():
    for exc in (PoleError,):
        assert issubclass(exc, ArithmeticError)


def test_convergence_error_is_a_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)
    assert not issubclass(ConvergenceError, ValueError)
