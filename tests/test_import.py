"""What importing the package costs: it must not pull in heavy modules."""

import subprocess
import sys
from pathlib import Path

import ratfourier


def test_import_loads_neither_scipy_nor_numpy_fft():
    # scipy is a test-only oracle and numpy.fft is loaded on the first
    # compute_coefficients call; either would add to every CLI start-up
    probe = ("import sys, ratfourier; print(ratfourier.__file__); "
             "print(sorted(m for m in ('scipy', 'numpy.fft') if m in sys.modules))")
    src = Path(ratfourier.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", probe], cwd=src, capture_output=True,
                            text=True, timeout=120, check=True)
    path, loaded = result.stdout.splitlines()
    assert Path(path).resolve() == Path(ratfourier.__file__).resolve()
    assert loaded == "[]"
