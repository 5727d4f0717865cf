"""Adaptive Gauss-Kronrod engine against integrals with closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from ratfourier import ConvergenceError, quadrature
from ratfourier.quadrature import _XK, integrate


def test_polynomial_is_exact_on_one_panel():
    # the 15-point rule integrates degree-12 monomials without refinement
    value = integrate(lambda t: t ** 12, 0.0, 2.0, tol=1e-10).value
    assert value.real == pytest.approx(2.0 ** 13 / 13.0, rel=1e-14)
    assert value.imag == 0.0


def test_exponential():
    value = integrate(np.exp, 0.0, 1.0, tol=1e-13).value
    assert value.real == pytest.approx(math.e - 1.0, rel=1e-13)
    # a real integrand sums to a complex result with an exact zero imaginary part
    assert isinstance(value, complex) and value.imag == 0.0


def test_oscillatory_with_width_cap():
    value = integrate(lambda t: np.cos(40.0 * t), 0.0, 3.0, tol=1e-12,
                      max_width=0.05).value
    assert value.real == pytest.approx(math.sin(120.0) / 40.0, abs=1e-12)


def _first_batch(lo, hi, **kwargs):
    # the nodes of the initial panels, one row per panel
    batches = []

    def f(t):
        batches.append(t.copy())
        return np.ones_like(t)

    integrate(f, lo, hi, tol=1.0, **kwargs)
    return batches[0].reshape(-1, 15)


def _nodes_of(cuts):
    left, right = cuts[:-1], cuts[1:]
    return 0.5 * (left + right)[:, None] + 0.5 * (right - left)[:, None] * _XK


def test_outside_and_duplicate_breakpoints_are_ignored():
    nodes = _first_batch(0.0, 1.0, breakpoints=[-1.0, 0.0, 0.25, 0.25, 1.0, 2.5])
    assert np.array_equal(nodes, _nodes_of(np.array([0.0, 0.25, 1.0])))


def test_width_cap_splits_each_segment_like_linspace():
    # [0, 0.1] fits in one panel of width <= 0.2 and [0.1, 1] needs 5, whose
    # last cut is 1 exactly although 0.1 + 5 * (0.9 / 5) is not
    nodes = _first_batch(0.0, 1.0, breakpoints=[0.1], max_width=0.2)
    cuts = np.concatenate([np.linspace(0.0, 0.1, 2), np.linspace(0.1, 1.0, 6)[1:]])
    assert np.array_equal(nodes, _nodes_of(cuts))


def test_a_round_bisects_the_panels_outside_the_kept_prefix():
    # max_width=1 cuts [0, 10] into unit panels; the integrand is nonzero
    # only at a panel's centre node, so a panel's estimate depends on its
    # amplitude alone, whatever order the rule sums in: amplitude 1 gives one
    # unit exactly, and equal amplitudes tie exactly.  The halves' nodes miss
    # every centre, so one round ends it
    amps = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0])
    batches = []

    def f(t):
        batches.append(t.copy())
        k = np.floor(t)
        return np.where(t - k == 0.5, amps[k.astype(int)], 0.0)

    unit = integrate(lambda t: np.where(t == 0.5, 1.0, 0.0), 0.0, 1.0, tol=1.0).err_est
    # tol/2 is the smallest estimate exactly, so the prefix ends on an equality
    tol = 2.0 * unit
    integrate(f, 0.0, 10.0, tol=tol, max_width=1.0)

    # ascending estimates, ties in panel order; keep the longest prefix whose
    # running sum stays <= tol/2
    order = sorted(range(len(amps)), key=lambda i: amps[i])
    running = np.cumsum(amps[order] * unit)
    cut = int(np.sum(running <= 0.5 * tol))
    assert 0 < cut < len(amps) - 1
    split = order[cut:]
    assert len(batches) == 2
    expected = np.concatenate([_nodes_of(np.array([i, i + 0.5, i + 1.0])) for i in split])
    assert np.array_equal(batches[1].reshape(-1, 15), expected)


def test_breakpoint_at_a_kink():
    value = integrate(np.abs, -1.0, 2.0, tol=1e-13, breakpoints=[0.0]).value
    assert value.real == pytest.approx(2.5, rel=1e-14)


def test_complex_integrand():
    value = integrate(lambda t: np.exp(2j * math.pi * t), 0.0, 1.0, tol=1e-13).value
    assert abs(value) <= 1e-13


def test_integrand_receives_batched_array():
    seen = []

    def f(t):
        seen.append(t)
        return t ** 2

    value = integrate(f, 0.0, 3.0, tol=1e-12).value
    assert value.real == pytest.approx(9.0, rel=1e-14)
    assert all(isinstance(t, np.ndarray) for t in seen)
    # all 15 Kronrod nodes of a panel batch arrive in a single call
    assert all(t.size % 15 == 0 for t in seen)


def test_initial_subdivision_over_budget_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 5)
    # max_width=1 cuts [0, 10] into 10 panels before any bisection
    with pytest.raises(ConvergenceError, match="initial subdivision needs 10 panels"):
        integrate(np.cos, 0.0, 10.0, tol=1e-6, max_width=1.0)


def test_initial_budget_is_checked_before_the_panels_are_built(monkeypatch):
    # 2^17 initial panels against a budget of 1000: the refusal comes from
    # the panel counts, so a request for far more panels than memory holds
    # fails at once instead of building their list first
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError, match="initial subdivision needs 131072 panels"):
            integrate(np.cos, 0.0, 1.0, tol=1e-6, max_width=2.0 ** -17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_panel_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(ConvergenceError):
        integrate(lambda t: np.cos(200.0 * t * t), 0.0, 10.0, tol=1e-13)


@pytest.mark.parametrize("max_panels, calls", [(11, 1), (20, 2)])
def test_panel_budget_is_checked_before_the_round(max_panels, calls, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
    # max_width=1 gives 10 under-resolved panels; each round bisects all of
    # them, so a budget of 11 cannot take the first round and 20 fits the
    # first round (10 -> 20 panels) but not the second
    batches = []

    def f(t):
        batches.append(t.size)
        return np.cos(200.0 * t * t)

    with pytest.raises(ConvergenceError, match=f"panel budget {max_panels} exhausted"):
        integrate(f, 0.0, 10.0, tol=1e-13, max_width=1.0)
    assert batches == [150, 300][:calls]


def test_unresolvable_singularity_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 3000)
    # 1/|t - 1/3| is not integrable; panel refinement around the pole can
    # never settle, so the engine must give up rather than return a number
    with pytest.raises(ConvergenceError):
        integrate(lambda t: 1.0 / np.abs(t - 1.0 / 3.0), 0.0, 1.0, tol=1e-6)


def test_convergence_error_is_a_runtime_error(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
    with pytest.raises(RuntimeError):
        integrate(lambda t: np.cos(200.0 * t * t), 0.0, 10.0, tol=1e-13)


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0)])
def test_infinite_limit_is_refused(lo, hi):
    with pytest.raises(ValueError, match="finite lo < hi"):
        integrate(np.cos, lo, hi, tol=1e-10)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
def test_tolerance_outside_the_engine_range_is_refused(tol):
    with pytest.raises(ValueError, match="tol"):
        integrate(np.cos, 0.0, 10.0, tol=tol)


@pytest.mark.parametrize("max_width", [0.0, -1.0, math.nan])
def test_non_positive_width_cap_is_refused(max_width):
    with pytest.raises(ValueError, match="max_width > 0"):
        integrate(np.cos, 0.0, 10.0, tol=1e-10, max_width=max_width)
