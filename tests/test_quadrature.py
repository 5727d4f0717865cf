"""Adaptive Gauss-Kronrod engine against integrals with closed forms."""

import math
import tracemalloc
from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratfourier import ConvergenceError, quadrature
from ratfourier.quadrature import _GAUSS_SLOTS, _WG, _WK, _XK, integrate


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


def test_a_round_keeps_earlier_records_ahead_of_tied_halves():
    # spikes at points the rule hits exactly: the centres of the unit panels
    # of [0, 4] and of the halves [1, 1.5] and [2, 2.5].  A spike of
    # amplitude a at the centre of a panel of half-width h gives an estimate
    # proportional to a*h, exactly for powers of two, so the panel [0, 1]
    # (a = 1, h = 1/2) and the half [1, 1.5] (a = 2, h = 1/4) tie exactly
    spikes = {0.5: 1.0, 1.5: 8.0, 2.5: 8.0, 3.5: 8.0, 1.25: 2.0, 2.25: 16.0}
    batches = []

    def f(t):
        batches.append(t.copy())
        out = np.zeros_like(t)
        for point, amp in spikes.items():
            out[t == point] = amp
        return out

    unit = integrate(lambda t: np.where(t == 0.5, 1.0, 0.0), 0.0, 1.0, tol=1.0).err_est
    # with tol/2 = 1.5 units the first round keeps [0, 1] and bisects the
    # rest; the second sees [0, 1] and [1, 1.5] tied at one unit with room
    # for one of them.  The record kept earlier wins, as in one stable sort
    # of one list, so [1, 1.5] and [2, 2.5] are bisected
    result = integrate(f, 0.0, 4.0, tol=3.0 * unit, max_width=1.0)
    assert result.rounds == 2 and len(batches) == 3
    expected = np.concatenate([_nodes_of(np.array([a, a + 0.25, a + 0.5])) for a in (1.0, 2.0)])
    assert np.array_equal(batches[2].reshape(-1, 15), expected)


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


@pytest.mark.parametrize("hi, max_width", [(1.0, 1e-320), (1e300, 1e-10)])
def test_overflowing_initial_subdivision_raises(hi, max_width):
    # (hi - lo) / max_width overflows to inf: the count is refused as inf
    # against the budget, not handed to ceil, and prints in a few digits
    with pytest.raises(ConvergenceError, match="needs inf panels, budget is 1000000") as info:
        integrate(np.cos, 0.0, hi, 1e-10, max_width=max_width)
    assert len(str(info.value)) < 80


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


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_estimate_is_refused(bad):
    # nan > tol is false: unchecked, a nan estimate ended the loop as if tol
    # were met and returned value nan or inf with err_est nan.  An inf at the
    # Gauss nodes gives inf - inf = nan in the estimate, hence the errstate
    with np.errstate(invalid="ignore"), pytest.raises(
            ConvergenceError, match=r"non-finite error estimate nan \(tol 1.000e-10\)"):
        integrate(lambda t: np.where(t > 0.5, bad, 1.0), 0.0, 1.0, 1e-10)


def _reference_integrate(f, lo, hi, tol, breakpoints=(), max_width=math.inf):
    """The engine with one (err, value, left, right) record per panel.

    The bookkeeping `integrate` had before it carried panels in edge lists
    and arrays: every batch comes back as a list of records, and a round
    sorts the whole list, keeps its prefix and puts the halves' records in
    place of the rest.  `integrate` must return the same bits.  The
    module's constants are read at call time, so a monkeypatched
    _MAX_PANELS applies to both.
    """
    estimate = itemgetter(0)

    def eval_panels(edges):
        mid = np.array([0.5 * (left + right) for left, right in edges])
        half = np.array([0.5 * (right - left) for left, right in edges])
        nodes = mid[:, None] + half[:, None] * _XK[None, :]
        fv = np.asarray(f(nodes.ravel())).reshape(nodes.shape)
        resk = (fv @ _WK) * half
        resg = (fv[:, _GAUSS_SLOTS] @ _WG) * half
        return [(err, value, left, right) for err, value, (left, right)
                in zip(np.abs(resk - resg).tolist(), resk.tolist(), edges)]

    pts = ([float(lo)] + sorted(float(p) for p in set(breakpoints) if lo < p < hi)
           + [float(hi)])
    segments = list(zip(pts, pts[1:]))
    ratios = [(right - left) / max_width for left, right in segments]
    counts = [max(1, math.ceil(r)) if r < math.inf else r for r in ratios]
    if sum(counts) > quadrature._MAX_PANELS:
        raise ConvergenceError(f"initial subdivision needs {sum(counts):.7g} panels, "
                               f"budget is {quadrature._MAX_PANELS}")
    edges = []
    for (left, right), nsub in zip(segments, counts):
        step = (right - left) / nsub
        cuts = [left + i * step for i in range(nsub)] + [right]
        edges.extend(zip(cuts, cuts[1:]))

    panels = eval_panels(edges)
    total_err = math.fsum(map(estimate, panels))
    rounds = 0
    while total_err > tol:
        panels.sort(key=estimate)
        cut = bisect_right(list(accumulate(map(estimate, panels))), 0.5 * tol)
        if 2 * len(panels) - cut > quadrature._MAX_PANELS:
            raise ConvergenceError(f"panel budget {quadrature._MAX_PANELS} exhausted "
                                   f"(error estimate {total_err:.3e}, tol {tol:.3e})")
        halves = []
        for err, _, left, right in panels[cut:]:
            if (err <= 0.0 or right - left
                    < quadrature._ROUNDING_FLOOR * max(abs(left), abs(right), 1.0)):
                raise ConvergenceError(
                    f"panel refinement hit the rounding floor at estimate {total_err:.3e} "
                    f"(tol {tol:.3e})")
            midpoint = 0.5 * (left + right)
            halves += ((left, midpoint), (midpoint, right))
        panels[cut:] = eval_panels(halves)
        total_err = math.fsum(map(estimate, panels))
        rounds += 1
    value = complex(math.fsum(p[1].real for p in panels), math.fsum(p[1].imag for p in panels))
    return quadrature.QuadratureResult(value, total_err, len(panels), rounds)


def _outcome(engine, *args, **kwargs):
    # the bits of a result, or the message of the ConvergenceError raised
    try:
        r = engine(*args, **kwargs)
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc)
    return r.value.real.hex(), r.value.imag.hex(), r.err_est.hex(), r.panels, r.rounds


_INTEGRANDS = {
    "polynomial": lambda t: 3.0 * t ** 7 - t ** 2 + 0.5,
    "kinked": lambda t: np.abs(t - 0.3) + np.sqrt(np.abs(t + 0.7)),
    "oscillatory": lambda t: np.cos(30.0 * t) * np.exp(-0.2 * t * t),
}


@st.composite
def _integrals(draw):
    name = draw(st.sampled_from(sorted(_INTEGRANDS)))
    f = _INTEGRANDS[name]
    if draw(st.booleans()):
        real_f = f
        f = lambda t: real_f(t) * np.exp(2j * t)  # noqa: E731
    lo = draw(st.floats(-3.0, 0.0))
    hi = lo + draw(st.floats(0.1, 4.0))
    # breakpoints inside and outside [lo, hi], on its ends and repeated
    inside = draw(st.lists(st.floats(lo - 1.0, hi + 1.0), max_size=6))
    breakpoints = inside + draw(st.sampled_from([[], [lo, hi], inside[:2]]))
    max_width = draw(st.sampled_from([math.inf, 2.0, 0.5, 0.3, 0.07]))
    if name == "oscillatory":
        # an uncapped panel can miss the oscillation in its estimate
        max_width = min(max_width, 0.3)
    tol = draw(st.sampled_from([1e-4, 1e-8, 1e-11, 1e-13]))
    return f, lo, hi, tol, breakpoints, max_width


@settings(max_examples=80)
@given(_integrals())
def test_bits_match_the_record_per_panel_engine(case):
    f, lo, hi, tol, breakpoints, max_width = case
    assert (_outcome(integrate, f, lo, hi, tol, breakpoints, max_width)
            == _outcome(_reference_integrate, f, lo, hi, tol, breakpoints, max_width))


@pytest.mark.parametrize("max_panels, f, lo, hi, tol, kwargs", [
    # the initial subdivision over budget
    (5, np.cos, 0.0, 10.0, 1e-6, dict(max_width=1.0)),
    # the first round over budget, then a later one
    (11, lambda t: np.cos(200.0 * t * t), 0.0, 10.0, 1e-13, dict(max_width=1.0)),
    (40, lambda t: np.cos(200.0 * t * t), 0.0, 10.0, 1e-13, dict(max_width=1.0)),
    (200, lambda t: 1.0 / np.abs(t - 1.0 / 3.0), 0.0, 1.0, 1e-6, {}),
    # the same pole within the default budget: the rounding floor
    (10**6, lambda t: 1.0 / np.abs(t - 1.0 / 3.0), 0.0, 1.0, 1e-6, {}),
])
def test_convergence_errors_match_the_record_per_panel_engine(
        max_panels, f, lo, hi, tol, kwargs, monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", max_panels)
    outcome = _outcome(integrate, f, lo, hi, tol, **kwargs)
    assert outcome[0] == "ConvergenceError"
    assert outcome == _outcome(_reference_integrate, f, lo, hi, tol, **kwargs)


def test_an_infinite_estimate_is_refined():
    # |t - x0|^(-1/2) is inf at x0, the first Kronrod node of [0, 1], which
    # the 7-point Gauss rule skips: the first estimate is inf, not nan, and
    # the rounds that bisect its panel resolve the integrable singularity
    x0 = 0.5 + 0.5 * float(_XK[0])

    def f(t):
        with np.errstate(divide="ignore"):
            return np.abs(t - x0) ** -0.5

    result = integrate(f, 0.0, 1.0, 1e-4)
    assert result.rounds > 0
    assert abs(result.value - 2.0 * (math.sqrt(x0) + math.sqrt(1.0 - x0))) < 1e-3
    assert _outcome(integrate, f, 0.0, 1.0, 1e-4) == _outcome(_reference_integrate, f, 0.0, 1.0, 1e-4)
