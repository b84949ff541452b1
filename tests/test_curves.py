"""Differential property tests: the vectorised curves against a scalar loop.

The scalar reference below calls the oracle ``interrupted_failure_exact``
and :func:`decoder_range` once per stopping time, exactly as the
per-candidate code did.  Counts stay below 2**53, so every float must
match bit for bit (compared through ``repr``, which also tells 0.0 from
-0.0).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import count_at_or_below, interrupted_failure_exact
from stopcost import ranges
from stopcost import (
    DecoderModel,
    EmpiricalRuntime,
    GateSchedule,
    HeuristicFailure,
    InfeasibleError,
    RuntimeTrace,
    StoppingCandidate,
    TraceMetadata,
    decoder_range,
    range_curve,
    stopping_candidates,
    stopping_curve,
)
from stopcost.ranges import RANGE_SATURATION_CAP
from stopcost.stopping import _significant_rows

MAX_RUNTIME_NS = 10**6


def make_dist(runtimes, counts, failed):
    meta = TraceMetadata(
        distance=5, physical_error_rate=1e-3, shots=sum(counts), sec_cycle_ns=1000
    )
    return RuntimeTrace(meta, runtimes, counts, failed)


# 0.6 * 7 / (0.1 * 42) is exactly 1.0, but 0.6 * (7 / (0.1 * 42)) floors to 0:
# only the scalar operation order gives n_T = 1, and with a cap of 1 the
# point sits exactly on the saturation threshold.
BOUNDARY_DIST = make_dist([0], [10], [1])
BOUNDARY_POINT = {"d": 7, "epsilon": 0.6, "t_sec_ns": 1000, "schedule": GateSchedule(1, 1, 1, 3)}


@st.composite
def distributions(draw):
    n = draw(st.integers(1, 20))
    top = draw(st.sampled_from([20, MAX_RUNTIME_NS]))
    runtimes = sorted(draw(st.sets(st.integers(0, top), min_size=n, max_size=n)))
    # Small counts make min_events bite; huge ones push the shot total
    # toward 2**53 (n * cap < 2**53 for every cap drawn here).
    cap = draw(st.sampled_from([1, 5, 60, 2**53 // 32]))
    counts = draw(st.lists(st.integers(1, cap), min_size=n, max_size=n))
    failed = [draw(st.integers(0, c)) for c in counts]
    return make_dist(runtimes, counts, failed)


min_events_st = st.one_of(st.integers(1, 80), st.integers(1, 2**53))
extra_st = st.lists(st.integers(-3, MAX_RUNTIME_NS + 3), max_size=6)
schedule_st = st.builds(
    GateSchedule, *(st.integers(1, 4) for _ in range(4))
)
point_st = st.fixed_dictionaries(
    {
        "d": st.integers(1, 15).map(lambda k: 2 * k + 1),
        # Round budgets put eps * d / (rate * cycles) on exact integers,
        # where a different operation order would floor differently.
        "epsilon": st.one_of(
            st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.7, 0.9]),
            st.floats(1e-6, 0.999),
        ),
        "t_sec_ns": st.integers(1, 5000),
        "schedule": schedule_st,
    }
)


def reprs(values):
    return [repr(v) for v in values]


def scalar_significant(dist, min_events, extra=()):
    grid = sorted(set(dist.runtimes_ns.tolist()) | set(extra))
    return [m for m in grid if interrupted_failure_exact(dist, m).failure_events >= min_events]


def scalar_ranges(dist, min_events, d, epsilon, t_sec_ns, schedule):
    results = []
    for m in scalar_significant(dist, min_events):
        rate = interrupted_failure_exact(dist, m).exact_failure_rate
        results.append(decoder_range(d, m, rate, epsilon, t_sec_ns, schedule))
    return results


def scalar_optimum(results):
    best = None
    for result in results:
        if best is None or result.n_T > best.n_T:
            best = result
    return best


# The rate columns of a StoppingCurve, each the oracle's field of that name.
RATE_COLUMNS = ("timeout_probability", "exact_failure_rate", "upper_bound_rate", "lower_bound_rate")


def row_at(dist, m):
    """The row of ``stopping_curve(dist)`` that holds stopping time ``m``:
    the last runtime at or below it, or -1 below the first."""
    return int(np.searchsorted(dist.runtimes_ns, m, "right")) - 1


def assert_curve_matches(curve, dist, times):
    stats = [interrupted_failure_exact(dist, m) for m in times]
    assert len(curve.stopping_time_ns) == len(times)
    assert curve.stopping_time_ns.tolist() == [s.stopping_time_ns for s in stats]
    assert curve.timeouts.tolist() == [dist.shots - count_at_or_below(dist, m) for m in times]
    assert curve.failure_events.tolist() == [s.failure_events for s in stats]
    for column in RATE_COLUMNS:
        assert reprs(getattr(curve, column).tolist()) == reprs(getattr(s, column) for s in stats)


@settings(max_examples=200, deadline=None)
@given(dist=distributions(), extra=extra_st)
def test_stopping_curve_matches_scalar(dist, extra):
    curve = stopping_curve(dist)
    assert_curve_matches(curve, dist, dist.runtimes_ns.tolist())
    # Any other stopping time reads as the row of the last runtime at or
    # below it; below the first runtime every shot times out.
    for m in extra:
        stats, row = interrupted_failure_exact(dist, m), row_at(dist, m)
        rates = [getattr(stats, column) for column in RATE_COLUMNS]
        if row < 0:
            assert (stats.failure_events, rates) == (dist.shots, [1.0] * 4)
        else:
            assert curve.failure_events[row] == stats.failure_events
            got = [getattr(curve, column)[row].item() for column in RATE_COLUMNS]
            assert reprs(got) == reprs(rates)


@settings(max_examples=200, deadline=None)
@given(dist=distributions(), min_events=min_events_st, extra=extra_st)
def test_significant_stopping_times_matches_scalar(dist, min_events, extra):
    curve = stopping_curve(dist)
    mask = _significant_rows(curve.failure_events, min_events)
    assert curve.stopping_time_ns[mask].tolist() == scalar_significant(dist, min_events)
    # At any other stopping time, the events of its row, or every shot
    # below the first runtime.
    times = np.union1d(dist.runtimes_ns, extra).tolist()
    rows = [row_at(dist, m) for m in times]
    events = [curve.failure_events[r] if r >= 0 else dist.shots for r in rows]
    assert [m for m, e in zip(times, events) if e >= min_events] == scalar_significant(
        dist, min_events, extra
    )


@settings(max_examples=200, deadline=None)
@given(
    dist=distributions(),
    min_events=min_events_st,
    point=point_st,
    cap=st.one_of(st.integers(1, 40), st.sampled_from([1000, 10**6, 10**18])),
)
@example(dist=BOUNDARY_DIST, min_events=1, point=BOUNDARY_POINT, cap=1)
@example(dist=BOUNDARY_DIST, min_events=1, point=BOUNDARY_POINT, cap=2)
@example(dist=BOUNDARY_DIST, min_events=1, point=BOUNDARY_POINT, cap=RANGE_SATURATION_CAP)
def test_range_curve_matches_scalar(dist, min_events, point, cap):
    # Both paths read the one cap at call time; a function-scoped
    # monkeypatch fixture would not be reset between hypothesis examples.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ranges, "RANGE_SATURATION_CAP", cap)
        curve = range_curve(dist, min_events=min_events, **point)
        expected = scalar_ranges(dist, min_events, **point)
        best = scalar_optimum(expected)
        if best is None:
            with pytest.raises(InfeasibleError):
                curve.optimum()
        else:
            m, result = curve.optimum()
            assert (m, result) == (best.stopping_time_ns, best)
            assert type(result.n_T) is int and type(result.failure_rate_used) is float
    assert curve.stopping_time_ns.tolist() == [r.stopping_time_ns for r in expected]
    assert curve.delay_cycles.tolist() == [
        -(-r.stopping_time_ns // point["t_sec_ns"]) for r in expected
    ]
    assert reprs(curve.failure_rate.tolist()) == reprs(r.failure_rate_used for r in expected)
    assert curve.n_T.tolist() == [r.n_T for r in expected]
    assert curve.saturated.tolist() == [r.saturated for r in expected]


@settings(max_examples=200, deadline=None)
@given(dist=distributions(), min_events=min_events_st, point=point_st)
@example(dist=BOUNDARY_DIST, min_events=1, point=BOUNDARY_POINT)
def test_empirical_stopping_candidates_match_scalar(dist, min_events, point):
    model = DecoderModel("trace", EmpiricalRuntime(dist), HeuristicFailure())
    candidates = stopping_candidates(
        model,
        point["d"],
        1e-3,
        point["epsilon"],
        t_sec_ns=point["t_sec_ns"],
        schedule=point["schedule"],
        min_events=min_events,
    )
    expected = [
        StoppingCandidate(r.stopping_time_ns, r.failure_rate_used, r.n_T, "exact")
        for r in scalar_ranges(dist, min_events, **point)
    ]
    assert candidates == expected
    assert reprs(c.failure_rate for c in candidates) == reprs(
        c.failure_rate for c in expected
    )


def test_range_curve_rejects_what_decoder_range_rejects():
    dist = make_dist([10, 20], [10, 20], [5, 15])
    for kwargs in ({"d": 4}, {"epsilon": 1.0}, {"t_sec_ns": 0}):
        args = {"d": 5, "epsilon": 0.5, "t_sec_ns": 1000, **kwargs}
        with pytest.raises(ValueError):
            range_curve(dist, **args)


def test_removed_call_forms_raise_type_error():
    # rows is keyword-only: a list of stopping times in its place would
    # fancy-index rows (here the M = 5 row for M = 0) instead of raising.
    dist = make_dist([5, 9], [2, 1], [1, 0])
    with pytest.raises(TypeError):
        stopping_curve(dist, [0])
    with pytest.raises(TypeError):
        range_curve(dist, 5, 0.5, saturation_cap=10)
    with pytest.raises(TypeError):
        decoder_range(5, 0, 0.1, 0.5, saturation_cap=10)


def test_range_curve_builds_only_what_it_returns():
    # 1e5 significant rows: the curve's peak stays near the bytes of the
    # columns it returns, with no six-column stopping curve behind them
    # (building one first peaked at 2.7 times those bytes).
    n = 100_000
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 20, n)
    dist = make_dist(np.cumsum(rng.integers(1, 50, n)), counts, rng.integers(0, counts + 1))
    tracemalloc.start()
    try:
        curve = range_curve(dist, 15, 0.5, min_events=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.n_T.size == n
    returned = sum(
        column.nbytes
        for column in (
            curve.stopping_time_ns, curve.delay_cycles, curve.failure_rate, curve.n_T,
            curve.saturated,
        )
    )
    assert peak < 1.6 * returned
