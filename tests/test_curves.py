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


def scalar_ranges(dist, min_events, d, epsilon, t_sec_ns, schedule, **cap):
    results = []
    for m in scalar_significant(dist, min_events):
        rate = interrupted_failure_exact(dist, m).exact_failure_rate
        results.append(decoder_range(d, m, rate, epsilon, t_sec_ns, schedule, **cap))
    return results


def scalar_optimum(results):
    best = None
    for result in results:
        if best is None or result.n_T > best.n_T:
            best = result
    return best


def assert_curve_matches(curve, dist, times):
    stats = [interrupted_failure_exact(dist, m) for m in times]
    assert len(curve.stopping_time_ns) == len(times)
    assert curve.stopping_time_ns.tolist() == [s.stopping_time_ns for s in stats]
    assert curve.timeouts.tolist() == [dist.shots - count_at_or_below(dist, m) for m in times]
    assert curve.failure_events.tolist() == [s.failure_events for s in stats]
    for column, field in (
        ("timeout_probability", "timeout_probability"),
        ("exact_failure_rate", "exact_failure_rate"),
        ("upper_bound_rate", "upper_bound_rate"),
        ("lower_bound_rate", "lower_bound_rate"),
    ):
        assert reprs(getattr(curve, column).tolist()) == reprs(getattr(s, field) for s in stats)


@settings(max_examples=200, deadline=None)
@given(dist=distributions(), extra=extra_st)
def test_stopping_curve_matches_scalar(dist, extra):
    assert_curve_matches(stopping_curve(dist), dist, dist.runtimes_ns.tolist())
    assert_curve_matches(stopping_curve(dist, extra), dist, extra)


@settings(max_examples=200, deadline=None)
@given(dist=distributions())
def test_default_stopping_times_match_explicit_ones_bit_for_bit(dist):
    # The default reads the cumulative counts; explicit times go through
    # searchsorted.  Both give the same columns, dtype and bytes.
    default = stopping_curve(dist)
    explicit = stopping_curve(dist, dist.runtimes_ns)
    for name, a, b in zip(default._fields, default, explicit):
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


@settings(max_examples=200, deadline=None)
@given(dist=distributions(), min_events=min_events_st, extra=extra_st)
def test_significant_stopping_times_matches_scalar(dist, min_events, extra):
    for times in (None, np.union1d(dist.runtimes_ns, extra)):
        curve = stopping_curve(dist, times)
        mask = _significant_rows(curve.failure_events, min_events)
        assert curve.stopping_time_ns[mask].tolist() == scalar_significant(
            dist, min_events, () if times is None else extra
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
    curve = range_curve(dist, min_events=min_events, saturation_cap=cap, **point)
    expected = scalar_ranges(dist, min_events, saturation_cap=cap, **point)
    assert curve.stopping_time_ns.tolist() == [r.stopping_time_ns for r in expected]
    assert curve.delay_cycles.tolist() == [
        -(-r.stopping_time_ns // point["t_sec_ns"]) for r in expected
    ]
    assert reprs(curve.failure_rate.tolist()) == reprs(r.failure_rate_used for r in expected)
    assert curve.n_T.tolist() == [r.n_T for r in expected]
    assert curve.saturated.tolist() == [r.saturated for r in expected]
    best = scalar_optimum(expected)
    if best is None:
        with pytest.raises(InfeasibleError):
            curve.optimum()
    else:
        m, result = curve.optimum()
        assert (m, result) == (best.stopping_time_ns, best)
        assert type(result.n_T) is int and type(result.failure_rate_used) is float


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
