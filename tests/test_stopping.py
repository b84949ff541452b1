import numpy as np
import pytest

from oracles import interrupted_failure_exact, trace_from_records
from stopcost import TraceMetadata, stopping_curve
from stopcost.stopping import _significant_rows


def make_dist(records):
    meta = TraceMetadata(
        distance=5, physical_error_rate=1e-3, shots=len(records), sec_cycle_ns=1000
    )
    return trace_from_records(meta, records)


def significant(dist, min_events):
    """The observed runtimes the significance mask keeps."""
    curve = stopping_curve(dist)
    return curve.stopping_time_ns[_significant_rows(curve.failure_events, min_events)].tolist()


def random_records(rng, shots, fail_prob=None, max_runtime=150):
    runtimes = rng.integers(1, max_runtime, size=shots)
    if fail_prob is None:
        fail_prob = rng.random() * 0.4
    # Bias failures toward slow shots half the time, to exercise joint
    # structure the additive bound cannot see.
    if rng.random() < 0.5:
        failed = rng.random(shots) < fail_prob * (runtimes / max_runtime)
    else:
        failed = rng.random(shots) < fail_prob
    return list(zip(runtimes.tolist(), failed.tolist()))


class TestExactFailureRate:
    def test_hand_counted_mixture(self):
        dist = make_dist([(5, True), (7, False), (12, False)])
        stats = interrupted_failure_exact(dist, 10)
        assert stats.exact_failure_rate == pytest.approx(2 / 3)
        assert stats.failure_events == 2
        assert stats.timeout_probability == pytest.approx(1 / 3)
        assert stats.decode_failure_rate == pytest.approx(1 / 3)

    def test_no_failures_beyond_support(self):
        dist = make_dist([(5, False), (7, False)])
        stats = interrupted_failure_exact(dist, 7)
        assert stats.exact_failure_rate == 0.0
        assert stats.failure_events == 0

    def test_everything_times_out_below_support(self):
        dist = make_dist([(5, False), (7, False)])
        stats = interrupted_failure_exact(dist, 4)
        assert stats.exact_failure_rate == 1.0
        assert stats.timeout_probability == 1.0

    def test_accepts_trace_directly(self):
        meta = TraceMetadata(
            distance=5, physical_error_rate=1e-3, shots=2, sec_cycle_ns=1000
        )
        trace = trace_from_records(meta, [(5, True), (9, False)])
        assert interrupted_failure_exact(trace, 5).failure_events == 2

    def test_non_increasing_in_stopping_time(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            dist = make_dist(random_records(rng, int(rng.integers(2, 400))))
            rates = [
                interrupted_failure_exact(dist, m).exact_failure_rate
                for m in [0, *dist.runtimes_ns.tolist()]
            ]
            assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestBounds:
    # The bounds max(p_fail, P(t > M)) <= exact <= min(1, p_fail + P(t > M))
    # that interrupted_failure_exact returns beside the exact rate.
    def test_no_timeouts(self):
        stats = interrupted_failure_exact(make_dist([(5, True), (7, False)]), 7)
        assert stats.timeout_probability == 0.0
        assert stats.upper_bound_rate == stats.lower_bound_rate == 0.5

    def test_equality_point_of_factor_two(self):
        # One decode failure and one (other) timeout in four shots.
        records = [(5, True), (5, False), (5, False), (9, False)]
        stats = interrupted_failure_exact(make_dist(records), 5)
        assert (stats.upper_bound_rate, stats.lower_bound_rate) == (0.5, 0.25)
        assert stats.lower_bound_rate == stats.upper_bound_rate / 2

    def test_clamped_to_one(self):
        records = [(5, True), (9, True), (9, False)]
        stats = interrupted_failure_exact(make_dist(records), 5)
        assert stats.upper_bound_rate == stats.exact_failure_rate == 1.0
        assert stats.lower_bound_rate == 2 / 3

    def test_sandwich_on_random_traces(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            dist = make_dist(random_records(rng, int(rng.integers(2, 300))))
            for m in dist.runtimes_ns.tolist():
                stats = interrupted_failure_exact(dist, m)
                assert stats.lower_bound_rate <= stats.exact_failure_rate + 1e-15
                assert stats.exact_failure_rate <= stats.upper_bound_rate + 1e-15
                assert stats.lower_bound_rate >= stats.upper_bound_rate / 2 - 1e-15


class TestSignificantStoppingTimes:
    def test_below_threshold_everywhere(self):
        # 19 decode failures total and no timeouts at the max runtime.
        records = [(10, True)] * 19 + [(10, False)] * 81
        assert significant(make_dist(records), min_events=20) == []

    def test_timeout_count_dominates_early_candidates(self):
        records = [(50, False)] * 1000
        dist = make_dist(records)
        assert interrupted_failure_exact(dist, 10).failure_events == 1000  # all time out
        assert significant(dist, min_events=20) == []  # zero events at M=50

    def test_min_events_one(self):
        dist = make_dist([(5, True), (9, False)])
        assert significant(dist, min_events=1) == [5, 9]

    def test_min_events_validation(self):
        dist = make_dist([(5, False)])
        with pytest.raises(ValueError):
            significant(dist, min_events=0)
