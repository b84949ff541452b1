import numpy as np
import pytest

from oracles import (
    interrupted_distribution,
    interrupted_failure_bound,
    points,
    require_significant_stopping_times,
    trace_from_records,
)
from stopcost import (
    InfeasibleError,
    TraceMetadata,
    interrupted_failure_exact,
    significant_stopping_times,
    stopping_curve,
)


def make_dist(records):
    meta = TraceMetadata(
        distance=5, physical_error_rate=1e-3, shots=len(records), sec_cycle_ns=1000
    )
    return trace_from_records(meta, records)


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


class TestInterruptedDistribution:
    def test_truncation_beyond_support_is_identity(self):
        dist = make_dist([(1, False), (2, False), (3, True)])
        for m in (3, 4, 100):
            cut = interrupted_distribution(dist, m)
            assert points(cut) == points(dist)
            assert cut.shots == dist.shots

    def test_uniform_renormalization(self):
        dist = make_dist([(1, False), (2, False), (3, False), (4, False)])
        cut = interrupted_distribution(dist, 2)
        assert cut.shots == 2
        counts = cut.counts
        masses = counts / cut.shots
        assert list(cut.runtimes_ns) == [1, 2]
        assert masses.tolist() == [0.5, 0.5]

    def test_below_minimum_runtime_rejected(self):
        dist = make_dist([(10, False), (20, False)])
        with pytest.raises(ValueError, match="time out"):
            interrupted_distribution(dist, 9)

    def test_masses_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            dist = make_dist(random_records(rng, int(rng.integers(2, 300))))
            for m in dist.runtimes_ns.tolist():
                cut = interrupted_distribution(dist, m)
                assert abs(cut.counts.sum() / cut.shots - 1.0) < 1e-12


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
    def test_no_timeouts(self):
        assert interrupted_failure_bound(1e-7, 0.0) == (1e-7, 1e-7)

    def test_equality_point_of_factor_two(self):
        upper, lower = interrupted_failure_bound(1e-7, 1e-7)
        assert upper == pytest.approx(2e-7)
        assert lower == pytest.approx(1e-7)
        assert lower >= upper / 2

    def test_clamped_to_one(self):
        upper, lower = interrupted_failure_bound(0.9, 0.9)
        assert upper == 1.0
        assert lower == 0.9

    def test_domain(self):
        with pytest.raises(ValueError):
            interrupted_failure_bound(-0.1, 0.5)
        with pytest.raises(ValueError):
            interrupted_failure_bound(0.5, 1.1)

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
        assert significant_stopping_times(make_dist(records), min_events=20) == []

    def test_timeout_count_dominates_early_candidates(self):
        records = [(50, False)] * 1000
        dist = make_dist(records)
        curve = stopping_curve(dist, np.union1d(dist.runtimes_ns, [10]))
        times = curve.stopping_time_ns[curve.failure_events >= 20].tolist()
        assert 10 in times  # 1000 timeouts at M=10
        assert 50 not in times  # zero events at M=50

    def test_min_events_one(self):
        dist = make_dist([(5, True), (9, False)])
        assert significant_stopping_times(dist, min_events=1) == [5, 9]

    def test_min_events_validation(self):
        dist = make_dist([(5, False)])
        with pytest.raises(ValueError):
            significant_stopping_times(dist, min_events=0)

    def test_require_raises_infeasible(self):
        dist = make_dist([(5, False)] * 10)
        with pytest.raises(InfeasibleError, match="more shots"):
            require_significant_stopping_times(dist, min_events=20)
