import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import interrupted_failure_exact, trace_from_records
from stopcost import ranges
from stopcost import (
    GateSchedule,
    HeuristicFailure,
    InfeasibleError,
    TraceMetadata,
    accuracy_surface,
    decoder_range,
    range_curve,
    required_distance,
    sec_depth,
    unencoded_range,
)


def make_trace(records):
    meta = TraceMetadata(
        distance=5, physical_error_rate=1e-3, shots=len(records), sec_cycle_ns=1000
    )
    return trace_from_records(meta, records)


class TestSecDepth:
    def test_zero_delay_single_gate(self):
        assert sec_depth(1, 3, 0, 1000) == 21

    def test_long_decode_delay(self):
        # 100 T gates at d=15 with a 500 us delay and 1 us cycles.
        assert sec_depth(100, 15, 500_000, 1000) == 100 * (105 + 500)

    def test_ceiling_rounds_partial_cycles_up(self):
        assert sec_depth(1, 3, 1, 1000) == 22

    def test_zero_gates(self):
        assert sec_depth(0, 11, 123456, 1000) == 0

    def test_additive_in_gate_count(self):
        a = sec_depth(3, 7, 2500, 1000)
        b = sec_depth(5, 7, 2500, 1000)
        assert sec_depth(8, 7, 2500, 1000) == a + b

    def test_custom_schedule(self):
        schedule = GateSchedule(h_cycles=1, s_cycles=1, conditional_s_cycles=1, measure_cycles=1)
        assert sec_depth(1, 5, 0, 1000, schedule) == 20

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            GateSchedule(h_cycles=0)


class TestUnencodedRange:
    def test_reference_point(self):
        assert unencoded_range(1e-3, 0.5) == 166

    def test_floor_of_one_third(self):
        assert unencoded_range(0.5, 0.5) == 0

    def test_smaller_noise(self):
        assert unencoded_range(1e-4, 0.5) == 1666

    def test_domain(self):
        with pytest.raises(ValueError):
            unencoded_range(0.0, 0.5)
        with pytest.raises(ValueError):
            unencoded_range(1e-3, 1.0)


class TestRequiredDistance:
    def test_thousand_gates_needs_d7(self):
        result = required_distance(1000, 1e-3, 0, 0.5)
        assert result.distance == 7

    def test_seventy_one_gates_fits_d3(self):
        result = required_distance(71, 1e-3, 0, 0.5)
        assert result.distance == 3

    def test_above_threshold_is_infeasible(self):
        # At p = 1e-2 the heuristic rate is 0.1 at every distance, so the
        # proxy cannot be pushed below epsilon for deep circuits.
        with pytest.warns(UserWarning):
            result = required_distance(1000, 1e-2, 0, 0.5)
        assert result.distance is None

    def test_no_encoding_shortcut_reported(self):
        assert required_distance(100, 1e-3, 0, 0.5).no_encoding_sufficient
        assert not required_distance(200, 1e-3, 0, 0.5).no_encoding_sufficient
        # epsilon / (3p) is exactly 2: two gates spend the whole budget,
        # which the encoded check (proxy <= epsilon) also accepts.
        with pytest.warns(UserWarning):  # p above the heuristic's validity threshold
            assert required_distance(2, 0.125, 0, 0.75).no_encoding_sufficient
            assert not required_distance(3, 0.125, 0, 0.75).no_encoding_sufficient

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(1e-9, 0.33), epsilon=st.floats(1e-9, 0.999))
    @example(p=0.125, epsilon=0.75)
    @example(p=0.25, epsilon=0.75)
    @example(p=0.0625, epsilon=0.375)
    def test_no_encoding_sufficient_up_to_the_unencoded_range(self, p, epsilon):
        k = unencoded_range(p, epsilon)
        assume(k >= 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # p above the heuristic's validity threshold
            assert required_distance(k, p, 0, epsilon, d_max=3).no_encoding_sufficient
            assert not required_distance(k + 1, p, 0, epsilon, d_max=3).no_encoding_sufficient

    def test_monotone_in_workload_and_delay(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n_T = int(rng.integers(1, 10**6))
            delay = int(rng.integers(0, 10**6))
            base = required_distance(n_T, 1e-3, delay, 0.5).distance
            more_work = required_distance(n_T * 2, 1e-3, delay, 0.5).distance
            more_delay = required_distance(n_T, 1e-3, delay + 10**6, 0.5).distance
            assert base is not None
            assert more_work is None or more_work >= base
            assert more_delay is None or more_delay >= base

    @pytest.mark.parametrize("epsilon", [0.0, 5.0, -1.0, 1.0, math.nan])
    def test_epsilon_outside_the_unit_interval_rejected(self, epsilon):
        # 5.0 used to give distance 5: a budget above 1 is no budget.
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
            required_distance(1000, 1e-3, 0, epsilon)

    def test_brute_force_oracle(self):
        # Independent scan: smallest odd d in [3, 99] with
        # n_T * (7d + ceil(delay / t_sec)) / d * 0.1 * (100 p)^((d+1)/2) <= eps.
        rng = np.random.default_rng(41)
        p, eps, t_sec = 1e-3, 0.5, 1000
        for _ in range(1000):
            n_T = int(rng.integers(1, 10**9))
            delay = int(rng.integers(0, 10**7))
            expected = None
            for d in range(3, 100, 2):
                cycles = 7 * d + -(-delay // t_sec)
                proxy = n_T * cycles / d * (0.1 * (100 * p) ** ((d + 1) // 2))
                if proxy <= eps:
                    expected = d
                    break
            got = required_distance(n_T, p, delay, eps, t_sec_ns=t_sec)
            assert got.distance == expected


class TestDecoderRange:
    def test_fitted_instantaneous_point(self):
        result = decoder_range(11, 0, 0.04 * 0.1**6, 0.5)
        assert result.n_T == 1_785_714
        assert not result.saturated

    def test_hopeless_decoder(self):
        for d in (3, 11, 29):
            assert decoder_range(d, 0, 1.0, 0.5).n_T == 0

    def test_accuracy_point_two_reaches_ten_million(self):
        rate = HeuristicFailure().rate(15, 1e-3) / 0.2
        result = decoder_range(15, 0, rate, 0.5)
        assert result.n_T == 14_285_714
        assert result.n_T >= 10**7

    def test_zero_rate_saturates(self):
        result = decoder_range(9, 0, 0.0, 0.5)
        assert result.saturated
        assert result.n_T == 10**18

    def test_tiny_rate_saturates_at_cap(self, monkeypatch):
        monkeypatch.setattr(ranges, "RANGE_SATURATION_CAP", 10**12)
        result = decoder_range(9, 0, 1e-300, 0.5)
        assert result.saturated
        assert result.n_T == 10**12

    def test_non_increasing_in_rate_and_stopping_time(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = int(rng.choice([3, 7, 15, 29]))
            rates = np.sort(10.0 ** -rng.uniform(1, 12, size=6))
            ms = np.sort(rng.integers(0, 10**6, size=6))
            fixed_m = int(ms[0])
            by_rate = [decoder_range(d, fixed_m, r, 0.5).n_T for r in rates]
            assert all(a >= b for a, b in zip(by_rate, by_rate[1:]))  # rate up, range down
            fixed_rate = float(rates[0])
            by_m = [decoder_range(d, int(m), fixed_rate, 0.5).n_T for m in ms]
            assert all(a >= b for a, b in zip(by_m, by_m[1:]))


def brute_force_optimum(records, d, epsilon, t_sec_ns, min_events):
    """Exhaustive reimplementation over raw records: counts failures by
    direct iteration and maximizes floor(eps*d / (rate*(7d + ceil(M)))).
    """
    shots = len(records)
    best = None
    for m in sorted({r for r, _ in records}):
        events = sum(1 for r, f in records if r > m or f)
        if events < min_events:
            continue
        rate = events / shots
        cycles = 7 * d + -(-m // t_sec_ns)
        n_T = math.floor(epsilon * d / (rate * cycles))
        if best is None or n_T > best[1]:
            best = (m, n_T)
    return best


class TestRangeOptimizedStoppingTime:
    def test_matches_brute_force_on_random_traces(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            shots = int(rng.integers(50, 600))
            runtimes = rng.integers(1, 40, size=shots) * int(rng.choice([1, 250, 1000]))
            failed = rng.random(shots) < rng.uniform(0.05, 0.5)
            records = list(zip(runtimes.tolist(), failed.tolist()))
            expected = brute_force_optimum(records, 5, 0.5, 1000, min_events=20)
            if expected is None:
                continue
            m, result = range_curve(make_trace(records), 5, 0.5, min_events=20).optimum()
            assert (m, result.n_T) == expected

    def test_tie_breaks_toward_smaller_stopping_time(self):
        # Both candidates land in the same delay cycle and accumulate the
        # same failure count, so their ranges tie exactly.
        records = (
            [(10, False)] * 20 + [(10, True)] * 30 + [(20, True)] * 50
        )
        dist = make_trace(records)
        m, _ = range_curve(dist, 5, 0.5, min_events=20).optimum()
        assert m == 10

    def test_singleton_grid(self):
        records = [(7, True)] * 25 + [(7, False)] * 75
        dist = make_trace(records)
        m, result = range_curve(dist, 5, 0.5, min_events=20).optimum()
        assert m == 7
        assert result.failure_rate_used == pytest.approx(0.25)

    def test_no_significant_candidate_raises(self):
        dist = make_trace([(5, False)] * 10)
        with pytest.raises(InfeasibleError):
            range_curve(dist, 5, 0.5, min_events=20).optimum()

    def test_optimum_at_least_uninterrupted(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            shots = int(rng.integers(100, 500))
            runtimes = rng.integers(1, 30, size=shots) * 1000
            failed = rng.random(shots) < 0.3
            dist = make_trace(list(zip(runtimes.tolist(), failed.tolist())))
            try:
                _, result = range_curve(dist, 5, 0.5, min_events=20).optimum()
            except InfeasibleError:
                continue
            t_max = dist.max_runtime_ns
            full = interrupted_failure_exact(dist, t_max)
            if full.failure_events >= 20:
                uninterrupted = decoder_range(
                    5, t_max, full.exact_failure_rate, 0.5
                ).n_T
                assert result.n_T >= uninterrupted


def rational_surface_value(d, alpha_frac, m_cycles, epsilon_frac, p_frac):
    """Exact-rational evaluation of eps*d*alpha / (p_fail * (7d + M))."""
    p_fail = Fraction(1, 10) * (100 * p_frac) ** ((d + 1) // 2)
    value = epsilon_frac * d * alpha_frac / (p_fail * (7 * d + m_cycles))
    return math.floor(value)


class TestAccuracySurface:
    @pytest.mark.parametrize(
        "alpha,m_cycles,expected",
        [
            (0.8, 500, 9_917_355),
            (0.5, 250, 10_563_380),
            (0.2, 0, 14_285_714),
        ],
    )
    def test_reference_points_at_d15(self, alpha, m_cycles, expected):
        # `expected` cross-checked against exact rational arithmetic.
        assert rational_surface_value(
            15, Fraction(alpha).limit_denominator(10), m_cycles, Fraction(1, 2), Fraction(1, 1000)
        ) == expected
        rows = accuracy_surface(15, 1e-3, 0.5, [alpha], [m_cycles])
        assert rows == [(alpha, m_cycles, expected)]

    def test_linear_in_accuracy(self):
        rows = accuracy_surface(15, 1e-3, 0.5, [0.25, 0.5, 1.0], [100])
        values = [r[2] for r in rows]
        assert values[1] == pytest.approx(2 * values[0], abs=1)
        assert values[2] == pytest.approx(4 * values[0], abs=2)

    def test_grid_shape_alpha_major(self):
        rows = accuracy_surface(9, 1e-3, 0.5, [0.5, 1.0], [0, 10, 20])
        assert [(a, m) for a, m, _ in rows] == [
            (0.5, 0), (0.5, 10), (0.5, 20), (1.0, 0), (1.0, 10), (1.0, 20)
        ]

    @pytest.mark.parametrize("epsilon", [0.0, 5.0, -1.0, 1.0, math.nan])
    def test_epsilon_outside_the_unit_interval_rejected(self, epsilon):
        # -1.0 used to give the negative range -1429.
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
            accuracy_surface(5, 1e-3, epsilon, [1.0], [0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            accuracy_surface(9, 1e-3, 0.5, [], [0])
        with pytest.raises(ValueError):
            accuracy_surface(9, 1e-3, 0.5, [0.5], [])
