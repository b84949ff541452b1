import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stopcost.cost as cost_module
import stopcost.models as models_module
from stopcost import (
    BinomialRuntime,
    DecoderModel,
    EmpiricalFailure,
    EmpiricalRuntime,
    GateSchedule,
    HeuristicFailure,
    InstantaneousRuntime,
    MinCostResult,
    RuntimeTrace,
    StoppingCandidate,
    TraceMetadata,
    binomial_survival,
    build_distribution,
    compare_decoders,
    decoder_range,
    make_reference_decoders,
    min_spacetime_cost,
    min_spacetime_costs,
    sec_depth,
    spacetime_cost,
    stopping_candidates,
)
from stopcost.ranges import RANGE_SATURATION_CAP

INSTANT = DecoderModel("instant", InstantaneousRuntime(), HeuristicFailure())


class TestSpacetimeCost:
    def test_minimal_workload_at_d3(self):
        point = spacetime_cost(1, 3, 0, range_at_point=71)
        assert point.cost == 2 * 9 * 21 == 378
        assert point.feasible

    def test_out_of_range_is_infeasible(self):
        point = spacetime_cost(10, 3, 0, range_at_point=9)
        assert math.isinf(point.cost)
        assert not point.feasible

    def test_cost_linear_in_workload(self):
        a = spacetime_cost(50, 7, 3000, range_at_point=10**6)
        b = spacetime_cost(100, 7, 3000, range_at_point=10**6)
        assert b.cost == 2 * a.cost

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            spacetime_cost(0, 3, 0, range_at_point=10)


class TestStoppingCandidates:
    def test_instantaneous_single_candidate(self):
        cands = stopping_candidates(INSTANT, 3, 1e-3, 0.5)
        assert len(cands) == 1
        assert cands[0].stopping_time_ns == 0
        assert cands[0].rate_method == "upper_bound"
        assert cands[0].failure_rate == pytest.approx(1e-3, rel=1e-12)

    def test_binomial_candidates_cover_quantiles_and_max(self):
        quadratic, _ = make_reference_decoders(5, 1e-3)
        cands = stopping_candidates(quadratic, 5, 1e-3, 0.5)
        runtime = quadratic.runtime
        assert cands[-1].stopping_time_ns == runtime.max_runtime_ns
        for cand in cands:
            units = cand.stopping_time_ns // runtime.unit_ns
            expected = min(1.0, 1e-4 + runtime.survival(cand.stopping_time_ns))
            assert cand.failure_rate == pytest.approx(expected, rel=1e-12)
            assert cand.rate_method == "upper_bound"
            assert 0 <= units <= runtime.trials

    def test_empirical_candidates_use_exact_rate(self):
        records = [(1000, True)] * 30 + [(1000, False)] * 50 + [(5000, False)] * 20
        meta = TraceMetadata(
            distance=5, physical_error_rate=1e-3, shots=100, sec_cycle_ns=1000
        )
        dist = build_distribution(RuntimeTrace.from_records(meta, records))
        decoder = DecoderModel("measured", EmpiricalRuntime(dist), EmpiricalFailure(0.3, 30))
        cands = stopping_candidates(decoder, 5, 1e-3, 0.5)
        assert [c.stopping_time_ns for c in cands] == [1000, 5000]
        assert cands[0].failure_rate == pytest.approx(0.5)  # 30 failed + 20 timeouts
        assert cands[1].failure_rate == pytest.approx(0.3)
        assert all(c.rate_method == "exact" for c in cands)


class TestMinSpacetimeCost:
    def test_instantaneous_minimal_workload(self):
        result = min_spacetime_cost(INSTANT, 1e-3, 1, range(3, 32, 2), 0.5)
        assert result.cost == 378
        assert result.distance == 3
        assert result.stopping_time_ns == 0

    def test_workload_beyond_every_range_is_infeasible(self):
        result = min_spacetime_cost(INSTANT, 1e-3, 10**30, range(3, 12, 2), 0.5)
        assert not result.feasible
        assert result.distance is None

    def test_result_minimal_over_rescan(self):
        quadratic, _ = make_reference_decoders(9, 1e-3)
        factory = lambda d: make_reference_decoders(d, 1e-3)[0]  # noqa: E731
        distances = [3, 5, 7, 9, 11]
        for n_T in (1, 10, 100, 1000):
            result = min_spacetime_cost(factory, 1e-3, n_T, distances, 0.5)
            for d in distances:
                model = factory(d)
                for cand in stopping_candidates(model, d, 1e-3, 0.5):
                    if cand.range_n_T >= n_T:
                        cost = 2 * d * d * n_T * (7 * d + -(-cand.stopping_time_ns // 1000))
                        assert result.cost <= cost

    def test_cost_non_decreasing_in_workload(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            trials = int(rng.integers(10, 5000))
            q = float(rng.uniform(1e-4, 0.2))
            decoder = DecoderModel(
                "random",
                BinomialRuntime(trials=trials, step_probability=q, unit_ns=1000),
                HeuristicFailure(),
            )
            costs = []
            for n_T in (1, 5, 25, 125, 625, 3125):
                result = min_spacetime_cost(decoder, 1e-3, n_T, range(3, 22, 2), 0.5)
                costs.append(result.cost)
            assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_per_gate_cost_constant_between_distance_jumps(self):
        factory = lambda d: make_reference_decoders(d, 1e-3)[0]  # noqa: E731
        distances = list(range(3, 22, 2))
        results = {
            n_T: min_spacetime_cost(factory, 1e-3, n_T, distances, 0.5)
            for n_T in range(1, 120)
        }
        for n_T in range(2, 120):
            prev, curr = results[n_T - 1], results[n_T]
            if not (prev.feasible and curr.feasible):
                continue
            if (prev.distance, prev.stopping_time_ns) == (curr.distance, curr.stopping_time_ns):
                assert curr.cost * (n_T - 1) == prev.cost * n_T  # cost/n_T constant

    def test_trace_backed_factory_skips_other_distances(self):
        # rate 25/10000 at M = 1 cycle gives range floor(2.5/(0.0025*36)) = 27
        records = [(1000, True)] * 25 + [(1000, False)] * 9975
        meta = TraceMetadata(
            distance=5, physical_error_rate=1e-3, shots=10000, sec_cycle_ns=1000
        )
        dist = build_distribution(RuntimeTrace.from_records(meta, records))
        measured = DecoderModel("measured", EmpiricalRuntime(dist), EmpiricalFailure(0.0025, 25))
        factory = lambda d: measured if d == 5 else None  # noqa: E731
        result = min_spacetime_cost(factory, 1e-3, 10, range(3, 32, 2), 0.5)
        assert result.distance == 5
        assert result.stopping_time_ns == 1000
        assert result.rate_method == "exact"
        assert result.cost == 2 * 25 * 10 * 36

    def test_validation(self):
        with pytest.raises(ValueError):
            min_spacetime_cost(INSTANT, 1e-3, 1, [], 0.5)
        with pytest.raises(ValueError):
            min_spacetime_cost(INSTANT, 1e-3, 0, [3], 0.5)

    def test_many_workloads_from_one_table(self, monkeypatch):
        factory = lambda d: make_reference_decoders(d, 1e-3)[0]  # noqa: E731
        distances = list(range(3, 16, 2))
        n_T_values = [10**6, 1, 37, 1, 10**30, 5000]
        expected = [
            min_spacetime_cost(factory, 1e-3, n_T, distances, 0.5) for n_T in n_T_values
        ]
        builds = []
        real_table = cost_module._candidate_table
        monkeypatch.setattr(
            cost_module,
            "_candidate_table",
            lambda *args: builds.append(args) or real_table(*args),
        )
        assert min_spacetime_costs(factory, 1e-3, n_T_values, distances, 0.5) == expected
        assert len(builds) == 1
        # Every workload is checked before the table is built.
        with pytest.raises(ValueError, match="n_T must be >= 1, got 0"):
            min_spacetime_costs(factory, 1e-3, [10, 0], distances, 0.5)
        assert len(builds) == 1


class TestCompareDecoders:
    def test_self_comparison_ratio_one(self):
        rows = compare_decoders(INSTANT, INSTANT, 1e-3, [1, 10, 50], range(3, 12, 2), 0.5)
        for row in rows:
            assert row.ratio == 1.0

    def test_infeasible_rows_marked_infinite(self):
        rows = compare_decoders(
            INSTANT, INSTANT, 1e-3, [1, 10**30], range(3, 12, 2), 0.5
        )
        assert rows[0].ratio == 1.0
        assert math.isinf(rows[1].ratio)
        assert math.isinf(rows[1].cost_a)

    def test_reference_models_small_grid(self):
        rows = compare_decoders(
            lambda d: make_reference_decoders(d, 1e-3)[1],
            lambda d: make_reference_decoders(d, 1e-3)[0],
            1e-3,
            [1, 10, 51, 100],
            range(3, 12, 2),
            0.5,
        )
        by_n = {r.n_T: r for r in rows}
        assert by_n[1].ratio == 1.0  # both run at d=3, M=0 equivalents
        assert by_n[51].ratio > 2  # linear forced to d=5 first


# ---------------------------------------------------------------------------
# The binomial quantile ladder against the upward walk it replaces

WIDE_TAIL = DecoderModel("wide-tail", BinomialRuntime(10**5, 0.3), HeuristicFailure())

REFERENCE_LAWS = sorted(
    {
        (decoder.runtime.trials, decoder.runtime.step_probability)
        for p in (1e-4, 1e-3, 5e-3)
        for d in range(3, 32, 2)
        for decoder in make_reference_decoders(d, p)
    }
)


def walk_ladder(n, q):
    """The scalar oracle: walk up one unit at a time from the mode."""
    m = min(n, int((n + 1) * q))
    units = []
    for k in cost_module.QUANTILE_TAIL_EXPONENTS:
        while m < n and binomial_survival(n, q, m) > 10.0**-k:
            m += 1
        units.append(m)
    units.append(n)
    return [(u, binomial_survival(n, q, u)) for u in sorted(set(units))]


@st.composite
def binomial_laws(draw):
    # Variance n*q*(1-q) <= 400, so the walk stays fast; q near 1 as well.
    n = draw(st.integers(1, 10**9))
    q = draw(st.floats(min_value=1e-12, max_value=min(0.5, 400.0 / n)))
    if draw(st.booleans()):
        q = 1.0 - q
    return n, q


def pinned_laws(test):
    """@example the edge cases and every reference runtime law."""
    pinned = [
        (1, 0.3),  # n = 1, mode 0
        (1, 0.999),  # n = 1, mode == n
        (20, 0.999),  # mode == n: the ladder is [n]
        (WIDE_TAIL.runtime.trials, WIDE_TAIL.runtime.step_probability),
        # The survival is exactly 10**-k at a bisection midpoint: S(13) = 0.1
        # and S(17) = 0.01, which must be kept, as the walk keeps them.
        (30, 0.3384008014614815),
        (34, 0.32269355361707214),
        *REFERENCE_LAWS,
    ]
    for law in pinned:
        test = example(law=law)(test)
    return test


@settings(max_examples=200, deadline=None)
@given(law=binomial_laws())
@pinned_laws
def test_ladder_matches_upward_walk(law):
    n, q = law
    ladder = cost_module._binomial_quantile_units(BinomialRuntime(n, q))
    assert repr(ladder) == repr(walk_ladder(n, q))


@settings(max_examples=100, deadline=None)
@given(law=binomial_laws())
@pinned_laws
def test_survival_does_not_increase_past_the_mode(law):
    # The search reads the survival only in [mode, 2*top - mode] (top being
    # the highest quantile below n) and at n, so that span is checked whole.
    n, q = law
    mode = min(n, int((n + 1) * q))
    top = max([mode] + [u for u, _ in walk_ladder(n, q) if u < n])
    span = [*range(mode, min(n, 2 * top - mode) + 1), n]
    values = [binomial_survival(n, q, m) for m in span]
    assert all(a >= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("d", [3, 15, 31])
@pytest.mark.parametrize("p", [1e-4, 5e-3])
def test_binomial_candidates_match_walk_and_survival(d, p):
    # Rates read the ladder's survival, bit for bit the second survival
    # evaluation they replace.
    for decoder in (*make_reference_decoders(d, p), WIDE_TAIL):
        runtime = decoder.runtime
        base = decoder.failure.rate(d, p)
        expected = []
        for units, _ in walk_ladder(runtime.trials, runtime.step_probability):
            m_ns = units * runtime.unit_ns
            rate = min(1.0, base + runtime.survival(m_ns))
            n_T = decoder_range(d, m_ns, rate, 0.5).n_T
            expected.append(StoppingCandidate(m_ns, rate, n_T, "upper_bound"))
        assert repr(stopping_candidates(decoder, d, p, 0.5)) == repr(expected)


def test_fixed_decoder_builds_one_ladder(monkeypatch):
    survival_calls = []
    ladders = []
    real_survival = models_module.binomial_survival
    real_ladder = cost_module._binomial_quantile_units

    def counted_survival(*args):
        survival_calls.append(args)
        return real_survival(*args)

    def counted_ladder(runtime):
        ladders.append(runtime)
        return real_ladder(runtime)

    # Both namespaces, so a second survival pass through
    # BinomialRuntime.survival would be counted too.
    monkeypatch.setattr(cost_module, "binomial_survival", counted_survival)
    monkeypatch.setattr(models_module, "binomial_survival", counted_survival)
    monkeypatch.setattr(cost_module, "_binomial_quantile_units", counted_ladder)
    distances = range(3, 32, 2)
    results = min_spacetime_costs(WIDE_TAIL, 1e-3, [1, 10**6], distances, 0.5)
    assert all(r.feasible for r in results)
    assert ladders == [WIDE_TAIL.runtime]
    # The upward walk made ~18,000 calls for this table (~1,200 per distance).
    assert len(survival_calls) < 500, len(survival_calls)


# ---------------------------------------------------------------------------
# The per-distance frontier against the per-row scan it replaces


def scan_min_cost(table, n_T, t_sec_ns, schedule):
    """The scalar oracle: price every feasible (d, M) row in (d, M) order and
    keep strict improvements only, so ties go to smaller d, then smaller M."""
    best = None
    for d, cand in table:
        if cand.range_n_T < n_T:
            continue
        cost = 2 * d * d * sec_depth(n_T, d, cand.stopping_time_ns, t_sec_ns, schedule)
        if best is None or cost < best.cost:
            best = MinCostResult(
                cost=cost,
                distance=d,
                stopping_time_ns=cand.stopping_time_ns,
                rate_method=cand.rate_method,
            )
    if best is None:
        return MinCostResult(cost=math.inf, distance=None, stopping_time_ns=None)
    return best


def scan_min_costs(decoder, p, n_T_values, distances, epsilon, t_sec_ns=1000,
                   schedule=GateSchedule(), min_events=20):
    factory = (lambda _d: decoder) if isinstance(decoder, DecoderModel) else decoder
    table = [
        (d, cand)
        for d in sorted(set(distances))
        if (model := factory(d)) is not None
        for cand in stopping_candidates(model, d, p, epsilon, t_sec_ns, schedule, min_events)
    ]
    return [scan_min_cost(table, n_T, t_sec_ns, schedule) for n_T in n_T_values]


def assert_frontier_matches_scan(factory, p, n_T_values, distances, epsilon, **kwargs):
    got = min_spacetime_costs(factory, p, n_T_values, distances, epsilon, **kwargs)
    assert repr(got) == repr(scan_min_costs(factory, p, n_T_values, distances, epsilon, **kwargs))
    return got


# The paper's workload grid (12 decades, 24 points per decade) and the
# saturation edges: a saturated range covers exactly RANGE_SATURATION_CAP.
PAPER_GRID = [int(round(v)) for v in np.geomspace(1, 1e12, 12 * 24 + 1)]
EDGE_N_T = [RANGE_SATURATION_CAP - 1, 10**18, 10**18 + 1, 2**63, 10**30]
PAPER_DECODERS = {
    "quadratic": lambda p: lambda d: make_reference_decoders(d, p)[0],
    "linear": lambda p: lambda d: make_reference_decoders(d, p)[1],
    "wide-tail": lambda p: WIDE_TAIL,
    "instantaneous": lambda p: INSTANT,
}


@pytest.mark.parametrize("p", [1e-4, 1e-3])
@pytest.mark.parametrize("name", sorted(PAPER_DECODERS))
def test_frontier_matches_scan_on_paper_grid(name, p):
    results = assert_frontier_matches_scan(
        PAPER_DECODERS[name](p), p, PAPER_GRID + EDGE_N_T, range(3, 32, 2), 0.5
    )
    assert results[0].feasible


@st.composite
def histograms(draw):
    n = draw(st.integers(1, 30))
    runtimes = sorted(draw(st.sets(st.integers(0, 10**6), min_size=n, max_size=n)))
    counts = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    failed = [draw(st.integers(0, c)) for c in counts]
    meta = TraceMetadata(distance=5, physical_error_rate=1e-3, shots=sum(counts),
                         sec_cycle_ns=1000)
    return build_distribution(RuntimeTrace(meta, runtimes, counts, failed))


n_T_lists = st.lists(
    st.one_of(
        st.integers(1, 60),
        st.integers(1, 10**19),
        st.sampled_from(EDGE_N_T),
    ),
    min_size=1,
    max_size=8,
)
distance_lists = st.lists(st.integers(1, 15).map(lambda k: 2 * k + 1), min_size=1, max_size=5)
schedules = st.builds(GateSchedule, *(st.integers(1, 3) for _ in range(4)))


@settings(max_examples=150, deadline=None)
@given(
    dist=histograms(),
    at_one_distance=st.booleans(),
    distances=distance_lists,
    n_T_values=n_T_lists,
    epsilon=st.sampled_from([0.01, 0.1, 0.5, 0.9]),
    # A long SEC cycle puts many stopping times on one cycle count, where
    # the frontier must still pick the smallest M of equal cost.
    t_sec_ns=st.sampled_from([1, 1000, 10**5, 10**6, 10**7]),
    min_events=st.integers(1, 5),
    schedule=schedules,
)
def test_frontier_matches_scan_on_traces(dist, at_one_distance, distances, n_T_values,
                                         epsilon, t_sec_ns, min_events, schedule):
    model = DecoderModel("trace", EmpiricalRuntime(dist), HeuristicFailure())
    only = distances[0]
    factory = (lambda d: model if d == only else None) if at_one_distance else (lambda d: model)
    assert_frontier_matches_scan(
        factory, 1e-3, n_T_values, distances, epsilon,
        t_sec_ns=t_sec_ns, schedule=schedule, min_events=min_events,
    )


@settings(max_examples=150, deadline=None)
@given(
    runtime=st.one_of(
        st.just(InstantaneousRuntime()),
        st.builds(
            BinomialRuntime,
            st.integers(1, 200),
            st.floats(1e-3, 0.999),
            st.sampled_from([1, 7, 1000]),
        ),
    ),
    # A zero rate, and rates tiny enough to saturate the range.
    failure_rate=st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-30, 1e-18, 1e-3, 1.0]),
        st.floats(0.0, 1.0),
    ),
    distances=distance_lists,
    n_T_values=n_T_lists,
    t_sec_ns=st.sampled_from([1, 1000, 10**5]),
    schedule=schedules,
)
def test_frontier_matches_scan_on_analytic_laws(runtime, failure_rate, distances,
                                                n_T_values, t_sec_ns, schedule):
    decoder = DecoderModel("law", runtime, EmpiricalFailure(failure_rate))
    assert_frontier_matches_scan(
        decoder, 1e-3, n_T_values, distances, 0.5, t_sec_ns=t_sec_ns, schedule=schedule
    )


def test_frontier_picks_the_saturated_row_exactly_at_the_cap():
    decoder = DecoderModel("perfect", InstantaneousRuntime(), EmpiricalFailure(0.0))
    at_cap, past_cap = min_spacetime_costs(decoder, 1e-3, [10**18, 10**18 + 1], [3, 5], 0.5)
    assert (at_cap.distance, at_cap.stopping_time_ns) == (3, 0)
    assert at_cap.cost == 2 * 9 * 21 * 10**18
    assert not past_cap.feasible


def test_equal_costs_go_to_the_smaller_distance():
    # One trace used at d = 3 and 5: 999,931 shots finish at 1 cycle, 69 at
    # 79 cycles (10 of them failing).  For n_T = 1000, d = 3 needs the
    # 79-cycle stopping time and d = 5 covers it at 1 cycle, and both cost
    # 1,800,000 = 2*9*(21+79)*1000 = 2*25*(35+1)*1000.
    meta = TraceMetadata(distance=3, physical_error_rate=1e-3, shots=10**6, sec_cycle_ns=1000)
    dist = build_distribution(RuntimeTrace(meta, [1000, 79000], [999_931, 69], [0, 10]))
    model = DecoderModel("trace", EmpiricalRuntime(dist), HeuristicFailure())
    (result,) = assert_frontier_matches_scan(model, 1e-3, [1000], [5, 3], 0.5, min_events=1)
    assert (result.cost, result.distance, result.stopping_time_ns) == (1_800_000, 3, 79000)
