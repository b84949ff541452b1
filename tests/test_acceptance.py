"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass line on success (run with ``pytest -s`` or ``-v`` to
see them); a failed criterion fails the test outright.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import interrupted_failure_exact, iter_records, survival, trace_from_records
from stopcost import (
    TraceMetadata,
    BinomialRuntime,
    DecoderModel,
    EmpiricalFailure,
    HeuristicFailure,
    accuracy_surface,
    binomial_survival,
    compare_decoders,
    decoder_range,
    make_reference_decoders,
    min_spacetime_costs,
    range_curve,
    required_distance,
    sample_trace,
    unencoded_range,
)
from stopcost.cli import main as cli_main


def report(number, text):
    print(f"criterion {number}: PASS - {text}")


def make_trace(records):
    meta = TraceMetadata(
        distance=5, physical_error_rate=1e-3, shots=len(records), sec_cycle_ns=1000
    )
    return trace_from_records(meta, records)


def test_criterion_1_unencoded_range():
    assert unencoded_range(1e-3, 0.5) == 166
    report(1, "unencoded range at p=1e-3, eps=0.5 is exactly 166")


def test_criterion_2_accuracy_surface():
    rows = {
        (alpha, m): value
        for alpha, m, value in accuracy_surface(
            15, 1e-3, 0.5, [0.2, 0.5, 0.8], [0, 250, 500]
        )
    }
    assert rows[(0.2, 0)] == 14_285_714
    assert rows[(0.2, 0)] >= 10**7
    assert rows[(0.8, 500)] == 9_917_355
    assert abs(rows[(0.8, 500)] - 10**7) <= 0.02 * 10**7
    assert rows[(0.5, 250)] == 10_563_380
    assert rows[(0.5, 250)] >= 10**7
    report(2, "d=15 accuracy/stopping tradeoff hits the three reference points")


def test_criterion_3_binomial_decoder_comparison():
    p = 1e-3
    distances = list(range(3, 32, 2))
    grid = sorted(set(int(round(v)) for v in np.geomspace(1, 1e12, 12 * 24 + 1)))
    rows = compare_decoders(
        lambda d: make_reference_decoders(d, p)[1],
        lambda d: make_reference_decoders(d, p)[0],
        p,
        grid,
        distances,
        0.5,
    )
    finite = [r for r in rows if math.isfinite(r.ratio)]
    assert finite, "no workload is feasible for both decoders"
    max_row = max(finite, key=lambda r: r.ratio)
    assert max_row.ratio > 1
    assert max_row.n_T < 1000  # the linear decoder loses on small workloads
    assert 2.0 <= max_row.ratio <= 4.5
    last = finite[-1]
    assert 0.65 <= last.ratio <= 0.95
    report(
        3,
        f"linear/quadratic cost ratio peaks at {max_row.ratio:.3f} "
        f"(n_T={max_row.n_T}) and ends at {last.ratio:.3f} (n_T={last.n_T})",
    )


def test_criterion_4_bound_sandwich_and_factor_two():
    rng = np.random.default_rng(2024)
    traces_checked = 0
    points_checked = 0
    for _ in range(120):
        shots = int(rng.integers(30, 500))
        runtimes = rng.integers(1, int(rng.integers(5, 60)), size=shots)
        if rng.random() < 0.5:
            failed = rng.random(shots) < rng.uniform(0.0, 0.5)
        else:
            # correlate failures with slow shots
            failed = rng.random(shots) < 0.6 * runtimes / runtimes.max()
        dist = make_trace(list(zip(runtimes.tolist(), failed.tolist())))
        for m in np.union1d(dist.runtimes_ns, [0]).tolist():
            stats = interrupted_failure_exact(dist, m)
            if stats.failure_events < 20:
                continue
            assert stats.lower_bound_rate <= stats.exact_failure_rate
            assert stats.exact_failure_rate <= stats.upper_bound_rate
            assert stats.lower_bound_rate >= stats.upper_bound_rate / 2
            points_checked += 1
        traces_checked += 1
    assert traces_checked >= 100 and points_checked > 200
    report(
        4,
        f"bound sandwich and factor-2 hold at {points_checked} significant "
        f"stopping times across {traces_checked} traces",
    )


def brute_force_optimum(records, d, epsilon, t_sec_ns, min_events):
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


def test_criterion_5_stopping_time_oracle_equivalence():
    rng = np.random.default_rng(99)
    compared = 0
    for _ in range(40):
        shots = int(rng.integers(100, 2000))
        distinct = int(rng.integers(2, 10_000))
        runtimes = rng.integers(1, distinct + 1, size=shots) * int(
            rng.choice([1, 100, 1000])
        )
        failed = rng.random(shots) < rng.uniform(0.02, 0.4)
        records = list(zip(runtimes.tolist(), failed.tolist()))
        expected = brute_force_optimum(records, 5, 0.5, 1000, min_events=20)
        if expected is None:
            continue
        m, result = range_curve(make_trace(records), 5, 0.5, min_events=20).optimum()
        assert (m, result.n_T) == expected
        compared += 1
    assert compared >= 30
    report(5, f"range-optimized stopping time matches brute force on {compared} traces")


def test_criterion_6_required_distance_oracle():
    rng = np.random.default_rng(7)
    p, eps, t_sec = 1e-3, 0.5, 1000
    for _ in range(1000):
        n_T = int(10 ** rng.uniform(0, 9))
        delay = int(10 ** rng.uniform(0, 7)) - 1
        expected = None
        for d in range(3, 100, 2):
            cycles = 7 * d + -(-delay // t_sec)
            proxy = n_T * cycles / d * (0.1 * (100 * p) ** ((d + 1) // 2))
            if proxy <= eps:
                expected = d
                break
        got = required_distance(n_T, p, delay, eps, t_sec_ns=t_sec)
        assert got.distance == expected, (n_T, delay)
    report(6, "required distance matches the odd-d brute-force scan on 1000 settings")


def test_criterion_7_sampler_statistics():
    shots = 10**6
    trace = sample_trace(
        BinomialRuntime(trials=100, step_probability=0.3, unit_ns=1),
        EmpiricalFailure(0.01),
        d=5,
        p=1e-3,
        shots=shots,
        seed=20240501,
    )
    mean_se = math.sqrt(100 * 0.3 * 0.7 / shots)
    assert abs(trace.mean_ns() - 30.0) <= 3 * mean_se
    expected_survival = binomial_survival(100, 0.3, 30)
    survival_se = math.sqrt(expected_survival * (1 - expected_survival) / shots)
    sampled_survival = survival(trace, 30)
    assert abs(sampled_survival - expected_survival) <= 3 * survival_se
    report(
        7,
        f"sampled mean {trace.mean_ns():.4f} and survival {sampled_survival:.5f} "
        f"sit within 3 standard errors of the binomial law",
    )


def test_criterion_8_monotonicity_suite():
    rng = np.random.default_rng(31)

    # mincost non-decreasing in n_T
    for _ in range(8):
        decoder = DecoderModel(
            "random",
            BinomialRuntime(
                trials=int(rng.integers(10, 3000)),
                step_probability=float(rng.uniform(1e-4, 0.3)),
                unit_ns=1000,
            ),
            HeuristicFailure(),
        )
        costs = [
            result.cost
            for result in min_spacetime_costs(
                decoder, 1e-3, [1, 4, 16, 64, 256, 1024, 4096], range(3, 22, 2), 0.5
            )
        ]
        assert all(a <= b for a, b in zip(costs, costs[1:]))

    # exact interrupted failure rate non-increasing in M
    for _ in range(25):
        shots = int(rng.integers(20, 400))
        runtimes = rng.integers(1, 80, size=shots)
        failed = rng.random(shots) < rng.uniform(0, 0.5)
        dist = make_trace(list(zip(runtimes.tolist(), failed.tolist())))
        rates = [
            interrupted_failure_exact(dist, m).exact_failure_rate
            for m in [0, *dist.runtimes_ns.tolist()]
        ]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    # decoder_range non-increasing in rate and in M
    for _ in range(25):
        d = int(rng.choice([3, 9, 17, 29]))
        rates = np.sort(10.0 ** -rng.uniform(0.5, 14, size=8))
        ms = np.sort(rng.integers(0, 10**7, size=8))
        by_rate = [decoder_range(d, int(ms[0]), float(r), 0.5).n_T for r in rates]
        assert all(a >= b for a, b in zip(by_rate, by_rate[1:]))
        by_m = [decoder_range(d, int(m), float(rates[-1]), 0.5).n_T for m in ms]
        assert all(a >= b for a, b in zip(by_m, by_m[1:]))

    report(8, "mincost, exact-rate and range monotonicity hold with zero violations")


def test_criterion_9_synthetic_pipeline_stands_in_for_machine_data(tmp_path, capsys):
    # Full-scale measured results are machine-bound and not reproducible at
    # desk scale; instead the documented trace format feeds the identical
    # pipeline end to end on a synthetic fixture.
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    assert "runtime_ns,failed" in text
    assert "runtime_ns,count_total,count_failed" in text

    trace_path = tmp_path / "synthetic.csv"
    assert cli_main([
        "synth", "--model", "quadratic", "--d", "9", "--p", "1e-3",
        "--shots", "2e5", "--seed", "424242", "--out", str(trace_path),
    ]) == 0
    assert cli_main(["trace-stats", "--trace", str(trace_path)]) == 0
    stats_lines = [
        l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")
    ]
    record = dict(zip(stats_lines[0].split(","), stats_lines[1].split(",")))
    # mean of the quadratic model at d=9 is p*d^3 = 0.729 us
    assert float(record["mean_ns"]) == pytest.approx(729.0, rel=0.05)

    assert cli_main(["range", "--trace", str(trace_path), "--min-events", "20"]) == 0
    range_out = capsys.readouterr().out
    optimum_line = next(l for l in range_out.splitlines() if "optimal_M_ns" in l)
    optimal_m = int(optimum_line.split(":")[1])

    from stopcost import parse_trace

    parsed = parse_trace(trace_path, trace_path.with_suffix(".json"))
    records = list(iter_records(parsed))
    expected = brute_force_optimum(records, 9, 0.5, 1000, min_events=20)
    m, result = range_curve(parsed, 9, 0.5, min_events=20).optimum()
    assert (m, result.n_T) == expected
    assert optimal_m == expected[0]

    assert cli_main(["mincost", "--trace", str(trace_path), "--nT", "1,10"]) == 0
    mincost_rows = [
        l.split(",")
        for l in capsys.readouterr().out.splitlines()
        if l and not l.startswith("#") and not l.startswith("n_T")
    ]
    assert len(mincost_rows) == 2
    assert all(row[2] == "9" for row in mincost_rows)  # trace's own distance
    report(
        9,
        "documented trace format drives synth/stats/range/mincost end to end "
        "with the oracle-checked optimum",
    )
