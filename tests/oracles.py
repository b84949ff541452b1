"""Reference helpers that only the tests use.

Per-record constructors and expansions of a trace, the one-shot draws of a
sampling chunk, per-point queries of a trace and of the runtime laws, the
scalar interrupted failure accounting, the per-point spacetime cost, and
the binomial quantile ladder found by galloping and bisection.  The tests compare the package's fast paths
against these.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from stopcost.cost import QUANTILE_TAIL_EXPONENTS, _gate_cost
from stopcost.models import BinomialRuntime, EmpiricalRuntime, InstantaneousRuntime
from stopcost.models import binomial_survival
from stopcost.ranges import GateSchedule
from stopcost.trace import RuntimeTrace, TraceMetadata, aggregate_shots


def trace_from_records(
    metadata: TraceMetadata, records: Iterable[tuple[int, bool]]
) -> RuntimeTrace:
    """Aggregate an iterable of (runtime_ns, failed) pairs."""
    pairs = np.array([(int(r), bool(f)) for r, f in records], np.int64).reshape(-1, 2)
    return RuntimeTrace(metadata, *aggregate_shots(pairs[:, 0], pairs[pairs[:, 1] == 1, 0]))


def chunk_draws(runtime, rate: float, n: int, seed: int, chunk_index: int):
    """(runtimes, failed flags) of one sampling chunk, each drawn in one go
    from the chunk's substream with plain numpy: the runtimes, then
    ``rng.random(n) < rate``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    if isinstance(runtime, BinomialRuntime):
        runtimes = rng.binomial(runtime.trials, runtime.step_probability, size=n) * runtime.unit_ns
    elif isinstance(runtime, EmpiricalRuntime):
        counts = runtime.trace.counts
        runtimes = rng.choice(runtime.trace.runtimes_ns, n, p=counts / counts.sum())
    else:
        assert isinstance(runtime, InstantaneousRuntime)
        runtimes = np.zeros(n, dtype=np.int64)
    return runtimes, rng.random(n) < rate


def iter_records(trace: RuntimeTrace) -> Iterator[tuple[int, bool]]:
    """Expand to per-shot records, sorted by runtime, successes first."""
    for runtime, total, failed in zip(trace.runtimes_ns, trace.counts, trace.failed_counts):
        for _ in range(int(total - failed)):
            yield int(runtime), False
        for _ in range(int(failed)):
            yield int(runtime), True


def points(trace: RuntimeTrace) -> list[tuple[int, int, int]]:
    """(runtime_ns, cumulative total, cumulative failed) triples."""
    return [
        (int(r), int(t), int(f))
        for r, t, f in zip(trace.runtimes_ns, trace.cum_total, trace.cum_failed)
    ]


def bisect_ladder(n: int, q: float) -> list[tuple[int, float]]:
    """The quantile ladder of Binomial(n, q) in units, as (M, P(T > M)).

    For each k the smallest M with P(T > M) <= 10**-k, found by galloping up
    from the previous one (the mode for k = 1) at offsets 1, 2, 4, ... and
    bisecting the last step, plus the uninterrupted maximum n.  The
    survival does not increase past the mode, so this gives the units of a
    unit-by-unit walk with O(log width) survival calls per quantile.
    """
    m = min(n, int((n + 1) * q))
    s = binomial_survival(n, q, m)
    ladder = {n: 0.0}
    for k in QUANTILE_TAIL_EXPONENTS:
        target = 10.0**-k
        if s > target:
            lo, offset = m, 1
            while True:  # ends by M = n, where the survival is 0
                hi = min(n, m + offset)
                s_hi = binomial_survival(n, q, hi)
                if s_hi <= target:
                    break
                lo, offset = hi, 2 * offset
            while hi - lo > 1:  # S(lo) > target >= S(hi)
                mid = (lo + hi) // 2
                s_mid = binomial_survival(n, q, mid)
                if s_mid <= target:
                    hi, s_hi = mid, s_mid
                else:
                    lo = mid
            m, s = hi, s_hi
        ladder[m] = s
    return sorted(ladder.items())


def count_at_or_below(trace: RuntimeTrace, runtime_ns: int) -> int:
    """Number of shots that finished within ``runtime_ns``."""
    idx = int(np.searchsorted(trace.runtimes_ns, runtime_ns, side="right"))
    return 0 if idx == 0 else int(trace.cum_total[idx - 1])


def failed_at_or_below(trace: RuntimeTrace, runtime_ns: int) -> int:
    """Number of decode failures among shots finishing within ``runtime_ns``."""
    idx = int(np.searchsorted(trace.runtimes_ns, runtime_ns, side="right"))
    return 0 if idx == 0 else int(trace.cum_failed[idx - 1])


def survival(model, stopping_time_ns: int) -> float:
    """P(t > M) of a trace, a binomial runtime law or the instantaneous one."""
    if isinstance(model, RuntimeTrace):
        if stopping_time_ns < 0:
            raise ValueError("stopping time must be non-negative")
        return (model.shots - count_at_or_below(model, stopping_time_ns)) / model.shots
    if isinstance(model, InstantaneousRuntime):
        return 1.0 if stopping_time_ns < 0 else 0.0
    units = stopping_time_ns // model.unit_ns  # completed units within budget
    return binomial_survival(model.trials, model.step_probability, int(units))


def mean_ns(runtime: BinomialRuntime | InstantaneousRuntime) -> float:
    if isinstance(runtime, InstantaneousRuntime):
        return 0.0
    return runtime.trials * runtime.step_probability * runtime.unit_ns


def max_runtime_ns(runtime: BinomialRuntime | InstantaneousRuntime) -> int:
    if isinstance(runtime, InstantaneousRuntime):
        return 0
    return runtime.trials * runtime.unit_ns


class InterruptedStats(NamedTuple):
    """Failure accounting for a decoder interrupted at a stopping time."""

    stopping_time_ns: int
    timeout_probability: float
    decode_failure_rate: float
    exact_failure_rate: float | None
    upper_bound_rate: float
    lower_bound_rate: float
    failure_events: int


def interrupted_failure_exact(trace: RuntimeTrace, stopping_time_ns: int) -> InterruptedStats:
    """Exact interrupted failure rate from joint runtime/failure counts.

    Counts every shot that either times out (t > M) or completes with a
    decode failure.  This never double-counts a shot that would both time
    out and decode wrongly, unlike the additive upper bound.
    """
    shots = trace.shots
    timeouts = shots - count_at_or_below(trace, stopping_time_ns)
    completed_failures = failed_at_or_below(trace, stopping_time_ns)
    events = timeouts + completed_failures
    total_failures = int(trace.cum_failed[-1])
    # Each rate is a single division of integer counts: rounded division is
    # monotone, so lower <= exact <= upper survives into floats exactly.
    return InterruptedStats(
        stopping_time_ns=int(stopping_time_ns),
        timeout_probability=timeouts / shots,
        decode_failure_rate=total_failures / shots,
        exact_failure_rate=events / shots,
        upper_bound_rate=min(1.0, (total_failures + timeouts) / shots),
        lower_bound_rate=max(total_failures, timeouts) / shots,
        failure_events=events,
    )


class CostPoint(NamedTuple):
    """Spacetime cost of one (distance, stopping time) choice."""

    distance: int
    stopping_time_ns: int
    n_T: int
    cost: int | float  # exact integer when feasible, inf otherwise
    range_at_point: int

    @property
    def feasible(self) -> bool:
        return not math.isinf(self.cost)


def spacetime_cost(
    n_T: int,
    d: int,
    stopping_time_ns: int,
    range_at_point: int,
    t_sec_ns: int = 1000,
    schedule: GateSchedule = GateSchedule(),
) -> CostPoint:
    """2 d**2 patches times SEC depth, or infinity when out of range."""
    if n_T < 1:
        raise ValueError(f"n_T must be >= 1, got {n_T}")
    if range_at_point < n_T:
        cost: int | float = math.inf
    else:
        cost = n_T * _gate_cost(d, stopping_time_ns, t_sec_ns, schedule)
    return CostPoint(
        distance=d,
        stopping_time_ns=int(stopping_time_ns),
        n_T=n_T,
        cost=cost,
        range_at_point=range_at_point,
    )
