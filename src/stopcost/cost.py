"""Spacetime cost of a decoder and its minimization over (d, M).

The spacetime cost of running an n_T-deep logical workload is the two
d x d surface-code patches of the T-injection circuit times the SEC depth:
2 * d**2 * sec_depth.  A (distance, stopping time) pair is only feasible
when the decoder's range at that point covers n_T; infeasible points cost
infinity.

Stopping-time candidates depend on how the decoder is described:

* trace-backed decoders use their significant observed stopping times and
  the exact interrupted failure rate ("exact");
* analytic runtime models use the survival quantiles 1 - 10**-k for
  k = 1..16 plus the uninterrupted maximum, with the additive bound
  p_fail + P(t > M) as the rate ("upper_bound").

Feasible costs are exact integers (qubit * SEC cycles); infeasible points
are float('inf').
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .models import (
    BinomialRuntime,
    DecoderModel,
    EmpiricalRuntime,
    InstantaneousRuntime,
    binomial_survival,
)
from .ranges import (
    RANGE_SATURATION_CAP,
    GateSchedule,
    decoder_range,
    range_curve,
    sec_depth,
)

QUANTILE_TAIL_EXPONENTS = range(1, 17)

DecoderFactory = Callable[[int], Union[DecoderModel, None]]


@dataclass(frozen=True)
class CostPoint:
    """Spacetime cost of one (distance, stopping time) choice."""

    distance: int
    stopping_time_ns: int
    n_T: int
    cost: int | float  # exact integer when feasible, inf otherwise
    range_at_point: int

    @property
    def feasible(self) -> bool:
        return not math.isinf(self.cost)


@dataclass(frozen=True)
class StoppingCandidate:
    """A stopping time with its interrupted failure rate and range."""

    stopping_time_ns: int
    failure_rate: float
    range_n_T: int
    rate_method: str  # "exact" or "upper_bound"


@dataclass(frozen=True)
class MinCostResult:
    """Minimum spacetime cost and the (d, M) pair achieving it."""

    cost: int | float
    distance: int | None
    stopping_time_ns: int | None
    rate_method: str | None = None

    @property
    def feasible(self) -> bool:
        return not (isinstance(self.cost, float) and math.isinf(self.cost))


@dataclass(frozen=True)
class CompareRow:
    n_T: int
    cost_a: int | float
    cost_b: int | float
    ratio: float


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
        cost = 2 * d * d * sec_depth(n_T, d, stopping_time_ns, t_sec_ns, schedule)
    return CostPoint(
        distance=d,
        stopping_time_ns=int(stopping_time_ns),
        n_T=n_T,
        cost=cost,
        range_at_point=range_at_point,
    )


def _binomial_quantile_units(runtime: BinomialRuntime) -> list[tuple[int, float]]:
    # (M, P(T > M)) in units, sorted by M: the smallest M with
    # P(T > M) <= 10**-k for each k, plus the uninterrupted maximum.  The
    # computed survival S does not increase on [mode, n], so each M is found
    # by galloping up from the previous one (the mode for k = 1) at offsets
    # 1, 2, 4, ... and bisecting the last step: O(log width) survival
    # calls per quantile, with the units an upward walk would give.
    n, q = runtime.trials, runtime.step_probability
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


def stopping_candidates(
    decoder: DecoderModel,
    d: int,
    p: float,
    epsilon: float,
    t_sec_ns: int = 1000,
    schedule: GateSchedule = GateSchedule(),
    min_events: int = 20,
) -> list[StoppingCandidate]:
    """Stopping-time candidates for one decoder at one code distance.

    Candidates come back sorted by stopping time, each carrying the
    failure rate of the interrupted decoder and the resulting range.
    """
    m, rate, n_T, method = _candidate_columns(
        decoder, d, p, epsilon, t_sec_ns, schedule, min_events, ladders={}
    )
    return [
        StoppingCandidate(*row, method)
        for row in zip(_as_list(m), _as_list(rate), _as_list(n_T))
    ]


def _as_list(column) -> list:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _candidate_columns(
    decoder: DecoderModel,
    d: int,
    p: float,
    epsilon: float,
    t_sec_ns: int,
    schedule: GateSchedule,
    min_events: int,
    ladders: dict[BinomialRuntime, list[tuple[int, float]]],
) -> tuple[Sequence[int], Sequence[float], Sequence[int], str]:
    # (M, rate, range) columns of one decoder at one distance, ascending
    # in M, and the rate method.  A trace gives numpy columns straight from
    # its range curve; an analytic law gives a few Python ints and floats,
    # whose M may pass 2**63.  ``ladders`` memoises the binomial quantile
    # ladder per runtime law.
    runtime = decoder.runtime
    if isinstance(runtime, EmpiricalRuntime):
        curve = range_curve(
            runtime.distribution, d, epsilon, t_sec_ns, min_events, schedule
        )
        return curve.stopping_time_ns, curve.failure_rate, curve.n_T, "exact"
    if isinstance(runtime, BinomialRuntime):
        if runtime not in ladders:
            ladders[runtime] = _binomial_quantile_units(runtime)
        base = decoder.failure.rate(d, p)
        points = [
            (units * runtime.unit_ns, min(1.0, base + survival))
            for units, survival in ladders[runtime]
        ]
    elif isinstance(runtime, InstantaneousRuntime):
        points = [(0, min(1.0, decoder.failure.rate(d, p)))]
    else:
        raise TypeError(f"unsupported runtime model {type(runtime).__name__}")
    m = [point[0] for point in points]
    rate = [point[1] for point in points]
    n_T = [
        decoder_range(d, mi, ri, epsilon, t_sec_ns=t_sec_ns, schedule=schedule).n_T
        for mi, ri in points
    ]
    return m, rate, n_T, "upper_bound"


def _candidate_table(
    decoder: DecoderModel | DecoderFactory,
    p: float,
    d_candidates: Sequence[int],
    epsilon: float,
    t_sec_ns: int,
    schedule: GateSchedule,
    min_events: int,
) -> list[tuple[int, Sequence[int], np.ndarray, str]]:
    """Per distance, ascending: ``(d, M column, reach, rate method)``.

    ``reach[i]`` is the largest range among the first ``i + 1`` stopping
    times, so the cheapest stopping time that covers n_T is the first one
    whose reach does (see :func:`min_spacetime_costs`).
    """
    factory: DecoderFactory
    if isinstance(decoder, DecoderModel):
        factory = lambda _d: decoder  # noqa: E731 - constant family
    else:
        factory = decoder
    # One quantile ladder per runtime law, shared by every distance of
    # this table (a fixed decoder has the same law at every distance).
    ladders: dict[BinomialRuntime, list[tuple[int, float]]] = {}
    table = []
    for d in sorted(set(d_candidates)):
        model = factory(d)
        if model is None:
            continue
        m, _, n_T, method = _candidate_columns(
            model, d, p, epsilon, t_sec_ns, schedule, min_events, ladders
        )
        reach = np.maximum.accumulate(np.asarray(n_T, dtype=np.int64))
        table.append((d, m, reach, method))
    return table


def min_spacetime_costs(
    decoder: DecoderModel | DecoderFactory,
    p: float,
    n_T_values: Sequence[int],
    d_candidates: Sequence[int],
    epsilon: float,
    t_sec_ns: int = 1000,
    schedule: GateSchedule = GateSchedule(),
    min_events: int = 20,
) -> list[MinCostResult]:
    """:func:`min_spacetime_cost` for each workload in ``n_T_values``, in
    order, from one candidate table built once."""
    n_T_values = list(n_T_values)
    if not d_candidates:
        raise ValueError("d_candidates must be nonempty")
    for n_T in n_T_values:
        if n_T < 1:
            raise ValueError(f"n_T must be >= 1, got {n_T}")
    table = _candidate_table(
        decoder, p, d_candidates, epsilon, t_sec_ns, schedule, min_events
    )
    # Within one distance the cost per gate, 2 d**2 (cycles_per_gate(d) +
    # ceil(M / t_sec)), does not decrease in M, so the cheapest stopping
    # time covering n_T is the first whose reach does, and a later one of
    # equal cost would lose the smaller-M tie anyway.  A range never
    # passes RANGE_SATURATION_CAP, so larger n_T are clamped to stay int64.
    keys = np.array(
        [min(n_T, RANGE_SATURATION_CAP + 1) for n_T in n_T_values], dtype=np.int64
    )
    best = [MinCostResult(cost=math.inf, distance=None, stopping_time_ns=None)] * len(keys)
    for d, m, reach, method in table:
        for j, i in enumerate(np.searchsorted(reach, keys).tolist()):
            if i == len(reach):
                continue
            point = spacetime_cost(
                n_T_values[j], d, int(m[i]), int(reach[i]), t_sec_ns, schedule
            )
            # Distances ascend, so strict improvement keeps the smaller d.
            if point.cost < best[j].cost:
                best[j] = MinCostResult(point.cost, d, point.stopping_time_ns, method)
    return best


def min_spacetime_cost(
    decoder: DecoderModel | DecoderFactory,
    p: float,
    n_T: int,
    d_candidates: Sequence[int],
    epsilon: float,
    t_sec_ns: int = 1000,
    schedule: GateSchedule = GateSchedule(),
    min_events: int = 20,
) -> MinCostResult:
    """Minimum spacetime cost over all candidate (distance, stopping time)
    pairs, ties broken toward smaller d then smaller M.

    ``decoder`` is either a fixed model (used at every distance) or a
    factory mapping a distance to a model, returning None to skip
    distances it cannot describe (e.g. a trace measured at a single d).
    """
    return min_spacetime_costs(
        decoder, p, [n_T], d_candidates, epsilon, t_sec_ns, schedule, min_events
    )[0]


def compare_decoders(
    decoder_a: DecoderModel | DecoderFactory,
    decoder_b: DecoderModel | DecoderFactory,
    p: float,
    n_T_grid: Iterable[int],
    d_candidates: Sequence[int],
    epsilon: float,
    t_sec_ns: int = 1000,
    schedule: GateSchedule = GateSchedule(),
    min_events: int = 20,
) -> list[CompareRow]:
    """Minimum spacetime costs of two decoders across a workload grid.

    The ratio column is cost_a / cost_b, or infinity whenever either side
    is infeasible at that workload.
    """
    n_T_values = sorted(set(int(n) for n in n_T_grid))
    if not n_T_values:
        raise ValueError("n_T grid must be nonempty")
    results = [
        min_spacetime_costs(
            decoder, p, n_T_values, d_candidates, epsilon, t_sec_ns, schedule, min_events
        )
        for decoder in (decoder_a, decoder_b)
    ]
    rows = []
    for n_T, a, b in zip(n_T_values, *results):
        ratio = a.cost / b.cost if a.feasible and b.feasible else math.inf
        rows.append(CompareRow(n_T=n_T, cost_a=a.cost, cost_b=b.cost, ratio=ratio))
    return rows
