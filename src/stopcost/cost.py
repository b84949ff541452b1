"""Spacetime cost of a decoder and its minimization over (d, M).

The spacetime cost of running an n_T-deep logical workload is the two
d x d surface-code patches of the T-injection circuit times the SEC depth:
2 * d**2 * sec_depth.  A (distance, stopping time) pair is only feasible
when the decoder's range at that point covers n_T; infeasible points cost
infinity.

Stopping-time candidates depend on how the decoder is described:

* a measured runtime uses its trace's significant stopping times and the
  exact interrupted failure rate ("exact"), at its trace's distance only;
* analytic runtime models use the survival quantiles 1 - 10**-k for
  k = 1..16 plus the uninterrupted maximum, with the additive bound
  p_fail + P(t > M) as the rate ("upper_bound"), at every distance.

Feasible costs are exact integers (qubit * SEC cycles); infeasible points
are float('inf').
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .models import (
    BinomialRuntime,
    DecoderFactory,
    DecoderModel,
    InstantaneousRuntime,
    _log_pmf,
    _model_at,
    binomial_survival,
    python_values,
)
from .ranges import GateSchedule, decoder_range, sec_depth
from .values import _validate_probability, at_least

QUANTILE_TAIL_EXPONENTS = range(1, 17)
# Largest spread sqrt(N*Q*(1-Q)), in units, of a binomial runtime law that
# gets a quantile ladder: its sweep and survival sums take O(spread) steps.
LADDER_SPREAD_LIMIT = 10**5


class StoppingCandidate(NamedTuple):
    """A stopping time with its interrupted failure rate and range."""

    stopping_time_ns: int
    failure_rate: float
    range_n_T: int
    rate_method: str  # "exact" or "upper_bound"


class MinCostResult(NamedTuple):
    """Minimum spacetime cost and the (d, M) pair achieving it."""

    cost: int | float
    distance: int | None
    stopping_time_ns: int | None
    rate_method: str | None = None

    @property
    def feasible(self) -> bool:
        return not (isinstance(self.cost, float) and math.isinf(self.cost))


class Frontier(NamedTuple):
    """The least cost per gate, a step function of n_T: the ``(range, cost
    per gate, d, M, rate method)`` rows worth pricing, by range descending,
    and the running minimum of their ``(cost per gate, d, M, rate method)``."""

    rows: list[tuple[int, int, int, int, str]]
    best: list[tuple[int, int, int, str]]

    def at(self, n_T: int) -> MinCostResult:
        # The rows of range >= n_T, a prefix, cover n_T, and n_T * g is least
        # where the cost per gate g is: the answer is the prefix minimum of
        # (g, d, M), so ties go to the smaller d, then the smaller M.
        k = bisect_right(self.rows, -n_T, key=lambda row: -row[0])
        if k == 0:
            return MinCostResult(math.inf, None, None)
        g, d, m, method = self.best[k - 1]
        return MinCostResult(n_T * g, d, m, method)


class CompareRow(NamedTuple):
    n_T: int
    cost_a: int | float
    cost_b: int | float
    ratio: float


def _gate_cost(d: int, stopping_time_ns: int, t_sec_ns: int, schedule: GateSchedule) -> int:
    # The one cost formula, per T gate: 2 d**2 (cycles_per_gate(d) + ceil(M / t_sec)).
    return 2 * d * d * sec_depth(1, d, stopping_time_ns, t_sec_ns, schedule)


def _binomial_quantile_units(runtime: BinomialRuntime) -> list[tuple[int, float]]:
    # (M, P(T > M)) in units, sorted by M: the smallest M >= mode with
    # P(T > M) <= 10**-k for each k, plus the uninterrupted maximum.  One
    # sweep of the pmf past the mode locates every quantile, and exact
    # binomial_survival calls confirm each, so the units and survivals are
    # those of an upward walk over the survival, which does not increase
    # past the mode.
    n, q = runtime.trials, runtime.step_probability
    if n > LADDER_SPREAD_LIMIT**2 / (q * (1.0 - q)):
        raise ValueError(
            f"binomial runtime N={n}, Q={q!r} is too wide for the quantile ladder: "
            f"its spread sqrt(N*Q*(1-Q)) is above {LADDER_SPREAD_LIMIT:g}"
        )
    mode = min(n, int((n + 1) * q))
    # Up from the mode with _upper_tail's recurrence, to the last t whose
    # term is above 1e-30 (or n).  Dropping the terms past it only lowers
    # the approximate survival S~, so a candidate can only come out too
    # low, which the walk up below corrects.
    top, t, odds = mode, mode + 1, q / (1.0 - q)
    term = math.exp(_log_pmf(n, q, t)) if t <= n else 0.0
    while term > 1e-30:
        top = t
        if t == n:
            break
        term *= (n - t) * odds / (t + 1)
        t += 1
    # Back down from top, smallest terms first: after adding pmf(t), total
    # is S~(t - 1).  For k = 16 down to 1, record the candidate (first M
    # with S~(M) <= 10**-k) and S~ just below it; the mode bounds them all.
    located: list[tuple[int, float]] = []
    targets = iter([10.0**-k for k in reversed(QUANTILE_TAIL_EXPONENTS)])
    target, total = next(targets), 0.0
    term = math.exp(_log_pmf(n, q, top))
    for t in range(top, mode, -1):
        total += term
        if total > target:
            while total > target:
                located.append((t, total))
                target = next(targets, math.inf)
            if len(located) == len(QUANTILE_TAIL_EXPONENTS):
                break
        term *= t / ((n - t + 1) * odds)
    located += [(mode, math.inf)] * (len(QUANTILE_TAIL_EXPONENTS) - len(located))
    # Confirm each candidate c with the exact S = binomial_survival: walk
    # down while S(c - 1) <= 10**-k, never below the previous quantile, then
    # up while S(c) > 10**-k.  Each recurrence step and each addition is off
    # by ~1e-16 relative, so over the ~1e6 steps of a law within the spread
    # limit S~ stays within ~1e-9 relative of the true survival (S within
    # ~1e-10), and dropping terms only lowers S~.  So where S~(c - 1) is
    # above the target by more than 1e-6 relative, a band far wider than
    # either error, S(c - 1) is above it too: that probe is skipped.
    exact: dict[int, float] = {}

    def survival(m: int) -> float:
        if m not in exact:
            exact[m] = binomial_survival(n, q, m)
        return exact[m]

    ladder, lo = {n: 0.0}, mode
    for k, (c, below) in zip(QUANTILE_TAIL_EXPONENTS, reversed(located)):
        target = 10.0**-k
        if c <= lo:
            c = lo
        elif below <= target * (1.0 + 1e-6):
            while c > lo and survival(c - 1) <= target:
                c -= 1
        while survival(c) > target:  # ends by M = n, where the survival is 0
            c += 1
        ladder[c] = exact[c]
        lo = c
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
    blocks = _candidate_blocks(decoder, d, p, epsilon, t_sec_ns, schedule, min_events, ladders={})
    method = decoder.rate_method
    return [
        StoppingCandidate(*row, method)
        for m, rate, n_T in blocks
        for row in zip(python_values(m), python_values(rate), python_values(n_T))
    ]


def _candidate_blocks(
    decoder: DecoderModel,
    d: int,
    p: float,
    epsilon: float,
    t_sec_ns: int,
    schedule: GateSchedule,
    min_events: int,
    ladders: dict[BinomialRuntime, list[tuple[int, float]]],
) -> Iterator[tuple[Sequence[int], Sequence[float], Sequence[int]]]:
    # (M, rate, range) columns of one decoder at one distance, ascending
    # in M, in consecutive blocks.  A measured runtime ("exact") gives numpy
    # columns straight from its trace's range curve blocks; an analytic law
    # gives one block of a few Python ints and floats, whose M may pass
    # 2**63.  ``ladders`` memoises the binomial quantile ladder per law.
    runtime = decoder.runtime
    if decoder.rate_method == "exact":
        from .stopping import range_blocks

        for curve in range_blocks(runtime.trace, d, epsilon, t_sec_ns, min_events, schedule):
            yield curve.stopping_time_ns, curve.failure_rate, curve.n_T
        return
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
    yield m, rate, n_T


def _candidate_table(
    decoder: DecoderModel | DecoderFactory,
    p: float,
    d_candidates: Sequence[int],
    epsilon: float,
    t_sec_ns: int,
    schedule: GateSchedule,
    min_events: int,
) -> Frontier:
    """The frontier of ``decoder``.  Per distance it keeps the rows where the
    running maximum range over ascending M rises; any other row is dominated
    by an earlier one, which covers as much at no more cost per gate.  A
    model is priced at its ``measured_distance`` only, if it has one."""
    if isinstance(decoder, DecoderModel) and decoder.measured_distance is not None:
        d_candidates = [decoder.measured_distance]
    # One quantile ladder per runtime law, shared by every distance of
    # this table (a fixed decoder has the same law at every distance).
    ladders: dict[BinomialRuntime, list[tuple[int, float]]] = {}
    rows = []
    for d in sorted(set(d_candidates)):
        model = _model_at(decoder, d)
        if model.measured_distance not in (None, d):
            continue
        method = model.rate_method
        reach = 0  # no workload n_T >= 1 is covered by a range of 0
        for m, _, n_T in _candidate_blocks(
            model, d, p, epsilon, t_sec_ns, schedule, min_events, ladders
        ):
            if method == "exact":  # numpy columns: a rise is one of the block's own
                import numpy as np

                keep = np.flatnonzero(np.diff(np.maximum.accumulate(n_T), prepend=-1))
                m, n_T = m[keep].tolist(), n_T[keep].tolist()
            for mi, ri in zip(m, n_T):
                if ri > reach:
                    reach = ri
                    rows.append((ri, _gate_cost(d, mi, t_sec_ns, schedule), d, mi, method))
    rows.sort(key=lambda row: row[0], reverse=True)
    return Frontier(rows, list(accumulate((row[1:] for row in rows), min)))


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
    """Minimum spacetime cost of each workload in ``n_T_values``, in order,
    over all candidate (distance, stopping time) pairs, ties broken toward
    smaller d then smaller M; one frontier answers them all.

    ``decoder`` is a fixed model or a factory mapping a distance to one.
    A measured model is priced at its ``measured_distance`` only, a bare
    one whatever ``d_candidates`` says; an analytic one at every candidate.
    """
    n_T_values = list(n_T_values)
    if not d_candidates:
        raise ValueError("d_candidates must be nonempty")
    for n_T in n_T_values:
        at_least(n_T, 1, "n_T")
    _validate_probability(p, "p")
    frontier = _candidate_table(
        decoder, p, d_candidates, epsilon, t_sec_ns, schedule, min_events
    )
    return [frontier.at(n_T) for n_T in n_T_values]


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
