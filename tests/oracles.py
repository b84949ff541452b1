"""Reference helpers that only the tests use.

Per-record constructors and expansions of a trace, and the binomial
quantile ladder found by galloping and bisection.  The tests compare the
package's fast paths against these.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from stopcost.cost import QUANTILE_TAIL_EXPONENTS
from stopcost.models import binomial_survival
from stopcost.trace import RuntimeTrace, TraceMetadata, aggregate_shots


def trace_from_records(
    metadata: TraceMetadata, records: Iterable[tuple[int, bool]]
) -> RuntimeTrace:
    """Aggregate an iterable of (runtime_ns, failed) pairs."""
    pairs = np.array([(int(r), bool(f)) for r, f in records], np.int64).reshape(-1, 2)
    return RuntimeTrace(metadata, *aggregate_shots(pairs[:, 0], pairs[:, 1]))


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
