"""Reference helpers that only the tests use.

Per-record constructors and expansions of a trace, the truncated runtime
distribution, the additive interrupted-failure bound from rates, and a
raising variant of :func:`stopcost.stopping.significant_stopping_times`.
The tests compare the package's vectorised paths against these.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from stopcost.stopping import _insignificant, significant_stopping_times
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


def interrupted_distribution(trace: RuntimeTrace, stopping_time_ns: int) -> RuntimeTrace:
    """Runtime distribution conditioned on finishing within the stopping time.

    Truncates the support to runtimes <= M and renormalizes by P(t <= M);
    because the result is again a counts-backed histogram (over the
    surviving shots), the renormalized masses sum to 1 exactly.
    """
    kept = trace.count_at_or_below(stopping_time_ns)
    if kept == 0:
        raise ValueError(
            f"all shots time out at stopping time {stopping_time_ns} ns; "
            "the conditional distribution is empty"
        )
    idx = int(np.searchsorted(trace.runtimes_ns, stopping_time_ns, side="right"))
    return RuntimeTrace(
        trace.metadata._replace(shots=kept),
        trace.runtimes_ns[:idx],
        trace.counts[:idx],
        trace.failed_counts[:idx],
    )


def interrupted_failure_bound(
    decode_failure_rate: float, timeout_probability: float
) -> tuple[float, float]:
    """(upper, lower) bounds on the interrupted failure rate.

    upper = min(1, p_fail + timeout); lower = max(p_fail, timeout).
    The lower bound is always >= upper / 2.
    """
    for name, value in (
        ("decode failure rate", decode_failure_rate),
        ("timeout probability", timeout_probability),
    ):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    upper = min(1.0, decode_failure_rate + timeout_probability)
    lower = max(decode_failure_rate, timeout_probability)
    return upper, lower


def require_significant_stopping_times(trace: RuntimeTrace, min_events: int = 20) -> list[int]:
    """Like :func:`significant_stopping_times` but raising when empty."""
    times = significant_stopping_times(trace, min_events)
    if not times:
        raise _insignificant(min_events)
    return times
