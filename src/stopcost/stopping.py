"""Interrupted-decoder accounting.

A decoder interrupted at stopping time M fails in two ways: it returns a
wrong correction (decode failure) or it does not terminate within M
(timeout failure).  This module computes the exact interrupted failure
rate from joint (runtime, failed) counts, and the cheap bound

    max(p_fail, P(t > M)) <= p_fail^(M) <= p_fail + P(t > M)

whose lower bound is always at least half the upper bound, making the
upper bound a factor-2 approximation.

Shots finishing exactly at M count as completed: the truncation condition
is t <= M throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InfeasibleError
from .trace import RuntimeTrace


class StoppingCurve(NamedTuple):
    """Interrupted failure statistics at many stopping times, column-wise.

    Row ``i`` is the decoder interrupted at ``stopping_time_ns[i]``: its
    timeouts, its failure events and the rates each divides into.
    """

    stopping_time_ns: np.ndarray
    timeouts: np.ndarray
    failure_events: np.ndarray
    timeout_probability: np.ndarray
    exact_failure_rate: np.ndarray
    upper_bound_rate: np.ndarray
    lower_bound_rate: np.ndarray


def stopping_curve(
    trace: RuntimeTrace, stopping_times_ns=None, rows: slice = slice(None)
) -> StoppingCurve:
    """Interrupted failure statistics at every stopping time in one pass.

    The stopping times default to the distinct observed runtimes, whose
    counts are the trace's cumulative ones; any other values are read
    through one ``searchsorted`` (``t <= M`` completes).  ``rows`` picks
    the stopping times the curve covers, e.g. ``slice(lo, hi)`` for rows
    ``lo:hi`` of the whole curve, with the same values.  Failure events are
    ``(shots - completed) + completed failures`` and each rate is a single
    division of integer counts, so while counts stay below 2**53 every float
    is its counts' correctly rounded ratio and ``lower <= exact <= upper``
    holds exactly.  ``stopping_curve(trace, [M])`` is the one-point query.
    """
    shots = trace.shots
    m, timeouts, events = _failure_counts(trace, stopping_times_ns, rows)
    total_failures = int(trace.cum_failed[-1])
    return StoppingCurve(
        stopping_time_ns=m,
        timeouts=timeouts,
        failure_events=events,
        timeout_probability=timeouts / shots,
        exact_failure_rate=events / shots,
        upper_bound_rate=np.minimum(1.0, (total_failures + timeouts) / shots),
        lower_bound_rate=np.maximum(total_failures, timeouts) / shots,
    )


def _failure_counts(
    trace: RuntimeTrace, stopping_times_ns=None, rows: slice = slice(None)
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stopping times ``rows``, and the timeouts and failure events at each.

    The one definition of a failure event: a shot that runs past the
    stopping time, or completes within it with a decode failure.  At the
    default stopping times, the observed runtimes, the completed counts
    are the trace's cumulative counts as they are.  Each observed runtime
    adds ``count - failed >= 0`` completions without failure, so failure
    events do not increase along those rows.
    """
    if stopping_times_ns is None:
        m, completed, completed_failures = (
            trace.runtimes_ns[rows], trace.cum_total[rows], trace.cum_failed[rows]
        )
    else:
        m = np.asarray(stopping_times_ns, dtype=np.int64)[rows]
        idx = np.searchsorted(trace.runtimes_ns, m, side="right")
        completed = np.concatenate(([0], trace.cum_total))[idx]
        completed_failures = np.concatenate(([0], trace.cum_failed))[idx]
    timeouts = trace.shots - completed
    return m, timeouts, timeouts + completed_failures


def _significant_rows(failure_events: np.ndarray, min_events: int) -> np.ndarray:
    # The one definition of significance: a mask of the rows with at least
    # min_events failure events.
    if min_events < 1:
        raise ValueError(f"min_events must be >= 1, got {min_events}")
    return failure_events >= min_events


def _insignificant(min_events: int) -> InfeasibleError:
    return InfeasibleError(
        f"no stopping time accumulates {min_events} failure events; "
        "collect more shots or lower --min-events"
    )
