"""Interrupted-decoder accounting.

A decoder interrupted at stopping time M fails in two ways: it returns a
wrong correction (decode failure) or it does not terminate within M
(timeout failure).  This module computes the exact interrupted failure
rate from joint (runtime, failed) counts, and the cheap bound

    max(p_fail, P(t > M)) <= p_fail^(M) <= p_fail + P(t > M)

whose lower bound is always at least half the upper bound, making the
upper bound a factor-2 approximation.  The range curve prices each of
those stopping times as :func:`~stopcost.ranges.decoder_range` does.

Shots finishing exactly at M count as completed: the truncation condition
is t <= M throughout.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np

from . import ranges
from .errors import InfeasibleError
from .ranges import GateSchedule, RangeResult, decoder_range
from .trace import RuntimeTrace
from .values import _validate_distance, _validate_probability, at_least


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


class RangeCurve(NamedTuple):
    """Decoder range at each significant stopping time of a trace, column-wise.

    Row ``i`` holds what :func:`~stopcost.ranges.decoder_range` returns for
    ``stopping_time_ns[i]`` at its exact interrupted failure rate, with the
    curve's distance, epsilon, ``t_sec_ns`` and schedule.  The
    rows are the stopping times with at least ``min_events`` failure
    events, ascending; there may be none.
    """

    distance: int
    epsilon: float
    t_sec_ns: int
    schedule: GateSchedule
    min_events: int
    stopping_time_ns: np.ndarray
    delay_cycles: np.ndarray
    failure_rate: np.ndarray
    n_T: np.ndarray
    saturated: np.ndarray

    def optimum(self) -> tuple[int, RangeResult]:
        """The range-optimized stopping time and what
        :func:`~stopcost.ranges.decoder_range` returns there.

        The first maximum wins, so ties break toward the smaller stopping
        time.  Raises :class:`~stopcost.errors.InfeasibleError` when the
        curve has no rows.
        """
        if self.n_T.size == 0:
            raise _insignificant(self.min_events)
        i = int(np.argmax(self.n_T))
        m = int(self.stopping_time_ns[i])
        rate = float(self.failure_rate[i])
        return m, decoder_range(self.distance, m, rate, self.epsilon, self.t_sec_ns, self.schedule)


def stopping_curve(trace: RuntimeTrace, *, rows: slice = slice(None)) -> StoppingCurve:
    """Interrupted failure statistics at every observed runtime in one pass.

    The stopping times are the distinct observed runtimes, whose counts are
    the trace's cumulative ones.  ``rows`` picks the stopping times the
    curve covers, e.g. ``slice(lo, hi)`` for rows ``lo:hi`` of the whole
    curve, with the same values.  Failure events are
    ``(shots - completed) + completed failures`` and each rate is a single
    division of integer counts, so while counts stay below 2**53 every float
    is its counts' correctly rounded ratio and ``lower <= exact <= upper``
    holds exactly.  Any other M reads as the last runtime at or below it
    (``t <= M`` completes); below the first runtime every shot times out.
    """
    shots = trace.shots
    m, timeouts, events = _failure_counts(trace, rows)
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


def range_curve(
    trace: RuntimeTrace,
    d: int,
    epsilon: float,
    t_sec_ns: int = 1000,
    min_events: int = 20,
    schedule: GateSchedule = GateSchedule(),
    *,
    rows: slice = slice(None),
) -> RangeCurve:
    """Decoder range at every significant stopping time of a trace, or at
    those among the trace rows ``rows`` (e.g. ``slice(lo, hi)``).

    Vectorised :func:`~stopcost.ranges.decoder_range` over the significant
    observed runtimes, at the exact rates :func:`stopping_curve` gives
    them, with the same operations in the same order:
    ``(epsilon * d) / (rate * cycles)``, then floor, with results at or
    above ``ranges.RANGE_SATURATION_CAP`` (or at a zero rate) clamped and
    flagged.  Every value equals the scalar path's exactly.  Failure events
    do not increase with the stopping time, so the significant rows are a
    prefix of the trace, and rows ``lo:hi`` of the whole curve are
    ``range_curve(..., rows=slice(lo, hi))`` for ``hi`` up to its length.
    """
    _validate_distance(d)
    _validate_probability(epsilon, "epsilon")
    at_least(t_sec_ns, 1, "t_sec_ns")
    m, timeouts, events = _failure_counts(trace, rows)
    keep = _significant_rows(events, min_events)
    m, rate = m[keep], events[keep] / trace.shots
    del timeouts, events, keep  # free the read columns before the rest are built
    delay = -(-m // t_sec_ns)
    with np.errstate(divide="ignore"):
        raw = np.divide(epsilon * d, rate * (schedule.cycles_per_gate(d) + delay))
    cap = ranges.RANGE_SATURATION_CAP
    saturated = (rate == 0.0) | (raw >= cap)
    raw[saturated] = 0.0
    n_T = np.floor(raw, out=raw).astype(np.int64)
    n_T[saturated] = cap
    return RangeCurve(
        distance=d,
        epsilon=epsilon,
        t_sec_ns=t_sec_ns,
        schedule=schedule,
        min_events=min_events,
        stopping_time_ns=m,
        delay_cycles=delay,
        failure_rate=rate,
        n_T=n_T,
        saturated=saturated,
    )


def range_blocks(trace: RuntimeTrace, *args, **kwargs) -> Iterator[RangeCurve]:
    """:func:`range_curve` of ``trace`` in consecutive blocks of
    ``ranges.ROWS_PER_BLOCK`` rows, ending with the first block that is not
    full (it may have no rows): the significant rows are a prefix of the
    trace, so every later block would be empty."""
    step = ranges.ROWS_PER_BLOCK
    for lo in range(0, trace.runtimes_ns.size + 1, step):
        curve = range_curve(trace, *args, rows=slice(lo, lo + step), **kwargs)
        yield curve
        if curve.n_T.size < step:
            return


def _failure_counts(
    trace: RuntimeTrace, rows: slice
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The observed runtimes ``rows``, and the timeouts and failure events at each.

    The one definition of a failure event: a shot that runs past the
    stopping time, or completes within it with a decode failure.  At an
    observed runtime the completed counts are the trace's cumulative
    counts as they are.  Each observed runtime adds ``count - failed >= 0``
    completions without failure, so failure events do not increase along
    the rows.
    """
    timeouts = trace.shots - trace.cum_total[rows]
    return trace.runtimes_ns[rows], timeouts, timeouts + trace.cum_failed[rows]


def _significant_rows(failure_events: np.ndarray, min_events: int) -> np.ndarray:
    # The one definition of significance: a mask of the rows with at least
    # min_events failure events.
    return failure_events >= at_least(min_events, 1, "min_events")


def _insignificant(min_events: int) -> InfeasibleError:
    return InfeasibleError(
        f"no stopping time accumulates {min_events} failure events; "
        "collect more shots or lower --min-events"
    )
