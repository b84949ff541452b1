"""Logical-depth arithmetic: SEC depth and decoder range.

A logical T gate on a distance-d surface code patch costs a fixed gate
schedule (7d SEC cycles by default: H, S, the conditional S and the
logical measurement) plus the decoding delay, rounded up to whole cycles.
The range of a decoder is the largest T-depth n_T whose circuit-level
failure proxy stays below the error budget epsilon; interrupting the
decoder trades timeout failures against delay, and the range-optimized
stopping time is the interruption point maximizing that T-depth.

This module is the analytic arithmetic and loads no numpy; a trace's range
curve, the same arithmetic over its significant stopping times, is
:func:`stopcost.stopping.range_curve`; :mod:`stopcost.budget` has the rest.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .values import _validate_distance, _validate_probability, at_least, checked

RANGE_SATURATION_CAP = 10**18
# Largest d_max that budget.required_distance searches: it tries every odd
# distance in turn, ~2.6 us each, so a search to the limit takes ~0.13 s.
D_MAX_LIMIT = 100_001
# Rows per block of a trace's curves: `stopping.range_blocks` computes, and
# the CLI renders, one block of this many rows at a time, so the memory a
# curve takes does not grow with the trace's length.  Rendering a block
# holds 180-260 bytes per row when the numpy kernel writes it, and 240-550
# as one % format (tracemalloc peaks on a 1e5-row trace's curves, CSV and
# JSON): at 2048 rows, less than parsing a 1e5-row trace takes.
ROWS_PER_BLOCK = 2048


@checked
class GateSchedule(NamedTuple):
    """Per-T-gate cycle counts, as multipliers of the code distance."""

    h_cycles: int = 2
    s_cycles: int = 2
    conditional_s_cycles: int = 2
    measure_cycles: int = 1

    def _check(self) -> None:
        for name, cycles in zip(self._fields, self):
            at_least(cycles, 1, name)

    def cycles_per_gate(self, d: int) -> int:
        """SEC cycles per T gate excluding the decoding delay (7d default)."""
        return (
            self.h_cycles + self.s_cycles + self.conditional_s_cycles + self.measure_cycles
        ) * d


class RangeResult(NamedTuple):
    """Achievable reliable T-depth at one (distance, stopping time) point."""

    n_T: int
    stopping_time_ns: int
    failure_rate_used: float
    distance: int
    epsilon: float
    saturated: bool = False


def _ceil_div(numerator: int, denominator: int) -> int:
    return -(-numerator // denominator)


def delay_cycles(delay_ns: int, t_sec_ns: int) -> int:
    """Decoding delay in whole SEC cycles (exact ceiling division)."""
    at_least(delay_ns, 0, "delay")
    at_least(t_sec_ns, 1, "t_sec_ns")
    return _ceil_div(int(delay_ns), int(t_sec_ns))


def sec_depth(
    n_T: int,
    d: int,
    delay_ns: int,
    t_sec_ns: int,
    schedule: GateSchedule = GateSchedule(),
) -> int:
    """Total SEC cycles to run an n_T-deep HST sequence with the given delay."""
    at_least(n_T, 0, "n_T")
    return n_T * (schedule.cycles_per_gate(d) + delay_cycles(delay_ns, t_sec_ns))


def unencoded_range(p: float, epsilon: float) -> int:
    """Reliable T-depth achievable on bare physical qubits.

    floor(epsilon / (3p)); the factor 3 counts the H, S and T of each
    compiled HST block.  Encoding is only worthwhile above this depth.
    """
    _validate_probability(p, "p")
    _validate_probability(epsilon, "epsilon")
    return math.floor(epsilon / (3.0 * p))


def decoder_range(
    d: int,
    stopping_time_ns: int,
    failure_rate: float,
    epsilon: float,
    t_sec_ns: int = 1000,
    schedule: GateSchedule = GateSchedule(),
) -> RangeResult:
    """Largest reliable T-depth for one (distance, stopping time) point.

    n_T = floor(epsilon * d / (rate * (cycles_per_gate + delay cycles))).
    A zero rate makes the formula diverge, and a tiny rate can overflow
    useful integer ranges, so results at or above ``RANGE_SATURATION_CAP``
    (read at each call) are clamped and flagged instead of silently
    returned.
    """
    _validate_distance(d)
    _validate_probability(epsilon, "epsilon")
    if not 0.0 <= failure_rate <= 1.0:
        raise ValueError(f"failure rate must be in [0, 1], got {failure_rate}")
    cycles = schedule.cycles_per_gate(d) + delay_cycles(stopping_time_ns, t_sec_ns)
    if failure_rate == 0.0:
        n_T, saturated = RANGE_SATURATION_CAP, True
    else:
        raw = epsilon * d / (failure_rate * cycles)
        saturated = raw >= RANGE_SATURATION_CAP
        n_T = RANGE_SATURATION_CAP if saturated else math.floor(raw)
    return RangeResult(
        n_T=n_T,
        stopping_time_ns=int(stopping_time_ns),
        failure_rate_used=failure_rate,
        distance=d,
        epsilon=epsilon,
        saturated=saturated,
    )
