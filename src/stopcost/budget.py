"""The error-budget answers that only ``required-distance`` and ``surface``
run: the smallest viable distance, and the range over accuracy."""

from __future__ import annotations

import math
from typing import NamedTuple

from .models import HeuristicFailure
from .ranges import D_MAX_LIMIT, GateSchedule, sec_depth, unencoded_range
from .values import _validate_distance, _validate_probability, at_least


class RequiredDistance(NamedTuple):
    """Smallest viable odd code distance, or None when the search failed.

    ``no_encoding_sufficient`` flags workloads short enough to run on bare
    physical qubits within the error budget:
    n_T <= :func:`~stopcost.ranges.unencoded_range` (floor(epsilon / (3p))).
    """

    distance: int | None
    no_encoding_sufficient: bool
    d_max: int


def required_distance(
    n_T: int,
    p: float,
    delay_ns: int,
    epsilon: float,
    schedule: GateSchedule = GateSchedule(),
    d_max: int = 99,
    t_sec_ns: int = 1000,
) -> RequiredDistance:
    """Smallest odd d in [3, d_max] keeping the circuit failure proxy below
    epsilon.

    The proxy is sec_depth(n_T, d, delay) / d * p_fail(d, p); infeasibility
    within the search bound is reported as a value, not an error.
    """
    at_least(n_T, 1, "n_T")
    _validate_probability(p, "p")
    _validate_probability(epsilon, "epsilon")
    _validate_distance(d_max, "d_max")
    if d_max > D_MAX_LIMIT:
        raise ValueError(f"d_max must be at most {D_MAX_LIMIT} (ranges.D_MAX_LIMIT), got {d_max}")
    p_fail = HeuristicFailure().rate
    no_encoding = n_T <= unencoded_range(p, epsilon)
    found: int | None = None
    for d in range(3, d_max + 1, 2):
        proxy = sec_depth(n_T, d, delay_ns, t_sec_ns, schedule) / d
        if proxy * p_fail(d, p) <= epsilon:
            found = d
            break
    return RequiredDistance(distance=found, no_encoding_sufficient=no_encoding, d_max=d_max)


def accuracy_surface(
    d: int,
    p: float,
    epsilon: float,
    alphas: list[float],
    stopping_cycles: list[int],
    schedule: GateSchedule = GateSchedule(),
) -> list[tuple[float, int, int]]:
    """Range as a function of decoder accuracy and stopping time (in cycles).

    A decoder of accuracy alpha fails at p_fail(d, p) / alpha, so its
    range is floor(epsilon * d * alpha / (p_fail * (cycles_per_gate + M))).
    Returns (alpha, M_cycles, range) rows, alpha-major.
    """
    if not alphas or not stopping_cycles:
        raise ValueError("alpha and stopping-time grids must be nonempty")
    _validate_probability(epsilon, "epsilon")
    base_rate = HeuristicFailure().rate(d, p)
    if base_rate == 0.0:
        raise ValueError(f"failure rate at d={d}, p={p} is 0, so the range is unbounded")
    gate_cycles = schedule.cycles_per_gate(d)
    if math.isinf(epsilon * d / (base_rate * gate_cycles)):  # largest at alpha 1, M 0
        raise ValueError(f"failure rate at d={d}, p={p} is {base_rate:.3g}, so the range overflows")
    rows = []
    for alpha in alphas:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"accuracy must be in (0, 1], got {alpha}")
        for m in stopping_cycles:
            if m < 0:
                raise ValueError(f"stopping time must be >= 0 cycles, got {m}")
            value = math.floor(epsilon * d * alpha / (base_rate * (gate_cycles + m)))
            rows.append((alpha, int(m), value))
    return rows
