"""The commands that read a trace and nothing else: ``trace-stats``, ``stop`` and ``range``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .command import Table, _add_trace_inputs

if TYPE_CHECKING:
    import argparse

    from .cli import RunConfig
    from .trace import RuntimeTrace

_add_trace_stats = _add_stop = _add_range = _add_trace_inputs


def cmd_trace_stats(args: argparse.Namespace, config: RunConfig, trace: RuntimeTrace) -> Table:
    row = {
        "shots": trace.shots,
        "mean_ns": trace.mean_ns(),
        "std_ns": trace.std_ns(),
        "t_max_ns": trace.max_runtime_ns,
        "p50_ns": trace.percentile(0.50),
        "p90_ns": trace.percentile(0.90),
        "p99_ns": trace.percentile(0.99),
        "p99_9_ns": trace.percentile(0.999),
        "p100_ns": trace.percentile(1.0),
        "failure_rate": trace.failure_count / trace.shots,
        "failure_events": trace.failure_count,
    }
    extras = {k: v for k, v in trace.metadata._asdict().items() if k != "shots"}
    return Table({name: [value] for name, value in row.items()}, extras)


def cmd_stop(args: argparse.Namespace, config: RunConfig, trace: RuntimeTrace) -> Table:
    from .stopping import stopping_curve

    def block(lo: int, hi: int) -> dict:
        curve = stopping_curve(trace, rows=slice(lo, hi))
        return {
            "M_ns": curve.stopping_time_ns,
            "timeout_prob": curve.timeout_probability,
            "exact_rate": curve.exact_failure_rate,
            "upper_bound": curve.upper_bound_rate,
            "lower_bound": curve.lower_bound_rate,
            "failure_events": curve.failure_events,
        }

    return Table(block, rows=trace.runtimes_ns.size)


def cmd_range(args: argparse.Namespace, config: RunConfig, trace: RuntimeTrace) -> Table:
    from .stopping import range_blocks, range_curve

    d = trace.metadata.distance
    point = (trace, d, config.epsilon, config.t_sec_ns, config.min_failure_events, config.schedule)
    # One pass finds the optimum (the first maximum, so the smaller M wins a
    # tie across blocks) and the row count; rows lo:hi of the table are
    # then those of the trace, the significant rows being its prefix.
    rows, found = 0, None
    for curve in range_blocks(*point):
        if curve.n_T.size and (found is None or curve.n_T.max() > found[1].n_T):
            found = curve.optimum()
        rows += curve.n_T.size
    m, best = found or curve.optimum()  # an empty last block raises InfeasibleError

    def block(lo: int, hi: int) -> dict:
        curve = range_curve(*point, rows=slice(lo, hi))
        return {
            "M_ns": curve.stopping_time_ns,
            "M_cycles": curve.delay_cycles,
            "exact_rate": curve.failure_rate,
            "range": curve.n_T,
        }

    extras = {
        "distance": d,
        "epsilon": config.epsilon,
        "optimal_M_ns": m,
        "optimal_range": best.n_T,
    }
    return Table(block, extras, rows=rows)
