"""The commands that price decoders: ``mincost`` and ``compare``."""

from __future__ import annotations

import math
from pathlib import Path
from typing import TYPE_CHECKING

from .command import BUILTIN_DECODERS, Table, _add_trace_inputs, _parse_list, nonempty
from .errors import ConfigError
from .values import _validate_distance, integer

if TYPE_CHECKING:
    import argparse

    from .cli import RunConfig
    from .models import DecoderFactory, DecoderModel
    from .trace import RuntimeTrace


def _parse_distances(text: str) -> list[int]:
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = integer(lo_s), integer(hi_s)
        distances = list(range(lo, hi + 1, 2))
        if not distances:
            raise ValueError(f"empty distance range {text!r}")
    else:
        distances = _parse_list(text)
    for d in distances:
        _validate_distance(d)
    return distances


def cmd_mincost(
    args: argparse.Namespace,
    config: RunConfig,
    trace: RuntimeTrace | None,
    decoder: DecoderModel | DecoderFactory | None = None,
) -> Table:
    """A measured decoder (a ``--trace`` or a config's) is priced at its
    trace's distance and p, unless ``--p`` sets it; an analytic one at every
    ``--distances`` value and ``--p`` (default 1e-3).  The trace flags other
    than ``--p`` need ``--trace``."""
    from .cost import min_spacetime_costs
    from .models import DecoderModel, EmpiricalFailure, EmpiricalRuntime, _model_at

    distances = _parse_distances(args.distances)
    if trace is not None:
        label = Path(args.trace).stem
        failure = EmpiricalFailure(trace.failure_count / trace.shots, trace.failure_count)
        decoder = DecoderModel(label, EmpiricalRuntime(trace), failure)
    else:
        for name in ("meta", "distance", "shots", "sec_cycle_ns"):
            if getattr(args, name) is not None:
                raise ConfigError(f"mincost --{name.replace('_', '-')} requires --trace")
        label = args.decoder
    model = _model_at(decoder, distances[0])
    p = args.p
    if p is None:
        p = 1e-3 if model.measured_distance is None else model.runtime.trace.metadata.physical_error_rate
    n_T_values = _parse_list(args.nT)
    results = min_spacetime_costs(decoder, p, n_T_values, distances, *config.pricing)
    costs, chosen_d, chosen_m, _ = zip(*results)
    columns = {"n_T": n_T_values, "cost": costs, "distance": chosen_d, "M_ns": chosen_m}
    extras = {"decoder": label, "physical_error_rate": p, "rate_method": model.rate_method}
    infeasible = None
    if not any(r.feasible for r in results):
        infeasible = "no (distance, stopping time) pair reaches any requested n_T"
    return Table(columns, extras, infeasible)


def cmd_compare(
    args: argparse.Namespace,
    config: RunConfig,
    trace: None,
    decoder_a: DecoderModel | DecoderFactory,
    decoder_b: DecoderModel | DecoderFactory,
) -> Table:
    from .cost import compare_decoders

    distances = _parse_distances(args.distances)
    rows = compare_decoders(
        decoder_a, decoder_b, args.p, _parse_list(args.nT), distances, *config.pricing
    )
    columns = dict(zip(("n_T", "cost_a", "cost_b", "ratio"), zip(*rows)))
    extras = {
        "decoder_a": args.decoder_a,
        "decoder_b": args.decoder_b,
        "physical_error_rate": args.p,
    }
    infeasible = None
    if all(math.isinf(r.ratio) for r in rows):
        infeasible = "no workload is feasible for both decoders"
    return Table(columns, extras, infeasible)


def _add_mincost(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--decoder", type=nonempty, default=None, help=f"decoder config JSON or one of {', '.join(BUILTIN_DECODERS)}; --p sets its physical error rate (default: an empirical config's trace p, else 1e-3)")
    _add_trace_inputs(parser, source)
    _add_workloads(parser)


def _add_compare(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--decoder-a", dest="decoder_a", type=nonempty, required=True)
    parser.add_argument("--decoder-b", dest="decoder_b", type=nonempty, required=True)
    parser.add_argument("--p", type=float, default=1e-3, help="physical error rate (default 1e-3)")
    _add_workloads(parser)


def _add_workloads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nT", required=True, help="comma list of T-gate counts")
    parser.add_argument("--distances", default="3:31", help="odd distances for an analytic decoder, e.g. 3:31 or 3,5,7 (default %(default)s); a measured one uses its trace's d")
