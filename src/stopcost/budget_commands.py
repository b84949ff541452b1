"""The analytic commands that price no decoder: ``surface`` and ``required-distance``."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .command import Table, _parse_list
from .values import integer

if TYPE_CHECKING:
    import argparse

    from .cli import RunConfig

DEFAULT_SURFACE_ALPHAS = [round(0.05 * k, 2) for k in range(1, 21)]
DEFAULT_SURFACE_CYCLES = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]


def cmd_surface(args: argparse.Namespace, config: RunConfig, trace: None) -> Table:
    from .budget import accuracy_surface

    alphas = DEFAULT_SURFACE_ALPHAS if args.alphas is None else _parse_list(args.alphas, float)
    cycles = DEFAULT_SURFACE_CYCLES if args.m_cycles is None else _parse_list(args.m_cycles)
    rows = accuracy_surface(
        args.d, args.p, config.epsilon, alphas, cycles, schedule=config.schedule
    )
    extras = {"distance": args.d, "physical_error_rate": args.p, "epsilon": config.epsilon}
    return Table(dict(zip(("alpha", "M_cycles", "range"), zip(*rows))), extras)


def cmd_required_distance(args: argparse.Namespace, config: RunConfig, trace: None) -> Table:
    from .budget import required_distance

    result = required_distance(
        args.nT,
        args.p,
        args.delay_ns,
        config.epsilon,
        schedule=config.schedule,
        d_max=args.d_max,
        t_sec_ns=config.t_sec_ns,
    )
    row = {
        "n_T": args.nT,
        "p": args.p,
        "delay_ns": args.delay_ns,
        "epsilon": config.epsilon,
        "d_max": args.d_max,
        "distance": result.distance,
        "no_encoding_sufficient": int(result.no_encoding_sufficient),
    }
    infeasible = None
    if result.distance is None and not result.no_encoding_sufficient:
        infeasible = f"no odd distance up to {args.d_max} meets the error budget"
    columns = {name: [value] for name, value in row.items()}
    return Table(columns, infeasible=infeasible)


def _add_surface(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=integer, required=True, help="code distance")
    parser.add_argument("--p", type=float, required=True, help="physical error rate")
    parser.add_argument("--alphas", default=None, help="comma list of accuracies (default 0.05..1.0)")
    parser.add_argument("--m-cycles", dest="m_cycles", default=None, help="comma list of stopping times in cycles")


def _add_required_distance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nT", type=integer, required=True, help="number of T gates")
    parser.add_argument("--p", type=float, help="physical error rate (default 1e-3)")
    parser.add_argument("--delay-ns", dest="delay_ns", type=integer, default=0, help="decoding delay per T gate in ns")
    parser.add_argument("--d-max", dest="d_max", type=integer, default=99, help="largest odd distance to try")
