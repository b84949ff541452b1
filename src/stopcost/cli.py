"""Command-line interface.

One binary, subcommand style::

    stopcost trace-stats --trace runs.csv --meta runs.json
    stopcost stop        --trace runs.csv                 # stopping-time sweep
    stopcost range       --trace runs.csv --epsilon 0.5   # range vs stopping time
    stopcost surface     --d 15 --p 1e-3                  # accuracy/stopping tradeoff
    stopcost mincost     --decoder linear --nT 10,100,1000
    stopcost compare     --decoder-a linear --decoder-b quadratic --nT ...
    stopcost synth       --model quadratic --d 15 --p 1e-3 --shots 1e6 --seed 7 --out t.csv
    stopcost required-distance --nT 1000 --p 1e-3

Common flags: --epsilon, --t-sec-ns, --min-events, --format {csv,json},
--out, --seed, plus --config pointing at a JSON file of the same settings
(precedence: flags > config file > defaults).  Exit codes: 0 success,
2 usage/validation error, 3 infeasible analysis, 4 I/O error.

Outputs are plot-ready tables.  CSV and JSON carry identical numerals
(shortest round-trip decimals); infeasible costs appear as ``inf`` in CSV
and ``null`` in JSON.  CSV is written in blocks of ``ROWS_PER_BLOCK``
rows.  Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .cost import compare_decoders, min_spacetime_costs
from .errors import ConfigError, InfeasibleError
from .models import (
    DecoderModel,
    EmpiricalRuntime,
    HeuristicFailure,
    InstantaneousRuntime,
    load_decoder_config,
    make_reference_decoders,
    sample_trace,
)
from .ranges import (
    GateSchedule,
    accuracy_surface,
    range_curve,
    required_distance,
)
from .stopping import stopping_curve
from .trace import (
    RuntimeTrace,
    build_distribution,
    parse_trace,
    write_metadata,
    write_trace_csv,
)

BUILTIN_DECODERS = ("quadratic", "linear", "instantaneous")
DEFAULT_SURFACE_ALPHAS = [round(0.05 * k, 2) for k in range(1, 21)]
DEFAULT_SURFACE_CYCLES = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]


@dataclass(frozen=True)
class RunConfig:
    epsilon: float = 0.5
    t_sec_ns: int = 1000
    min_failure_events: int = 20
    schedule: GateSchedule = GateSchedule()
    output_format: str = "csv"
    seed: int = 0


def _json_integer(value) -> int:
    return integer(str(value))


def _schedule_from_json(raw) -> GateSchedule:
    if not isinstance(raw, dict):
        raise ValueError(f"must be a JSON object, got {type(raw).__name__}")
    known = [f.name for f in fields(GateSchedule)]
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(unknown)}; known: {', '.join(known)}")
    return GateSchedule(**{key: _json_integer(value) for key, value in raw.items()})


# Config file key -> (RunConfig field, parser of the JSON value).
CONFIG_KEYS = {
    "epsilon": ("epsilon", float),
    "t_sec_ns": ("t_sec_ns", _json_integer),
    "min_failure_events": ("min_failure_events", _json_integer),
    "schedule": ("schedule", _schedule_from_json),
    "format": ("output_format", str),
    "seed": ("seed", _json_integer),
}


def _config_from_json(raw, path: str) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"unknown config key(s) in {path}: {', '.join(unknown)}; "
            f"known: {', '.join(CONFIG_KEYS)}"
        )
    values = {}
    for key, value in raw.items():
        name, parse = CONFIG_KEYS[key]
        try:
            values[name] = parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r} in {path}: {exc}") from exc
    return RunConfig(**values)


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid config JSON in {args.config}: {exc}") from exc
        config = _config_from_json(raw, args.config)
    overrides = {}
    if getattr(args, "epsilon", None) is not None:
        overrides["epsilon"] = args.epsilon
    if getattr(args, "t_sec_ns", None) is not None:
        overrides["t_sec_ns"] = args.t_sec_ns
    if getattr(args, "min_events", None) is not None:
        overrides["min_failure_events"] = args.min_events
    if getattr(args, "format", None) is not None:
        overrides["output_format"] = args.format
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)
    if not 0.0 < config.epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {config.epsilon}")
    if config.output_format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {config.output_format!r}")
    return config


# ---------------------------------------------------------------------------
# Output rendering


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and math.isinf(value):
        return None
    return value


# Rows per CSV block: a block is formatted column by column and written
# whole, so memory stays bounded whatever the table length.
ROWS_PER_BLOCK = 8192


def _values(column) -> Sequence:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _format_column(column, lo: int, hi: int) -> Iterable[str]:
    """Cells ``lo:hi`` of one column, as :func:`_format_cell` writes them."""
    if isinstance(column, np.ndarray):
        part = column[lo:hi]
        if part.dtype.kind == "f" and not np.isinf(part).any():
            return map(repr, part.tolist())
        if part.dtype.kind in "iu":
            return map(str, part.tolist())
        return map(_format_cell, part.tolist())
    return map(_format_cell, column[lo:hi])


def render_table(
    command: str,
    header: Sequence[str],
    columns: Sequence,
    fmt: str,
    extras: dict | None = None,
) -> Iterator[str]:
    """The table as text blocks: CSV in ``ROWS_PER_BLOCK``-row blocks, JSON whole.

    ``columns`` are equal-length numpy arrays or Python lists, one per
    header name.
    """
    extras = extras or {}
    if fmt == "json":
        payload = {
            "command": command,
            **{k: _json_safe(v) for k, v in extras.items()},
            "columns": list(header),
            "rows": [[_json_safe(v) for v in row] for row in zip(*map(_values, columns))],
        }
        yield json.dumps(payload, indent=2) + "\n"
        return
    lines = [f"# {key}: {_format_cell(value)}\n" for key, value in extras.items()]
    yield "".join(lines) + ",".join(header) + "\n"
    n_rows = len(columns[0]) if columns else 0
    for lo in range(0, n_rows, ROWS_PER_BLOCK):
        hi = min(lo + ROWS_PER_BLOCK, n_rows)
        block = [_format_column(column, lo, hi) for column in columns]
        yield "\n".join(map(",".join, zip(*block))) + "\n"


@contextmanager
def _atomic_path(out_path: Path) -> Iterator[str]:
    """A temp file beside ``out_path``, renamed over it if the block succeeds.

    The temp file comes from ``mkstemp``, so every output gets its 0600
    mode; on any failure it is removed and ``out_path`` is left untouched.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=out_path.parent, prefix=out_path.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        yield tmp_name
        os.replace(tmp_name, out_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _write_all(binary, data: bytes) -> None:
    # An unbuffered stdout (python -u, PYTHONUNBUFFERED) is a bare FileIO,
    # whose write may take only part of the data, e.g. when a pipe's reader
    # goes away mid-write; the text layer would drop the rest silently.
    view = memoryview(data)
    while view:
        written = binary.write(view)
        if written is None:
            raise BlockingIOError(errno.EAGAIN, "stdout would block")
        view = view[written:]


def emit(blocks: Iterable[str], out: str | None) -> None:
    """Write rendered blocks to ``out`` atomically, or to stdout."""
    if out is not None:
        with _atomic_path(Path(out)) as tmp_name, open(tmp_name, "w") as fh:
            fh.writelines(blocks)
        return
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    try:
        if binary is None:  # an in-memory text stream
            stdout.writelines(blocks)
            return
        stdout.flush()
        for block in blocks:
            _write_all(binary, block.encode(stdout.encoding, stdout.errors))
        binary.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # interpreter's final flush of what is still buffered cannot fail
        # again at shutdown; main() reports the error itself.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
        raise


# ---------------------------------------------------------------------------
# Argument parsing helpers


_INTEGER_RE = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")
# CPython's default limit on the digits of int(str); it also bounds the
# exponent form, so "1e999999999" is refused instead of built.
MAX_INTEGER_DIGITS = 4300


def integer(text: str) -> int:
    """Parse an integer argument strictly.

    Accepts plain integers and ``1e6``-style values that are exactly
    integral, computed in integers so nothing is lost above 2**53;
    anything else (``1.7``, ``nan``, ``1e-3``) raises ``ValueError``.
    """
    match = _INTEGER_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"invalid integer {text!r}")
    sign, whole, fraction, exponent = match.groups()
    digits = whole + (fraction or "")
    shift = int(exponent or 0) - len(fraction or "")  # value = digits * 10**shift
    if len(digits) + max(shift, 0) > MAX_INTEGER_DIGITS:
        raise ValueError(f"invalid integer {text!r}: more than {MAX_INTEGER_DIGITS} digits")
    if shift >= 0:
        value = int(digits) * 10**shift
    else:
        # An n-digit mantissa is below 10**n, so any deeper shift leaves it
        # all as remainder; capping the divisor keeps 1e-999999999 cheap.
        value, rest = divmod(int(digits), 10 ** min(-shift, len(digits)))
        if rest:
            raise ValueError(f"invalid integer {text!r}: not a whole number")
    return -value if sign == "-" else value


def _parse_int_list(text: str) -> list[int]:
    values = [integer(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty integer list {text!r}")
    return values


def _parse_float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty float list {text!r}")
    return values


def _parse_distances(text: str) -> list[int]:
    if ":" in text:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = integer(lo_s), integer(hi_s)
        distances = list(range(lo, hi + 1, 2))
    else:
        distances = _parse_int_list(text)
    for d in distances:
        if d < 3 or d % 2 == 0:
            raise ValueError(f"distances must be odd integers >= 3, got {d}")
    return distances


def _metadata_overrides(args: argparse.Namespace) -> dict:
    return {
        "distance": getattr(args, "distance", None),
        "physical_error_rate": getattr(args, "p", None),
        "shots": getattr(args, "shots", None),
        "sec_cycle_ns": getattr(args, "sec_cycle_ns", None),
    }


def _load_trace(args: argparse.Namespace) -> RuntimeTrace:
    meta = getattr(args, "meta", None)
    if meta is None:
        sidecar = Path(args.trace).with_suffix(".json")
        if sidecar.exists():
            meta = sidecar
    return parse_trace(args.trace, meta, _metadata_overrides(args))


def _resolve_decoder(
    source: str, p: float
) -> Callable[[int], DecoderModel | None]:
    """Map a --decoder argument to a distance -> model factory."""
    if source == "quadratic":
        return lambda d: make_reference_decoders(d, p)[0]
    if source == "linear":
        return lambda d: make_reference_decoders(d, p)[1]
    if source == "instantaneous":
        model = DecoderModel("instantaneous", InstantaneousRuntime(), HeuristicFailure())
        return lambda d: model
    model = load_decoder_config(source)
    return lambda d: model


# ---------------------------------------------------------------------------
# Subcommands


def cmd_trace_stats(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    trace = _load_trace(args)
    dist = build_distribution(trace)
    header = [
        "shots",
        "mean_ns",
        "std_ns",
        "t_max_ns",
        "p50_ns",
        "p90_ns",
        "p99_ns",
        "p99_9_ns",
        "p100_ns",
        "failure_rate",
        "failure_events",
    ]
    row = [
        dist.shots,
        dist.mean_ns(),
        dist.std_ns(),
        dist.max_runtime_ns,
        dist.percentile(0.50),
        dist.percentile(0.90),
        dist.percentile(0.99),
        dist.percentile(0.999),
        dist.percentile(1.0),
        trace.failure_count / trace.metadata.shots,
        trace.failure_count,
    ]
    extras = {
        "distance": trace.metadata.distance,
        "physical_error_rate": trace.metadata.physical_error_rate,
        "sec_cycle_ns": trace.metadata.sec_cycle_ns,
    }
    emit(
        render_table("trace-stats", header, [[v] for v in row], config.output_format, extras),
        args.out,
    )
    return 0


def cmd_stop(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    curve = stopping_curve(build_distribution(_load_trace(args)))
    columns = [
        curve.stopping_time_ns,
        curve.timeout_probability,
        curve.exact_failure_rate,
        curve.upper_bound_rate,
        curve.lower_bound_rate,
        curve.failure_events,
    ]
    header = ["M_ns", "timeout_prob", "exact_rate", "upper_bound", "lower_bound", "failure_events"]
    emit(render_table("stop", header, columns, config.output_format), args.out)
    return 0


def cmd_range(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    trace = _load_trace(args)
    d = trace.metadata.distance
    t_sec = args.t_sec_ns if args.t_sec_ns is not None else trace.metadata.sec_cycle_ns
    curve = range_curve(
        build_distribution(trace),
        d,
        config.epsilon,
        t_sec_ns=t_sec,
        min_events=config.min_failure_events,
        schedule=config.schedule,
    )
    m, best = curve.optimum()
    extras = {
        "distance": d,
        "epsilon": config.epsilon,
        "optimal_M_ns": m,
        "optimal_range": best.n_T,
    }
    columns = [curve.stopping_time_ns, curve.delay_cycles, curve.failure_rate, curve.n_T]
    header = ["M_ns", "M_cycles", "exact_rate", "range"]
    emit(render_table("range", header, columns, config.output_format, extras), args.out)
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    alphas = _parse_float_list(args.alphas) if args.alphas else DEFAULT_SURFACE_ALPHAS
    cycles = _parse_int_list(args.m_cycles) if args.m_cycles else DEFAULT_SURFACE_CYCLES
    rows = accuracy_surface(
        args.d, args.p, config.epsilon, alphas, cycles, schedule=config.schedule
    )
    extras = {"distance": args.d, "physical_error_rate": args.p, "epsilon": config.epsilon}
    header = ["alpha", "M_cycles", "range"]
    emit(
        render_table("surface", header, list(zip(*rows)), config.output_format, extras),
        args.out,
    )
    return 0


def _mincost_inputs(args: argparse.Namespace, config: RunConfig):
    """Resolve (factory, p, distances, t_sec_ns, label) for mincost/compare."""
    if getattr(args, "trace", None):
        trace = _load_trace(args)
        dist = build_distribution(trace)
        model = DecoderModel(
            name=Path(args.trace).stem,
            runtime=EmpiricalRuntime(dist),
            failure=HeuristicFailure(),
        )
        meta = trace.metadata
        factory = lambda d: model if d == meta.distance else None  # noqa: E731
        t_sec = args.t_sec_ns if args.t_sec_ns is not None else meta.sec_cycle_ns
        return factory, meta.physical_error_rate, [meta.distance], t_sec, model.name
    p = args.p if args.p is not None else 1e-3
    distances = _parse_distances(args.distances) if args.distances else list(range(3, 32, 2))
    return _resolve_decoder(args.decoder, p), p, distances, config.t_sec_ns, args.decoder


def cmd_mincost(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    if bool(args.trace) == bool(args.decoder):
        raise ConfigError("mincost requires exactly one of --decoder or --trace")
    factory, p, distances, t_sec, label = _mincost_inputs(args, config)
    n_T_values = _parse_int_list(args.nT)
    results = min_spacetime_costs(
        factory,
        p,
        n_T_values,
        distances,
        config.epsilon,
        t_sec_ns=t_sec,
        schedule=config.schedule,
        min_events=config.min_failure_events,
    )
    columns = [
        n_T_values,
        [r.cost if r.feasible else math.inf for r in results],
        [r.distance for r in results],
        [r.stopping_time_ns for r in results],
    ]
    rate_method = "exact" if getattr(args, "trace", None) else "upper_bound"
    extras = {"decoder": label, "physical_error_rate": p, "rate_method": rate_method}
    header = ["n_T", "cost", "distance", "M_ns"]
    emit(render_table("mincost", header, columns, config.output_format, extras), args.out)
    if not any(r.feasible for r in results):
        print(
            "stopcost: infeasible: no (distance, stopping time) pair reaches "
            "any requested n_T",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    p = args.p if args.p is not None else 1e-3
    distances = _parse_distances(args.distances) if args.distances else list(range(3, 32, 2))
    rows = compare_decoders(
        _resolve_decoder(args.decoder_a, p),
        _resolve_decoder(args.decoder_b, p),
        p,
        _parse_int_list(args.nT),
        distances,
        config.epsilon,
        t_sec_ns=config.t_sec_ns,
        schedule=config.schedule,
        min_events=config.min_failure_events,
    )
    columns = [
        [r.n_T for r in rows],
        [r.cost_a for r in rows],
        [r.cost_b for r in rows],
        [r.ratio for r in rows],
    ]
    extras = {"decoder_a": args.decoder_a, "decoder_b": args.decoder_b, "physical_error_rate": p}
    header = ["n_T", "cost_a", "cost_b", "ratio"]
    emit(render_table("compare", header, columns, config.output_format, extras), args.out)
    if all(math.isinf(r.ratio) for r in rows):
        print("stopcost: infeasible: no workload is feasible for both decoders", file=sys.stderr)
        return 3
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    if args.out is None:
        raise ConfigError("synth requires --out for the trace file")
    out_path = Path(args.out)
    meta_path = out_path.with_suffix(".json")
    if meta_path == out_path:
        raise ConfigError(f"synth --out {args.out} would be overwritten by its .json sidecar")
    model = _resolve_decoder(args.model, args.p)(args.d)
    trace = sample_trace(
        model.runtime,
        model.failure,
        d=args.d,
        p=args.p,
        shots=integer(args.shots),
        seed=config.seed,
        sec_cycle_ns=config.t_sec_ns,
    )
    # The sidecar is renamed into place first, so a reader never pairs a
    # new trace with an old sidecar; either write failing leaves both as
    # they were.
    with _atomic_path(out_path) as trace_tmp, _atomic_path(meta_path) as meta_tmp:
        write_trace_csv(trace, trace_tmp, per_shot=args.per_shot)
        write_metadata(trace.metadata, meta_tmp)
    return 0


def cmd_required_distance(args: argparse.Namespace) -> int:
    config = _load_run_config(args)
    p = args.p if args.p is not None else 1e-3
    result = required_distance(
        args.nT,
        p,
        args.delay_ns,
        config.epsilon,
        schedule=config.schedule,
        d_max=args.d_max,
        t_sec_ns=config.t_sec_ns,
    )
    header = ["n_T", "p", "delay_ns", "epsilon", "d_max", "distance", "no_encoding_sufficient"]
    row = [
        args.nT,
        p,
        args.delay_ns,
        config.epsilon,
        args.d_max,
        result.distance,
        int(result.no_encoding_sufficient),
    ]
    columns = [[v] for v in row]
    emit(render_table("required-distance", header, columns, config.output_format), args.out)
    if result.distance is None and not result.no_encoding_sufficient:
        print(
            f"stopcost: infeasible: no odd distance up to {args.d_max} meets the "
            f"error budget",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=None, help="logical circuit error budget (default 0.5)")
    parser.add_argument("--t-sec-ns", dest="t_sec_ns", type=integer, default=None, help="SEC cycle time in ns (default 1000)")
    parser.add_argument("--min-events", dest="min_events", type=integer, default=None, help="failure events needed for significance (default 20)")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    parser.add_argument("--out", default=None, help="output file (default stdout); written atomically")
    parser.add_argument("--seed", type=integer, default=None, help="RNG seed for synthetic sampling (default 0)")
    parser.add_argument("--config", default=None, help="JSON settings file; flags take precedence")


def _add_trace_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", required=True, help="trace CSV (per-shot or histogram layout)")
    parser.add_argument("--meta", default=None, help="metadata sidecar JSON (default: trace path with .json)")
    parser.add_argument("--distance", type=integer, default=None, help="override metadata distance")
    parser.add_argument("--p", type=float, default=None, help="override metadata physical error rate")
    parser.add_argument("--shots", type=integer, default=None, help="override metadata shot count")
    parser.add_argument("--sec-cycle-ns", dest="sec_cycle_ns", type=integer, default=None, help="override metadata SEC cycle time")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``stopcost: error:`` line and exits 2,
    without argparse's usage text."""

    def error(self, message: str):
        self.exit(2, f"stopcost: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="stopcost",
        description="Stopping-time, range, and spacetime-cost analysis for surface code decoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("trace-stats", help="runtime/failure summary of a trace")
    _add_trace_inputs(p_stats)
    _add_common(p_stats)
    p_stats.set_defaults(func=cmd_trace_stats)

    p_stop = sub.add_parser("stop", help="interrupted failure statistics per stopping time")
    _add_trace_inputs(p_stop)
    _add_common(p_stop)
    p_stop.set_defaults(func=cmd_stop)

    p_range = sub.add_parser("range", help="decoder range per significant stopping time")
    _add_trace_inputs(p_range)
    _add_common(p_range)
    p_range.set_defaults(func=cmd_range)

    p_surface = sub.add_parser("surface", help="range vs accuracy and stopping time")
    p_surface.add_argument("--d", type=integer, required=True, help="code distance")
    p_surface.add_argument("--p", type=float, required=True, help="physical error rate")
    p_surface.add_argument("--alphas", default=None, help="comma list of accuracies (default 0.05..1.0)")
    p_surface.add_argument("--m-cycles", dest="m_cycles", default=None, help="comma list of stopping times in cycles")
    _add_common(p_surface)
    p_surface.set_defaults(func=cmd_surface)

    p_mincost = sub.add_parser("mincost", help="minimum spacetime cost per workload size")
    p_mincost.add_argument("--decoder", default=None, help=f"decoder config JSON or one of {', '.join(BUILTIN_DECODERS)}")
    p_mincost.add_argument("--trace", default=None, help="trace CSV for a measured decoder")
    p_mincost.add_argument("--meta", default=None, help="metadata sidecar for --trace")
    p_mincost.add_argument("--distance", type=integer, default=None, help="override metadata distance")
    p_mincost.add_argument("--shots", type=integer, default=None, help="override metadata shot count")
    p_mincost.add_argument("--sec-cycle-ns", dest="sec_cycle_ns", type=integer, default=None, help="override metadata SEC cycle time")
    p_mincost.add_argument("--p", type=float, default=None, help="physical error rate (default 1e-3 or trace metadata)")
    p_mincost.add_argument("--nT", required=True, help="comma list of T-gate counts")
    p_mincost.add_argument("--distances", default=None, help="odd distances, e.g. 3:31 or 3,5,7 (default 3:31)")
    _add_common(p_mincost)
    p_mincost.set_defaults(func=cmd_mincost)

    p_compare = sub.add_parser("compare", help="spacetime cost ratio of two decoders")
    p_compare.add_argument("--decoder-a", dest="decoder_a", required=True)
    p_compare.add_argument("--decoder-b", dest="decoder_b", required=True)
    p_compare.add_argument("--p", type=float, default=None, help="physical error rate (default 1e-3)")
    p_compare.add_argument("--nT", required=True, help="comma list of T-gate counts")
    p_compare.add_argument("--distances", default=None, help="odd distances (default 3:31)")
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="sample a synthetic trace from a decoder model")
    p_synth.add_argument("--model", required=True, help="quadratic, linear, instantaneous, or a decoder config JSON")
    p_synth.add_argument("--d", type=integer, required=True, help="code distance")
    p_synth.add_argument("--p", type=float, required=True, help="physical error rate")
    p_synth.add_argument("--shots", required=True, help="number of shots (accepts 1e6 style)")
    p_synth.add_argument("--per-shot", dest="per_shot", action="store_true", help="write per-shot rows instead of a histogram")
    _add_common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_reqd = sub.add_parser("required-distance", help="smallest viable code distance for a workload")
    p_reqd.add_argument("--nT", type=integer, required=True, help="number of T gates")
    p_reqd.add_argument("--p", type=float, default=None, help="physical error rate (default 1e-3)")
    p_reqd.add_argument("--delay-ns", dest="delay_ns", type=integer, default=0, help="decoding delay per T gate in ns")
    p_reqd.add_argument("--d-max", dest="d_max", type=integer, default=99, help="largest odd distance to try")
    _add_common(p_reqd)
    p_reqd.set_defaults(func=cmd_required_distance)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleError as exc:
        print(f"stopcost: infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # covers TraceParseError, TraceIntegrityError, ConfigError
        print(f"stopcost: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"stopcost: io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
