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
import math
import os
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

from .errors import ConfigError, InfeasibleError
from .models import (
    DecoderModel,
    EmpiricalRuntime,
    HeuristicFailure,
    InstantaneousRuntime,
    _validate_distance,
    check_keys,
    integer,
    json_integer,
    json_number,
    json_object,
    load_decoder_config,
    make_reference_decoders,
    python_values,
)
from .ranges import (
    GateSchedule,
    accuracy_surface,
    range_curve,
    required_distance,
)

if TYPE_CHECKING:
    from .trace import RuntimeTrace

BUILTIN_DECODERS = ("quadratic", "linear", "instantaneous")
DEFAULT_SURFACE_ALPHAS = [round(0.05 * k, 2) for k in range(1, 21)]
DEFAULT_SURFACE_CYCLES = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]


class RunConfig(NamedTuple):
    epsilon: float = 0.5
    t_sec_ns: int = 1000
    min_failure_events: int = 20
    schedule: GateSchedule = GateSchedule()
    output_format: str = "csv"
    seed: int = 0


def _schedule_from_json(raw) -> GateSchedule:
    check_keys(json_object(raw, "schedule"), GateSchedule._fields, "schedule")
    return GateSchedule(**{key: json_integer(value) for key, value in raw.items()})


# Config file key -> (RunConfig field, parser of the JSON value, the
# argparse dest of the flag that overrides it, if any).
CONFIG_KEYS = {
    "epsilon": ("epsilon", json_number, "epsilon"),
    "t_sec_ns": ("t_sec_ns", json_integer, "t_sec_ns"),
    "min_failure_events": ("min_failure_events", json_integer, "min_events"),
    "schedule": ("schedule", _schedule_from_json, None),
    "format": ("output_format", str, "format"),
    "seed": ("seed", json_integer, "seed"),
}


def _config_from_json(raw, path: str) -> dict:
    """The RunConfig fields a config file sets, by name."""
    check_keys(json_object(raw, f"config {path}"), CONFIG_KEYS, f"config {path}")
    values = {}
    for key, value in raw.items():
        name, parse, _ = CONFIG_KEYS[key]
        try:
            values[name] = parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r} in {path}: {exc}") from exc
    return values


def _load_run_config(
    args: argparse.Namespace, config: RunConfig = RunConfig()
) -> RunConfig:
    """``config`` (the defaults) updated by the config file, then the flags."""
    if getattr(args, "config", None):
        import json

        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid config JSON in {args.config}: {exc}") from exc
        config = config._replace(**_config_from_json(raw, args.config))
    overrides = {
        name: value
        for name, _, flag in CONFIG_KEYS.values()
        if flag and (value := getattr(args, flag, None)) is not None
    }
    config = config._replace(**overrides)
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


# Rows per CSV block: a block is formatted with one format string and
# written whole, so memory stays bounded whatever the table length.
ROWS_PER_BLOCK = 8192


def _format_column(column, lo: int, hi: int) -> tuple[str, list]:
    """Cells ``lo:hi`` of one column as a ``%`` spec and the values it takes,
    so that each cell formats as :func:`_format_cell` writes it."""
    if hasattr(column, "tolist"):  # a numpy array
        import numpy as np

        part = column[lo:hi]
        if part.dtype.kind in "iu":
            return "%d", part.tolist()
        if part.dtype.kind == "f" and not np.isinf(part).any():
            return "%r", part.tolist()
        return "%s", list(map(_format_cell, part.tolist()))
    return "%s", list(map(_format_cell, column[lo:hi]))


def render_table(
    command: str,
    header: Sequence[str],
    columns: Sequence,
    fmt: str,
    extras: dict | None = None,
) -> Iterator[str]:
    """The table as text blocks: CSV in ``ROWS_PER_BLOCK``-row blocks, JSON whole.

    ``columns`` are equal-length numpy arrays or Python lists, one per
    header name.  A CSV block is one ``%`` format: one spec per column,
    repeated per row, over the block's cells in row order.
    """
    extras = extras or {}
    if fmt == "json":
        import json

        payload = {
            "command": command,
            **{k: _json_safe(v) for k, v in extras.items()},
            "columns": list(header),
            "rows": [[_json_safe(v) for v in row] for row in zip(*map(python_values, columns))],
        }
        yield json.dumps(payload, indent=2) + "\n"
        return
    lines = [f"# {key}: {_format_cell(value)}\n" for key, value in extras.items()]
    yield "".join(lines) + ",".join(header) + "\n"
    n_rows = len(columns[0]) if columns else 0
    width = len(columns)
    for lo in range(0, n_rows, ROWS_PER_BLOCK):
        hi = min(lo + ROWS_PER_BLOCK, n_rows)
        cells = [None] * ((hi - lo) * width)
        specs = []
        for j, column in enumerate(columns):
            spec, cells[j::width] = _format_column(column, lo, hi)
            specs.append(spec)
        yield ((",".join(specs) + "\n") * (hi - lo)) % tuple(cells)


@contextmanager
def _atomic_path(out_path: Path) -> Iterator[str]:
    """A temp file beside ``out_path``, renamed over it if the block succeeds.

    The temp file comes from ``mkstemp``, so every output gets its 0600
    mode; on any failure it is removed and ``out_path`` is left untouched.
    """
    import tempfile

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
        _validate_distance(d)
    return distances


def _metadata_overrides(args: argparse.Namespace) -> dict:
    return {
        "distance": getattr(args, "distance", None),
        "physical_error_rate": getattr(args, "p", None),
        "shots": getattr(args, "shots", None),
        "sec_cycle_ns": getattr(args, "sec_cycle_ns", None),
    }


def _load_trace(args: argparse.Namespace) -> RuntimeTrace:
    """The ``--trace`` file with its metadata."""
    from .trace import parse_trace

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
        trace.shots,
        trace.mean_ns(),
        trace.std_ns(),
        trace.max_runtime_ns,
        trace.percentile(0.50),
        trace.percentile(0.90),
        trace.percentile(0.99),
        trace.percentile(0.999),
        trace.percentile(1.0),
        trace.failure_count / trace.shots,
        trace.failure_count,
    ]
    extras = {k: v for k, v in trace.metadata._asdict().items() if k != "shots"}
    emit(
        render_table("trace-stats", header, [[v] for v in row], config.output_format, extras),
        args.out,
    )
    return 0


def cmd_stop(args: argparse.Namespace) -> int:
    from .stopping import stopping_curve

    config = _load_run_config(args)
    curve = stopping_curve(_load_trace(args))
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
    trace = _load_trace(args)
    config = _load_run_config(args, RunConfig(t_sec_ns=trace.metadata.sec_cycle_ns))
    d = trace.metadata.distance
    curve = range_curve(
        trace,
        d,
        config.epsilon,
        t_sec_ns=config.t_sec_ns,
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


def _mincost_inputs(args: argparse.Namespace):
    """Resolve (factory, p, distances, label, default config) for mincost.

    A trace's metadata supplies the default SEC cycle time.
    """
    if args.trace:
        trace = _load_trace(args)
        model = DecoderModel(
            name=Path(args.trace).stem,
            runtime=EmpiricalRuntime(trace),
            failure=HeuristicFailure(),
        )
        meta = trace.metadata
        factory = lambda d: model if d == meta.distance else None  # noqa: E731
        defaults = RunConfig(t_sec_ns=meta.sec_cycle_ns)
        return factory, meta.physical_error_rate, [meta.distance], model.name, defaults
    p = args.p if args.p is not None else 1e-3
    distances = _parse_distances(args.distances) if args.distances else list(range(3, 32, 2))
    return _resolve_decoder(args.decoder, p), p, distances, args.decoder, RunConfig()


def cmd_mincost(args: argparse.Namespace) -> int:
    from .cost import min_spacetime_costs

    if bool(args.trace) == bool(args.decoder):
        raise ConfigError("mincost requires exactly one of --decoder or --trace")
    factory, p, distances, label, defaults = _mincost_inputs(args)
    config = _load_run_config(args, defaults)
    n_T_values = _parse_int_list(args.nT)
    results = min_spacetime_costs(
        factory,
        p,
        n_T_values,
        distances,
        config.epsilon,
        t_sec_ns=config.t_sec_ns,
        schedule=config.schedule,
        min_events=config.min_failure_events,
    )
    costs, chosen_d, chosen_m, _ = zip(*results)
    columns = [n_T_values, costs, chosen_d, chosen_m]
    rate_method = "exact" if args.trace else "upper_bound"
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
    from .cost import compare_decoders

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
    columns = list(zip(*rows))  # n_T, cost_a, cost_b, ratio
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
    from .models import sample_trace
    from .trace import check_per_shot_rows, write_metadata, write_trace_csv

    model = _resolve_decoder(args.model, args.p)(args.d)
    shots = integer(args.shots)
    if args.per_shot:
        check_per_shot_rows(shots)  # before sampling, not after
    trace = sample_trace(
        model.runtime,
        model.failure,
        d=args.d,
        p=args.p,
        shots=shots,
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


def nonempty(text: str) -> str:
    """A file path or decoder name argument, which must not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=None, help="logical circuit error budget (default 0.5)")
    parser.add_argument("--t-sec-ns", dest="t_sec_ns", type=integer, default=None, help="SEC cycle time in ns (default 1000, or the trace's sec_cycle_ns for range and mincost --trace)")
    parser.add_argument("--min-events", dest="min_events", type=integer, default=None, help="failure events needed for significance (default 20)")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="output format (default csv)")
    parser.add_argument("--out", type=nonempty, default=None, help="output file (default stdout); written atomically")
    parser.add_argument("--seed", type=integer, default=None, help="RNG seed for synthetic sampling (default 0)")
    parser.add_argument("--config", type=nonempty, default=None, help="JSON settings file; flags take precedence")


def _add_trace_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", type=nonempty, required=True, help="trace CSV (per-shot or histogram layout)")
    parser.add_argument("--meta", type=nonempty, default=None, help="metadata sidecar JSON (default: trace path with .json)")
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

    for name, help_text, func in (
        ("trace-stats", "runtime/failure summary of a trace", cmd_trace_stats),
        ("stop", "interrupted failure statistics per stopping time", cmd_stop),
        ("range", "decoder range per significant stopping time", cmd_range),
    ):
        p_trace = sub.add_parser(name, help=help_text)
        _add_trace_inputs(p_trace)
        _add_common(p_trace)
        p_trace.set_defaults(func=func)

    p_surface = sub.add_parser("surface", help="range vs accuracy and stopping time")
    p_surface.add_argument("--d", type=integer, required=True, help="code distance")
    p_surface.add_argument("--p", type=float, required=True, help="physical error rate")
    p_surface.add_argument("--alphas", default=None, help="comma list of accuracies (default 0.05..1.0)")
    p_surface.add_argument("--m-cycles", dest="m_cycles", default=None, help="comma list of stopping times in cycles")
    _add_common(p_surface)
    p_surface.set_defaults(func=cmd_surface)

    p_mincost = sub.add_parser("mincost", help="minimum spacetime cost per workload size")
    p_mincost.add_argument("--decoder", type=nonempty, default=None, help=f"decoder config JSON or one of {', '.join(BUILTIN_DECODERS)}")
    p_mincost.add_argument("--trace", type=nonempty, default=None, help="trace CSV for a measured decoder")
    p_mincost.add_argument("--meta", type=nonempty, default=None, help="metadata sidecar for --trace")
    p_mincost.add_argument("--distance", type=integer, default=None, help="override metadata distance")
    p_mincost.add_argument("--shots", type=integer, default=None, help="override metadata shot count")
    p_mincost.add_argument("--sec-cycle-ns", dest="sec_cycle_ns", type=integer, default=None, help="override metadata SEC cycle time")
    p_mincost.add_argument("--p", type=float, default=None, help="physical error rate (default 1e-3 or trace metadata)")
    p_mincost.add_argument("--nT", required=True, help="comma list of T-gate counts")
    p_mincost.add_argument("--distances", default=None, help="odd distances, e.g. 3:31 or 3,5,7 (default 3:31)")
    _add_common(p_mincost)
    p_mincost.set_defaults(func=cmd_mincost)

    p_compare = sub.add_parser("compare", help="spacetime cost ratio of two decoders")
    p_compare.add_argument("--decoder-a", dest="decoder_a", type=nonempty, required=True)
    p_compare.add_argument("--decoder-b", dest="decoder_b", type=nonempty, required=True)
    p_compare.add_argument("--p", type=float, default=None, help="physical error rate (default 1e-3)")
    p_compare.add_argument("--nT", required=True, help="comma list of T-gate counts")
    p_compare.add_argument("--distances", default=None, help="odd distances (default 3:31)")
    _add_common(p_compare)
    p_compare.set_defaults(func=cmd_compare)

    p_synth = sub.add_parser("synth", help="sample a synthetic trace from a decoder model")
    p_synth.add_argument("--model", type=nonempty, required=True, help="quadratic, linear, instantaneous, or a decoder config JSON")
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


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"stopcost: warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one line each, no source
            return args.func(args)
    except InfeasibleError as exc:
        print(f"stopcost: infeasible: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # covers TraceParseError, TraceIntegrityError, ConfigError
        print(f"stopcost: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # an input beyond the float or int64 range, e.g. --nT 1e400
        print(f"stopcost: error: number out of range: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"stopcost: io error: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        # an input that asks for more than fits, e.g. --distances 3:1e13
        print("stopcost: error: out of memory", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Run :func:`main` on the command line and end the process with its
    exit code, without the interpreter's teardown.

    This is the ``stopcost`` console script and ``python -m stopcost.cli``.
    Skipping teardown is safe because every output file is closed and
    renamed before ``main`` returns and the program registers no
    ``atexit`` handler, so only the standard streams are left to flush.
    An exception out of ``main`` (argparse's ``SystemExit``, a bug) or out
    of a flush takes the normal exit, so its exit code and stderr are the
    interpreter's own.  Code that needs its ``atexit`` handlers to run
    calls ``main(argv)`` instead.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)  # the interpreter's final flush reports it
    os._exit(code)


if __name__ == "__main__":
    run()
