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

Outputs are plot-ready tables.  ``main`` reads the ``--trace`` file, if
the command takes one, then the settings, whose ``t_sec_ns`` defaults to
the trace's ``sec_cycle_ns``; each subcommand returns its ``Table``, which
``main`` renders and writes; ``synth`` writes its own trace pair.
CSV and JSON carry identical numerals (shortest round-trip decimals);
infeasible costs appear as ``inf`` in CSV and ``null`` in JSON.  Both are
written in blocks of ``ranges.ROWS_PER_BLOCK`` rows, JSON with the bytes of
``json.dumps(..., indent=2)``, and a trace's curves are computed in the
same blocks.  Files are written atomically (temp file + rename).
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

from . import ranges
from .errors import ConfigError, InfeasibleError
from .ranges import GateSchedule, accuracy_surface, required_distance
from .values import (
    _validate_distance,
    _validate_probability,
    at_least,
    integer,
    json_fields,
    json_integer,
    json_number,
    json_string,
    read_json,
)

if TYPE_CHECKING:
    from .models import DecoderFactory, DecoderModel
    from .trace import RuntimeTrace

BUILTIN_DECODERS = ("quadratic", "linear", "instantaneous")
OUTPUT_FORMATS = ("csv", "json")
DEFAULT_SURFACE_ALPHAS = [round(0.05 * k, 2) for k in range(1, 21)]
DEFAULT_SURFACE_CYCLES = [0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]


class RunConfig(NamedTuple):
    epsilon: float = 0.5
    t_sec_ns: int = 1000
    min_failure_events: int = 20
    schedule: GateSchedule = GateSchedule()
    output_format: str = "csv"
    seed: int = 0

    @property
    def pricing(self) -> tuple:
        """(epsilon, t_sec_ns, schedule, min_events), as the cost functions take them."""
        return self.epsilon, self.t_sec_ns, self.schedule, self.min_failure_events


class Table(NamedTuple):
    """A subcommand's result, which ``main`` renders and writes.

    ``columns`` is what :func:`render_table` takes, with ``rows`` the row
    count of a block function.  ``infeasible`` is the reason the analysis
    has no feasible answer, if it has none: the table is still written,
    then the call exits 3.
    """

    columns: dict | Callable[[int, int], dict]
    extras: dict | None = None
    infeasible: str | None = None
    rows: int | None = None


def _output_format(value: str) -> str:
    if value not in OUTPUT_FORMATS:
        raise ConfigError(f"format must be {' or '.join(OUTPUT_FORMATS)}, got {value!r}")
    return value


# Config file key -> (RunConfig field, parser of the JSON value, check of
# the parsed value, the argparse dest of the flag that overrides it, if any).
CONFIG_KEYS = {
    "epsilon": ("epsilon", json_number, lambda v: _validate_probability(v, "epsilon"), "epsilon"),
    "t_sec_ns": ("t_sec_ns", json_integer, lambda v: at_least(v, 1, "t_sec_ns"), "t_sec_ns"),
    "min_failure_events": (
        "min_failure_events", json_integer, lambda v: at_least(v, 1, "min_events"), "min_events"
    ),
    "schedule": (
        "schedule",
        lambda v: json_fields(v, dict.fromkeys(GateSchedule._fields, json_integer), "schedule"),
        lambda fields: GateSchedule(**fields),
        None,
    ),
    "format": ("output_format", json_string, _output_format, "format"),
    "seed": ("seed", json_integer, lambda v: at_least(v, 0, "seed"), "seed"),
}


def _load_run_config(args: argparse.Namespace, trace: RuntimeTrace | None) -> RunConfig:
    """The defaults, with ``trace``'s SEC cycle time if a trace was read,
    updated by the config file, then the flags.

    A value from the file is checked as it is read, so its error names the
    file; a flag's value is checked as it overrides.
    """
    config = RunConfig() if trace is None else RunConfig(t_sec_ns=trace.metadata.sec_cycle_ns)
    settings = {}
    if args.config:
        parsers = {
            key: lambda v, parse=parse, check=check: check(parse(v))
            for key, (_, parse, check, _) in CONFIG_KEYS.items()
        }
        values = json_fields(read_json(args.config, "config"), parsers, f"config {args.config}")
        settings = {CONFIG_KEYS[key][0]: value for key, value in values.items()}
    for name, _, check, flag in CONFIG_KEYS.values():
        if flag and (value := getattr(args, flag)) is not None:
            settings[name] = check(value)
    return config._replace(**settings)


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


def _format_column(part, cell: Callable) -> tuple[str, list]:
    """One block of a column as a ``%`` spec and the values it takes, so
    that each cell formats as ``cell`` writes it."""
    if hasattr(part, "tolist"):  # a numpy array
        import numpy as np

        if part.dtype.kind in "iu":
            return "%d", part.tolist()
        if part.dtype.kind == "f" and np.isfinite(part).all():
            return "%r", part.tolist()
        return "%s", list(map(cell, part.tolist()))
    return "%s", list(map(cell, part))


def render_table(
    command: str,
    columns: dict | Callable[[int, int], dict],
    fmt: str,
    extras: dict | None = None,
    n_rows: int | None = None,
) -> Iterator[str]:
    """The table as text blocks: a head, one block per
    ``ranges.ROWS_PER_BLOCK`` rows, and for JSON a close.

    ``columns`` maps each header name to its column, an equal-length numpy
    array or Python list, or is a function ``block(lo, hi)`` giving rows
    ``lo:hi`` of an ``n_rows``-row table as such a map; it is called once
    per block, and with ``(0, 0)`` for the header.  A block is one ``%``
    format: a row template with one spec per column, repeated per row and
    joined by the row separator, over the block's cells in row order.
    JSON has the bytes of one ``json.dumps(..., indent=2)`` of the whole
    table.
    """
    extras = extras or {}
    block = columns
    if not callable(block):
        block = lambda lo, hi: {name: column[lo:hi] for name, column in columns.items()}  # noqa: E731
        n_rows = len(next(iter(columns.values()))) if columns else 0
    header = list(block(0, 0))
    if fmt == "json":
        import json

        dumps = json.dumps
        cell = lambda value: dumps(_json_safe(value))  # noqa: E731
        safe_extras = {key: _json_safe(value) for key, value in extras.items()}
        payload = {"command": command, **safe_extras, "columns": header, "rows": []}
        before, after = dumps(payload, indent=2).rsplit("[]", 1)
        head, tail = before + "[", ("\n  ]" if n_rows else "]") + after + "\n"
        open_row, between_cells, close_row = "\n    [\n      ", ",\n      ", "\n    ]"
        between_rows = ","
    else:
        cell = _format_cell
        lines = [f"# {key}: {_format_cell(value)}\n" for key, value in extras.items()]
        head, tail = "".join(lines) + ",".join(header) + "\n", ""
        open_row, between_cells, close_row, between_rows = "", ",", "\n", ""
    yield head
    width, step = len(header), ranges.ROWS_PER_BLOCK
    for lo in range(0, n_rows, step):
        hi = min(lo + step, n_rows)
        cells = [None] * ((hi - lo) * width)
        specs = []
        for j, part in enumerate(block(lo, hi).values()):
            spec, cells[j::width] = _format_column(part, cell)
            specs.append(spec)
        row = open_row + between_cells.join(specs) + close_row
        yield ((between_rows if lo else "") + between_rows.join([row] * (hi - lo))) % tuple(cells)
    if tail:
        yield tail


@contextmanager
def _atomic_path(out_path: Path) -> Iterator[str]:
    """A temp file beside ``out_path``, renamed over it if the block succeeds.

    The temp file comes from ``mkstemp``, so every output gets its 0600
    mode; on any failure it is removed and ``out_path`` is left untouched.
    A temp file that cannot be made or renamed is reported under
    ``out_path``'s name.
    """
    import tempfile

    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=out_path.parent, prefix=out_path.name, suffix=".tmp"
        )
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(out_path)) from None
    os.close(fd)
    try:
        yield tmp_name
        try:
            os.replace(tmp_name, out_path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(out_path)) from None
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


def _parse_list(text: str, parse: Callable = integer) -> list:
    """A comma list of at least one value, each read by ``parse``."""
    values = [parse(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty {'integer' if parse is integer else 'float'} list {text!r}")
    return values


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


def _load_trace(args: argparse.Namespace) -> RuntimeTrace:
    """The ``--trace`` file with its metadata, as the flags override it."""
    from .trace import parse_trace

    meta = args.meta
    if meta is None:
        sidecar = Path(args.trace).with_suffix(".json")
        if sidecar.exists():
            meta = sidecar
    overrides = {
        "distance": args.distance,
        "physical_error_rate": args.p,
        "shots": args.shots,
        "sec_cycle_ns": args.sec_cycle_ns,
    }
    return parse_trace(args.trace, meta, overrides)


def _resolve_decoder(source: str, p: float) -> DecoderModel | DecoderFactory:
    """A --decoder argument's model: a config's, the instantaneous one, or
    a reference family's distance -> model factory at ``p``."""
    from .models import (
        DecoderModel,
        HeuristicFailure,
        InstantaneousRuntime,
        load_decoder_config,
        make_reference_decoders,
    )

    if source == "quadratic":
        return lambda d: make_reference_decoders(d, p)[0]
    if source == "linear":
        return lambda d: make_reference_decoders(d, p)[1]
    if source == "instantaneous":
        return DecoderModel("instantaneous", InstantaneousRuntime(), HeuristicFailure())
    return load_decoder_config(source)


# ---------------------------------------------------------------------------
# Subcommands


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


def cmd_surface(args: argparse.Namespace, config: RunConfig, trace: None) -> Table:
    alphas = DEFAULT_SURFACE_ALPHAS if args.alphas is None else _parse_list(args.alphas, float)
    cycles = DEFAULT_SURFACE_CYCLES if args.m_cycles is None else _parse_list(args.m_cycles)
    rows = accuracy_surface(
        args.d, args.p, config.epsilon, alphas, cycles, schedule=config.schedule
    )
    extras = {"distance": args.d, "physical_error_rate": args.p, "epsilon": config.epsilon}
    return Table(dict(zip(("alpha", "M_cycles", "range"), zip(*rows))), extras)


def cmd_mincost(args: argparse.Namespace, config: RunConfig, trace: RuntimeTrace | None) -> Table:
    """A measured decoder (a ``--trace`` or a config's) is priced at its
    trace's distance, an analytic one at every ``--distances`` value."""
    from .cost import min_spacetime_costs
    from .models import DecoderModel, EmpiricalRuntime, HeuristicFailure, _model_at

    distances = _parse_distances(args.distances)
    if trace is not None:
        label, p = Path(args.trace).stem, trace.metadata.physical_error_rate
        decoder = DecoderModel(label, EmpiricalRuntime(trace), HeuristicFailure())
    else:
        label, p = args.decoder, (1e-3 if args.p is None else args.p)
        decoder = _resolve_decoder(label, p)
    n_T_values = _parse_list(args.nT)
    results = min_spacetime_costs(decoder, p, n_T_values, distances, *config.pricing)
    costs, chosen_d, chosen_m, _ = zip(*results)
    columns = {"n_T": n_T_values, "cost": costs, "distance": chosen_d, "M_ns": chosen_m}
    rate_method = _model_at(decoder, distances[0]).rate_method
    extras = {"decoder": label, "physical_error_rate": p, "rate_method": rate_method}
    infeasible = None
    if not any(r.feasible for r in results):
        infeasible = "no (distance, stopping time) pair reaches any requested n_T"
    return Table(columns, extras, infeasible)


def cmd_compare(args: argparse.Namespace, config: RunConfig, trace: None) -> Table:
    from .cost import compare_decoders

    distances = _parse_distances(args.distances)
    rows = compare_decoders(
        _resolve_decoder(args.decoder_a, args.p),
        _resolve_decoder(args.decoder_b, args.p),
        args.p,
        _parse_list(args.nT),
        distances,
        *config.pricing,
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


def cmd_synth(args: argparse.Namespace, config: RunConfig, trace: None) -> None:
    if args.out is None:
        raise ConfigError("synth requires --out for the trace file")
    out_path = Path(args.out)
    meta_path = out_path.with_suffix(".json")
    if meta_path == out_path:
        raise ConfigError(f"synth --out {args.out} would be overwritten by its .json sidecar")
    from .models import _model_at, sample_trace
    from .trace import check_per_shot_rows, write_metadata, write_trace_csv

    model = _model_at(_resolve_decoder(args.model, args.p), args.d)
    if model.measured_distance not in (None, args.d):
        raise ConfigError(
            f"synth --model {args.model}: its empirical runtime was not measured at --d {args.d}"
        )
    if args.per_shot:
        check_per_shot_rows(args.shots)  # before sampling, not after
    trace = sample_trace(
        model.runtime,
        model.failure,
        d=args.d,
        p=args.p,
        shots=args.shots,
        seed=config.seed,
        sec_cycle_ns=config.t_sec_ns,
    )
    # The sidecar is renamed into place first, so a reader never pairs a
    # new trace with an old sidecar; either write failing leaves both as
    # they were.
    with _atomic_path(out_path) as trace_tmp, _atomic_path(meta_path) as meta_tmp:
        write_trace_csv(trace, trace_tmp, per_shot=args.per_shot)
        write_metadata(trace.metadata, meta_tmp)


def cmd_required_distance(args: argparse.Namespace, config: RunConfig, trace: None) -> Table:
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


# ---------------------------------------------------------------------------
# Parser


def nonempty(text: str) -> str:
    """A file path or decoder name argument, which must not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, default=None, help="logical circuit error budget (default 0.5)")
    parser.add_argument("--t-sec-ns", dest="t_sec_ns", type=integer, default=None, help="SEC cycle time in ns (default: the trace's sec_cycle_ns if the command reads a trace, else 1000)")
    parser.add_argument("--min-events", dest="min_events", type=integer, default=None, help="failure events needed for significance (default 20)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default=None, help="output format (default csv)")
    parser.add_argument("--out", type=nonempty, default=None, help="output file (default stdout); written atomically")
    parser.add_argument("--seed", type=integer, default=None, help="RNG seed for synthetic sampling (default 0)")
    parser.add_argument("--config", type=nonempty, default=None, help="JSON settings file; flags take precedence")


def _add_trace_inputs(parser: argparse.ArgumentParser, source=None) -> None:
    """The trace flags, ``--trace`` required or else in ``source``'s exclusive group."""
    (source or parser).add_argument("--trace", type=nonempty, required=source is None, help="trace CSV (per-shot or histogram layout)")
    parser.add_argument("--meta", type=nonempty, default=None, help="metadata sidecar JSON (default: trace path with .json)")
    parser.add_argument("--distance", type=integer, default=None, help="override metadata distance")
    parser.add_argument("--p", type=float, default=None, help="override metadata physical error rate")
    parser.add_argument("--shots", type=integer, default=None, help="override metadata shot count")
    parser.add_argument("--sec-cycle-ns", dest="sec_cycle_ns", type=integer, default=None, help="override metadata SEC cycle time")


# Each character ``str.splitlines`` breaks a line at, and its escape.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _report(text: str) -> None:
    """Print ``stopcost: <text>`` on stderr as one line: a line break in
    ``text`` (in a key or path read from the input, say) is written as its
    escape."""
    print(f"stopcost: {text.translate(_LINE_BREAKS)}", file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``stopcost: error:`` line and exits 2,
    without argparse's usage text."""

    def error(self, message: str):
        _report(f"error: {message}")
        self.exit(2)


def _add_surface(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d", type=integer, required=True, help="code distance")
    parser.add_argument("--p", type=float, required=True, help="physical error rate")
    parser.add_argument("--alphas", default=None, help="comma list of accuracies (default 0.05..1.0)")
    parser.add_argument("--m-cycles", dest="m_cycles", default=None, help="comma list of stopping times in cycles")


def _add_mincost(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--decoder", type=nonempty, default=None, help=f"decoder config JSON or one of {', '.join(BUILTIN_DECODERS)}; --p sets its physical error rate (default 1e-3)")
    _add_trace_inputs(parser, source)
    parser.add_argument("--nT", required=True, help="comma list of T-gate counts")
    parser.add_argument("--distances", default="3:31", help="odd distances for an analytic decoder, e.g. 3:31 or 3,5,7 (default 3:31); a measured one uses its trace's d")


def _add_compare(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--decoder-a", dest="decoder_a", type=nonempty, required=True)
    parser.add_argument("--decoder-b", dest="decoder_b", type=nonempty, required=True)
    parser.add_argument("--p", type=float, default=1e-3, help="physical error rate (default 1e-3)")
    parser.add_argument("--nT", required=True, help="comma list of T-gate counts")
    parser.add_argument("--distances", default="3:31", help="odd distances for an analytic decoder (default 3:31); a measured one uses its trace's d")


def _add_synth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=nonempty, required=True, help="quadratic, linear, instantaneous, or a decoder config JSON")
    parser.add_argument("--d", type=integer, required=True, help="code distance")
    parser.add_argument("--p", type=float, required=True, help="physical error rate")
    parser.add_argument("--shots", type=integer, required=True, help="number of shots")
    parser.add_argument("--per-shot", dest="per_shot", action="store_true", help="write per-shot rows instead of a histogram")


def _add_required_distance(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nT", type=integer, required=True, help="number of T gates")
    parser.add_argument("--p", type=float, default=1e-3, help="physical error rate (default 1e-3)")
    parser.add_argument("--delay-ns", dest="delay_ns", type=integer, default=0, help="decoding delay per T gate in ns")
    parser.add_argument("--d-max", dest="d_max", type=integer, default=99, help="largest odd distance to try")


# (name, help, adds its own arguments, runs it), in the order the help
# lists them; every subcommand then takes the common flags.
SUBCOMMANDS = (
    ("trace-stats", "runtime/failure summary of a trace", _add_trace_inputs, cmd_trace_stats),
    ("stop", "interrupted failure statistics per stopping time", _add_trace_inputs, cmd_stop),
    ("range", "decoder range per significant stopping time", _add_trace_inputs, cmd_range),
    ("surface", "range vs accuracy and stopping time", _add_surface, cmd_surface),
    ("mincost", "minimum spacetime cost per workload size", _add_mincost, cmd_mincost),
    ("compare", "spacetime cost ratio of two decoders", _add_compare, cmd_compare),
    ("synth", "sample a synthetic trace from a decoder model", _add_synth, cmd_synth),
    ("required-distance", "smallest viable code distance for a workload", _add_required_distance, cmd_required_distance),
)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of ``command`` if it names
    one.  A subcommand's usage, help and errors are the same either way;
    the top-level help and an unknown command's error list every one."""
    parser = _ArgumentParser(
        prog="stopcost",
        description="Stopping-time, range, and spacetime-cost analysis for surface code decoders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, func in (
        [row for row in SUBCOMMANDS if row[0] == command] or SUBCOMMANDS
    ):
        sub_parser = sub.add_parser(name, help=help_text)
        add_arguments(sub_parser)
        _add_common(sub_parser)
        sub_parser.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The first argument names the subcommand, unless it is an option
    # (-h) or no subcommand's name.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    shown: set[str] = set()

    def show_warning(message, category, filename, lineno, file=None, line=None) -> None:
        # One line each, no source, and each text once per call.
        if str(message) not in shown:
            shown.add(str(message))
            _report(f"warning: {message}")

    try:
        with warnings.catch_warnings():
            warnings.showwarning = show_warning
            trace = _load_trace(args) if getattr(args, "trace", None) else None
            config = _load_run_config(args, trace)
            table = args.func(args, config, trace)
            if table is None:  # synth wrote its own files
                return 0
            emit(render_table(args.command, table.columns, config.output_format, table.extras, table.rows), args.out)
            if table.infeasible:
                raise InfeasibleError(table.infeasible)
            return 0
    except InfeasibleError as exc:
        _report(f"infeasible: {exc}")
        return 3
    except ValueError as exc:
        # covers TraceParseError, TraceIntegrityError, ConfigError
        _report(f"error: {exc}")
        return 2
    except OverflowError as exc:
        # an input beyond the float or int64 range, e.g. --nT 1e400
        _report(f"error: number out of range: {exc}")
        return 2
    except OSError as exc:
        _report(f"io error: {exc}")
        return 4
    except MemoryError:
        # an input that asks for more than fits, e.g. --distances 3:1e13
        _report("error: out of memory")
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
