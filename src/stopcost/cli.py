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

Flags: --epsilon, --t-sec-ns, --min-events, --format {csv,json} and --seed
where the command reads that setting, --out, and --config naming a JSON file
of settings (precedence: flags > config file > defaults).  Exit codes: 0
success, 2 usage/validation error, 3 infeasible analysis, 4 I/O error.

Outputs are plot-ready tables.  ``main`` reads the ``--trace`` file and
the decoder config each decoder flag names, if the command takes them;
``t_sec_ns`` and ``--p`` default to the ``sec_cycle_ns`` and the
``physical_error_rate`` of the traces read, and the built-in decoders are
built at that p.  Each subcommand returns its ``Table``, which ``main``
renders and writes; ``synth`` writes its own trace pair.  A call imports
only its subcommand's module, which ``SUBCOMMANDS`` names.
CSV and JSON carry identical numerals (shortest round-trip decimals);
infeasible costs appear as ``inf`` in CSV and ``null`` in JSON.  Both are
written in blocks of ``ranges.ROWS_PER_BLOCK`` rows, JSON with the bytes of
``json.dumps(..., indent=2)``, and a trace's curves are computed in the
same blocks.  A block is written by the numpy kernel of
:mod:`stopcost.numerals` when it can write every cell, else by one ``%``
format (see :func:`render_table`).  Files are written atomically
(temp file + rename).
"""

from __future__ import annotations

import argparse
import errno
import importlib
import math
import os
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, NoReturn, Sequence

from . import ranges
from .command import BUILTIN_DECODERS, _atomic_path, nonempty
from .errors import ConfigError, InfeasibleError
from .ranges import GateSchedule
from .values import (
    _validate_probability,
    at_least,
    below_int64,
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

OUTPUT_FORMATS = ("csv", "json")
# The flags that name a decoder: a built-in name or a decoder config file.
DECODER_FLAGS = ("decoder", "decoder_a", "decoder_b", "model")


class RunConfig(NamedTuple):
    epsilon: float = 0.5
    t_sec_ns: int = 1000
    min_failure_events: int = 20
    schedule: GateSchedule = GateSchedule()
    format: str = "csv"
    seed: int = 0

    @property
    def pricing(self) -> tuple:
        """(epsilon, t_sec_ns, schedule, min_events), as the cost functions take them."""
        return self.epsilon, self.t_sec_ns, self.schedule, self.min_failure_events


def _output_format(value: str) -> str:
    if value not in OUTPUT_FORMATS:
        raise ConfigError(f"format must be {' or '.join(OUTPUT_FORMATS)}, got {value!r}")
    return value


# Each run setting's name (its RunConfig field, settings file key and flag
# dest) -> the parser of its JSON value, the check of the parsed value, and
# its flag, if any: the flag, its help with the default at "{}", and
# add_argument's other keywords.
SETTINGS = {
    "epsilon": (json_number, lambda v: _validate_probability(v, "epsilon"),
                "--epsilon", "logical circuit error budget (default {})", {"type": float}),
    "t_sec_ns": (json_integer, lambda v: below_int64(at_least(v, 1, "t_sec_ns"), "t_sec_ns"),
                 "--t-sec-ns", "SEC cycle time in ns (default: the sec_cycle_ns of the traces read, else {})", {"type": integer}),
    "min_failure_events": (json_integer, lambda v: at_least(v, 1, "min_events"), "--min-events",
                           "failure events needed for significance (default {})", {"type": integer, "metavar": "MIN_EVENTS"}),
    "schedule": (lambda v: json_fields(v, dict.fromkeys(GateSchedule._fields, json_integer), "schedule"),
                 lambda fields: GateSchedule(**fields), None, None, None),
    "format": (json_string, _output_format, "--format", "output format (default {})", {"choices": OUTPUT_FORMATS}),
    "seed": (json_integer, lambda v: at_least(v, 0, "seed"),
             "--seed", "RNG seed for synthetic sampling (default {})", {"type": integer}),
}


def _shared_metadata(traces: Iterable[RuntimeTrace | None], field: str, setters: str, default):
    """The metadata ``field`` shared by every trace in ``traces`` (``None`` is
    no trace), else ``default``; traces that disagree need ``setters``."""
    values = sorted({getattr(trace.metadata, field) for trace in traces if trace is not None})
    if len(values) > 1:
        raise ConfigError(f"the traces read disagree on {field} ({values[0]} and {values[1]}): set {setters}")
    return values[0] if values else default


def _load_run_config(args: argparse.Namespace, traces: Iterable[RuntimeTrace | None]) -> RunConfig:
    """The defaults, updated by the config file (any setting, read or not),
    then the flags.  ``t_sec_ns`` defaults to the ``sec_cycle_ns`` that
    every trace in ``traces`` shares, or to 1000 if there is none.

    A value from the file is checked as it is read, so its error names the
    file; a flag's value is checked as it overrides.
    """
    settings = {}
    if args.config:
        parsers = {key: lambda v, p=parse, c=check: c(p(v)) for key, (parse, check, *_) in SETTINGS.items()}
        settings = json_fields(read_json(args.config, "config"), parsers, f"config {args.config}")
    for key, (_, check, *_) in SETTINGS.items():
        if (value := getattr(args, key, None)) is not None:
            settings[key] = check(value)
    if "t_sec_ns" not in settings:
        settings["t_sec_ns"] = _shared_metadata(
            traces, "sec_cycle_ns", "--t-sec-ns or the settings file's t_sec_ns", RunConfig().t_sec_ns
        )
    return RunConfig(**settings)


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


def _repr_is_cell(column) -> bool:
    """Whether ``repr`` writes each value of a column as both formats' cell
    does: a numpy integer column, or a numpy float column with no nan or
    infinity, which the cell writes as ``inf`` or ``null``."""
    kind = getattr(getattr(column, "dtype", None), "kind", None)
    if kind == "f":
        import numpy as np  # loaded already: the column is a numpy array

        return bool(np.isfinite(column).all())
    return kind in ("i", "u")


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
    per block, and with ``(0, 0)`` for the header.  A block whose columns
    are all numpy integer or float arrays goes to
    :func:`stopcost.numerals.format_rows`.  A block it gives up, and any
    other block, is one ``%`` format: a row template repeated per row over
    the block's cells in row order, with ``%r`` over the values of a
    column whose ``repr`` is its cell (:func:`_repr_is_cell`) and ``%s``
    over ``cell(value)`` for any other column.  JSON has the bytes of one
    ``json.dumps(..., indent=2)`` of the whole table.
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
        parts = list(block(lo, hi).values())
        text = None
        if all(hasattr(part, "dtype") and part.dtype.kind in "iuf" for part in parts):
            from .numerals import format_rows

            text = format_rows(parts, between_rows + open_row, between_cells, close_row)
        if text is None:
            cells, specs = [None] * ((hi - lo) * width), []
            for j, part in enumerate(parts):
                exact = _repr_is_cell(part)
                values = part.tolist() if hasattr(part, "tolist") else part
                specs.append("%r" if exact else "%s")
                cells[j::width] = values if exact else map(cell, values)
            row = between_rows + open_row + between_cells.join(specs) + close_row
            text = (row * (hi - lo)) % tuple(cells)
        yield text if lo else text[len(between_rows) :]
    if tail:
        yield tail


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
    """A built-in decoder flag's model: the instantaneous one, or a
    reference family's distance -> model factory at ``p``."""
    from .models import DecoderModel, HeuristicFailure, InstantaneousRuntime, reference_decoder

    if source == "instantaneous":
        return DecoderModel("instantaneous", InstantaneousRuntime(), HeuristicFailure())
    return lambda d: reference_decoder(source, d, p)


def _load_decoder_config(source: str) -> DecoderModel:
    """A decoder flag's config file, whose module only such a call loads."""
    from .decoder_config import load_decoder_config

    return load_decoder_config(source)


def _add_common(parser: argparse.ArgumentParser, settings: Iterable[str]) -> None:
    """The flags of ``settings``, then ``--out`` unless the command adds its
    own, and ``--config``."""
    dests = {action.dest for action in parser._actions}
    for name in settings:
        _, _, flag, help_text, options = SETTINGS[name]
        help_text = help_text.format(RunConfig._field_defaults[name])
        parser.add_argument(flag, dest=name, default=None, help=help_text, **options)
    if "out" not in dests:
        parser.add_argument("--out", type=nonempty, default=None, help="output file (default stdout); written atomically")
    parser.add_argument("--config", type=nonempty, default=None, help="JSON settings file; flags take precedence")


# Each character ``str.splitlines`` breaks a line at, and its escape.
_LINE_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _report(text: str) -> None:
    """Print ``stopcost: <text>`` on stderr as one line: a line break in
    ``text`` (in a key or path read from the input, say) is written as its
    escape.  A stderr with no reader is pointed at the null device, as
    ``emit`` does with stdout, so the call keeps its output and exit code."""
    try:
        print(f"stopcost: {text.translate(_LINE_BREAKS)}", file=sys.stderr)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as one ``stopcost: error:`` line and exits 2,
    without argparse's usage text."""

    def error(self, message: str):
        _report(f"error: {message}")
        self.exit(2)


# (name, help, the module of its ``_add_<name>`` and ``cmd_<name>`` (``-`` as
# ``_``), the settings it reads that have a flag), in the order of the help.
_RANGE_SETTINGS = ("epsilon", "t_sec_ns", "min_failure_events", "format")
SUBCOMMANDS = (
    ("trace-stats", "runtime/failure summary of a trace", "trace_commands", ("format",)),
    ("stop", "interrupted failure statistics per stopping time", "trace_commands", ("format",)),
    ("range", "decoder range per significant stopping time", "trace_commands", _RANGE_SETTINGS),
    ("surface", "range vs accuracy and stopping time", "budget_commands", ("epsilon", "format")),
    ("mincost", "minimum spacetime cost per workload size", "cost_commands", _RANGE_SETTINGS),
    ("compare", "spacetime cost ratio of two decoders", "cost_commands", _RANGE_SETTINGS),
    ("synth", "sample a synthetic trace from a decoder model", "synth_command", ("t_sec_ns", "seed")),
    ("required-distance", "smallest viable code distance for a workload", "budget_commands", ("epsilon", "t_sec_ns", "format")),
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
    for name, help_text, module, settings in (
        [row for row in SUBCOMMANDS if row[0] == command] or SUBCOMMANDS
    ):
        commands = importlib.import_module(f".{module}", __package__)
        attr = name.replace("-", "_")
        sub_parser = sub.add_parser(name, help=help_text)
        getattr(commands, f"_add_{attr}")(sub_parser)
        _add_common(sub_parser, settings)
        sub_parser.set_defaults(func=getattr(commands, f"cmd_{attr}"))
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
            sources = {dest: source for dest in DECODER_FLAGS if (source := getattr(args, dest, None)) is not None}
            configs = {
                dest: _load_decoder_config(source) for dest, source in sources.items() if source not in BUILTIN_DECODERS
            }
            traces = [trace, *(model.runtime.trace for model in configs.values() if model.measured_distance is not None)]
            config = _load_run_config(args, traces)
            if args.p is None:  # every command takes --p: the one p of the call
                args.p = _shared_metadata(traces, "physical_error_rate", "--p", 1e-3)
            decoders = {
                dest: configs[dest] if dest in configs else _resolve_decoder(source, args.p)
                for dest, source in sources.items()
            }
            table = args.func(args, config, trace, **decoders)
            if table is None:  # synth wrote its own files
                return 0
            emit(render_table(args.command, table.columns, config.format, table.extras, table.rows), args.out)
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
