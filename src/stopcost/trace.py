"""Decoder runtime traces: empirical runtime distributions with failure counts.

A trace is a collection of per-shot (runtime, decode-failed) measurements
of a decoder running against a fixed code distance and physical error
rate.  Runtimes are integer nanoseconds throughout: histogram keys stay
exact and conversion to syndrome-extraction (SEC) cycles is an exact
ceiling division by the cycle time.

Two input layouts are accepted:

* per-shot CSV, header ``runtime_ns,failed`` with one row per shot;
* histogram CSV, header ``runtime_ns,count_total,count_failed`` with one
  row per distinct runtime (rows may be unsorted; duplicates merge).

Billion-shot traces are only practical in histogram form, so traces are
stored aggregated by distinct runtime regardless of the input layout.
The ``failed`` flag records failures of the *uninterrupted* decoder;
timeout failures are derived later, per stopping time (see
:mod:`stopcost.stopping`).

Trace integers are ASCII digits only (``[0-9]+``) and must be below 2**63.
A canonical file (the exact header on line 1, then only digits, commas
and ``\n``, every field 1-18 digits, a final newline) is read block-wise
with numpy and checked by reductions over each block.  A block leaves
this fast path only when it breaks the grammar or the file's counts pass
2**63; the file is then read by the row validator, which is the one
definition of the grammar and the source of every line-numbered error.
One-shot rows are aggregated by sorting their runtimes, and the failed
shots' runtimes, but a run of one repeated line is converted once per
read, however many blocks it spans.  Rows that are already a sorted
histogram pass through unsorted.  Every source's parts (both layouts' blocks,
the row validator's batches, ``synth``'s chunks) go through one fold
(:func:`fold_histograms`), which appends parts that ascend to its own
columns and merges the others, so a sorted histogram is held once.  The
trace keeps cumulative counts only, made in place in the fold's columns.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import TraceIntegrityError, TraceParseError
from .ranges import ROWS_PER_BLOCK
from .values import INT64_MAX, _validate_distance, _validate_probability, at_least, json_integer
from .values import below_int64, checked, json_fields, json_number, json_object, read_json

PER_SHOT_HEADER = ("runtime_ns", "failed")
HISTOGRAM_HEADER = ("runtime_ns", "count_total", "count_failed")

# Metadata field -> parser of its JSON value.
METADATA_FIELDS = {
    "distance": json_integer,
    "physical_error_rate": json_number,
    "shots": json_integer,
    "sec_cycle_ns": json_integer,
}

# Bytes per read of the canonical fast path.  Blocks of 64 KiB keep the
# parse of a 1e6-row per-shot trace at ~30 MiB peak RSS, ~1 MiB over the
# import (1 MiB blocks: ~41 MiB; whole file: ~96 MiB) at no cost in time.
BLOCK_BYTES = 1 << 16
# Per-shot runs of equal lines are written as repeated strings of at most
# about this many bytes.
WRITE_BYTES = 1 << 16
# Shots drawn, or counted, at a time within a sampling chunk; any slice size
# gives the same stream and the same counts, so this bounds memory without
# changing a single draw.
FLAG_SLICE_SHOTS = 1 << 16
# Most shots a per-shot trace is written with: ~9 GB at ~9 bytes per row,
# the ~1e9 shots per distance of a production measurement.
PER_SHOT_ROWS_LIMIT = 10**9

# The canonical grammar: fields of 1-18 ASCII digits (so every value fits
# int64), ',' between fields, '\n' after each row.
_CANONICAL_DIGITS = 18
_CANONICAL_HEADERS = {
    (",".join(header) + "\n").encode(): len(header)
    for header in (PER_SHOT_HEADER, HISTOGRAM_HEADER)
}
# Longest canonical row: three 18-digit fields, two commas and '\n'.
_CANONICAL_ROW_BYTES = 3 * _CANONICAL_DIGITS + 3
# The row validator aggregates its rows in batches of this size.
_VALIDATOR_BATCH_ROWS = 1 << 16


def aggregate_runtimes(
    runtimes: np.ndarray, totals: np.ndarray, failed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge (runtime, total, failed) rows into a sorted histogram.

    Returns the distinct runtimes ascending with their summed shot and
    failure counts; runtimes whose total is 0 are dropped.  Rows whose
    runtimes already strictly increase are a histogram: they are not
    sorted, and come back as they are unless a zero total is dropped.
    Sums are exact int64: callers keep the sum of ``totals`` below 2**63.
    """
    runtimes = np.asarray(runtimes, dtype=np.int64)
    totals = np.asarray(totals, dtype=np.int64)
    failed = np.asarray(failed, dtype=np.int64)
    if runtimes.size == 0:
        return runtimes, totals, failed
    if not (runtimes[1:] > runtimes[:-1]).all():
        order = np.argsort(runtimes)  # exact integer sums need no stable order
        runtimes = runtimes[order]
        starts = np.flatnonzero(np.concatenate(([True], runtimes[1:] != runtimes[:-1])))
        runtimes = runtimes[starts]
        totals = np.add.reduceat(totals[order], starts)
        failed = np.add.reduceat(failed[order], starts)
    keep = totals > 0
    if keep.all():
        return runtimes, totals, failed
    return runtimes[keep], totals[keep], failed[keep]


def aggregate_shots(
    runtimes: np.ndarray, failed_runtimes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`aggregate_runtimes` of one-shot rows, given every shot's
    runtime and the runtimes of the failed shots.

    The runtimes may be any non-negative integer codes that order like
    them (``synth`` passes narrow ones); the distinct values keep their
    dtype, and the counts are int64.  Codes of 2 bytes or fewer are
    counted with ``np.bincount``, which casts its input to intp, so one
    ``FLAG_SLICE_SHOTS`` slice at a time.  Wider ones are sorted, both
    arrays in place, so callers hand over arrays they own and do not read
    them afterwards: sorting ``runtimes`` gives the distinct runtimes and
    their counts, and sorting the failed runtimes the failure counts.
    """
    runtimes = np.asarray(runtimes)
    failures = np.asarray(failed_runtimes, dtype=runtimes.dtype)
    if runtimes.size == 0:
        no_counts = np.zeros(0, dtype=np.int64)
        return runtimes, no_counts, no_counts
    if runtimes.itemsize <= 2:
        size = int(runtimes.max()) + 1
        totals, failed_counts = np.zeros((2, size), dtype=np.int64)
        for counts, codes in ((totals, runtimes), (failed_counts, failures)):
            for start in range(0, codes.size, FLAG_SLICE_SHOTS):
                counts += np.bincount(codes[start : start + FLAG_SLICE_SHOTS], minlength=size)
        distinct = np.flatnonzero(totals)
        return distinct.astype(runtimes.dtype), totals[distinct], failed_counts[distinct]
    failures.sort()
    runtimes.sort()
    run_start = np.empty(runtimes.size, dtype=bool)
    run_start[0] = True
    np.not_equal(runtimes[1:], runtimes[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    distinct = runtimes[starts]
    totals = np.diff(starts, append=runtimes.size)
    failed_counts = np.diff(np.searchsorted(failures, distinct, side="right"), prepend=0)
    return distinct, totals, failed_counts


def fold_histograms(
    parts: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`aggregate_runtimes` over the rows of aggregated parts, taken one
    at a time, in new int64 columns that belong to the caller.

    While no part is held, a part whose first runtime is above the last one
    folded is appended to the columns, which grow in place by 1/8, so a
    sorted histogram is held once.  Any other part is held until the held
    rows outnumber the columns', then merged with them: a merge takes at
    most about twice the distinct runtimes plus one part's rows.
    """
    columns = tuple(np.empty(0, dtype=np.int64) for _ in range(3))
    filled = 0  # rows of the columns in use
    held: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    rows = 0  # of the held parts
    for part in parts:
        if not part[0].size:
            continue
        if not held and (not filled or part[0][0] > columns[0][filled - 1]):
            end = filled + part[0].size
            if end > columns[0].size:
                _resize(columns, end + end // 8)
            for column, values in zip(columns, part):
                column[filled:end] = values
            filled = end
            continue
        held.append(part)
        rows += part[0].size
        if rows > filled:
            _resize(columns, filled)
            columns = _merge([columns, *held])
            filled, held, rows = columns[0].size, [], 0
    _resize(columns, filled)
    return _merge([columns, *held]) if held else columns


def _resize(columns: tuple[np.ndarray, ...], rows: int) -> None:
    # In place: nothing else holds a view of the fold's columns.
    for column in columns:
        column.resize(rows, refcheck=False)


def _merge(
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`aggregate_runtimes` over the rows of several parts, in new arrays."""
    return aggregate_runtimes(*(np.concatenate(column) for column in zip(*parts)))


@checked
class TraceMetadata(NamedTuple):
    """Measurement context for a runtime trace."""

    distance: int
    physical_error_rate: float
    shots: int
    sec_cycle_ns: int

    def _check(self) -> None:
        _validate_distance(self.distance)
        _validate_probability(self.physical_error_rate, "physical_error_rate")
        at_least(self.shots, 1, "shots")
        below_int64(at_least(self.sec_cycle_ns, 1, "sec_cycle_ns"), "sec_cycle_ns")


class RuntimeTrace:
    """A decoder's empirical runtime distribution, with joint failure counts.

    ``runtimes_ns`` holds the distinct observed runtimes sorted ascending.
    ``cum_total[i]`` / ``cum_failed[i]`` count the shots / decode failures
    with runtime <= ``runtimes_ns[i]``; they are the trace's stored
    columns, because every analysis reads cumulative counts.  ``counts``
    and ``failed_counts``, per distinct runtime, are derived from them on
    each read.  No interpolation or smoothing is applied anywhere; all
    queries are exact counts over the sample.
    """

    def __init__(
        self,
        metadata: TraceMetadata,
        runtimes_ns: np.ndarray,
        counts: np.ndarray,
        failed_counts: np.ndarray,
    ):
        runtimes_ns = np.asarray(runtimes_ns, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        failed_counts = np.asarray(failed_counts, dtype=np.int64)
        if runtimes_ns.ndim != 1 or not runtimes_ns.shape == counts.shape == failed_counts.shape:
            raise ValueError(
                "runtimes, counts and failed counts must be 1-D columns of one length, got "
                f"shapes {runtimes_ns.shape}, {counts.shape} and {failed_counts.shape}"
            )
        if runtimes_ns.size == 0:
            raise ValueError("trace must contain at least one record")
        if (runtimes_ns[1:] <= runtimes_ns[:-1]).any():
            raise ValueError("runtimes must be strictly increasing")
        if runtimes_ns[0] < 0:
            raise ValueError("runtimes must be non-negative")
        if np.any(counts <= 0):
            raise ValueError("every histogram point needs a positive count")
        if np.any(failed_counts < 0) or np.any(failed_counts > counts):
            raise ValueError("failed counts must satisfy 0 <= failed <= total")
        self._store(metadata, runtimes_ns, counts.copy(), failed_counts.copy())

    @classmethod
    def _from_fold(
        cls,
        metadata: TraceMetadata,
        runtimes_ns: np.ndarray,
        counts: np.ndarray,
        failed_counts: np.ndarray,
    ) -> RuntimeTrace:
        """A trace of a :func:`fold_histograms` result, whose columns are
        valid by construction and belong to the caller: only the shot count
        is checked."""
        trace = cls.__new__(cls)
        trace._store(metadata, runtimes_ns, counts, failed_counts)
        return trace

    def _store(self, metadata, runtimes_ns, counts, failed_counts) -> None:
        """Keep int64 columns the trace owns; the counts turn cumulative in place."""
        cum_total = np.cumsum(counts, out=counts)
        shots = int(cum_total[-1])
        if shots != metadata.shots:
            raise TraceIntegrityError(
                f"trace contains {shots} records but metadata declares "
                f"{metadata.shots} shots"
            )
        self.metadata = metadata
        self.runtimes_ns = runtimes_ns
        self.cum_total = cum_total
        self.cum_failed = np.cumsum(failed_counts, out=failed_counts)
        self.shots = shots

    @property
    def counts(self) -> np.ndarray:
        """Shots per distinct runtime, a new read-only array on each read."""
        return _differences(self.cum_total)

    @property
    def failed_counts(self) -> np.ndarray:
        """Decode failures per distinct runtime, a new read-only array on each read."""
        return _differences(self.cum_failed)

    @property
    def failure_count(self) -> int:
        """Decode failures of the uninterrupted decoder."""
        return int(self.cum_failed[-1])

    @property
    def max_runtime_ns(self) -> int:
        """Largest runtime observed with nonzero probability (t_max)."""
        return int(self.runtimes_ns[-1])

    def percentile(self, q: float) -> int:
        """Smallest observed runtime within which at least a fraction ``q``
        of the shots finish."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {q}")
        # Compare cum/shots >= q in the same float arithmetic the caller
        # sees, so percentile(cum_total[i] / shots) never overshoots runtimes_ns[i].
        fractions = self.cum_total / self.shots
        idx = int(np.searchsorted(fractions, q, side="left"))
        idx = min(idx, len(self.runtimes_ns) - 1)
        return int(self.runtimes_ns[idx])

    def _float_counts(self) -> np.ndarray:
        """``counts.astype(float)``, with no int64 column on the way: each
        difference is taken exactly in int64 and then rounded."""
        counts = np.empty(self.cum_total.size)
        counts[0] = self.cum_total[0]
        np.subtract(self.cum_total[1:], self.cum_total[:-1], out=counts[1:])
        return counts

    def mean_ns(self) -> float:
        return float(np.dot(self.runtimes_ns.astype(float), self._float_counts())) / self.shots

    def std_ns(self) -> float:
        """Corrected (n-1) sample standard deviation; 0 for a single shot."""
        if self.shots < 2:
            warnings.warn(
                "standard deviation of a single-shot sample is degenerate",
                stacklevel=2,
            )
            return 0.0
        mean = self.mean_ns()
        dev = self.runtimes_ns.astype(float)  # one float temporary, squared in place
        dev -= mean
        dev *= dev
        return float(np.sqrt(np.dot(self._float_counts(), dev) / (self.shots - 1)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuntimeTrace):
            return NotImplemented
        return (
            self.metadata == other.metadata
            and np.array_equal(self.runtimes_ns, other.runtimes_ns)
            and np.array_equal(self.cum_total, other.cum_total)
            and np.array_equal(self.cum_failed, other.cum_failed)
        )


def _differences(cumulative: np.ndarray) -> np.ndarray:
    """The per-row counts whose running sum is ``cumulative``, read-only."""
    counts = cumulative.copy()
    counts[1:] -= cumulative[:-1]
    counts.flags.writeable = False
    return counts


def load_metadata(
    path: str | Path | None, overrides: Mapping[str, object] | None = None
) -> TraceMetadata:
    """Read a metadata sidecar JSON, applying CLI-style field overrides.

    Only the ``METADATA_FIELDS`` keys are read, and other keys are
    ignored.  Every field must be present after overrides; the file's
    values are read strictly (``null``, a boolean or a string fails), and
    the overrides, already typed, are only range-checked, so an error in
    one does not name the file.
    """
    what = "metadata" if path is None else f"metadata {path}"
    raw = {} if path is None else json_object(read_json(path, "metadata"), what)
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    from_file = [key for key in METADATA_FIELDS if key not in given]
    fields = json_fields(
        {key: raw[key] for key in from_file if key in raw}, METADATA_FIELDS, what, required=from_file
    )
    return TraceMetadata(**fields, **given)


def _parse_int(value: str, name: str, line: int) -> int:
    """A trace integer: ASCII digits, with a ``-`` sign let through only so
    that the caller's range check names a negative value."""
    digits = value[1:] if value[:1] == "-" else value
    if not (digits.isascii() and digits.isdigit()):
        raise TraceParseError(f"{name} must be an integer, got {value!r}", line)
    if len(digits) > 19:  # int() refuses over 4300 digits, leading zeros included
        digits = digits.lstrip("0") or "0"
    number = int(digits) if len(digits) <= 19 else INT64_MAX + 1
    if number > INT64_MAX:
        raise TraceParseError(f"{name} must be below 2**63", line)
    return -number if value[:1] == "-" else number


def _records(fh) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record of ``fh`` with the physical line it starts on (a
    quoted field can span lines); a malformed record raises
    :class:`TraceParseError` naming that line."""
    import csv

    reader = csv.reader(fh)
    line_no = 1
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise TraceParseError(str(exc), line_no) from exc
        yield line_no, row
        line_no = reader.line_num + 1


def _validated_columns(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row validator: parse any accepted trace layout row by row.

    This is the one definition of the trace grammar; every parse error
    names its line.  Returns the aggregated histogram columns.
    """
    return fold_histograms(_validated_parts(path))


def _validated_parts(
    path: str | Path,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The rows of :func:`_validated_columns`, aggregated in batches."""
    rows: list[tuple[int, int, int]] = []
    shots = 0
    header: Sequence[str] | None = None
    with open(path, newline="") as fh:
        for line_no, row in _records(fh):
            if not row or row[0].lstrip().startswith("#"):
                continue
            cells = [c.strip() for c in row]
            if header is None:
                header = tuple(cells)
                if header not in (PER_SHOT_HEADER, HISTOGRAM_HEADER):
                    raise TraceParseError(
                        f"unrecognized header {','.join(cells)!r}; expected "
                        f"{','.join(PER_SHOT_HEADER)!r} or "
                        f"{','.join(HISTOGRAM_HEADER)!r}",
                        line_no,
                    )
                continue
            if len(cells) != len(header):
                raise TraceParseError(
                    f"expected {len(header)} fields, got {len(cells)}", line_no
                )
            runtime = _parse_int(cells[0], "runtime_ns", line_no)
            if runtime < 0:
                raise TraceParseError(f"runtime_ns must be >= 0, got {runtime}", line_no)
            if len(header) == 2:
                if cells[1] not in ("0", "1"):
                    raise TraceParseError(
                        f"failed flag must be 0 or 1, got {cells[1]!r}", line_no
                    )
                total, failed = 1, int(cells[1])
            else:
                total = _parse_int(cells[1], "count_total", line_no)
                failed = _parse_int(cells[2], "count_failed", line_no)
                if total < 0 or failed < 0 or failed > total:
                    raise TraceParseError(
                        f"need 0 <= count_failed <= count_total, got "
                        f"({total}, {failed})",
                        line_no,
                    )
            shots += total
            if shots > INT64_MAX:
                raise TraceParseError(
                    "count_total summed over the trace must be below 2**63", line_no
                )
            rows.append((runtime, total, failed))
            if len(rows) == _VALIDATOR_BATCH_ROWS:
                yield aggregate_runtimes(*np.array(rows, dtype=np.int64).T)
                rows.clear()
    if header is None:
        raise TraceParseError("trace file has no header row")
    if rows:
        yield aggregate_runtimes(*np.array(rows, dtype=np.int64).T)


def _parse_block(
    block: bytes, fields: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """One block of whole canonical lines aggregated, or None if it breaks the
    grammar or its counts pass 2**63."""
    buf = np.frombuffer(block, dtype=np.uint8)
    # No byte is above '9', and every byte below '0' is a separator.  When
    # each fields-th one is a '\n' and all the others are commas, every row
    # is fields - 1 commas and a '\n'; then each field must be 1-18 digits.
    seps = np.flatnonzero(buf < ord("0"))
    rows, extra = divmod(seps.size, fields)
    ends = seps[fields - 1 :: fields]
    steps = seps[1:] - seps[:-1]  # each field's width plus one
    if (
        buf.max() > ord("9")
        or extra
        or np.count_nonzero(buf == ord(",")) != seps.size - rows
        or (buf[ends] != ord("\n")).any()
        or steps.min(initial=seps[0] + 1) < 2
        or steps.max(initial=seps[0] + 1) > _CANONICAL_DIGITS + 1
    ):
        return None
    if fields == 2:
        # The flag is the one byte between each row's comma and its '\n'.
        flags = buf[ends - 1]
        if (buf[ends - 2] != ord(",")).any() or flags.max() > ord("1"):
            return None
        text = buf.copy()  # blank each ',flag' to convert only the runtimes
        text[ends - 2] = text[ends - 1] = ord(" ")
        runtimes = np.fromstring(text.tobytes(), dtype=np.int64, sep="\n")
        if runtimes.size != rows:
            return None
        part = aggregate_shots(runtimes, runtimes[flags == ord("1")])
    else:
        values = np.fromstring(block[:-1].replace(b"\n", b","), dtype=np.int64, sep=",")
        if values.size != seps.size:
            return None
        runtimes, totals, failed = values.reshape(-1, 3).T
        if (failed > totals).any():
            return None
        # The block's counts must sum below 2**63; the exact sum is taken
        # only when the largest count on every row could pass it.
        if int(totals.max()) * rows > INT64_MAX and sum(totals.tolist()) > INT64_MAX:
            return None
        part = aggregate_runtimes(runtimes, totals, failed)
    return part


def _repeated_line(block: bytes) -> tuple[bytes, int]:
    """The first line of ``block`` and how many copies of it tile the block
    exactly, or ``block`` itself and 1 if no copies of one line do."""
    line = block[: block.index(b"\n") + 1]
    copies = len(block) // len(line)
    if len(block) != copies * len(line) or block != line * copies:
        return block, 1
    return line, copies


class _NotCanonical(Exception):
    """The fast path met bytes outside the canonical grammar."""


def _canonical_columns(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The fast path: the aggregated columns of a canonical trace file, read
    in blocks of ``BLOCK_BYTES``, or None for any file that is not canonical."""
    with open(path, "rb") as fh:
        fields = _CANONICAL_HEADERS.get(fh.readline(_CANONICAL_ROW_BYTES))
        if fields is None:
            return None
        try:
            return fold_histograms(_canonical_parts(fh, fields))
        except _NotCanonical:
            return None


def _canonical_parts(
    fh, fields: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each block of ``fh`` aggregated; raises :class:`_NotCanonical` at the
    first block that is not canonical.

    A block that is one line repeated is parsed as that line and its part
    multiplied by the copies; a block that repeats the previous block's
    line reuses that line's part, with no parse."""
    shots = 0
    pending = b""
    line, part = None, None  # the previous block's line if it was repeated, and its part
    while chunk := fh.read(BLOCK_BYTES):
        data = pending + chunk
        cut = data.rfind(b"\n") + 1
        pending = data[cut:]
        if len(pending) > _CANONICAL_ROW_BYTES:
            raise _NotCanonical
        if not cut:
            continue
        previous = line
        line, copies = _repeated_line(data[:cut])
        if line != previous:
            part = _parse_block(line, fields)
        if part is None:
            raise _NotCanonical
        if copies == 1:
            line = None  # hold no block past its parse
        shots += int(part[1].sum()) * copies
        if shots > INT64_MAX:
            raise _NotCanonical
        yield part if copies == 1 else (part[0], part[1] * copies, part[2] * copies)
    if pending:
        raise _NotCanonical  # no final newline


def parse_trace(
    path: str | Path,
    meta_path: str | Path | None = None,
    overrides: Mapping[str, object] | None = None,
) -> RuntimeTrace:
    """Parse a per-shot or histogram trace CSV into a :class:`RuntimeTrace`.

    The layout is detected from the header row.  Comment lines start with
    ``#``.  Metadata comes from the sidecar JSON at ``meta_path`` plus any
    overrides; all four fields are mandatory.  Canonical files are read
    block-wise; every other file, and every error, goes through the row
    validator.
    """
    columns = _canonical_columns(path)
    if columns is None:
        columns = _validated_columns(path)
    if columns[0].size == 0:
        raise TraceParseError("trace file has no data rows")
    return RuntimeTrace._from_fold(load_metadata(meta_path, overrides), *columns)


def check_per_shot_rows(shots: int) -> None:
    """Refuse a per-shot trace of more than ``PER_SHOT_ROWS_LIMIT`` shots."""
    if shots > PER_SHOT_ROWS_LIMIT:
        raise ValueError(
            f"per-shot output of {shots} shots is above the {PER_SHOT_ROWS_LIMIT}-row "
            "limit (trace.PER_SHOT_ROWS_LIMIT); write a histogram instead"
        )


def write_trace_csv(
    trace: RuntimeTrace, path: str | Path, per_shot: bool = False
) -> None:
    """Write a trace in histogram (default) or per-shot CSV layout.

    Per-shot rows come out sorted by runtime, successes first within each
    runtime; a trace of more than ``PER_SHOT_ROWS_LIMIT`` shots is refused.
    """
    if per_shot:
        check_per_shot_rows(trace.shots)
    columns = (trace.runtimes_ns, trace.counts, trace.failed_counts)
    with open(path, "w", newline="") as fh:
        if not per_shot:
            # Non-negative int64 columns, which the kernel always writes.
            from .numerals import format_rows

            fh.write(",".join(HISTOGRAM_HEADER) + "\n")
            for lo in range(0, trace.runtimes_ns.size, ROWS_PER_BLOCK):
                block = [column[lo : lo + ROWS_PER_BLOCK] for column in columns]
                fh.write(format_rows(block, "", ",", "\n"))
            return
        fh.write(",".join(PER_SHOT_HEADER) + "\n")
        for runtime, total, failed in zip(*(column.tolist() for column in columns)):
            for flag, repeat in ((0, total - failed), (1, failed)):
                line = f"{runtime},{flag}\n"
                step = max(1, WRITE_BYTES // len(line))
                for done in range(0, repeat, step):
                    fh.write(line * min(step, repeat - done))


def write_metadata(metadata: TraceMetadata, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(metadata._asdict(), fh, indent=2)
        fh.write("\n")
