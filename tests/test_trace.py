import contextlib
import csv
import functools
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    chunk_draws,
    count_at_or_below,
    iter_records,
    points,
    survival,
    trace_from_records,
)
from stopcost import cli
from stopcost import models as models_module
from stopcost import trace as trace_module
from stopcost import (
    BinomialRuntime,
    ConfigError,
    EmpiricalFailure,
    RuntimeTrace,
    TraceIntegrityError,
    TraceMetadata,
    TraceParseError,
    parse_trace,
    sample_trace,
    stopping_curve,
    write_trace_csv,
)

META = {"distance": 5, "physical_error_rate": 1e-3, "shots": 3, "sec_cycle_ns": 1000}


def write_inputs(tmp_path, csv_text, meta=META):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text(csv_text)
    meta_path = tmp_path / "trace.json"
    meta_path.write_text(json.dumps(meta))
    return trace_path, meta_path


def test_parse_per_shot(tmp_path):
    trace_path, meta_path = write_inputs(
        tmp_path, "runtime_ns,failed\n500,0\n700,1\n500,0\n"
    )
    trace = parse_trace(trace_path, meta_path)
    assert trace.shots == 3
    assert trace.failure_count == 1
    assert list(trace.runtimes_ns) == [500, 700]
    assert list(trace.counts) == [2, 1]


def test_parse_histogram_matches_per_shot(tmp_path):
    per_shot, meta_path = write_inputs(
        tmp_path, "runtime_ns,failed\n500,0\n700,1\n500,0\n"
    )
    hist_path = tmp_path / "hist.csv"
    hist_path.write_text("runtime_ns,count_total,count_failed\n500,2,0\n700,1,1\n")
    assert parse_trace(hist_path, meta_path) == parse_trace(per_shot, meta_path)


def test_parse_histogram_merges_unsorted_duplicates(tmp_path):
    meta = dict(META, shots=5)
    trace_path, meta_path = write_inputs(
        tmp_path,
        "runtime_ns,count_total,count_failed\n# comment row\n700,1,1\n500,2,0\n500,2,1\n",
        meta,
    )
    trace = parse_trace(trace_path, meta_path)
    assert list(trace.runtimes_ns) == [500, 700]
    assert list(trace.counts) == [4, 1]
    assert list(trace.failed_counts) == [1, 1]


def test_parse_histogram_drops_zero_count_rows(tmp_path):
    trace_path, meta_path = write_inputs(
        tmp_path, "runtime_ns,count_total,count_failed\n400,0,0\n500,3,1\n"
    )
    trace = parse_trace(trace_path, meta_path)
    assert list(trace.runtimes_ns) == [500]


def test_parse_shot_count_mismatch(tmp_path):
    trace_path, meta_path = write_inputs(
        tmp_path, "runtime_ns,failed\n500,0\n700,1\n500,0\n", dict(META, shots=4)
    )
    with pytest.raises(TraceIntegrityError):
        parse_trace(trace_path, meta_path)


def test_parse_malformed_row_names_line(tmp_path):
    trace_path, meta_path = write_inputs(
        tmp_path, "runtime_ns,failed\n500,0\nnot-a-number,1\n500,0\n"
    )
    with pytest.raises(TraceParseError, match="line 3"):
        parse_trace(trace_path, meta_path)


def test_parse_bad_failed_flag(tmp_path):
    trace_path, meta_path = write_inputs(tmp_path, "runtime_ns,failed\n500,2\n")
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace(trace_path, meta_path)


@pytest.mark.parametrize(
    "text,error",
    [
        # The quoted field spans lines 2-3 and is skipped as a comment.
        ('runtime_ns,failed\n"# note\n5",0\n7,x\n', "line 4: failed flag must be 0 or 1"),
        # A bad record that spans lines is named by its first line.
        ('runtime_ns,failed\n\n500,0\n"7\nx",1\n', "line 4: runtime_ns must be an integer"),
        ('runtime_ns,failed\n"5\n\n",0\n\n8,2\n', "line 6: failed flag must be 0 or 1"),
    ],
)
def test_errors_name_the_physical_line(tmp_path, text, error):
    trace_path, meta_path = write_inputs(tmp_path, text)
    with pytest.raises(TraceParseError, match=error):
        parse_trace(trace_path, meta_path)


def test_csv_reader_error_names_its_line(tmp_path):
    # A quoted field past the csv module's field size limit.
    text = 'runtime_ns,failed\n500,0\n"' + "1" * 200_000 + '",0\n'
    trace_path, meta_path = write_inputs(tmp_path, text)
    with pytest.raises(TraceParseError, match="line 3: field larger than field limit"):
        parse_trace(trace_path, meta_path)


def test_parse_unknown_header(tmp_path):
    trace_path, meta_path = write_inputs(tmp_path, "runtime,fail\n500,0\n")
    with pytest.raises(TraceParseError, match="header"):
        parse_trace(trace_path, meta_path)


def test_missing_metadata_field(tmp_path):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("runtime_ns,failed\n500,0\n")
    meta_path = tmp_path / "trace.json"
    meta_path.write_text(json.dumps({"distance": 5, "shots": 1}))
    with pytest.raises(ConfigError, match="physical_error_rate"):
        parse_trace(trace_path, meta_path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("shots", "3", 'expected an integer, got "3"'),
        ("physical_error_rate", "0.001", 'expected a number, got "0.001"'),
    ],
)
def test_metadata_numbers_must_be_json_numbers(tmp_path, field, value, message):
    meta = {**META, field: value}
    trace_path, meta_path = write_inputs(tmp_path, "runtime_ns,failed\n500,0\n", meta)
    with pytest.raises(ConfigError) as err:
        parse_trace(trace_path, meta_path)
    assert str(err.value) == f"metadata {meta_path} key {field!r}: {message}"


def test_sidecar_ignores_unknown_keys(tmp_path):
    trace_path, meta_path = write_inputs(tmp_path, "runtime_ns,failed\n500,0\n700,1\n500,0\n")
    extra_path = tmp_path / "extra.json"
    extra_path.write_text(json.dumps({**META, "decoder": "pymatching"}))
    assert parse_trace(trace_path, extra_path) == parse_trace(trace_path, meta_path)


def test_metadata_overrides_fill_gaps(tmp_path):
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("runtime_ns,failed\n500,0\n")
    trace = parse_trace(
        trace_path,
        None,
        {"distance": 3, "physical_error_rate": 1e-3, "shots": 1, "sec_cycle_ns": 1000},
    )
    assert trace.metadata.distance == 3


@pytest.mark.parametrize("p", [math.nan, math.inf])
def test_metadata_override_error_does_not_name_the_sidecar(tmp_path, p):
    """An override is range-checked as the flag it came from, not read as a
    value of the sidecar it replaces."""
    trace_path, meta_path = write_inputs(tmp_path, "runtime_ns,failed\n500,0\n")
    with pytest.raises(ValueError) as err:
        parse_trace(trace_path, meta_path, {"physical_error_rate": p})
    assert str(err.value) == f"physical_error_rate must be in (0, 1), got {p}"


@pytest.mark.parametrize(
    "field,value",
    [
        ("distance", 4),
        ("distance", 1),
        ("physical_error_rate", 0.0),
        ("physical_error_rate", 1.0),
        ("shots", 0),
        ("sec_cycle_ns", 0),
        ("sec_cycle_ns", 2**63),
    ],
)
def test_metadata_invariants(field, value):
    kwargs = dict(distance=5, physical_error_rate=1e-3, shots=10, sec_cycle_ns=1000)
    kwargs[field] = value
    with pytest.raises(ValueError):
        TraceMetadata(**kwargs)


def make_trace(records, **meta_overrides):
    meta = dict(
        distance=5, physical_error_rate=1e-3, shots=len(records), sec_cycle_ns=1000
    )
    meta.update(meta_overrides)
    return trace_from_records(TraceMetadata(**meta), records)


def test_build_distribution_hand_counts():
    dist = make_trace([(5, False), (5, True), (9, False)])
    assert points(dist) == [(5, 2, 1), (9, 3, 1)]
    assert dist.max_runtime_ns == 9


def test_build_distribution_singleton():
    dist = make_trace([(0, False)])
    assert points(dist) == [(0, 1, 0)]
    assert dist.max_runtime_ns == 0


def test_empty_trace_rejected():
    meta = TraceMetadata(distance=5, physical_error_rate=1e-3, shots=1, sec_cycle_ns=1000)
    with pytest.raises(ValueError):
        RuntimeTrace(meta, np.array([]), np.array([]), np.array([]))


@pytest.mark.parametrize(
    "columns",
    [([1, 2], [1, 2], [1]), ([1, 2], [3], [0]), ([[1, 2]], [[1, 2]], [[0, 0]])],
    ids=["short failed counts", "short counts", "2-D columns"],
)
def test_trace_refuses_columns_of_other_shapes(columns):
    meta = TraceMetadata(distance=5, physical_error_rate=1e-3, shots=3, sec_cycle_ns=1000)
    with pytest.raises(ValueError, match="1-D columns of one length"):
        RuntimeTrace(meta, *columns)


def test_survival_hand_counts():
    dist = make_trace([(5, False), (5, True), (9, False)])
    expected = [1 / 3, 0.0, 0.0, 1.0]
    assert [survival(dist, m) for m in (5, 9, 10, 4)] == expected
    # The curve's rows are the observed runtimes, 5 and 9.
    assert stopping_curve(dist).timeout_probability.tolist() == expected[:2]
    with pytest.raises(ValueError):
        survival(dist, -1)


def test_percentile_hand_counts():
    dist = make_trace([(5, False), (5, True), (9, False)])
    assert dist.percentile(1.0) == 9
    assert dist.percentile(0.99) == 9
    assert dist.percentile(0.0) == 5
    assert dist.percentile(0.5) == 5
    with pytest.raises(ValueError):
        dist.percentile(1.5)
    with pytest.raises(ValueError):
        dist.percentile(-0.1)


def random_trace(rng, max_runtime=200, max_shots=400):
    shots = int(rng.integers(1, max_shots))
    runtimes = rng.integers(1, max_runtime, size=shots)
    failed = rng.random(shots) < rng.random() * 0.5
    return make_trace(list(zip(runtimes.tolist(), failed.tolist())))


def test_survival_properties_random_traces():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dist = random_trace(rng)
        grid = [0, *dist.runtimes_ns.tolist(), dist.max_runtime_ns + 5]
        values = [survival(dist, m) for m in grid]
        # grid[1:-1] are the observed runtimes, the curve's rows.
        assert stopping_curve(dist).timeout_probability.tolist() == values[1:-1]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert survival(dist, dist.max_runtime_ns) == 0.0
        first = int(dist.runtimes_ns[0])
        if first > 0:
            assert survival(dist, first - 1) == 1.0


def test_percentile_properties_random_traces():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dist = random_trace(rng)
        qs = np.linspace(0, 1, 23)
        values = [dist.percentile(q) for q in qs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        for t in dist.runtimes_ns.tolist():
            q = count_at_or_below(dist, t) / dist.shots
            assert dist.percentile(q) <= t


def test_single_shot_std_is_zero_with_warning():
    dist = make_trace([(500, False)])
    with pytest.warns(UserWarning, match="degenerate"):
        assert dist.std_ns() == 0.0


def test_count_conservation_random_traces():
    rng = np.random.default_rng(13)
    for _ in range(20):
        trace = random_trace(rng)
        assert int(trace.counts.sum()) == trace.metadata.shots
        assert int(trace.cum_total[-1]) == trace.metadata.shots


# ---------------------------------------------------------------------------
# Strict trace integers and oversized values


@pytest.mark.parametrize("value", ["1_000", "+5", "٥", "1e3", "0x10", "5.0", ""])
@pytest.mark.parametrize("layout", ["per_shot", "histogram"])
def test_trace_integers_are_ascii_digits_only(tmp_path, layout, value):
    if layout == "per_shot":
        text = f"runtime_ns,failed\n500,0\n{value},1\n"
    else:
        text = f"runtime_ns,count_total,count_failed\n500,1,0\n600,{value},0\n"
    trace_path, meta_path = write_inputs(tmp_path, text)
    name = "runtime_ns" if layout == "per_shot" else "count_total"
    with pytest.raises(TraceParseError, match=f"line 3: {name} must be an integer"):
        parse_trace(trace_path, meta_path)


def test_negative_runtime_keeps_its_message(tmp_path):
    trace_path, meta_path = write_inputs(tmp_path, "runtime_ns,failed\n500,0\n-5,1\n")
    with pytest.raises(TraceParseError, match="line 3: runtime_ns must be >= 0, got -5"):
        parse_trace(trace_path, meta_path)


@pytest.mark.parametrize(
    "text,line",
    [
        ("runtime_ns,failed\n500,0\n100000000000000000000,0\n", 3),
        ("runtime_ns,failed\n9223372036854775808,0\n", 2),
        ("runtime_ns,count_total,count_failed\n5,1" + "0" * 5000 + ",0\n", 2),
    ],
)
def test_oversized_field_names_its_line(tmp_path, text, line):
    trace_path, meta_path = write_inputs(tmp_path, text)
    with pytest.raises(TraceParseError, match=f"line {line}: .* must be below 2\\*\\*63"):
        parse_trace(trace_path, meta_path)


def test_largest_int64_values_accepted(tmp_path):
    big = 2**63 - 1
    trace_path, meta_path = write_inputs(
        tmp_path,
        f"runtime_ns,count_total,count_failed\n{big},{big},0\n",
        dict(META, shots=big),
    )
    trace = parse_trace(trace_path, meta_path)
    assert trace.runtimes_ns.tolist() == [big] and trace.counts.tolist() == [big]


@pytest.mark.parametrize("block_bytes", [trace_module.BLOCK_BYTES, 8])
def test_count_sum_overflow_names_its_line(tmp_path, block_bytes):
    # Ten 18-digit counts: every field is canonical, the sum passes 2**63 on row 10.
    count = 10**18 - 1
    text = "runtime_ns,count_total,count_failed\n" + f"5,{count},0\n" * 10
    trace_path, meta_path = write_inputs(tmp_path, text)
    with mock.patch.object(trace_module, "BLOCK_BYTES", block_bytes):
        with pytest.raises(TraceParseError, match="line 11: count_total summed"):
            parse_trace(trace_path, meta_path)


# ---------------------------------------------------------------------------
# The block-wise fast path against the row validator


def _columns(trace_columns):
    return tuple(np.asarray(c).tolist() for c in trace_columns)


def _outcome(parse, path):
    """A parse's columns, or its error type and message (a byte that is not
    UTF-8 fails in decoding)."""
    try:
        return _columns(parse(path))
    except (TraceParseError, UnicodeDecodeError) as exc:
        return type(exc).__name__, str(exc)


def _parse_columns(path, shots):
    trace = parse_trace(path, None, dict(META, shots=shots))
    return trace.runtimes_ns, trace.counts, trace.failed_counts


def _validator_columns(path):
    columns = trace_module._validated_columns(path)
    if columns[0].size == 0:
        raise TraceParseError("trace file has no data rows")
    return columns


def _dict_oracle(rows):
    """Aggregate rows the way the row-by-row parser used to, through a dict."""
    totals = {}
    for runtime, total, failed in rows:
        entry = totals.setdefault(runtime, [0, 0])
        entry[0] += total
        entry[1] += failed
    kept = sorted((r, t, f) for r, (t, f) in totals.items() if t > 0)
    return tuple([row[i] for row in kept] for i in range(3))


def _canonical_text(layout, rows):
    if layout == "per_shot":
        return "runtime_ns,failed\n" + "".join(f"{r},{f}\n" for r, _, f in rows)
    return "runtime_ns,count_total,count_failed\n" + "".join(
        f"{r},{t},{f}\n" for r, t, f in rows
    )


@st.composite
def trace_rows(draw):
    """Unsorted rows with duplicate runtimes, zero counts and 18-digit values."""
    layout = draw(st.sampled_from(["per_shot", "histogram"]))
    runtime = st.one_of(st.integers(0, 40), st.integers(0, 10**18 - 1))
    if layout == "per_shot":
        row = st.tuples(runtime, st.just(1), st.integers(0, 1))
    else:
        count = st.one_of(st.integers(0, 5), st.integers(0, 10**17))
        row = st.tuples(runtime, count, count).map(
            lambda r: (r[0], max(r[1], r[2]), min(r[1], r[2]))
        )
    return layout, draw(st.lists(row, max_size=60))


def _write(directory, name, data):
    path = Path(directory) / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return path


@settings(max_examples=150, deadline=None)
@given(trace_rows(), st.sampled_from([1, 7, 16, 64, 1 << 16]))
def test_fast_path_equals_row_validator(case, block_bytes):
    layout, rows = case
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        trace_module, "BLOCK_BYTES", block_bytes
    ):
        path = _write(tmp, "t.csv", _canonical_text(layout, rows))
        fast = trace_module._canonical_columns(path)
        assert fast is not None, "a canonical file must take the fast path"
        assert _columns(fast) == _dict_oracle(rows)
        assert _columns(fast) == _columns(trace_module._validated_columns(path))
        parse = functools.partial(_parse_columns, shots=sum(t for _, t, _ in rows))
        assert _outcome(parse, path) == _outcome(_validator_columns, path)


@st.composite
def ascending_then_broken(draw):
    """Histogram rows that ascend for a while, then break the ascent: a
    runtime repeated, a step back, or a zero-count row, any number of times."""
    rows, runtime = [], draw(st.integers(0, 10**6))
    count = st.one_of(st.integers(1, 5), st.integers(1, 10**15))
    for _ in range(draw(st.integers(1, 8))):
        for _ in range(draw(st.integers(0, 12))):
            total = draw(count)
            rows.append((runtime, total, draw(st.integers(0, total))))
            runtime += draw(st.integers(1, 10**6))
        brk = draw(st.sampled_from(["repeat", "backwards", "zero", "none"]))
        if brk == "repeat" and rows:
            runtime = rows[-1][0]
        elif brk == "backwards":
            runtime = draw(st.integers(0, runtime))
        elif brk == "zero":
            rows.append((draw(st.integers(0, 2 * 10**6)), 0, 0))
    return rows


@settings(max_examples=150, deadline=None)
@given(ascending_then_broken(), st.sampled_from([8, 16, 32, 64, 1 << 16]))
def test_ascending_histogram_parts_fold_where_the_ascent_breaks(rows, block_bytes):
    # Parts that ascend are appended to the fold's columns; the first that
    # does not is held and merged.  On every route (a histogram and a
    # per-shot file read block-wise, and a CRLF copy that the row validator
    # reads in small batches) the columns are the oracle's, the trace's
    # counts round-trip, and sorted rows make no merge.
    shot_rows = [(r, 1, min(f, 1)) for r, _, f in rows]
    routes = [("histogram", rows, "\n"), ("per_shot", shot_rows, "\n"), ("histogram", rows, "\r\n")]
    real_merge = trace_module._merge
    for layout, route_rows, newline in routes:
        merges = []

        def counted_merge(parts):
            merges.append(len(parts))
            return real_merge(parts)

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            trace_module, "BLOCK_BYTES", block_bytes
        ), mock.patch.object(trace_module, "_VALIDATOR_BATCH_ROWS", 3), mock.patch.object(
            trace_module, "_merge", counted_merge
        ):
            path = _write(tmp, "t.csv", _canonical_text(layout, route_rows).replace("\n", newline))
            fast = trace_module._canonical_columns(path)
            assert (fast is None) == (newline != "\n"), "only a canonical file takes the fast path"
            columns = trace_module._validated_columns(path) if fast is None else fast
            merged = list(merges)
            oracle = _dict_oracle(route_rows)
            assert _columns(columns) == oracle
            assert _columns(columns) == _columns(trace_module._validated_columns(path))
            shots = sum(t for _, t, _ in route_rows)
            if shots:
                trace = parse_trace(path, None, dict(META, shots=shots))
                assert _columns((trace.runtimes_ns, trace.counts, trace.failed_counts)) == oracle
                built = RuntimeTrace(trace.metadata, *oracle)
                assert built == trace
                assert (built.counts.tolist(), built.failed_counts.tolist()) == oracle[1:]
                assert np.array_equal(built.cum_total, np.cumsum(oracle[1]))
                assert np.array_equal(built.cum_failed, np.cumsum(oracle[2]))
        positive = [r for r, t, _ in route_rows if t > 0]
        if all(a < b for a, b in zip(positive, positive[1:])):
            assert merged == [], f"sorted {layout} rows are appended, with no merge"


@st.composite
def repeated_runs(draw):
    """Rows as runs of one row repeated 1-300 times, so that blocks of one
    run take the repeated-line branch and blocks across runs do not."""
    layout, rows = draw(trace_rows())
    rows = rows[:12]
    repeats = draw(st.lists(st.integers(1, 300), min_size=len(rows), max_size=len(rows)))
    return layout, list(zip(rows, repeats))


@settings(max_examples=100, deadline=None)
@given(repeated_runs(), st.sampled_from([1, 7, 16, 64, 4096, 1 << 16]))
# A repeated zero-total row is the empty part: no data rows.
@example(("histogram", [((5, 0, 0), 200)]), 1 << 16)
@example(("histogram", [((5, 0, 0), 200)]), 4096)
# 93 copies of a 10**17 count pass 2**63 within one block.
@example(("histogram", [((7, 10**17, 0), 93)]), 1 << 16)
# A block whose largest count times its rows passes 2**63 but whose counts
# sum below it.
@example(("histogram", [((5, 0, 0), 2461), ((7, 99176043407038139, 0), 93)]), 1 << 16)
# Blocks as long as copies of their first line that are not copies of it:
# '1,0\n' is in '1,0\n2,0\n' once, and in '1,0\n1,0\n11,0\n' three times.
@example(("per_shot", [((1, 1, 0), 1), ((2, 1, 0), 1)]), 1 << 16)
@example(("per_shot", [((1, 1, 0), 2), ((11, 1, 0), 1)]), 1 << 16)
# In small blocks a run spans many blocks, each reusing the previous block's
# part: runs A, B, A, where A's line comes back after another run's;
@example(("per_shot", [((3, 1, 0), 40), ((12, 1, 1), 40), ((3, 1, 0), 40)]), 16)
@example(("per_shot", [((3, 1, 0), 40), ((12, 1, 1), 40), ((3, 1, 0), 40)]), 64)
@example(("histogram", [((3, 2, 1), 30), ((12, 5, 0), 30), ((3, 2, 1), 30)]), 16)
@example(("histogram", [((3, 2, 1), 30), ((12, 5, 0), 30), ((3, 2, 1), 30)]), 64)
# a zero-total row, whose reused part is empty;
@example(("histogram", [((5, 0, 0), 200)]), 16)
@example(("histogram", [((5, 0, 0), 200)]), 64)
# and 10**17 counts that pass 2**63 only summed over several blocks.
@example(("histogram", [((7, 10**17, 0), 93)]), 16)
@example(("histogram", [((7, 10**17, 0), 93)]), 64)
def test_repeated_lines_parse_like_the_row_validator(case, block_bytes):
    layout, runs = case
    rows = [row for row, repeat in runs for _ in range(repeat)]
    shots = sum(t for _, t, _ in rows)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        trace_module, "BLOCK_BYTES", block_bytes
    ):
        path = _write(tmp, "t.csv", _canonical_text(layout, rows))
        fast = trace_module._canonical_columns(path)
        expected = _outcome(_validator_columns, path)
        if shots > trace_module.INT64_MAX:
            assert fast is None
            assert expected[0] == "TraceParseError" and expected[1].startswith("line ")
        else:
            assert fast is not None, "a canonical file below 2**63 shots must take the fast path"
            assert _columns(fast) == _dict_oracle(rows)
            assert _columns(fast) == _columns(trace_module._validated_columns(path))
        parse = functools.partial(_parse_columns, shots=shots)
        assert _outcome(parse, path) == expected


@st.composite
def line_repeats(draw):
    """A canonical row, or one with a byte replaced, and its copies in a block."""
    layout, rows = draw(trace_rows())
    line = bytearray(_canonical_text(layout, rows[:1] or [(0, 1, 0)]).encode().split(b"\n", 1)[1])
    if draw(st.booleans()):
        line[draw(st.integers(0, len(line) - 2))] = draw(st.sampled_from(_NEAR_CANONICAL_BYTES))
    return (2 if layout == "per_shot" else 3), bytes(line), draw(st.integers(1, 300))


def _block_part(block, fields):
    """The part the fast path reads from ``block`` as one block, or None if
    it leaves the fast path."""
    with mock.patch.object(trace_module, "BLOCK_BYTES", len(block)):
        try:
            return next(trace_module._canonical_parts(io.BytesIO(block), fields))
        except trace_module._NotCanonical:
            return None


@settings(max_examples=300, deadline=None)
@given(line_repeats())
@example((3, b"5,0,0\n", 200))
@example((3, b"7,100000000000000000,0\n", 93))
@example((3, b"7,100000000000000000,0\n", 92))
@example((2, b"\n", 4))
def test_repeated_line_block_parses_like_the_general_path(case):
    fields, line, repeats = case
    block = line * repeats
    got = _block_part(block, fields)
    with mock.patch.object(trace_module, "_repeated_line", lambda block: (block, 1)):
        general = _block_part(block, fields)
    assert (got is None) == (general is None)
    if got is not None:
        assert [column.dtype for column in got] == [column.dtype for column in general]
        assert _columns(got) == _columns(general)


def _blocks(data, block_bytes):
    """The blocks of whole lines the fast path reads from ``data``."""
    pending = b""
    for start in range(0, len(data), block_bytes):
        chunk = pending + data[start : start + block_bytes]
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield chunk[:cut]
        pending = chunk[cut:]


@pytest.mark.parametrize("block_bytes", [trace_module.BLOCK_BYTES, 4096])
def test_sorted_per_shot_trace_converts_only_blocks_with_a_run_boundary(tmp_path, block_bytes):
    # 3e5 shots over 12 runtimes, written sorted: the first block inside a run
    # of equal lines converts its one line, the blocks that continue the run
    # reuse it and convert nothing, and only the blocks that hold a run
    # boundary convert their rows.
    rng = np.random.default_rng(11)
    runtimes = np.arange(1, 13) * 1237
    counts = rng.multinomial(300_000, np.full(12, 1 / 12))
    failed = rng.binomial(counts, 0.05)
    metadata = TraceMetadata(5, 1e-3, 300_000, 1000)
    trace = RuntimeTrace(metadata, runtimes, counts, failed)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path, per_shot=True)
    body = path.read_bytes().split(b"\n", 1)[1]
    expected = []  # values converted per block
    previous = None  # the lines of the previous block
    for block in _blocks(body, block_bytes):
        lines = set(block.splitlines())
        if len(lines) > 1:
            expected.append(block.count(b"\n"))
        else:
            expected.append(0 if lines == previous else 1)
        previous = lines
    assert len(expected) >= 20
    assert 0 < sum(count > 1 for count in expected) < 2 * 12
    assert 0 in expected and 1 in expected
    converted = []
    real_fromstring = np.fromstring
    real_repeated_line = trace_module._repeated_line

    def counted_fromstring(*args, **kwargs):
        values = real_fromstring(*args, **kwargs)
        converted[-1] += values.size
        return values

    def each_block(block):  # called once per block read
        converted.append(0)
        return real_repeated_line(block)

    with mock.patch.object(trace_module, "BLOCK_BYTES", block_bytes), mock.patch.object(
        np, "fromstring", counted_fromstring
    ), mock.patch.object(trace_module, "_repeated_line", each_block):
        # A second read of the same file converts the same values again: no
        # part is kept from one read to the next.
        for _ in range(2):
            assert parse_trace(path, None, metadata._asdict()) == trace
            assert converted == expected
            converted.clear()


@pytest.mark.parametrize("block_bytes", [64, 1000, 1 << 12])
def test_high_cardinality_per_shot_merge_stays_bounded(tmp_path, block_bytes):
    # ~5,800 distinct runtimes among 20,000 unsorted shots: each small block
    # keeps nearly all of its rows, so the parts are folded into the running
    # histogram many times, and no merge may take more than twice the
    # distinct runtimes plus one block's rows.
    rng = np.random.default_rng(block_bytes)
    runtimes = rng.integers(0, 3000, 20_000) * 997 + rng.integers(0, 2, 20_000) * 10**17
    failed = rng.random(20_000) < 0.3
    rows = [(int(r), 1, int(f)) for r, f in zip(runtimes, failed)]
    path = _write(tmp_path, "t.csv", _canonical_text("per_shot", rows))
    merged_rows = []
    real_merge = trace_module._merge

    def counted_merge(parts):
        merged_rows.append(sum(part[0].size for part in parts))
        return real_merge(parts)

    with mock.patch.object(trace_module, "BLOCK_BYTES", block_bytes), mock.patch.object(
        trace_module, "_merge", counted_merge
    ):
        fast = trace_module._canonical_columns(path)
    assert _columns(fast) == _columns(trace_module._validated_columns(path))
    assert _columns(fast) == _dict_oracle(rows)
    distinct = fast[0].size
    assert len(merged_rows) > 5
    assert max(merged_rows) <= 2 * distinct + block_bytes < len(rows)


def _variants(text):
    """Non-canonical spellings of a canonical trace text, all meaning the same trace."""
    header, *body = text.splitlines()
    cells = [line.split(",") for line in body]
    yield "crlf", text.replace("\n", "\r\n")
    yield "spaces", "\n".join([header] + [", ".join(f" {c} " for c in row) for row in cells]) + "\n"
    yield "quoted", "\n".join([header] + [",".join(f'"{c}"' for c in row) for row in cells]) + "\n"
    middle = len(body) // 2
    yield "comment", "\n".join([header, *body[:middle], "# a comment", *body[middle:]]) + "\n"
    yield "blank line", "\n".join([header, *body[:middle], "", *body[middle:]]) + "\n"
    yield "no final newline", text.rstrip("\n")
    yield "leading comment", "# produced by a test\n" + text
    yield "leading zeros", "\n".join([header] + [",".join("0" + c for c in row) for row in cells]) + "\n"


@settings(max_examples=60, deadline=None)
@given(trace_rows(), st.sampled_from([1, 7, 64, 1 << 16]))
def test_non_canonical_variants_parse_like_the_validator(case, block_bytes):
    layout, rows = case
    text = _canonical_text(layout, rows)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        trace_module, "BLOCK_BYTES", block_bytes
    ):
        parse = functools.partial(_parse_columns, shots=sum(t for _, t, _ in rows))
        canonical = _outcome(parse, _write(tmp, "canonical.csv", text))
        for name, variant in _variants(text):
            path = _write(tmp, "variant.csv", variant)
            if rows and name != "leading zeros":
                assert trace_module._canonical_columns(path) is None, name
            got = _outcome(parse, path)
            assert got == _outcome(_validator_columns, path), name
            if name != "leading zeros" or layout == "histogram":
                assert got == canonical, name


@pytest.mark.parametrize(
    "bad",
    ["abc", "1,2,3,4", "1_000,1", "+5,1", "1,", ",1", '"1,1', "1,١", "5,1,2"]
    # Two rows whose extra and missing fields even out over the block:
    + ["1,0,0\n1", "1,0,0,0\n1,0"],
)
@settings(max_examples=25, deadline=None)
@given(trace_rows(), st.integers(0, 60), st.sampled_from([7, 1 << 16]))
def test_malformed_row_deep_in_file_gives_validator_error(bad, case, position, block_bytes):
    layout, rows = case
    header, *body = _canonical_text(layout, rows).splitlines()
    position = min(position, len(body))
    body.insert(position, bad)
    text = "\n".join([header, *body]) + "\n"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        trace_module, "BLOCK_BYTES", block_bytes
    ):
        path = _write(tmp, "t.csv", text)
        assert trace_module._canonical_columns(path) is None
        got = _outcome(functools.partial(_parse_columns, shots=1), path)
        assert got == _outcome(_validator_columns, path)
        if bad != '"1,1':  # an open quote swallows the rest of the file
            line = int(got[1].split(":")[0].removeprefix("line "))
            assert position + 2 <= line <= position + 2 + bad.count("\n")


# Bytes a mutation inserts or writes: the grammar's own bytes, and bytes
# just below '0' or above '9' that a reduction over the block must catch.
_NEAR_CANONICAL_BYTES = b"/: \t\r\x00\xff-,\n0123456789"


@st.composite
def mutated_texts(draw):
    """A canonical trace text with one to three single-byte insertions,
    replacements or deletions."""
    layout, rows = draw(trace_rows())
    data = bytearray(_canonical_text(layout, rows).encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from(_NEAR_CANONICAL_BYTES))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data) and edit == "replace":
            data[at] = byte
        elif at < len(data):
            del data[at]
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(mutated_texts(), st.sampled_from([1, 7, 16, 64, 1 << 16]))
def test_mutated_bytes_parse_like_the_validator(data, block_bytes):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        trace_module, "BLOCK_BYTES", block_bytes
    ):
        path = _write(tmp, "t.csv", data)
        fast = trace_module._canonical_columns(path)
        if fast is not None:
            assert _columns(fast) == _columns(trace_module._validated_columns(path))
        expected = _outcome(_validator_columns, path)
        shots = sum(expected[1]) if isinstance(expected[1], list) else 1
        parse = functools.partial(_parse_columns, shots=shots)
        assert _outcome(parse, path) == expected


# ---------------------------------------------------------------------------
# Shot aggregation against aggregate_runtimes and the dict oracle


@st.composite
def shot_rows(draw):
    """Unsorted one-shot rows: heavy duplicates, high cardinality, the int64
    extremes, and flags that are random, all 0 or all 1."""
    runtime = st.one_of(
        st.integers(0, 3), st.integers(0, 2**63 - 1), st.sampled_from([0, 2**63 - 1])
    )
    flag = draw(st.sampled_from([st.integers(0, 1), st.just(0), st.just(1)]))
    return draw(st.lists(st.tuples(runtime, flag), max_size=200))


@settings(max_examples=200, deadline=None)
@given(shot_rows(), st.sampled_from([np.int64, np.uint16, np.uint8]), st.sampled_from([3, 2**16]))
@example([], np.int64, 2**16)
@example([], np.uint8, 2**16)
def test_aggregate_shots_matches_aggregate_runtimes(rows, dtype, slice_shots):
    # Codes of 2 bytes or fewer are counted a slice of FLAG_SLICE_SHOTS at a
    # time (3 crosses slices), wider ones sorted.
    rows = [(r % (int(np.iinfo(dtype).max) + 1), f) for r, f in rows]
    runtimes = np.array([r for r, _ in rows], dtype=dtype)
    failed = np.array([f for _, f in rows], dtype=bool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "FLAG_SLICE_SHOTS", slice_shots)
        got = trace_module.aggregate_shots(runtimes.copy(), runtimes[failed])
    assert [column.dtype for column in got] == [runtimes.dtype, np.int64, np.int64]
    assert _columns(got) == _columns(
        trace_module.aggregate_runtimes(
            runtimes.astype(np.int64), np.ones(len(rows), np.int64), failed
        )
    )
    assert _columns(got) == _dict_oracle([(r, 1, f) for r, f in rows])


@st.composite
def histogram_rows(draw):
    """(runtime, total, failed) rows whose runtimes strictly increase, are one
    row, repeat in adjacent runs or come in any order; totals may be 0."""
    shape = draw(st.sampled_from(["increasing", "single", "adjacent", "unsorted"]))
    runtime = st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1))
    if shape == "increasing":
        runtimes = sorted(draw(st.sets(runtime, max_size=40)))
    elif shape == "single":
        runtimes = [draw(runtime)]
    elif shape == "adjacent":
        runs = draw(st.lists(st.tuples(runtime, st.integers(1, 3)), max_size=20))
        runtimes = [r for r, repeat in sorted(runs) for _ in range(repeat)]
    else:
        runtimes = draw(st.lists(runtime, max_size=40))
    total = st.one_of(st.just(0), st.integers(0, 5), st.integers(0, 10**15))
    rows = []
    for r in runtimes:
        t = draw(total)
        rows.append((r, t, draw(st.integers(0, t))))
    return rows


@settings(max_examples=200, deadline=None)
@given(histogram_rows())
@example([])
@example([(7, 0, 0)])
@example([(1, 2, 1), (2, 0, 0), (3, 1, 0)])
@example([(1, 1, 0), (1, 2, 1), (2, 1, 1)])
@example([(3, 1, 0), (1, 2, 1)])
def test_aggregate_runtimes_matches_dict_oracle(rows):
    columns = tuple(np.array([row[i] for row in rows], dtype=np.int64) for i in range(3))
    got = trace_module.aggregate_runtimes(*columns)
    assert all(column.dtype == np.int64 for column in got)
    assert _columns(got) == _dict_oracle(rows)
    runtimes, totals, _ = columns
    if (runtimes[1:] > runtimes[:-1]).all() and (totals > 0).all():
        # Already a histogram: its own columns come back, not copies.
        assert all(g is c for g, c in zip(got, columns))


@pytest.mark.parametrize(
    "parts",
    [
        [([1, 5], [2, 1], [0, 1])],
        [([1, 5], [2, 1], [0, 1]), ([6], [3], [3]), ([9, 12], [1, 1], [0, 0])],
        [([1, 5], [2, 1], [0, 1]), ([5, 9], [1, 1], [1, 0]), ([0, 1], [4, 4], [0, 0])],
    ],
    ids=["one part", "ascending parts", "merged parts"],
)
def test_fold_returns_columns_of_its_own(parts):
    # The fold's columns belong to its caller, whose counts turn cumulative
    # in place, so none of them may share memory with a part.
    parts = [tuple(np.array(column, dtype=np.int64) for column in part) for part in parts]
    folded = trace_module.fold_histograms(iter(parts))
    rows = [row for part in parts for row in zip(*(column.tolist() for column in part))]
    assert _columns(folded) == _dict_oracle(rows)
    for column in folded:
        assert not any(np.shares_memory(column, values) for part in parts for values in part)


@pytest.mark.parametrize("chunk", [64, 1000])
def test_sample_trace_folds_chunks_as_it_goes(chunk):
    # ~3,000 distinct runtimes among 20,000 shots: the chunks' histograms
    # are folded into the running one as they come, so no merge takes more
    # than twice the distinct runtimes plus one chunk's rows.
    runtime = BinomialRuntime(trials=10**6, step_probability=0.5, unit_ns=1)
    shots, seed, rate = 20_000, 7, 0.3
    merged_rows = []
    real_merge = trace_module._merge

    def counted_merge(parts):
        merged_rows.append(sum(part[0].size for part in parts))
        return real_merge(parts)

    with mock.patch.object(models_module, "SAMPLE_CHUNK_SHOTS", chunk), mock.patch.object(
        trace_module, "_merge", counted_merge
    ):
        trace = sample_trace(runtime, EmpiricalFailure(rate), 5, 1e-3, shots, seed)
    rows = []
    for index, start in enumerate(range(0, shots, chunk)):
        n = min(chunk, shots - start)
        runtimes, failed = chunk_draws(runtime, rate, n, seed, index)
        rows += [(r, 1, int(f)) for r, f in zip(runtimes.tolist(), failed.tolist())]
    assert _columns((trace.runtimes_ns, trace.counts, trace.failed_counts)) == _dict_oracle(rows)
    assert len(merged_rows) > 5
    assert max(merged_rows) <= 2 * trace.runtimes_ns.size + chunk < shots


def _sorted_histogram(tmp_path, n=100_000):
    """A sorted canonical histogram of ``n`` distinct runtimes, its columns
    and the bytes of those columns."""
    rng = np.random.default_rng(5)
    runtimes = 90_000 + np.cumsum(rng.integers(1, 5, n))
    counts = rng.integers(1, 20, n)
    failed = rng.integers(0, counts + 1)
    body = "".join(
        f"{r},{c},{f}\n" for r, c, f in zip(runtimes.tolist(), counts.tolist(), failed.tolist())
    )
    path = _write(tmp_path, "t.csv", "runtime_ns,count_total,count_failed\n" + body)
    return path, (runtimes, counts, failed), 3 * 8 * n


def test_sorted_histogram_parse_makes_no_sorting_copies(tmp_path):
    # A sorted canonical histogram of 1e5 distinct runtimes is appended,
    # block by block, to the fold's columns, which turn cumulative in place:
    # the parse peaks at those columns plus one block's parse (1.36 times
    # their bytes).
    path, columns, column_bytes = _sorted_histogram(tmp_path)
    tracemalloc.start()
    try:
        trace = parse_trace(path, None, dict(META, shots=int(columns[1].sum())))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _columns((trace.runtimes_ns, trace.counts, trace.failed_counts)) == _columns(columns)
    assert peak < 1.5 * column_bytes


def test_stop_call_holds_one_copy_of_the_trace(tmp_path):
    # The whole stop call on the same histogram stays within the parse's
    # bound: the trace keeps only its cumulative counts, and the curve is
    # built and written block by block.
    path, columns, column_bytes = _sorted_histogram(tmp_path)
    meta = dict(META, shots=int(columns[1].sum()))
    path.with_suffix(".json").write_text(json.dumps(meta))
    argv = ["stop", "--trace", str(path)]
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        assert cli.main(argv) == 0  # imports outside the measurement
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5 * column_bytes


@settings(max_examples=40, deadline=None)
@given(
    chunk=st.sampled_from([1, 3, 64]),
    shots=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    rate=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_sample_trace_chunks_aggregate_like_the_oracle(chunk, shots, seed, rate):
    runtime = BinomialRuntime(trials=20, step_probability=0.4, unit_ns=7)
    with mock.patch.object(models_module, "SAMPLE_CHUNK_SHOTS", chunk):
        trace = sample_trace(runtime, EmpiricalFailure(rate), 5, 1e-3, shots, seed)
    rows = []
    for index, start in enumerate(range(0, shots, chunk)):
        n = min(chunk, shots - start)
        runtimes, failed = chunk_draws(runtime, rate, n, seed, index)
        rows += [(r, 1, int(f)) for r, f in zip(runtimes.tolist(), failed.tolist())]
    assert _columns((trace.runtimes_ns, trace.counts, trace.failed_counts)) == _dict_oracle(rows)


# ---------------------------------------------------------------------------
# Writers against a csv.writer oracle


def _csv_writer_bytes(trace, per_shot):
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    if per_shot:
        writer.writerow(["runtime_ns", "failed"])
        for runtime, failed in iter_records(trace):
            writer.writerow([runtime, int(failed)])
    else:
        writer.writerow(["runtime_ns", "count_total", "count_failed"])
        for row in zip(trace.runtimes_ns, trace.counts, trace.failed_counts):
            writer.writerow([int(v) for v in row])
    return out.getvalue().encode()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 10**18), st.integers(1, 3000), st.integers(0, 3000)),
        min_size=1,
        max_size=20,
    ),
    st.sampled_from([1, 10, 100, 1 << 16]),
    st.booleans(),
)
def test_writer_matches_csv_writer_oracle(rows, write_bytes, per_shot):
    rows = {r: (t, min(f, t)) for r, t, f in rows}
    runtimes = sorted(rows)
    meta = TraceMetadata(
        distance=5,
        physical_error_rate=1e-3,
        shots=sum(t for t, _ in rows.values()),
        sec_cycle_ns=1000,
    )
    trace = RuntimeTrace(
        meta,
        np.array(runtimes),
        np.array([rows[r][0] for r in runtimes]),
        np.array([rows[r][1] for r in runtimes]),
    )
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        trace_module, "WRITE_BYTES", write_bytes
    ):
        path = Path(tmp) / "t.csv"
        write_trace_csv(trace, path, per_shot=per_shot)
        assert path.read_bytes() == _csv_writer_bytes(trace, per_shot)
        assert parse_trace(path, None, {**META, "shots": meta.shots}) == trace


def test_per_shot_writer_refuses_more_rows_than_the_limit(tmp_path):
    shots = trace_module.PER_SHOT_ROWS_LIMIT + 1
    meta = TraceMetadata(distance=5, physical_error_rate=1e-3, shots=shots, sec_cycle_ns=1000)
    trace = RuntimeTrace(meta, [7], [shots], [0])
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="PER_SHOT_ROWS_LIMIT"):
        write_trace_csv(trace, path, per_shot=True)
    assert not path.exists()
    write_trace_csv(trace, path)  # a histogram has no such limit
    assert path.read_text() == f"runtime_ns,count_total,count_failed\n7,{shots},0\n"
