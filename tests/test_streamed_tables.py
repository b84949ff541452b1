"""The trace tables computed block by block against the whole-curve tables.

``stop``, ``range`` and ``mincost --trace`` compute their curves one
``ranges.ROWS_PER_BLOCK`` block at a time.  Whatever the block size, the
bytes they write must be those of the whole curves' tables, rendered from
full columns, in CSV and JSON; a ``range`` with no significant row exits 3
with its one line and writes nothing.  A 1e5-row trace's calls hold the
trace's columns plus a few blocks, not full-length curves.
"""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stopcost.cli as cli
from stopcost import RuntimeTrace, TraceMetadata, range_curve, stopping_curve
from stopcost import ranges
from stopcost.cli import main, render_table


def block_sizes(rows):
    return [1, 2, 3, 7, rows + 1]


@st.composite
def histograms(draw):
    n = draw(st.integers(1, 24))
    runtimes = sorted(draw(st.sets(st.integers(0, 5000), min_size=n, max_size=n)))
    cap = draw(st.sampled_from([3, 40, 10**6]))
    counts = draw(st.lists(st.integers(1, cap), min_size=n, max_size=n))
    # All-failed rows leave the failure events, and so the range, as they
    # were: the rows around them tie.
    failed = [draw(st.sampled_from([0, c, draw(st.integers(0, c))])) for c in counts]
    return runtimes, counts, failed


settings_st = st.fixed_dictionaries(
    {
        "d": st.sampled_from([3, 5, 15, 99]),
        "sec_cycle_ns": st.sampled_from([1, 7, 1000]),
        "epsilon": st.sampled_from([0.1, 0.5, 0.9]),
        "min_events": st.integers(1, 30),
        "nT": st.lists(st.integers(1, 10**6) | st.just(10**18), min_size=1, max_size=5),
    }
)

# The optimum ties at M = 1 and M = 2, which blocks of one row split.
TIE = ([1, 2, 3000], [1000, 10, 50], [0, 10, 0])
# The range rises at every row, 0 to ~7000, across blocks of every size.
RISES = ([0, 10, 20, 30, 40, 50], [10**6, 10**5, 10**4, 10**3, 100, 10], [0] * 6)
# About 9e18 shots: the last significant row saturates at 10**18.
SATURATED = ([0, 1, 2, 3], [9 * 10**18 - 3, 1, 1, 1], [0, 0, 0, 0])
# At most two failure events: with --min-events 3 no stopping time is significant.
NONE_SIGNIFICANT = ([5, 8], [3, 1], [1, 0])


def call(directory, argv, fmt):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--trace", str(directory / "t.csv"), "--format", fmt])
    return code, stdout.getvalue(), stderr.getvalue()


def whole_tables(trace, point, fmt):
    """Each command's exit code, stdout and stderr, from whole curves."""
    d, epsilon, t_sec, min_events = point["d"], point["epsilon"], point["sec_cycle_ns"], point["min_events"]
    stop = stopping_curve(trace)
    columns = {
        "M_ns": stop.stopping_time_ns,
        "timeout_prob": stop.timeout_probability,
        "exact_rate": stop.exact_failure_rate,
        "upper_bound": stop.upper_bound_rate,
        "lower_bound": stop.lower_bound_rate,
        "failure_events": stop.failure_events,
    }
    tables = {"stop": (0, "".join(render_table("stop", columns, fmt)), "")}

    curve = range_curve(trace, d, epsilon, t_sec, min_events)
    if curve.n_T.size == 0:
        line = (
            f"stopcost: infeasible: no stopping time accumulates {min_events} failure "
            "events; collect more shots or lower --min-events\n"
        )
        tables["range"] = (3, "", line)
    else:
        m, best = curve.optimum()
        extras = {"distance": d, "epsilon": epsilon, "optimal_M_ns": m, "optimal_range": best.n_T}
        columns = {
            "M_ns": curve.stopping_time_ns,
            "M_cycles": curve.delay_cycles,
            "exact_rate": curve.failure_rate,
            "range": curve.n_T,
        }
        tables["range"] = (0, "".join(render_table("range", columns, fmt, extras)), "")

    # The cost per gate, 2 d**2 (7d + ceil(M / t_sec)), rises with M: the
    # cheapest stopping time covering n_T is the first row whose range does.
    rows = {"n_T": point["nT"], "cost": [], "distance": [], "M_ns": []}
    for n_T in point["nT"]:
        covering = curve.stopping_time_ns[curve.n_T >= n_T].tolist()
        m = covering[0] if covering else None
        rows["cost"].append(float("inf") if m is None else n_T * 2 * d * d * (7 * d - (-m // t_sec)))
        rows["distance"].append(None if m is None else d)
        rows["M_ns"].append(m)
    extras = {"decoder": "t", "physical_error_rate": 1e-3, "rate_method": "exact"}
    text = "".join(render_table("mincost", rows, fmt, extras))
    if all(m is None for m in rows["M_ns"]):
        line = "stopcost: infeasible: no (distance, stopping time) pair reaches any requested n_T\n"
        tables["mincost"] = (3, text, line)
    else:
        tables["mincost"] = (0, text, "")
    return tables


@settings(max_examples=60, deadline=None)
@given(histogram=histograms(), point=settings_st)
@example(histogram=TIE, point={"d": 5, "sec_cycle_ns": 1000, "epsilon": 0.5, "min_events": 20, "nT": [1, 2]})
@example(
    histogram=RISES,
    point={"d": 5, "sec_cycle_ns": 1000, "epsilon": 0.5, "min_events": 1, "nT": [1, 10, 100, 1000, 5000, 10**5]},
)
@example(
    histogram=SATURATED,
    point={"d": 99, "sec_cycle_ns": 1000, "epsilon": 0.9, "min_events": 1, "nT": [10**17, 10**18, 1]},
)
@example(
    histogram=NONE_SIGNIFICANT,
    point={"d": 5, "sec_cycle_ns": 1000, "epsilon": 0.5, "min_events": 3, "nT": [1]},
)
def test_streamed_tables_match_whole_curve_tables(histogram, point):
    runtimes, counts, failed = histogram
    meta = TraceMetadata(point["d"], 1e-3, sum(counts), point["sec_cycle_ns"])
    trace = RuntimeTrace(meta, runtimes, counts, failed)
    argvs = {
        "stop": ["stop"],
        "range": ["range", "--epsilon", str(point["epsilon"]), "--min-events", str(point["min_events"])],
        "mincost": [
            "mincost", "--nT", ",".join(map(str, point["nT"])),
            "--epsilon", str(point["epsilon"]), "--min-events", str(point["min_events"]),
        ],
    }
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        lines = ["runtime_ns,count_total,count_failed"]
        lines += [f"{r},{c},{f}" for r, c, f in zip(runtimes, counts, failed)]
        (directory / "t.csv").write_text("\n".join(lines) + "\n")
        (directory / "t.json").write_text(json.dumps(meta._asdict()))
        for fmt in ("csv", "json"):
            expected = whole_tables(trace, point, fmt)
            for rows_per_block in block_sizes(len(runtimes)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(ranges, "ROWS_PER_BLOCK", rows_per_block)
                    for command, argv in argvs.items():
                        got = call(directory, argv, fmt)
                        assert got == expected[command], (command, fmt, rows_per_block)


def test_the_examples_hold_what_they_are_for():
    def curve(histogram, d=5, epsilon=0.5, min_events=20):
        runtimes, counts, failed = histogram
        trace = RuntimeTrace(TraceMetadata(d, 1e-3, sum(counts), 1000), runtimes, counts, failed)
        return range_curve(trace, d, epsilon, 1000, min_events)

    tie = curve(TIE)
    assert tie.n_T.tolist() == [1, 1] and tie.optimum()[0] == 1
    rises = curve(RISES, min_events=1).n_T.tolist()
    assert len(rises) == 5 and rises == sorted(set(rises))
    saturated = curve(SATURATED, d=99, epsilon=0.9, min_events=1)
    assert saturated.saturated.tolist() == [False, False, True]
    assert curve(NONE_SIGNIFICANT, min_events=3).n_T.size == 0


@pytest.mark.parametrize(
    "argv, width",
    [(["stop"], 6), (["range", "--min-events", "1"], 4),
     (["mincost", "--nT", "1,100", "--min-events", "1"], 5)],
    ids=["stop", "range", "mincost"],
)
def test_trace_tables_hold_the_trace_plus_a_few_blocks(argv, width):
    # 1e5 significant rows.  A call holds the five columns the constructor
    # sees (the per-runtime counts it is given and the cumulative ones it
    # keeps) plus a few blocks, each of
    # ROWS_PER_BLOCK rows of `width` 8-byte columns (the range curve's five
    # for mincost): its cells and text take ~10 of them.  Building every
    # column at full length first peaked at 3 to 10 times the trace's bytes
    # above them.
    n = 100_000
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 20, n)
    failed = rng.binomial(counts, 1e-3)
    runtimes = np.cumsum(rng.integers(1, 50, n))
    meta = TraceMetadata(15, 1e-3, int(counts.sum()), 1000)
    traces = []

    def load_trace(args):
        traces.append(RuntimeTrace(meta, runtimes.copy(), counts.copy(), failed.copy()))
        return traces[-1]

    argv = [*argv, "--trace", "t.csv"]
    with pytest.MonkeyPatch.context() as mp, open(os.devnull, "w") as devnull:
        mp.setattr(cli, "_load_trace", load_trace)
        with contextlib.redirect_stdout(devnull):
            assert main(argv) == 0  # imports and caches, outside the measurement
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    trace = traces[-1]
    columns = (trace.runtimes_ns, trace.counts, trace.failed_counts, trace.cum_total, trace.cum_failed)
    assert peak < sum(column.nbytes for column in columns) + 16 * ranges.ROWS_PER_BLOCK * width * 8
