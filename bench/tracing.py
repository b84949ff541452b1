"""Per-layer tracing for the benchmark's traced run.

The layers are the ``stopcost`` modules named in ``LAYERS``.  The traced run
imports ``stopcost`` from the checkout, wraps every public (non-underscore)
function of those modules in every ``stopcost`` namespace that holds it, and
calls ``stopcost.cli.main(argv)`` once untraced and once traced per call.
Private helpers are not wrapped: their time counts as self time of the public
function that called them, and wrapping them would inflate the hot loops.

Spans are kept in memory with their parent and written out when the run ends.
After ``SPANS_PER_NAME`` spans of one name (or below an unrecorded parent),
further calls are only aggregated into a count, a total and a self time per
name.  A span's self time is its duration minus the time its child spans
cover, so the layers' self times plus the untraced remainder (wall time
outside the root spans) add up to each traced call's wall time.  What can go
wrong is checked per call (``additivity_error``): every root span must be
``cli.main``, and the remainder must stay a small share of the call.

Run as a script, this file is the traced child process:

    python3 bench/tracing.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import itertools
import json
import os
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

LAYERS = ("cli", "trace", "stopping", "ranges", "models", "cost")
SPANS_PER_NAME = 1000
ROOT_TOLERANCE_S = 1e-6
REMAINDER_FRAC = 0.01

# name -> (unit, the end-to-end time it should move, and on which workload).
# Subcommand times (stop_s, range_s, ...) are printed by run.py per workload.
LAYER_METRICS = {
    "cli.import_s": ("s", "every *_s on every workload; largest share on model_cost"),
    "cli.self_s": ("s", "every *_s"),
    "cli.render_s": ("s", "stop_s and range_s on highcard_trace; ~0 elsewhere"),
    "cli.output_bytes": ("bytes", "cli.render_s"),
    "cli.cpu_s": ("s", "diagnostic: CPU time of the untraced children, not a gate"),
    "trace.self_s": ("s", "trace-reading *_s on pershot_pipeline; minority on highcard_trace"),
    "trace.parse_s": ("s", "trace-reading *_s on pershot_pipeline; 0 on model_cost"),
    "trace.rows_parsed": ("count", "trace.parse_s"),
    "trace.distinct_runtimes": ("count", "stopping.candidates"),
    "trace.build_distribution_s": ("s", "trace-reading *_s on highcard_trace and pershot_pipeline"),
    "trace.write_s": ("s", "synth_s on pershot_pipeline"),
    "trace.rows_written": ("count", "trace.write_s"),
    "stopping.self_s": ("s", "stop_s, range_s, mincost_s on highcard_trace; ~0 on pershot_pipeline"),
    "stopping.exact_calls": ("count", "stopping.self_s"),
    "stopping.candidates": ("count", "stopping.self_s"),
    "stopping.significant": ("count", "range_s and mincost_s on highcard_trace"),
    "stopping.significant_frac": ("frac", "range_s and mincost_s on highcard_trace"),
    "ranges.self_s": ("s", "range_s and mincost_s on highcard_trace"),
    "ranges.decoder_range_calls": ("count", "ranges.self_s"),
    "models.self_s": ("s", "mincost_s and compare_s on model_cost"),
    "models.binomial_survival_calls": ("count", "models.self_s"),
    "models.sample_s": ("s", "synth_s on pershot_pipeline"),
    "models.sample_chunks": ("count", "models.sample_s"),
    "cost.self_s": ("s", "mincost_s on model_cost and highcard_trace; compare_s on model_cost"),
    "cost.stopping_candidates_calls": ("count", "cost.self_s"),
    "cost.candidate_rows": ("count", "cost.self_s"),
    "bench.untraced_s": ("s", "none: traced wall time outside the root cli.main span"),
    "bench.span_overhead_frac": ("frac", "none: traced / untraced in-process wall time - 1"),
}


def output_digest(lines) -> tuple[str, int]:
    """sha256 of a call's column header and data rows, and the number of data rows.

    ``lines`` iterates the output's lines, from a file or ``io.StringIO``
    opened with ``newline=""``.  ``#`` comment lines are dropped, so
    provenance comments never change the digest.
    """
    sha = hashlib.sha256()
    kept = 0
    for line in lines:
        if line.startswith("#"):
            continue
        sha.update(("\n" if kept else "").encode() + line.rstrip("\r\n").encode())
        kept += 1
    return sha.hexdigest(), max(kept - 1, 0)


class Tracer:
    """In-memory spans and per-name aggregates for wrapped functions."""

    def __init__(self, spans_per_name: int = SPANS_PER_NAME):
        self.spans_per_name = spans_per_name
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, recorded]
        self.spans: list[tuple] = []  # (id, parent_id, name, start_s, end_s)
        self.counts: Counter = Counter()
        self.parsed_paths: list[str] = []
        self.root_s = 0.0  # summed duration of spans opened with no parent
        self._stack: list[list] = []  # open frames: [start_s, child_s, span_id]
        self._ids = itertools.count()

    def wrap(self, name: str, fn, hook=None):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        spans = self.spans
        ids = self._ids
        limit = self.spans_per_name
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None
            if stat[3] < limit and (parent is None or parent[2] is not None):
                span_id = next(ids)
                stat[3] += 1
            frame = [0.0, 0.0, span_id]
            stack.append(frame)
            frame[0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                else:
                    tracer.root_s += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if span_id is not None:
                    spans.append((span_id, parent[2] if parent else None, name, frame[0], end))
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def layer_self(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat[2]
        return totals


def _arg(args, kwargs, index, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[index] if len(args) > index else default


def _parse_hook(tracer, args, kwargs, result):
    tracer.counts["trace.distinct_runtimes"] += len(result.runtimes_ns)
    tracer.parsed_paths.append(os.fspath(_arg(args, kwargs, 0, "path")))


def _write_hook(tracer, args, kwargs, result):
    trace = _arg(args, kwargs, 0, "trace")
    per_shot = _arg(args, kwargs, 2, "per_shot", False)
    tracer.counts["trace.rows_written"] += (
        int(trace.counts.sum()) if per_shot else len(trace.runtimes_ns)
    )


def _significant_hook(tracer, args, kwargs, result):
    runtimes = _arg(args, kwargs, 0, "data").runtimes_ns
    extra = list(_arg(args, kwargs, 2, "extra_candidates", ()))
    candidates = len(runtimes) if not extra else len(set(runtimes.tolist()) | set(extra))
    tracer.counts["stopping.candidates"] += candidates
    tracer.counts["stopping.significant"] += len(result)


def _sample_hook(tracer, args, kwargs, result):
    shots = _arg(args, kwargs, 4, "shots")
    chunk = sys.modules["stopcost.models"].SAMPLE_CHUNK_SHOTS
    tracer.counts["models.sample_chunks"] += -(-shots // chunk)


def _candidates_hook(tracer, args, kwargs, result):
    tracer.counts["cost.candidate_rows"] += len(result)


# Counts recorded at the span boundary; each hook is O(1) in the hot paths.
HOOKS = {
    "trace.parse_trace": _parse_hook,
    "trace.write_trace_csv": _write_hook,
    "stopping.significant_stopping_times": _significant_hook,
    "models.sample_trace": _sample_hook,
    "cost.stopping_candidates": _candidates_hook,
}


def install(tracer: Tracer):
    """Wrap the layers' public functions everywhere; return an undo function."""
    for layer in LAYERS:
        importlib.import_module(f"stopcost.{layer}")
    namespaces = [
        module
        for name, module in list(sys.modules.items())
        if name == "stopcost" or name.startswith("stopcost.")
    ]
    undo = []
    for layer in LAYERS:
        module = sys.modules[f"stopcost.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, HOOKS.get(name))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is fn:
                        setattr(namespace, key, wrapped)
                        undo.append((namespace, key, fn))

    def restore():
        for namespace, key, fn in undo:
            setattr(namespace, key, fn)

    return restore


def count_data_rows(path: str) -> int:
    """Data rows of a trace file, as the parser sees them (header excluded)."""
    with open(path, "rb") as fh:
        rows = sum(1 for line in fh if line.strip() and not line.lstrip().startswith(b"#"))
    return max(rows - 1, 0)


def _run_main(argv: list[str]) -> tuple[float, int, str]:
    import stopcost.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = stopcost.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash exits 1, as the interpreter would
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return wall, code, out.getvalue()


def traced_run(calls: list[list[str]]) -> tuple[dict, Tracer]:
    """Run each call untraced, then traced, in this process."""
    tracer = Tracer()
    records = []
    for argv in calls:
        untraced_s, untraced_code, untraced_out = _run_main(argv)
        before_root, before_self = tracer.root_s, tracer.layer_self()
        before_main = tracer.stats.get("cli.main", [0, 0.0])[1]
        restore = install(tracer)
        try:
            traced_s, code, out = _run_main(argv)
        finally:
            restore()
        after_self = tracer.layer_self()
        layer_self = {k: after_self[k] - before_self[k] for k in LAYERS}
        root_s = tracer.root_s - before_root
        main_s = tracer.stats["cli.main"][1] - before_main
        digest, rows = output_digest(io.StringIO(out, newline=""))
        records.append({
            "kind": argv[0],
            "exit_code": code,
            "untraced_exit_code": untraced_code,
            "digest": digest,
            "untraced_digest": output_digest(io.StringIO(untraced_out, newline=""))[0],
            "rows": rows,
            "output_bytes": len(out.encode()),
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "layer_self_s": layer_self,
            "root_s": root_s,
            "main_s": main_s,
            "remainder_s": traced_s - root_s,
        })
    rows_per_path = {path: count_data_rows(path) for path in set(tracer.parsed_paths)}
    tracer.counts["trace.rows_parsed"] = sum(rows_per_path[p] for p in tracer.parsed_paths)
    result = {
        "calls": records,
        "stats": {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for name, s in sorted(tracer.stats.items())
        },
        "counts": dict(tracer.counts),
        "spans_recorded": len(tracer.spans),
    }
    return result, tracer


def layer_metrics(result: dict) -> dict[str, float | None]:
    """Named per-layer metrics of one traced run (see ``LAYER_METRICS``)."""
    stats = result["stats"]
    counts = Counter(result["counts"])
    calls = result["calls"]

    def total(*names):
        return sum(stats[n]["total_s"] for n in names if n in stats)

    def ncalls(name):
        return stats[name]["calls"] if name in stats else 0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for call in calls:
        for layer, value in call["layer_self_s"].items():
            layer_self[layer] += value
    candidates = counts["stopping.candidates"]
    traced = sum(c["traced_s"] for c in calls)
    untraced = sum(c["untraced_s"] for c in calls)
    return {
        "cli.self_s": layer_self["cli"],
        "cli.render_s": total("cli.render_table", "cli.emit"),
        "cli.output_bytes": sum(c["output_bytes"] for c in calls),
        "trace.self_s": layer_self["trace"],
        "trace.parse_s": total("trace.parse_trace"),
        "trace.rows_parsed": counts["trace.rows_parsed"],
        "trace.distinct_runtimes": counts["trace.distinct_runtimes"],
        "trace.build_distribution_s": total("trace.build_distribution"),
        "trace.write_s": total("trace.write_trace_csv", "trace.write_metadata"),
        "trace.rows_written": counts["trace.rows_written"],
        "stopping.self_s": layer_self["stopping"],
        "stopping.exact_calls": ncalls("stopping.interrupted_failure_exact"),
        "stopping.candidates": candidates,
        "stopping.significant": counts["stopping.significant"],
        "stopping.significant_frac": (
            counts["stopping.significant"] / candidates if candidates else None
        ),
        "ranges.self_s": layer_self["ranges"],
        "ranges.decoder_range_calls": ncalls("ranges.decoder_range"),
        "models.self_s": layer_self["models"],
        "models.binomial_survival_calls": ncalls("models.binomial_survival"),
        "models.sample_s": total("models.sample_trace"),
        "models.sample_chunks": counts["models.sample_chunks"],
        "cost.self_s": layer_self["cost"],
        "cost.stopping_candidates_calls": ncalls("cost.stopping_candidates"),
        "cost.candidate_rows": counts["cost.candidate_rows"],
        "bench.untraced_s": sum(c["remainder_s"] for c in calls),
        "bench.span_overhead_frac": traced / untraced - 1.0,
    }


def additivity_error(call: dict) -> str | None:
    """Why a traced call's time is not fully attributed to the layers, or None.

    The self times add up to the root spans by construction, so the checks
    are on what the construction cannot see: a root span other than
    ``cli.main`` (a wrapped function that ran outside the CLI entry point),
    and traced wall time outside every span beyond ``REMAINDER_FRAC``.
    """
    if abs(call["root_s"] - call["main_s"]) > ROOT_TOLERANCE_S:
        return f"root spans cover {call['root_s']:.6f} s but cli.main {call['main_s']:.6f} s"
    if not 0.0 <= call["remainder_s"] <= REMAINDER_FRAC * call["traced_s"]:
        return f"untraced remainder {call['remainder_s']:.6f} s of {call['traced_s']:.6f} s"
    return None


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import stopcost.cli

    if not Path(stopcost.cli.__file__).resolve().is_relative_to(src):
        print(f"stopcost imported from {stopcost.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    os.chdir(spec["cwd"])
    result, tracer = traced_run(spec["calls"])
    Path(result_path).write_text(json.dumps(result))
    with open(spec["spans_out"], "w") as fh:
        json.dump(
            {
                "fields": ["id", "parent_id", "name", "start_s", "end_s"],
                "spans": tracer.spans,
                "aggregates": result["stats"],
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
