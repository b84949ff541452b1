"""Tests of the benchmark itself, on the smoke size of each workload.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--size", "smoke", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_contract_metrics(workload, trace):
    result, stdout = bench("--workload", workload, "--seed", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert "failed_frac = 0 frac" in stdout
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_non_default_seed_checks_consistency_only():
    result, stdout = bench("--workload", "highcard_trace", "--seed", "7", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    fixture = json.loads(next(l for l in stdout.splitlines() if l.startswith("fixture "))[8:])
    size = workloads.SIZES["smoke"]["highcard_trace"]
    assert fixture["rows"] == fixture["distinct"] == size["distinct"]
    assert fixture["shots"] == size["shots"]


def test_traced_counts_and_additivity():
    _, stdout = bench("--workload", "pershot_pipeline", "--seed", "0", "--trace", "1")
    record_line = next(l for l in stdout.splitlines() if l.startswith("record "))
    assert record_line == "record bench/out/pershot_pipeline-smoke-seed0-trace1.json"
    record = json.loads((ROOT / record_line.split(" ", 1)[1]).read_text())
    assert [c["digest"] for c in record["calls"]] == json.loads(
        (BENCH / "expected.json").read_text()
    )["smoke"]["pershot_pipeline"]["calls"]
    metrics = record["metrics"]
    shots = workloads.SIZES["smoke"]["pershot_pipeline"]["shots"]
    assert metrics["trace.rows_written"] == shots
    assert metrics["trace.rows_parsed"] == 4 * shots
    assert metrics["models.sample_chunks"] == 1
    assert metrics["stopping.significant"] <= metrics["stopping.candidates"]
    assert set(tracing.LAYER_METRICS) <= set(metrics)


def test_metric_tables_cover_the_contract():
    e2e = {name: unit for name, (unit, _) in run.E2E_METRICS.items()}
    layer = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == e2e
    for metric in CONTRACT["per_layer"]:
        assert layer[metric["name"]] == metric["unit"]
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_reference_scaling_undoes_a_uniform_slowdown():
    assert run.scale_between(run.REFERENCE_S, run.REFERENCE_S) == pytest.approx(1.0)
    slow = 1.5
    scale = run.scale_between(slow * run.REFERENCE_S, slow * run.REFERENCE_S)
    assert 2.0 * slow * scale == pytest.approx(2.0)


def test_digest_drops_comment_lines_only():
    def digest(text):
        return tracing.output_digest(io.StringIO(text, newline=""))

    body = "n_T,cost\n10,42\n"
    assert digest(body) == (hashlib.sha256(b"n_T,cost\n10,42").hexdigest(), 1)
    assert digest("# version: 9\n# input_sha256: ab\n" + body) == digest(body)
    assert digest("n_T,cost\n10,43\n") != digest(body)
    assert digest("") == (hashlib.sha256(b"").hexdigest(), 0)


def test_check_call_flags_exit_code_rows_and_digest():
    call = workloads.Call(("mincost", "--nT", "10"), exit_code=0, rows=(1, 1))
    assert run.check_call(call, 0, 1, "d", "d") is None
    assert run.check_call(call, 0, 1, "d", None) is None
    assert "exit code 3" in run.check_call(call, 3, 1, "d", "d")
    assert "data rows" in run.check_call(call, 0, 2, "d", "d")
    assert "digest" in run.check_call(call, 0, 1, "d", "e")


def test_fixtures_follow_the_seed(tmp_path):
    a = workloads.build("highcard_trace", tmp_path / "a", 3, "smoke").fixtures
    b = workloads.build("highcard_trace", tmp_path / "b", 3, "smoke").fixtures
    c = workloads.build("highcard_trace", tmp_path / "c", 4, "smoke").fixtures
    assert a[0].sha256 == b[0].sha256 != c[0].sha256
    grid = workloads.build("model_cost", tmp_path / "m", 3, "full").fixtures[0]
    assert (grid.rows, grid.distinct) == (289, 274)


def test_tracer_self_times_add_up_and_hot_calls_aggregate():
    tracer = tracing.Tracer(spans_per_name=3)

    def leaf(x):
        return x + 1

    def outer(n):
        return sum(wrapped_leaf(i) for i in range(n))

    wrapped_leaf = tracer.wrap("models.leaf", leaf)
    wrapped_outer = tracer.wrap("cost.outer", outer)
    assert wrapped_outer(10) == 55
    assert tracer.stats["models.leaf"][0] == 10 and tracer.stats["cost.outer"][0] == 1
    assert len(tracer.spans) == 1 + 3  # outer plus the first three leaves
    assert all(span[1] == tracer.spans[-1][0] for span in tracer.spans[:-1])
    layer_self = tracer.layer_self()
    assert sum(layer_self.values()) == pytest.approx(tracer.root_s, abs=1e-12)
    assert tracer.stats["cost.outer"][1] == pytest.approx(tracer.root_s, abs=1e-12)


def test_additivity_error_flags_foreign_roots_and_lost_time():
    call = {"traced_s": 1.0, "root_s": 0.999, "main_s": 0.999, "remainder_s": 0.001}
    assert tracing.additivity_error(call) is None
    assert "cli.main" in tracing.additivity_error({**call, "main_s": 0.9})
    assert "remainder" in tracing.additivity_error({**call, "root_s": 0.5, "main_s": 0.5,
                                                     "remainder_s": 0.5})
    assert "remainder" in tracing.additivity_error({**call, "remainder_s": -0.001})


def test_install_wraps_public_functions_in_every_namespace():
    sys.path.insert(0, str(ROOT / "src"))
    import stopcost
    import stopcost.cli
    import stopcost.cost

    original = stopcost.cost.stopping_candidates
    private = stopcost.cost._candidate_table
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert stopcost.stopping_candidates is stopcost.cost.stopping_candidates
        assert stopcost.cost.stopping_candidates is not original
        assert stopcost.cost.stopping_candidates.__wrapped__ is original
        assert stopcost.cost._candidate_table is private
        assert stopcost.cli.main is not stopcost.cli.main.__wrapped__
    finally:
        restore()
    assert stopcost.cost.stopping_candidates is original
    assert stopcost.stopping_candidates is original


def test_bare_directory_fails_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "model_cost", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
