import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stopcost.cli as cli
from stopcost import GateSchedule, accuracy_surface
from stopcost.cli import _format_cell, _json_safe, integer, main, render_table

SRC = Path(__file__).resolve().parents[1] / "src"

META = {"distance": 5, "physical_error_rate": 1e-3, "shots": 6, "sec_cycle_ns": 1000}


def write_trace(tmp_path, rows, meta=META, name="trace"):
    trace_path = tmp_path / f"{name}.csv"
    lines = ["runtime_ns,failed"] + [f"{r},{int(f)}" for r, f in rows]
    trace_path.write_text("\n".join(lines) + "\n")
    (tmp_path / f"{name}.json").write_text(json.dumps(dict(meta, shots=len(rows))))
    return trace_path


def read_csv_table(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        args = [
            "synth", "--model", "quadratic", "--d", "5", "--p", "1e-3",
            "--shots", "1e4", "--seed", "7",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        base = [
            "synth", "--model", "linear", "--d", "7", "--p", "1e-3", "--shots", "5000",
        ]
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_per_shot_layout_roundtrips(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main([
            "synth", "--model", "instantaneous", "--d", "3", "--p", "1e-3",
            "--shots", "50", "--seed", "3", "--per-shot", "--out", str(out),
        ]) == 0
        header, rows = read_csv_table(out.read_text())
        assert header == ["runtime_ns", "failed"]
        assert len(rows) == 50
        assert all(r[0] == "0" for r in rows)

    def test_missing_out_is_usage_error(self):
        assert main([
            "synth", "--model", "quadratic", "--d", "5", "--p", "1e-3",
            "--shots", "10", "--seed", "1",
        ]) == 2

    def test_trace_and_sidecar_written_alike(self, tmp_path):
        out = tmp_path / "t.csv"
        out.write_text("stale\n")
        out.chmod(0o644)
        assert main([
            "synth", "--model", "linear", "--d", "5", "--p", "1e-3",
            "--shots", "100", "--seed", "1", "--per-shot", "--out", str(out),
        ]) == 0
        sidecar = tmp_path / "t.json"
        assert out.stat().st_mode == sidecar.stat().st_mode
        assert json.loads(sidecar.read_text())["shots"] == 100
        assert len(read_csv_table(out.read_text())[1]) == 100
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]

    def test_out_colliding_with_sidecar_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main([
            "synth", "--model", "linear", "--d", "5", "--p", "1e-3",
            "--shots", "10", "--out", str(out),
        ]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("stopcost: error:")

    @pytest.mark.parametrize("shots", ["1.7", "1e-1", "nan", "ten"])
    def test_non_integral_shots_rejected(self, tmp_path, shots):
        out = tmp_path / "t.csv"
        assert main([
            "synth", "--model", "linear", "--d", "5", "--p", "1e-3",
            "--shots", shots, "--out", str(out),
        ]) == 2
        assert list(tmp_path.iterdir()) == []


class TestTraceStats:
    def test_summary_values(self, tmp_path, capsys):
        trace = write_trace(
            tmp_path, [(100, 0), (100, 0), (200, 1), (300, 0), (300, 0), (400, 0)]
        )
        assert main(["trace-stats", "--trace", str(trace)]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        record = dict(zip(header, rows[0]))
        assert record["shots"] == "6"
        assert float(record["mean_ns"]) == pytest.approx(1400 / 6)
        assert record["t_max_ns"] == "400"
        assert record["p50_ns"] == "200"
        assert record["p100_ns"] == "400"
        assert float(record["failure_rate"]) == pytest.approx(1 / 6)
        assert record["failure_events"] == "1"

    def test_unreadable_input_is_io_error(self, tmp_path):
        assert main(["trace-stats", "--trace", str(tmp_path / "missing.csv")]) == 4

    def test_malformed_trace_is_validation_error(self, tmp_path):
        trace = tmp_path / "bad.csv"
        trace.write_text("runtime_ns,failed\nxyz,0\n")
        (tmp_path / "bad.json").write_text(json.dumps(META))
        assert main(["trace-stats", "--trace", str(trace)]) == 2


class TestStopAndRange:
    def test_stop_emits_full_sweep(self, tmp_path, capsys):
        trace = write_trace(tmp_path, [(100, 1), (200, 0), (300, 0)])
        assert main(["stop", "--trace", str(trace)]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        assert header == [
            "M_ns", "timeout_prob", "exact_rate", "upper_bound", "lower_bound",
            "failure_events",
        ]
        assert [r[0] for r in rows] == ["100", "200", "300"]
        assert float(rows[0][2]) == pytest.approx(1.0)  # 1 failure + 2 timeouts

    def test_range_reports_optimum(self, tmp_path, capsys):
        rows = [(1000, 1)] * 30 + [(1000, 0)] * 50 + [(5000, 0)] * 20
        trace = write_trace(tmp_path, rows)
        assert main(["range", "--trace", str(trace), "--min-events", "20"]) == 0
        out = capsys.readouterr().out
        header, table = read_csv_table(out)
        assert header == ["M_ns", "M_cycles", "exact_rate", "range"]
        assert "# optimal_M_ns:" in out
        assert len(table) == 2

    def test_range_without_significance_exits_3(self, tmp_path, capsys):
        trace = write_trace(tmp_path, [(100, 0)] * 10)
        assert main(["range", "--trace", str(trace)]) == 3
        assert "infeasible" in capsys.readouterr().err


class TestSurface:
    def test_rows_and_values(self, capsys):
        assert main([
            "surface", "--d", "15", "--p", "1e-3",
            "--alphas", "0.2,0.8", "--m-cycles", "0,500",
        ]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        assert header == ["alpha", "M_cycles", "range"]
        table = {(r[0], r[1]): int(r[2]) for r in rows}
        assert table[("0.2", "0")] == 14285714
        assert table[("0.8", "500")] == 9917355


class TestMincostAndCompare:
    def test_row_count_contract(self, capsys):
        assert main([
            "mincost", "--decoder", "linear", "--nT", "10,100,1000",
            "--distances", "3:15",
        ]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        assert header == ["n_T", "cost", "distance", "M_ns"]
        assert len(rows) == 3

    def test_instantaneous_reference_row(self, capsys):
        assert main(["mincost", "--decoder", "instantaneous", "--nT", "1"]) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        assert rows[0] == ["1", "378", "3", "0"]

    def test_trace_backed_mincost(self, tmp_path, capsys):
        rows = [(1000, 1)] * 25 + [(1000, 0)] * 9975
        trace = write_trace(tmp_path, rows)
        assert main(["mincost", "--trace", str(trace), "--nT", "10"]) == 0
        out = capsys.readouterr().out
        assert "# rate_method: exact" in out
        _, table = read_csv_table(out)
        assert table[0][2] == "5"  # trace's own distance

    def test_infeasible_everywhere_exits_3(self, capsys):
        assert main([
            "mincost", "--decoder", "instantaneous", "--nT", "1e30",
            "--distances", "3:7",
        ]) == 3
        out = capsys.readouterr()
        assert "inf" in out.out
        assert "infeasible" in out.err

    def test_compare_self_is_unity(self, capsys):
        assert main([
            "compare", "--decoder-a", "instantaneous", "--decoder-b", "instantaneous",
            "--nT", "1,10", "--distances", "3:7",
        ]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        assert header == ["n_T", "cost_a", "cost_b", "ratio"]
        assert all(r[3] == "1.0" for r in rows)

    def test_decoder_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "dec.json"
        cfg.write_text(json.dumps({
            "name": "cfg",
            "runtime": {"kind": "instantaneous"},
            "failure": {"kind": "heuristic", "A": 0.1, "B": 100},
        }))
        assert main(["mincost", "--decoder", str(cfg), "--nT", "1"]) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        assert rows[0][1] == "378"


    @pytest.mark.parametrize(
        "argv",
        [
            ["mincost", "--decoder", "linear"],
            ["compare", "--decoder-a", "linear", "--decoder-b", "quadratic"],
        ],
    )
    def test_bad_workload_rejected_before_any_output(self, capsys, argv):
        assert main(argv + ["--nT", "10,0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "stopcost: error: n_T must be >= 1, got 0\n"


class TestRequiredDistance:
    def test_reference_row(self, capsys):
        assert main(["required-distance", "--nT", "1000"]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        record = dict(zip(header, rows[0]))
        assert record["distance"] == "7"
        assert record["no_encoding_sufficient"] == "0"

    def test_infeasible_exits_3(self, capsys):
        assert main(["required-distance", "--nT", "1000000", "--p", "5e-3", "--d-max", "3"]) == 3


class TestOutputContracts:
    def test_csv_json_numerals_match(self, tmp_path, capsys):
        trace = write_trace(
            tmp_path, [(100, 0), (100, 1), (250, 0), (400, 0), (400, 0), (650, 1)]
        )
        assert main(["stop", "--trace", str(trace), "--format", "csv"]) == 0
        csv_text = capsys.readouterr().out
        assert main(["stop", "--trace", str(trace), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        _, csv_rows = read_csv_table(csv_text)
        assert payload["columns"] == [
            "M_ns", "timeout_prob", "exact_rate", "upper_bound", "lower_bound",
            "failure_events",
        ]
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            for cell, value in zip(csv_row, json_row):
                expected = "" if value is None else (
                    repr(value) if isinstance(value, float) else str(value)
                )
                assert cell == expected

    def test_infeasible_cost_is_inf_in_csv_null_in_json(self, capsys):
        base = ["mincost", "--decoder", "instantaneous", "--nT", "1e30", "--distances", "3:5"]
        main(base)
        csv_text = capsys.readouterr().out
        _, rows = read_csv_table(csv_text)
        assert rows[0][1] == "inf"
        main(base + ["--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0][1] is None

    def test_output_file_written_atomically(self, tmp_path):
        out = tmp_path / "result.csv"
        assert main([
            "surface", "--d", "9", "--p", "1e-3", "--alphas", "0.5",
            "--m-cycles", "0", "--out", str(out),
        ]) == 0
        assert out.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_deterministic_output(self, tmp_path):
        args = [
            "surface", "--d", "9", "--p", "1e-3", "--format", "json",
        ]
        out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


class TestConfigPrecedence:
    def test_flags_beat_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"epsilon": 0.25, "format": "json"}))
        assert main([
            "surface", "--d", "15", "--p", "1e-3", "--alphas", "0.2",
            "--m-cycles", "0", "--config", str(cfg), "--epsilon", "0.5",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)  # format from config
        assert payload["epsilon"] == 0.5  # epsilon from flag
        assert payload["rows"][0][2] == 14285714

    def test_config_file_beats_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"epsilon": 0.25}))
        assert main([
            "surface", "--d", "15", "--p", "1e-3", "--alphas", "0.2",
            "--m-cycles", "0", "--config", str(cfg), "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epsilon"] == 0.25

    def test_invalid_config_value_rejected(self, tmp_path):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"epsilon": 2.0}))
        assert main([
            "surface", "--d", "9", "--p", "1e-3", "--config", str(cfg),
        ]) == 2

    @pytest.mark.parametrize(
        "content",
        [
            {"schedule": {"bogus": 1}},
            {"schedule": [2, 2, 2, 1]},
            {"schedule": {"h_cycles": 1.5}},
            [0.25],
            "settings",
            {"epsilon": 0.25, "bogus": 1},
            {"epsilon": [0.25]},
            {"t_sec_ns": 1000.5},
            {"seed": True},
        ],
    )
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, content):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps(content))
        assert main([
            "surface", "--d", "9", "--p", "1e-3", "--config", str(cfg),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stopcost: error:")
        assert captured.err.count("\n") == 1

    def test_schedule_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({
            "schedule": {"h_cycles": 1, "s_cycles": 1, "conditional_s_cycles": 1,
                         "measure_cycles": 1},
            "t_sec_ns": 1e3,
        }))
        assert main([
            "surface", "--d", "15", "--p", "1e-3", "--alphas", "1",
            "--m-cycles", "0", "--config", str(cfg),
        ]) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        expected = accuracy_surface(15, 1e-3, 0.5, [1.0], [0], schedule=GateSchedule(1, 1, 1, 1))
        assert rows[0][2] == str(expected[0][2])
        assert expected != accuracy_surface(15, 1e-3, 0.5, [1.0], [0])


class TestStrictIntegers:
    @pytest.mark.parametrize(
        "text, value",
        [("7", 7), ("1e6", 10**6), ("1.5e3", 1500), (" 12 ", 12),
         ("9007199254740993", 2**53 + 1), ("9.007199254740993e15", 2**53 + 1),
         ("1e30", 10**30), ("-3", -3), ("120e-1", 12), ("0.00e-9", 0)],
    )
    def test_integral_values_accepted_exactly(self, text, value):
        assert integer(text) == value

    @pytest.mark.parametrize(
        "text", ["1.7", "1e-3", "nan", "inf", "", "0x10", ".5", "1e5000", "1e-999999999"]
    )
    def test_other_values_rejected(self, text):
        with pytest.raises(ValueError):
            integer(text)

    def test_fractional_nT_rejected(self, capsys):
        assert main(["mincost", "--decoder", "instantaneous", "--nT", "1.7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stopcost: error:")

    def test_exponent_nT_accepted(self, capsys):
        assert main([
            "mincost", "--decoder", "linear", "--nT", "1e6", "--distances", "3:31",
        ]) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        assert rows[0][0] == "1000000"

    def test_nT_above_2_53_kept_exact(self, capsys):
        assert main([
            "mincost", "--decoder", "instantaneous", "--nT", "9007199254740993",
            "--distances", "3:5",
        ]) == 3
        _, rows = read_csv_table(capsys.readouterr().out)
        assert rows[0][0] == "9007199254740993"

    def test_integer_flags_use_strict_parser(self, capsys):
        assert main([
            "surface", "--d", "1.5e1", "--p", "1e-3", "--alphas", "0.2", "--m-cycles", "0",
        ]) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        assert rows[0][2] == "14285714"
        with pytest.raises(SystemExit) as err:
            main(["surface", "--d", "15.5", "--p", "1e-3"])
        assert err.value.code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["mincost"])  # missing required --nT
    assert err.value.code == 2


class TestOneLineErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["surface", "--d", "15.5", "--p", "1e-3"], "argument --d: invalid integer value: '15.5'"),
            (["surface", "--p", "1e-3"], "the following arguments are required: --d"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"stopcost: error: {message}")
        assert out.err.count("\n") == 1

    @pytest.mark.parametrize(
        "text",
        [
            "runtime_ns,failed\n100000000000000000000,0\n",
            "runtime_ns,count_total,count_failed\n5,9223372036854775807,0\n5,1,0\n",
        ],
    )
    def test_oversized_trace_integer_is_one_line(self, tmp_path, capsys, text):
        trace = tmp_path / "big.csv"
        trace.write_text(text)
        (tmp_path / "big.json").write_text(json.dumps(META))
        assert main(["trace-stats", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopcost: error: line ")
        assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# Column-wise block rendering against a per-cell oracle


def per_cell_render(command, header, rows, fmt, extras):
    """The oracle: every cell through _format_cell, rows joined at the end."""
    if fmt == "json":
        payload = {
            "command": command,
            **{k: _json_safe(v) for k, v in extras.items()},
            "columns": list(header),
            "rows": [[_json_safe(v) for v in row] for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key}: {_format_cell(value)}" for key, value in extras.items()]
    lines.append(",".join(header))
    lines.extend(",".join(_format_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# Where repr switches to exponent form (1e16, 1e-05), the smallest
# subnormal, a negative zero and the infinities rendered as inf/null.
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.0000000000000002e-05,
    1e22, 0.1, 2.5, math.inf, -math.inf, math.nan,
]
float_cells = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False))
int_cells = st.integers(-(2**63), 2**63 - 1)
other_cells = st.one_of(
    st.none(), st.integers(-(10**30), 10**30), float_cells, st.sampled_from(["x", "quadratic"]),
    st.booleans(),
)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 20))
    columns, cells = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["float", "int", "list"]))
        strategy = {"float": float_cells, "int": int_cells, "list": other_cells}[kind]
        values = draw(st.lists(strategy, min_size=n_rows, max_size=n_rows))
        if kind == "float":
            columns.append(np.array(values, dtype=np.float64))
        elif kind == "int":
            columns.append(np.array(values, dtype=np.int64))
        else:
            columns.append(values)
        cells.append(values)
    return columns, [list(row) for row in zip(*cells)]


@settings(max_examples=300, deadline=None)
@given(
    table=tables(),
    rows_per_block=st.integers(1, 7),
    fmt=st.sampled_from(["csv", "json"]),
    extras=st.sampled_from([{}, {"decoder": "x", "epsilon": 0.5, "cost": math.inf}]),
)
@example(table=([np.array([], dtype=np.float64), []], []), rows_per_block=1, fmt="csv", extras={})
@example(
    table=([np.array(SPECIAL_FLOATS)], [[v] for v in SPECIAL_FLOATS]),
    rows_per_block=3, fmt="csv", extras={},
)
def test_render_table_matches_per_cell_oracle(table, rows_per_block, fmt, extras):
    columns, rows = table
    header = [f"c{i}" for i in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ROWS_PER_BLOCK", rows_per_block)
        blocks = list(render_table("t", header, columns, fmt, extras))
    assert "".join(blocks) == per_cell_render("t", header, rows, fmt, extras)
    if fmt == "csv":
        # The header block, then one block per ROWS_PER_BLOCK rows.
        assert len(blocks) == 1 + -(-len(rows) // rows_per_block)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_is_one_io_error_line(tmp_path, unbuffered):
    # A stop table far larger than a pipe buffer (64 KiB), so the writer is
    # still writing when the reader goes away.  An unbuffered stdout takes
    # a partial write without error, so the rest must still be written.
    runtimes = range(1000, 1000 + 6000)
    lines = ["runtime_ns,count_total,count_failed"] + [f"{r},3,1" for r in runtimes]
    trace = tmp_path / "t.csv"
    trace.write_text("\n".join(lines) + "\n")
    (tmp_path / "t.json").write_text(json.dumps(dict(META, shots=3 * len(runtimes))))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(SRC), PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "stopcost.cli", "stop", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 4
    assert err.startswith("stopcost: io error: ")
    assert err.count("\n") == 1, err
