import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stopcost.cli as cli
from stopcost import GateSchedule, accuracy_surface
from stopcost import models, ranges
from stopcost.cli import _format_cell, _json_safe, integer, main, render_table
from stopcost.numerals import format_rows
from stopcost.trace import parse_trace

SRC = Path(__file__).resolve().parents[1] / "src"
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

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

    def test_wide_histogram_is_written_as_its_rows(self, tmp_path):
        # A binomial law of ~5e4 distinct runtimes: the histogram is written
        # in many blocks of ranges.ROWS_PER_BLOCK rows, with the bytes of
        # one "runtime,total,failed" line per row.
        config = tmp_path / "wide.json"
        config.write_text(json.dumps({
            "runtime": {"kind": "binomial", "N": 10**9, "Q": 0.5, "unit_ns": 1},
            "failure": {"kind": "heuristic"},
        }))
        out = tmp_path / "t.csv"
        assert main([
            "synth", "--model", str(config), "--d", "5", "--p", "5e-3",
            "--shots", "1e5", "--seed", "3", "--out", str(out),
        ]) == 0
        trace = parse_trace(out, tmp_path / "t.json")
        assert trace.runtimes_ns.size > 10**4
        rows = zip(trace.runtimes_ns.tolist(), trace.counts.tolist(), trace.failed_counts.tolist())
        lines = "".join(f"{r},{t},{f}\n" for r, t, f in rows)
        assert out.read_text() == "runtime_ns,count_total,count_failed\n" + lines

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
    def test_non_integral_shots_rejected(self, tmp_path, capsys, shots):
        # --shots is read like every other integer flag: a usage error.
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as err:
            main([
                "synth", "--model", "linear", "--d", "5", "--p", "1e-3",
                "--shots", shots, "--out", str(out),
            ])
        assert err.value.code == 2
        assert capsys.readouterr().err == (
            f"stopcost: error: argument --shots: invalid integer value: '{shots}'\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "model, d, p, law, reason",
        [
            ("@/big.json", "5", "0.001", "N=4000000000000000, Q=0.5, unit_ns=10000",
             "a draw of [0-9]+ units passes the 2\\*\\*63 ns trace limit"),
            ("quadratic", "2049", "0.02",
             "N=74003413131604275201, Q=2.3248991593676e-12, unit_ns=1000",
             "N must be below the 2\\*\\*63 trace limit"),
        ],
        ids=["runtimes-past-2**63", "N-past-2**63"],
    )
    def test_law_past_the_int64_trace_limit_is_one_error_line(
        self, tmp_path, capsys, model, d, p, law, reason
    ):
        # Runtimes of ~2e19 ns used to wrap in int64 and be written as ~1.55e18.
        (tmp_path / "big.json").write_text(json.dumps({
            "runtime": {"kind": "binomial", "N": 4 * 10**15, "Q": 0.5, "unit_ns": 10000},
            "failure": {"kind": "heuristic"},
        }))
        out = tmp_path / "w.csv"
        model = str(tmp_path) + model[1:] if model.startswith("@") else model
        argv = ["synth", "--model", model, "--d", d, "--p", p, "--shots", "1000"]
        assert main(argv + ["--out", str(out)]) == 2
        errors = [l for l in capsys.readouterr().err.splitlines() if "stopcost: error:" in l]
        assert len(errors) == 1
        assert re.fullmatch(
            f"stopcost: error: binomial runtime {re.escape(law)} cannot be sampled: {reason}",
            errors[0],
        )
        assert sorted(f.name for f in tmp_path.iterdir()) == ["big.json"]

    def test_shots_past_the_int64_trace_limit_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main([
            "synth", "--model", "quadratic", "--d", "5", "--p", "1e-3",
            "--shots", "1e20", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "stopcost: error: shots must be below the 2**63 trace limit, "
            "got 100000000000000000000\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_per_shot_rows_past_the_limit_rejected_before_sampling(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking --shots")

        monkeypatch.setattr(models, "sample_trace", no_sampling)
        out = tmp_path / "t.csv"
        assert main([
            "synth", "--model", "linear", "--d", "5", "--p", "1e-3", "--per-shot",
            "--shots", "1000000001", "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == (
            "stopcost: error: per-shot output of 1000000001 shots is above the "
            "1000000000-row limit (trace.PER_SHOT_ROWS_LIMIT); write a histogram instead\n"
        )
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

    def test_library_warning_is_one_line(self, capsys):
        show = warnings.showwarning
        assert main(["surface", "--d", "15", "--p", "0.05", "--alphas", "1", "--m-cycles", "0"]) == 0
        assert capsys.readouterr().err == (
            "stopcost: warning: heuristic failure rate evaluated at p=0.05, at or above "
            "its validity threshold 0.01\n"
        )
        assert warnings.showwarning is show
        # Two places raise this text; it is printed once per call, and
        # again by the next call.
        compare = ["compare", "--decoder-a", "linear", "--decoder-b", "quadratic"]
        for _ in range(2):
            assert main([*compare, "--p", "0.02", "--nT", "10"]) == 3
            assert capsys.readouterr().err == (
                "stopcost: warning: heuristic failure rate evaluated at p=0.02, at or above "
                "its validity threshold 0.01\n"
                "stopcost: infeasible: no workload is feasible for both decoders\n"
            )

    @pytest.mark.parametrize("flag, kind", [("--alphas", "float"), ("--m-cycles", "integer")])
    def test_empty_grid_is_refused(self, capsys, flag, kind):
        # An empty list used to fall back to the default grid.
        assert main(["surface", "--d", "5", "--p", "1e-3", flag, ""]) == 2
        assert capsys.readouterr().err == f"stopcost: error: empty {kind} list ''\n"

    def test_zero_failure_rate_is_one_error_line(self, capsys):
        assert main(["surface", "--d", "31", "--p", "1e-320"]) == 2
        assert capsys.readouterr().err == (
            "stopcost: error: failure rate at d=31, p=1e-320 is 0, so the range is unbounded\n"
        )

    def test_subnormal_failure_rate_is_one_error_line(self, capsys):
        # The rate is a subnormal float, so epsilon * d / rate overflows.
        assert main(["surface", "--d", "3", "--p", "3e-157"]) == 2
        assert capsys.readouterr().err == (
            "stopcost: error: failure rate at d=3, p=3e-157 is 9e-311, so the range overflows\n"
        )


class TestMincostAndCompare:
    def test_row_count_contract(self, capsys):
        assert main([
            "mincost", "--decoder", "linear", "--nT", "10,100,1000",
            "--distances", "3:15",
        ]) == 0
        header, rows = read_csv_table(capsys.readouterr().out)
        assert header == ["n_T", "cost", "distance", "M_ns"]
        assert len(rows) == 3

    def test_quadratic_builds_no_linear_decoder(self, tmp_path, capsys):
        # At p = 0.995 the linear decoder's step probability passes 1 at
        # d = 5, but the quadratic one's is p / d**3: a call that names
        # quadratic prices or samples it with only the heuristic's warning.
        warning = (
            "stopcost: warning: heuristic failure rate evaluated at p=0.995, at or above "
            "its validity threshold 0.01\n"
        )
        trace = tmp_path / "t.csv"
        assert main([
            "synth", "--model", "quadratic", "--d", "5", "--p", "0.995", "--shots", "100",
            "--out", str(trace),
        ]) == 0
        assert capsys.readouterr().err == warning
        assert trace.read_text().startswith("runtime_ns,count_total,count_failed\n")
        # Every failure rate there is above any budget: infeasible, not a usage error.
        assert main(["mincost", "--decoder", "quadratic", "--p", "0.995", "--nT", "1",
                     "--distances", "5"]) == 3
        assert capsys.readouterr().err == (
            warning + "stopcost: infeasible: no (distance, stopping time) pair reaches any "
            "requested n_T\n"
        )
        assert main(["mincost", "--decoder", "linear", "--p", "0.995", "--nT", "1",
                     "--distances", "5"]) == 2
        assert "linear decoder step probability" in capsys.readouterr().err

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

    @staticmethod
    def write_empirical_config(directory, *synth_flags):
        """A d=5 trace, sampled with ``synth_flags`` too, and a decoder config
        whose runtime is that trace."""
        directory.mkdir(exist_ok=True)
        trace = directory / "t.csv"
        assert main([
            "synth", "--model", "quadratic", "--d", "5", "--p", "1e-3", "--shots", "2e5",
            "--seed", "1", *synth_flags, "--out", str(trace),
        ]) == 0
        config = directory / "emp.json"
        config.write_text(json.dumps({
            "runtime": {"kind": "empirical", "trace": "t.csv"},
            "failure": {"kind": "heuristic"},
        }))
        return trace, config

    @pytest.fixture
    def empirical_config(self, tmp_path):
        return self.write_empirical_config(tmp_path)

    @pytest.fixture
    def slow_empirical_config(self, tmp_path):
        """As ``empirical_config``, measured at p = 2e-3 on a 500 ns SEC cycle."""
        return self.write_empirical_config(tmp_path / "slow", "--p", "2e-3", "--t-sec-ns", "500")

    def test_empirical_config_is_priced_like_its_trace(
        self, capsys, empirical_config, slow_empirical_config
    ):
        # Its exact rates hold at the trace's distance only; they were priced
        # at every --distances value, under "rate_method: upper_bound".
        trace, config = empirical_config
        assert main(["mincost", "--decoder", str(config), "--nT", "1,10,20,1000"]) == 0
        by_config = capsys.readouterr().out
        assert main(["mincost", "--trace", str(trace), "--nT", "1,10,20,1000"]) == 0
        by_trace = capsys.readouterr().out
        assert "# rate_method: exact\n" in by_config
        assert read_csv_table(by_config) == read_csv_table(by_trace)
        assert read_csv_table(by_config)[1] == [
            ["1", "1800", "5", "1000"], ["10", "18500", "5", "2000"],
            ["20", "37000", "5", "2000"], ["1000", "inf", "", ""],
        ]
        # The trace's SEC cycle time and p are the defaults either way; the
        # config was priced at 1000 ns and printed p = 0.001.
        outputs = []
        for argv in (["--decoder", str(slow_empirical_config[1])],
                     ["--trace", str(slow_empirical_config[0])],
                     ["--decoder", str(slow_empirical_config[1]), "--t-sec-ns", "1000"]):
            assert main(["mincost", *argv, "--nT", "1,10,20,1000"]) == 0
            out = capsys.readouterr().out
            outputs.append([line for line in out.splitlines() if not line.startswith("# decoder:")])
        by_config, by_trace, at_1000 = outputs
        assert by_config == by_trace
        assert "# physical_error_rate: 0.002" in by_config
        assert read_csv_table("\n".join(by_config)) != read_csv_table("\n".join(at_1000))

    def test_compare_prices_both_decoders_at_the_measured_cycle_time(
        self, capsys, slow_empirical_config
    ):
        trace, config = slow_empirical_config
        costs = []
        for argv in (["--trace", str(trace)], ["--decoder", "quadratic", "--t-sec-ns", "500", "--p", "2e-3"]):
            assert main(["mincost", *argv, "--nT", "1,10,20"]) == 0
            costs.append([row[1] for row in read_csv_table(capsys.readouterr().out)[1]])
        assert main([
            "compare", "--decoder-a", str(config), "--decoder-b", "quadratic", "--nT", "1,10,20",
        ]) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        assert [[row[1] for row in rows], [row[2] for row in rows]] == costs

    def test_synth_from_an_empirical_config_keeps_its_cycle_time(
        self, tmp_path, slow_empirical_config
    ):
        out = tmp_path / "s.csv"
        assert main([
            "synth", "--model", str(slow_empirical_config[1]), "--d", "5", "--p", "1e-3",
            "--shots", "10", "--out", str(out),
        ]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["sec_cycle_ns"] == 500

    def test_traces_that_disagree_on_the_cycle_time_need_it_set(
        self, tmp_path, capsys, empirical_config, slow_empirical_config
    ):
        # They were priced at 1000 ns, the default of a call reading no trace.
        argv = ["compare", "--decoder-a", str(slow_empirical_config[1]),
                "--decoder-b", str(empirical_config[1]), "--nT", "1,10"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            "stopcost: error: the traces read disagree on sec_cycle_ns (500 and 1000): "
            "set --t-sec-ns or the settings file's t_sec_ns\n"
        ))
        # They disagree on p too (2e-3 and 1e-3), which --p sets.
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"t_sec_ns": 700}))
        assert main([*argv, "--config", str(settings), "--p", "1e-3"]) == 0
        by_file = capsys.readouterr().out
        assert main([*argv, "--t-sec-ns", "700", "--p", "1e-3"]) == 0
        assert capsys.readouterr().out == by_file

    def test_compare_prices_both_decoders_at_the_measured_p(self, capsys, slow_empirical_config):
        # It printed the --p default, 0.001, and priced quadratic there: a
        # ratio of two decoders at two different p.
        _, config = slow_empirical_config
        costs = {}
        for p in ("1e-3", "2e-3"):
            argv = ["mincost", "--decoder", "quadratic", "--p", p, "--t-sec-ns", "500", "--nT", "1,10,20,100"]
            assert main(argv) == 0
            costs[p] = [row[1] for row in read_csv_table(capsys.readouterr().out)[1]]
        assert costs["1e-3"] != costs["2e-3"]
        assert main([
            "compare", "--decoder-a", str(config), "--decoder-b", "quadratic", "--nT", "1,10,20,100",
        ]) == 0
        out = capsys.readouterr().out
        assert "# physical_error_rate: 0.002\n" in out
        assert [row[2] for row in read_csv_table(out)[1]] == costs["2e-3"]

    def test_traces_that_disagree_on_p_need_it_set(self, tmp_path, capsys, empirical_config):
        _, at_2e3 = self.write_empirical_config(tmp_path / "p2", "--p", "2e-3")
        argv = ["compare", "--decoder-a", str(at_2e3), "--decoder-b", str(empirical_config[1]),
                "--nT", "1,10"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", (
            "stopcost: error: the traces read disagree on physical_error_rate (0.001 and 0.002): "
            "set --p\n"
        ))
        assert main([*argv, "--p", "2e-3"]) == 0
        assert "# physical_error_rate: 0.002\n" in capsys.readouterr().out

    def test_an_explicit_p_beats_the_measured_one(self, capsys, slow_empirical_config):
        trace, config = slow_empirical_config
        for argv in (["mincost", "--decoder", str(config)], ["mincost", "--trace", str(trace)],
                     ["compare", "--decoder-a", str(config), "--decoder-b", "quadratic"]):
            assert main([*argv, "--p", "1e-3", "--nT", "1,10,20,100"]) == 0
            assert "# physical_error_rate: 0.001\n" in capsys.readouterr().out
        assert main(["mincost", "--decoder", "quadratic", "--p", "1e-3", "--t-sec-ns", "500",
                     "--nT", "1,10,20,100"]) == 0
        costs = [row[1] for row in read_csv_table(capsys.readouterr().out)[1]]
        assert main(["compare", "--decoder-a", str(config), "--decoder-b", "quadratic", "--p", "1e-3",
                     "--nT", "1,10,20,100"]) == 0
        assert [row[2] for row in read_csv_table(capsys.readouterr().out)[1]] == costs

    def test_compare_prices_an_empirical_config_at_its_trace_distance(
        self, capsys, empirical_config
    ):
        trace, config = empirical_config
        assert main(["mincost", "--trace", str(trace), "--nT", "1,10,20"]) == 0
        costs = [row[1] for row in read_csv_table(capsys.readouterr().out)[1]]
        assert main([
            "compare", "--decoder-a", str(config), "--decoder-b", "quadratic",
            "--nT", "1,10,20",
        ]) == 0
        assert [row[1] for row in read_csv_table(capsys.readouterr().out)[1]] == costs

    def test_distances_do_not_apply_to_an_empirical_config(
        self, capsys, empirical_config
    ):
        # --distances 3,7 misses the trace's d = 5; it used to price nothing
        # and exit 3 ("no (distance, stopping time) pair reaches any
        # requested n_T"), and compare to exit 3 as well.
        trace, config = empirical_config
        argv = ["--nT", "1,10,20,1000", "--distances", "3,7"]
        assert main(["mincost", "--decoder", str(config), *argv]) == 0
        by_config = capsys.readouterr().out
        assert main(["mincost", "--trace", str(trace), "--nT", "1,10,20,1000"]) == 0
        by_trace = capsys.readouterr().out
        assert read_csv_table(by_config) == read_csv_table(by_trace)
        assert main([
            "compare", "--decoder-a", str(config), "--decoder-b", "quadratic",
            "--nT", "10", "--distances", "3,7",
        ]) == 0
        assert read_csv_table(capsys.readouterr().out)[1] == [
            ["10", "18500", "3960", "4.671717171717172"]
        ]

    def test_trace_distances_are_parsed(self, capsys, empirical_config):
        # They used to be ignored unread with --trace.
        trace, _ = empirical_config
        assert main(["mincost", "--trace", str(trace), "--nT", "10", "--distances", "banana"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "stopcost: error: invalid integer 'banana'\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--meta", "nonexist.json"), ("--distance", "5"), ("--shots", "7"),
         ("--sec-cycle-ns", "500")],
    )
    def test_trace_flags_are_refused_without_a_trace(self, capsys, flag, value):
        # They were ignored unread: the call priced the decoder at every
        # --distances value and exited 0.
        assert main(["mincost", "--decoder", "quadratic", "--nT", "10", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stopcost: error: mincost {flag} requires --trace\n"

    @pytest.mark.parametrize("command", ["mincost", "compare"])
    def test_physical_error_rate_is_checked_for_an_empirical_config(
        self, capsys, empirical_config, command
    ):
        # A measured decoder's rates never read p; 7 was printed as its
        # physical_error_rate and the call exited 0.
        _, config = empirical_config
        sources = {"mincost": ["--decoder", str(config)],
                   "compare": ["--decoder-a", str(config), "--decoder-b", str(config)]}
        assert main([command, *sources[command], "--nT", "10", "--p", "7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "stopcost: error: p must be in (0, 1), got 7.0\n"

    def test_synth_refuses_an_empirical_config_at_another_distance(
        self, tmp_path, capsys, empirical_config
    ):
        _, config = empirical_config
        out = tmp_path / "s.csv"
        argv = ["synth", "--model", str(config), "--p", "1e-3", "--shots", "10", "--out", str(out)]
        assert main([*argv, "--d", "7"]) == 2
        assert capsys.readouterr().err == (
            f"stopcost: error: synth --model {config}: its empirical runtime was not "
            "measured at --d 7\n"
        )
        assert not out.exists()
        assert main([*argv, "--d", "5"]) == 0

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

    def test_large_distance_answers(self, capsys):
        # Spread sqrt(N*Q*(1-Q)) ~5.2e3: within the ladder's limit.
        argv = ["mincost", "--decoder", "quadratic", "--nT", "10", "--distances", "3001"]
        assert main(argv) == 0
        _, rows = read_csv_table(capsys.readouterr().out)
        assert rows == [["10", "4876340849174620", "3001", "27051724000"]]

    @pytest.mark.parametrize(
        "argv, law",
        [
            (["--decoder", "quadratic", "--distances", "30001"],
             "N=729145812150540013500180001, Q=3.70333335802332e-17"),
            (["--decoder", "@/wide.json"], "N=1000000000000000000000000000000, Q=0.5"),
        ],
        ids=["quadratic-d30001", "config-N1e30"],
    )
    def test_law_past_the_spread_limit_is_one_error_line(self, tmp_path, capsys, argv, law):
        (tmp_path / "wide.json").write_text(json.dumps({
            "runtime": {"kind": "binomial", "N": 10**30, "Q": 0.5, "unit_ns": 1000},
            "failure": {"kind": "heuristic"},
        }))
        argv = [str(tmp_path) + arg[1:] if arg.startswith("@") else arg for arg in argv]
        assert main(["mincost", "--nT", "10", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            f"stopcost: error: binomial runtime {law} is too wide for the quantile ladder: "
            "its spread sqrt(N*Q*(1-Q)) is above 100000\n"
        )

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

    def test_zero_physical_error_rate_is_one_error_line(self, capsys):
        assert main(["required-distance", "--nT", "10", "--p", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "stopcost: error: p must be in (0, 1), got 0.0\n"

    def test_number_beyond_float_range_is_one_error_line(self, capsys):
        assert main(["required-distance", "--nT", "1e400"]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("stopcost: error: number out of range: ")
        assert out.err.count("\n") == 1


    def test_d_max_past_the_limit_is_one_error_line(self, capsys):
        assert main(["required-distance", "--nT", "1000", "--d-max", "100003"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "stopcost: error: d_max must be at most 100001 (ranges.D_MAX_LIMIT), got 100003\n"
        )

    def test_search_up_to_the_limit_finishes(self, capsys):
        # Just below the threshold no distance up to the limit is enough, so
        # every odd distance up to it is tried.
        argv = ["required-distance", "--nT", "1e300", "--p", "0.0099999"]
        assert main(argv + ["--d-max", str(ranges.D_MAX_LIMIT)]) == 3
        assert capsys.readouterr().err.endswith(
            f"no odd distance up to {ranges.D_MAX_LIMIT} meets the error budget\n"
        )


class TestRatePastTheFloatRange:
    """Where (p / threshold) ** ((d + 1) // 2) passes the float range, the
    heuristic failure rate is 1, as it is at the distances just below."""

    @pytest.mark.parametrize(
        "argv, code, rows",
        [
            (["surface", "--d", "2049", "--p", "0.02", "--alphas", "1", "--m-cycles", "0"],
             0, [["1.0", "0", "0"]]),
            (["required-distance", "--nT", "1000", "--p", "0.02", "--d-max", "2099"],
             3, [["1000", "0.02", "0", "0.5", "2099", "", "0"]]),
            (["mincost", "--decoder", "linear", "--p", "0.02", "--nT", "10", "--distances", "2049"],
             3, [["10", "inf", "", ""]]),
            (["mincost", "--decoder", "@/b1000.json", "--p", "0.5", "--nT", "10",
              "--distances", "231"],
             3, [["10", "inf", "", ""]]),
        ],
        ids=["surface", "required-distance", "mincost-linear", "mincost-config-B1000"],
    )
    def test_analysis_answers(self, tmp_path, capsys, argv, code, rows):
        (tmp_path / "b1000.json").write_text(json.dumps({
            "runtime": {"kind": "instantaneous"}, "failure": {"kind": "heuristic", "B": 1000},
        }))
        argv = [str(tmp_path) + arg[1:] if arg.startswith("@") else arg for arg in argv]
        assert main(argv) == code
        out = capsys.readouterr()
        assert read_csv_table(out.out)[1] == rows
        assert "stopcost: error" not in out.err

    def test_synth_fails_every_shot(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["synth", "--model", "instantaneous", "--d", "2049", "--p", "0.02", "--shots", "100"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == "runtime_ns,count_total,count_failed\n0,100,100\n"


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

    @pytest.mark.parametrize("command", [["range"], ["mincost", "--nT", "1,1000"]])
    def test_config_t_sec_ns_beats_trace_metadata(self, tmp_path, capsys, command):
        # The trace's sec_cycle_ns is only the default SEC cycle time.
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"t_sec_ns": 100}))
        outputs = []
        for extra in (
            [],
            ["--config", str(cfg)],
            ["--t-sec-ns", "100"],
            ["--config", str(cfg), "--t-sec-ns", "1000"],
        ):
            assert main([*command, "--trace", str(INPUTS / "ns.csv"), *extra]) == 0
            outputs.append(capsys.readouterr().out)
        from_metadata, from_config, from_flag, flag_over_config = outputs
        assert from_config == from_flag != from_metadata
        assert flag_over_config == from_metadata

    @pytest.mark.parametrize("command", [["range"], ["mincost", "--nT", "1,1000"]])
    def test_config_without_t_sec_ns_keeps_trace_metadata(self, tmp_path, capsys, command):
        # A config file that does not set t_sec_ns leaves the trace's
        # sec_cycle_ns (here 500, not RunConfig's 1000) in force.
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"epsilon": 0.4}))
        trace = ["--trace", str(INPUTS / "ns.csv")]
        outputs = []
        for extra in (
            ["--sec-cycle-ns", "500", "--config", str(cfg)],
            ["--sec-cycle-ns", "500", "--epsilon", "0.4"],
            ["--epsilon", "0.4"],
        ):
            assert main([*command, *trace, *extra]) == 0
            outputs.append(capsys.readouterr().out)
        from_config, from_flag, at_1000 = outputs
        assert from_config == from_flag != at_1000

    @pytest.mark.parametrize("command", [["trace-stats"], ["range"], ["mincost", "--nT", "10"]])
    def test_sidecar_sec_cycle_time_past_int64_is_refused(self, tmp_path, capsys, command):
        # It was read, then range and mincost stopped on numpy's "Python int
        # too large to convert to C long".
        trace = write_trace(tmp_path, [(100, 0)] * 6, meta=dict(META, sec_cycle_ns=2**63))
        assert main([*command, "--trace", str(trace)]) == 2
        assert capsys.readouterr() == (
            "", f"stopcost: error: sec_cycle_ns must be below the 2**63 trace limit, got {2**63}\n"
        )

    @pytest.mark.parametrize(
        "content, message",
        [
            ({"epsilon": 2.0}, "key 'epsilon': epsilon must be in (0, 1), got 2.0"),
            ({"epsilon": "0.3"}, "key 'epsilon': expected a number, got \"0.3\""),
            ({"format": 5}, "key 'format': expected a string, got int"),
            ({"format": "xml"}, "key 'format': format must be csv or json, got 'xml'"),
            ({"t_sec_ns": "1000"}, "key 't_sec_ns': expected an integer, got \"1000\""),
            ({"t_sec_ns": 0}, "key 't_sec_ns': t_sec_ns must be >= 1, got 0"),
            ({"seed": -3}, "key 'seed': seed must be >= 0, got -3"),
            (
                {"min_failure_events": 0},
                "key 'min_failure_events': min_events must be >= 1, got 0",
            ),
            ({"schedule": {"h_cycles": 0}}, "key 'schedule': h_cycles must be >= 1, got 0"),
        ],
        ids=[
            "epsilon-range",
            "epsilon-string",
            "format-number",
            "format-choice",
            "t-sec-string",
            "t-sec-zero",
            "seed-negative",
            "min-events-zero",
            "schedule-zero",
        ],
    )
    def test_config_value_error_names_the_file(self, tmp_path, capsys, content, message):
        # Checked as the file is read: a flag that overrides it does not hide it.
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps(content))
        for flags in ([], ["--epsilon", "0.5", "--format", "csv"]):
            assert main([
                "surface", "--d", "9", "--p", "1e-3", "--config", str(cfg), *flags,
            ]) == 2
            assert capsys.readouterr().err == f"stopcost: error: config {cfg} {message}\n"

    def test_epsilon_flag_error_keeps_its_message(self, capsys):
        assert main(["surface", "--d", "9", "--p", "1e-3", "--epsilon", "2"]) == 2
        assert capsys.readouterr().err == "stopcost: error: epsilon must be in (0, 1), got 2.0\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["synth", "--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "10",
                 "--seed", "-1"],
                "seed must be >= 0, got -1",
            ),
            (
                ["mincost", "--decoder", "quadratic", "--nT", "10", "--min-events", "-1"],
                "min_events must be >= 1, got -1",
            ),
            (
                ["compare", "--decoder-a", "linear", "--decoder-b", "quadratic", "--nT", "10",
                 "--min-events", "0"],
                "min_events must be >= 1, got 0",
            ),
            (
                ["synth", "--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "10",
                 "--t-sec-ns", "0"],
                "t_sec_ns must be >= 1, got 0",
            ),
            (
                ["required-distance", "--nT", "1000", "--t-sec-ns", "-5"],
                "t_sec_ns must be >= 1, got -5",
            ),
            (
                ["synth", "--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "10",
                 "--t-sec-ns", "1e30"],
                f"t_sec_ns must be below the 2**63 trace limit, got {10**30}",
            ),
        ],
        ids=["synth-seed", "mincost-min-events", "compare-min-events", "synth-t-sec",
             "required-distance-t-sec", "synth-t-sec-2**63"],
    )
    def test_out_of_range_flag_is_named(self, tmp_path, capsys, argv, message):
        # Checked as the flag is read, before any work or file: a negative
        # seed used to reach numpy, which named neither the flag nor the
        # value, mincost --decoder ignored --min-events -1, and synth wrote
        # a sidecar whose SEC cycle time no trace command could read.
        out = tmp_path / "t.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"stopcost: error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command",
        [["trace-stats"], ["stop"], ["range"], ["mincost", "--nT", "10"]],
        ids=["trace-stats", "stop", "range", "mincost-trace"],
    )
    def test_missing_trace_is_reported_before_the_settings(self, tmp_path, capsys, command):
        # main reads the trace, then the settings, for every command.
        missing = tmp_path / "missing.csv"
        cfg = tmp_path / "settings.json"
        cfg.write_text(json.dumps({"epsilon": 2}))
        assert main([*command, "--trace", str(missing), "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("stopcost: io error: ") and str(missing) in err

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


# A valid argv per subcommand; each case below is run from it.
VALID_ARGVS = {
    "trace-stats": ["--trace", str(INPUTS / "ns.csv")],
    "stop": ["--trace", str(INPUTS / "ns.csv")],
    "range": ["--trace", str(INPUTS / "ns.csv"), "--min-events", "1"],
    "surface": ["--d", "5", "--p", "1e-3", "--alphas", "0.5", "--m-cycles", "0,10"],
    "mincost": ["--decoder", "quadratic", "--nT", "10,1000", "--distances", "3:7"],
    "compare": ["--decoder-a", "linear", "--decoder-b", "quadratic", "--nT", "10",
                "--distances", "3:7"],
    "synth": ["--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "100", "--out", "s.csv"],
    "required-distance": ["--nT", "1000"],
}
PARSER_CASES = {
    "valid": lambda argv: argv,
    "help": lambda argv: argv + ["-h"],
    "missing-required": lambda argv: [],
    "bad-float": lambda argv: argv + ["--epsilon", "x"],
    "bad-integer": lambda argv: argv + ["--seed", "1.5"],
    "unknown-option": lambda argv: argv + ["--bogus"],
    "abbreviated-option": lambda argv: argv + ["--eps", "0.25"],
}


def _subparser_names(parser):
    action = next(a for a in parser._actions if a.dest == "command")
    return list(action.choices)


def test_a_named_command_builds_only_its_parser(monkeypatch):
    every = list(VALID_ARGVS)
    assert _subparser_names(cli.build_parser()) == every
    for name in every:
        assert _subparser_names(cli.build_parser(name)) == [name]
    for other in ("bogus", "sto", "-h", None):
        assert _subparser_names(cli.build_parser(other)) == every
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or build(command))
    with pytest.raises(SystemExit):
        main(["stop", "-h"])
    assert built == ["stop"]


@pytest.mark.parametrize(
    "argv",
    [[name, *case(valid)] for name, valid in VALID_ARGVS.items() for case in PARSER_CASES.values()]
    + [[], ["-h"], ["bogus"], ["sto"], ["--bogus", "stop"]],
    ids=[f"{name}-{case}" for name in VALID_ARGVS for case in PARSER_CASES]
    + ["empty", "top-help", "bogus", "prefix", "option-first"],
)
def test_one_subparser_answers_as_the_full_parser(tmp_path, monkeypatch, capsys, argv):
    # Exit code, stdout and stderr of main() with the parser of every
    # subcommand, then with the parser main builds itself.
    monkeypatch.chdir(tmp_path)

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    build = cli.build_parser
    with monkeypatch.context() as mp:
        mp.setattr(cli, "build_parser", lambda command=None: build())
        full = outcome()
    assert outcome() == full


# A call per subcommand in which every setting of its SUBCOMMANDS row
# shows, run beside the trace t.csv and the decoder config emp.json, whose
# runtime is that trace: mincost prices the measured decoder and compare the
# config, whose ranges depend on min_failure_events, and required-distance a
# decoding delay, which t_sec_ns turns into cycles.
SETTING_ARGVS = {
    "trace-stats": ["--trace", "t.csv"],
    "stop": ["--trace", "t.csv"],
    "range": ["--trace", "t.csv"],
    "surface": ["--d", "15", "--p", "1e-3", "--alphas", "0.5", "--m-cycles", "0,100"],
    "mincost": ["--trace", "t.csv", "--nT", "1,10,1000"],
    "compare": ["--decoder-a", "emp.json", "--decoder-b", "quadratic", "--nT", "1,10,1000",
                "--distances", "3:9"],
    "synth": ["--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "100", "--out", "out.csv"],
    "required-distance": ["--nT", "1000", "--delay-ns", "500000"],
}
# A value of each flagged setting other than its default.
SETTING_VALUES = {"epsilon": "0.9", "t_sec_ns": "100", "min_failure_events": "100", "format": "json",
                  "seed": "7"}
COMMAND_SETTINGS = {name: settings for name, *_, settings in cli.SUBCOMMANDS}


@pytest.fixture(scope="module")
def measured_inputs(tmp_path_factory):
    """t.csv, its sidecar, and emp.json: a d=5 trace with 16 failures in
    2e5 shots, so 100 failure events, not 20, rule out stopping times that
    mincost and compare otherwise pick."""
    directory = tmp_path_factory.mktemp("measured")
    assert main([
        "synth", "--model", "quadratic", "--d", "5", "--p", "1e-3", "--shots", "2e5",
        "--seed", "1", "--out", str(directory / "t.csv"),
    ]) == 0
    (directory / "emp.json").write_text(json.dumps({
        "runtime": {"kind": "empirical", "trace": "t.csv"},
        "failure": {"kind": "heuristic"},
    }))
    return directory


@pytest.fixture
def beside_measured_inputs(tmp_path, monkeypatch, measured_inputs):
    for path in measured_inputs.iterdir():
        (tmp_path / path.name).write_bytes(path.read_bytes())
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "name, setting",
    [(name, setting) for name, settings in COMMAND_SETTINGS.items() for setting in settings],
)
def test_each_flag_of_a_command_changes_what_it_writes(beside_measured_inputs, capsys, name, setting):
    written = []
    for extra in ([], [cli.SETTINGS[setting][2], SETTING_VALUES[setting]]):
        assert main([name, *SETTING_ARGVS[name], *extra]) == 0
        files = [path.read_bytes() for path in sorted(beside_measured_inputs.glob("out.*"))]
        written.append((capsys.readouterr().out, files))
    assert written[0] != written[1]


@pytest.mark.parametrize(
    "name, setting",
    [
        (name, setting)
        for name, settings in COMMAND_SETTINGS.items()
        for setting, (_, _, flag, _, _) in cli.SETTINGS.items()
        if flag and setting not in settings
    ],
)
def test_a_flag_of_a_setting_the_command_does_not_read_is_refused(beside_measured_inputs, capsys, name, setting):
    flag, value = cli.SETTINGS[setting][2], SETTING_VALUES[setting]
    with pytest.raises(SystemExit) as exc:
        main([name, *SETTING_ARGVS[name], flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", f"stopcost: error: unrecognized arguments: {flag} {value}\n")
    assert not list(beside_measured_inputs.glob("out.*"))


class TestOneLineErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["surface", "--d", "15.5", "--p", "1e-3"], "argument --d: invalid integer value: '15.5'"),
            (["surface", "--p", "1e-3"], "the following arguments are required: --d"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            (["stop", "--trace", ""], "argument --trace: must not be empty"),
            (["mincost", "--trace", "", "--nT", "10"], "argument --trace: must not be empty"),
            (["stop", "--trace", "t.csv", "--meta", ""], "argument --meta: must not be empty"),
            (["surface", "--d", "3", "--p", "1e-3", "--out", ""], "argument --out: must not be empty"),
            (["surface", "--d", "3", "--p", "1e-3", "--config", ""], "argument --config: must not be empty"),
            (["compare", "--decoder-a", "", "--decoder-b", "linear", "--nT", "10"], "argument --decoder-a: must not be empty"),
            (["synth", "--model", "", "--d", "3", "--p", "1e-3", "--shots", "10"], "argument --model: must not be empty"),
            (["mincost", "--nT", "10"], "one of the arguments --decoder --trace is required"),
            (["mincost", "--decoder", "linear", "--trace", "t.csv", "--nT", "10"],
             "argument --trace: not allowed with argument --decoder"),
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

    # Each JSON reader, the argv that hands it a file, and its error for a
    # top level that is not an object.
    JSON_READERS = {
        "config": (["surface", "--d", "9", "--p", "1e-3", "--config"],
                   "config {path} must be a JSON object, got list"),
        "decoder config": (["mincost", "--nT", "10", "--decoder"],
                           "decoder config {path}: the config must be a JSON object, got list"),
        "metadata": (["trace-stats", "--trace", str(INPUTS / "ns.csv"), "--meta"],
                     "metadata {path} must be a JSON object, got list"),
    }

    @pytest.mark.parametrize(
        "content",
        ['{"distance": 7', "[7]", '{"distance": NaN}', '{"distance": Infinity}',
         '{"distance": -Infinity}'],
        ids=["truncated", "list", "nan", "infinity", "minus-infinity"],
    )
    @pytest.mark.parametrize("reader", JSON_READERS)
    def test_malformed_json_file_is_one_line(self, tmp_path, capsys, reader, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        argv, object_error = self.JSON_READERS[reader]
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        if content.startswith("{"):
            assert err.startswith(f"stopcost: error: invalid {reader} JSON in {path}: ")
            assert err.count("\n") == 1
            if content.endswith("}"):  # a non-standard constant, named
                token = content.split(": ")[1][:-1]
                assert err.endswith(f": {token} is not a JSON number\n")
        else:
            assert err == f"stopcost: error: {object_error.format(path=path)}\n"

    @pytest.mark.parametrize("reader", JSON_READERS)
    def test_deeply_nested_json_file_is_one_line(self, tmp_path, capsys, reader):
        # Nesting past the recursion limit ended in a RecursionError traceback.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000 + "\n")
        argv, _ = self.JSON_READERS[reader]
        assert main([*argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"stopcost: error: invalid {reader} JSON in {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["mincost", "--decoder", "linear", "--nT", "10"],
         ["compare", "--decoder-a", "linear", "--decoder-b", "quadratic", "--nT", "10"]],
        ids=["mincost", "compare"],
    )
    @pytest.mark.parametrize("text", ["9:3", "5:4"])
    def test_empty_distance_range_is_one_line(self, capsys, argv, text):
        # An empty range was reported by the name of a library parameter.
        assert main([*argv, "--distances", text]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"stopcost: error: empty distance range {text!r}\n"


def _limit_address_space():
    import resource

    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux-only")
def test_memory_error_is_one_error_line():
    # 5e12 distances cannot be listed in 1 GiB of address space.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "stopcost.cli", "mincost", "--decoder", "quadratic",
         "--nT", "10", "--distances", "3:10000000000001"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "stopcost: error: out of memory\n"


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


# Where repr switches to exponent form (1e16, 1e-05), the edges of the
# numpy kernel's domain (1e-8, 1e15), the smallest subnormal, zero, a
# negative zero and the infinities rendered as inf/null.
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1.0000000000000002e-05,
    1e22, 0.1, 2.5, math.inf, -math.inf, math.nan, 1e-8, 1e15,
]
# Each power of ten from 1e-9 to 1e16 and its neighbours, where the
# kernel's decade changes.
POWER_NEIGHBOURS = [
    float(np.nextafter(10.0**k, toward)) for k in range(-9, 17) for toward in (0.0, 10.0**k, math.inf)
]
# st.floats() cells almost all need 17 digits, which the numpy kernel
# leaves to the % format; a trace's rates (counts over a shot count) and
# floats parsed from short decimals are the kernel's.  The kernel writes a
# block only if it can write every cell, so a column of `fast_float_cells`
# alone lets blocks of several rows reach it.
rate_cells = st.builds(
    lambda k, shots: k / shots,
    st.integers(0, 10**9),
    st.one_of(st.sampled_from([10**j for j in range(10)]), st.integers(1, 10**9)),
)
short_decimal_cells = st.builds(
    lambda digits, exponent: float(f"{digits}e{exponent}"),
    st.integers(-(10**15) + 1, 10**15 - 1),
    st.integers(-30, 20),
)
float_cells = st.one_of(
    st.sampled_from(SPECIAL_FLOATS + POWER_NEIGHBOURS), st.floats(allow_nan=False),
    rate_cells, short_decimal_cells,
)


@st.composite
def grouped_digit_cells(draw):
    # A float of n significant digits whose first is in a decade from 1e-8
    # to 1e14, in every layout: the kernel's 15-digit c then ends in exactly
    # 15 - n zeros, none, 4, 8 or 12 (whole 4-digit groups of zeros), or 14.
    n = draw(st.sampled_from([15, 11, 7, 3, 1]))
    digits = draw(st.integers(10 ** (n - 1), 10**n - 1).filter(lambda m: m % 10))
    decade = draw(st.integers(-8, 14))
    return draw(st.sampled_from([1.0, -1.0])) * float(f"{digits}e{decade - n + 1}")


fast_float_cells = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda k, j: k / 10**j, st.integers(1, 10**9), st.integers(0, 9)),
    st.builds(
        lambda digits, exponent: float(f"{digits}e{exponent}"),
        st.integers(-(10**15) + 1, 10**15 - 1).filter(bool),
        st.integers(-8, 0),
    ),
    grouped_digit_cells(),
)
int_cells = st.integers(-(2**63), 2**63 - 1)
uint_cells = st.integers(0, 2**64 - 1)
other_cells = st.one_of(
    st.none(), st.integers(-(10**30), 10**30), float_cells, st.sampled_from(["x", "quadratic"]),
    st.booleans(),
)


@st.composite
def tables(draw):
    n_rows = draw(st.integers(0, 20))
    columns, cells = [], []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["float", "fast float", "int", "uint", "list"]))
        strategy = {
            "float": float_cells, "fast float": fast_float_cells, "int": int_cells,
            "uint": uint_cells, "list": other_cells,
        }[kind]
        values = draw(st.lists(strategy, min_size=n_rows, max_size=n_rows))
        dtype = {"float": np.float64, "fast float": np.float64, "int": np.int64, "uint": np.uint64}.get(kind)
        columns.append(values if dtype is None else np.array(values, dtype=dtype))
        cells.append(values)
    return columns, [list(row) for row in zip(*cells)]


@settings(max_examples=300, deadline=None)
@given(
    table=tables(),
    rows_per_block=st.integers(1, 7),
    fmt=st.sampled_from(["csv", "json"]),
    extras=st.sampled_from([
        {}, {"decoder": "x", "epsilon": 0.5, "cost": math.inf}, {"decoder": "décodeur ✓"},
    ]),
)
@example(table=([np.array([], dtype=np.float64), []], []), rows_per_block=1, fmt="csv", extras={})
@example(table=([np.array([], dtype=np.float64), []], []), rows_per_block=1, fmt="json", extras={})
@example(
    table=([np.array(SPECIAL_FLOATS)], [[v] for v in SPECIAL_FLOATS]),
    rows_per_block=3, fmt="csv", extras={},
)
@example(
    table=([np.array(POWER_NEIGHBOURS)], [[v] for v in POWER_NEIGHBOURS]),
    rows_per_block=32, fmt="json", extras={},
)
@example(
    # A % in a string cell, integers past 2**53 in int64, uint64 and list
    # columns, and nan in a float column of a block that mixes numpy
    # columns and lists.
    table=(
        [
            np.array([2**64 - 1, 2**53 + 1, 0], dtype=np.uint64),
            np.array([2**53 + 1, -(2**63), 2**63 - 1], dtype=np.int64),
            ["50%", "%s%%d", "%"],
            [2**53 + 1, -(2**70), 3],
            np.array([math.nan, 0.5, -0.0]),
        ],
        [
            [2**64 - 1, 2**53 + 1, "50%", 2**53 + 1, math.nan],
            [2**53 + 1, -(2**63), "%s%%d", -(2**70), 0.5],
            [0, 2**63 - 1, "%", 3, -0.0],
        ],
    ),
    rows_per_block=2, fmt="csv", extras={},
)
@example(
    # A column is reused only with its dtype and bytes: 0.0 and -0.0 are
    # equal but not alike, and int64 -1 has the bytes of uint64 2**64 - 1.
    table=([np.array([0.0]), np.array([-0.0])], [[0.0, -0.0]]), rows_per_block=1, fmt="csv", extras={},
)
@example(
    table=(
        [np.array([-1], dtype=np.int64), np.array([2**64 - 1], dtype=np.uint64)],
        [[-1, 2**64 - 1]],
    ),
    rows_per_block=1, fmt="csv", extras={},
)
@example(
    # Two identical float columns and one the kernel gives up (17 digits).
    table=(
        [np.array([0.5, 2.5e-5]), np.array([0.5, 2.5e-5]), np.array([0.1 + 0.2, 1.0])],
        [[0.5, 0.5, 0.1 + 0.2], [2.5e-5, 2.5e-5, 1.0]],
    ),
    rows_per_block=2, fmt="json", extras={},
)
def test_render_table_matches_per_cell_oracle(table, rows_per_block, fmt, extras):
    columns, rows = table
    header = [f"c{i}" for i in range(len(columns))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.ranges, "ROWS_PER_BLOCK", rows_per_block)
        blocks = list(render_table("t", dict(zip(header, columns)), fmt, extras))
    assert "".join(blocks) == per_cell_render("t", header, rows, fmt, extras)
    # The head, one block per ROWS_PER_BLOCK rows, and for JSON the close.
    assert len(blocks) == 1 + -(-len(rows) // rows_per_block) + (fmt == "json")


def test_rates_take_no_per_cell_fallback():
    # Every k / 10**6 (a trace's rates at 1e6 shots, zero and -0.0
    # included) is written by the numpy kernel: format_rows gives the
    # block's text, not None, so a kernel that gave such blocks up would
    # not pass unseen behind the % format.
    rates = np.arange(0, 10**6 + 1, 7) / 10**6
    text = format_rows([rates, -rates, np.arange(rates.size)], "[", ",", "]")
    assert text == "".join(f"[{r!r},{-r!r},{i}]" for i, r in enumerate(rates.tolist()))


@pytest.mark.parametrize("shots", [300_000, 999_983])
def test_rates_of_other_shot_counts_take_the_percent_format(shots):
    # Most k / shots need 16 or 17 digits there, so the kernel gives the
    # block up and render_table writes it as one % format, %r per cell.
    rates = np.arange(1, shots + 1, 37) / shots
    counts = np.arange(rates.size)
    assert format_rows([rates, counts], "", ",", "\n") is None
    assert format_rows([counts], "", ",", "\n") is not None
    table = {"rate": rates, "k": counts}
    csv_rows = "".join(f"{r!r},{i}\n" for i, r in enumerate(rates.tolist()))
    assert "".join(render_table("t", table, "csv")) == "rate,k\n" + csv_rows
    rows = [[r, i] for i, r in enumerate(rates.tolist())]
    payload = {"command": "t", "columns": ["rate", "k"], "rows": rows}
    assert "".join(render_table("t", table, "json")) == json.dumps(payload, indent=2) + "\n"


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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["surface", "--d", "5", "--p", "0.02"], 0),  # warns: p is past the heuristic's range
        (["mincost", "--nT", "10"], 2),
        (["mincost", "--decoder", "missing.json", "--nT", "10"], 4),
        (["required-distance", "--nT", "1", "--p", "0.5"], 3),
    ],
    ids=["warning", "usage-error", "io-error", "infeasible"],
)
def test_closed_stderr_keeps_the_exit_code_and_the_table(tmp_path, argv, code):
    # Each call writes stopcost: lines; with stderr a pipe whose reader has
    # gone, the first write fails, and the call must still write its table
    # and exit with its own code.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-m", "stopcost.cli", *argv]
    readable = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert readable.returncode == code
    assert readable.stderr and all(
        line.startswith(b"stopcost: ") for line in readable.stderr.splitlines()
    )
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            command, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=write_end, timeout=120
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stdout) == (code, readable.stdout)


# ---------------------------------------------------------------------------
# The command-line exit path: ``cli.run()`` ends the process without
# interpreter teardown; what it prints and returns is ``cli.main``'s.

# How the ``stopcost`` console script calls its target.
CONSOLE_SCRIPT = "import sys; from stopcost.cli import run; sys.exit(run())"

# Runs ``cli.main(argv)`` with stdout discarded and prints the exit code and
# the atexit callback count before and after the call.
ATEXIT_PROBE = """
import atexit, contextlib, io, sys
import stopcost.cli
before = atexit._ncallbacks()
with contextlib.redirect_stdout(io.StringIO()):
    code = stopcost.cli.main(sys.argv[1:])
print(code, before, atexit._ncallbacks())
"""


def _child(tmp_path, entry, argv):
    # A buffered stdout, so output still held in a buffer at exit would show.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *entry, *argv], cwd=tmp_path, env=env, capture_output=True,
        timeout=120,
    )


def _in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode(), err


EXIT_CASES = {
    "stop-csv": (["stop", "--trace", str(INPUTS / "ns.csv")], 0),
    "stop-json": (["stop", "--trace", str(INPUTS / "ns.csv"), "--format", "json"], 0),
    "usage-error": (["surface", "--p", "1e-3"], 2),
    "number-out-of-range": (["required-distance", "--nT", "1e400"], 2),
    "infeasible": (
        ["mincost", "--decoder", "quadratic", "--nT", "1000000000000000", "--distances", "3"],
        3,
    ),
    "io-error": (["required-distance", "--nT", "1000", "--out", "{missing}/x.csv"], 4),
    "io-error-dir": (["required-distance", "--nT", "1000", "--out", "{adir}"], 4),
    "synth-io-error": (
        ["synth", "--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "100",
         "--out", "{missing}/x.csv"],
        4,
    ),
}


@pytest.mark.parametrize("entry", [["-m", "stopcost.cli"], ["-c", CONSOLE_SCRIPT]],
                         ids=["module", "console-script"])
@pytest.mark.parametrize("case", EXIT_CASES)
def test_command_line_matches_main(tmp_path, capsys, entry, case):
    argv, code = EXIT_CASES[case]
    (tmp_path / "adir").mkdir()
    argv = [a.format(missing=tmp_path / "missing", adir=tmp_path / "adir") for a in argv]
    main_code, out, err = _in_process(capsys, argv)
    assert main_code == code
    proc = _child(tmp_path, entry, argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert proc.stderr.decode() == err
    if code == 4:
        # The error names the --out path, not the temp file beside it,
        # and no temp file is left behind.
        out_path = argv[argv.index("--out") + 1]
        assert re.fullmatch(rf"stopcost: io error: \[Errno \d+\] [^:]+: '{re.escape(out_path)}'\n", err)
        assert not list(tmp_path.rglob("*.tmp"))
    if code:
        assert err.startswith("stopcost: ") and err.count("\n") == 1, err
    else:
        assert err == "" and out


def test_command_line_synth_leaves_a_complete_pair(tmp_path):
    argv = ["synth", "--model", "linear", "--d", "5", "--p", "1e-3", "--shots", "20000",
            "--seed", "3", "--per-shot", "--out"]
    (tmp_path / "child").mkdir()
    (tmp_path / "main").mkdir()
    proc = _child(tmp_path, ["-m", "stopcost.cli"], [*argv, "child/t.csv"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert main([*argv, str(tmp_path / "main" / "t.csv")]) == 0
    for name in ("t.csv", "t.json"):
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "child").iterdir()) == ["t.csv", "t.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["stop", "--trace", str(INPUTS / "ns.csv")],
        ["mincost", "--decoder", "quadratic", "--nT", "10,1000", "--format", "json"],
        ["synth", "--model", "quadratic", "--d", "5", "--p", "1e-3", "--shots", "1000",
         "--out", "t.csv"],
    ],
    ids=["stop", "mincost-json", "synth"],
)
def test_a_call_registers_no_atexit_handler(tmp_path, argv):
    # Counted in the child around the call: the interpreter's site may
    # register handlers of its own before any stopcost code runs.
    proc = _child(tmp_path, ["-c", ATEXIT_PROBE], argv)
    code, before, after = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert after == before


def test_console_script_target_is_run():
    # Read as text: tomllib is not in every supported Python.
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert re.search(r'^\[project\.scripts\]\nstopcost = "stopcost\.cli:run"$', pyproject, re.M)


# A library keyword that restates a run setting -> that setting's RunConfig field.
RESTATED_SETTINGS = {
    "t_sec_ns": "t_sec_ns",
    "sec_cycle_ns": "t_sec_ns",
    "min_events": "min_failure_events",
    "schedule": "schedule",
}


def test_library_defaults_equal_the_run_settings():
    # The CLI always passes its own values, so only library callers see these
    # keyword defaults; each must still equal its setting's default.
    from stopcost import budget, cost, stopping

    pinned = set()
    for module in (budget, cost, ranges, stopping, models):
        for name, function in vars(module).items():
            if not inspect.isfunction(function) or function.__module__ != module.__name__:
                continue
            for parameter in inspect.signature(function).parameters.values():
                field = RESTATED_SETTINGS.get(parameter.name)
                if field is None or parameter.default is parameter.empty:
                    continue
                where = f"{module.__name__.rsplit('.', 1)[1]}.{name}({parameter.name})"
                assert parameter.default == cli.RunConfig._field_defaults[field], where
                pinned.add(where)
    assert pinned >= {
        "budget.required_distance(t_sec_ns)",
        "cost.stopping_candidates(t_sec_ns)",
        "cost.stopping_candidates(min_events)",
        "cost.min_spacetime_costs(t_sec_ns)",
        "cost.min_spacetime_costs(min_events)",
        "cost.compare_decoders(t_sec_ns)",
        "cost.compare_decoders(min_events)",
        "ranges.decoder_range(t_sec_ns)",
        "stopping.range_curve(t_sec_ns)",
        "stopping.range_curve(min_events)",
        "models.sample_trace(sec_cycle_ns)",
    }
