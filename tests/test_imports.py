"""Import-time contracts: the package exports its names lazily, only the
commands that read, sweep or sample a trace load numpy, the analytic
commands load neither ``dataclasses`` nor ``inspect``, and only ``mincost``
and ``compare`` load the cost module.  The trace modules (``trace`` and
``stopping``) load only where a trace is read, and the decoder laws
(``models``) only where a command builds one, so ``trace-stats``, ``stop``
and ``range`` do not load them; help loads none of these.  The numeral
kernel (``numerals``) loads only where it writes: the ``stop`` and
``range`` curves and ``synth``'s histogram, not ``trace-stats``,
``mincost --trace`` or ``synth --per-shot``.  ``json`` loads only where
JSON is read or written (a config file, a trace's sidecar, ``--format
json``), and ``csv`` only where the row validator parses a trace that is
not in the canonical layout.  Each call loads the CLI's core and
its own command's module, and of the library only what that command runs,
so it compiles no other command's code; no module imports ``stopcost.cli``,
which ``python -m stopcost.cli`` runs as ``__main__``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stopcost

SRC = Path(__file__).resolve().parents[1] / "src"
INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# Modules whose loading the probe reports.
WATCHED = (
    "numpy", "dataclasses", "inspect", "stopcost.cost", "json", "csv",
    "stopcost.models", "stopcost.stopping", "stopcost.trace",
)

# Runs ``cli.main(argv)`` with stdout discarded, then prints the exit code
# (argparse's, for help) and which of the watched modules were imported,
# and on a second line every stopcost module imported.  The probe itself
# imports none of them but ``stopcost.cli``.
PROBE = f"""
import contextlib, io, sys
import stopcost.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = stopcost.cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *[m for m in {WATCHED!r} if m in sys.modules])
print(*[m for m in sys.modules if m.startswith("stopcost")])
"""

BINOMIAL_CONFIG = {
    "name": "wide",
    "runtime": {"kind": "binomial", "N": 100000, "Q": 0.0005, "unit_ns": 1000},
    "failure": {"kind": "heuristic"},
}


ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def probe(argv, cwd, package=False):
    """The exit code and the watched modules loaded, or with ``package`` the
    stopcost modules loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=cwd,
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
    )
    watched, stopcost_modules = proc.stdout.splitlines()
    code, *loaded = watched.split()
    return int(code), set(stopcost_modules.split() if package else loaded)


@pytest.mark.parametrize(
    "argv, reads_json",
    [
        (["surface", "--d", "15", "--p", "1e-3"], False),
        (["required-distance", "--nT", "1000", "--p", "1e-3"], False),
        (["mincost", "--decoder", "quadratic", "--nT", "10,1000,100000"], False),
        (["compare", "--decoder-a", "linear", "--decoder-b", "instantaneous",
          "--nT", "10,1000"], False),
        (["mincost", "--decoder", "wide.json", "--nT", "10,1000"], True),
        (["compare", "--decoder-a", "wide.json", "--decoder-b", "quadratic",
          "--nT", "10,1000"], True),
        (["surface", "--d", "15", "--p", "1e-3", "--format", "json"], True),
    ],
    ids=["surface", "required-distance", "mincost", "compare", "mincost-binomial-config",
         "compare-binomial-config", "surface-json"],
)
def test_analytic_commands_do_not_import_numpy(tmp_path, argv, reads_json):
    # Nor dataclasses and inspect (numpy imports the latter): records are
    # NamedTuples, so defining them runs no dataclass code generation.
    # Built-in decoders read and write no JSON, so they do not load json.
    # Every one prices a decoder law, and none loads the trace modules.
    (tmp_path / "wide.json").write_text(json.dumps(BINOMIAL_CONFIG))
    cost = {"stopcost.cost"} if argv[0] in ("mincost", "compare") else set()
    expected = (cost | {"json"}) if reads_json else cost
    assert probe(argv, tmp_path) == (0, expected | {"stopcost.models"})


def test_trace_command_imports_numpy(tmp_path):
    # A canonical trace never reaches the row validator, the one csv user;
    # every trace call reads its sidecar with json.  None builds a decoder
    # law, so none loads the models.
    for command, sweeps in (("trace-stats", False), ("stop", True), ("range", True)):
        argv = [command, "--trace", str(INPUTS / "ns.csv")]
        argv += ["--min-events", "1"] if command == "range" else []
        code, loaded = probe(argv, tmp_path)
        assert code == 0
        assert {"numpy", "json", "stopcost.trace"} <= loaded, command
        assert ("stopcost.stopping" in loaded) == sweeps, command
        assert not {"stopcost.cost", "stopcost.models", "csv"} & loaded, command


@pytest.mark.parametrize(
    "argv, code",
    [(["-h"], 0), (["stop", "-h"], 0), (["bogus"], 2), (["mincost", "--nT", "10"], 2)],
    ids=["help", "stop-help", "bogus", "mincost-no-source"],
)
def test_help_and_usage_errors_import_no_analysis_module(tmp_path, argv, code):
    # mincost needs --decoder or --trace: argparse refuses it before any load.
    assert probe(argv, tmp_path) == (code, set())


def test_row_validator_imports_csv(tmp_path):
    # A quoted field is outside the canonical layout.
    trace = tmp_path / "t.csv"
    trace.write_text('runtime_ns,failed\n"10",0\n20,1\n')
    (tmp_path / "t.json").write_text(json.dumps(
        {"distance": 5, "physical_error_rate": 1e-3, "shots": 2, "sec_cycle_ns": 1000}
    ))
    code, loaded = probe(["stop", "--trace", str(trace)], tmp_path)
    assert code == 0
    assert "csv" in loaded


# What every call loads: the CLI's core and the modules it imports.
CORE = {"stopcost", "stopcost.cli", "stopcost.command", "stopcost.errors", "stopcost.ranges",
        "stopcost.values"}
COMMAND_MODULES = {"trace_commands", "cost_commands", "budget_commands", "synth_command"}
TRACE = str(INPUTS / "ns.csv")
SYNTH = ["synth", "--d", "5", "--p", "1e-3", "--shots", "100", "--out", "t.csv", "--model"]

# case -> (argv, the stopcost modules it loads besides CORE).  A built-in
# decoder loads no config reader, only synth loads the sampler, and a
# command loads no other command's module; help and an unknown command
# build every parser, so they load every command module and nothing else.
PACKAGE_MODULES = {
    "trace-stats": (["trace-stats", "--trace", TRACE], {"trace_commands", "trace"}),
    "stop": (["stop", "--trace", TRACE], {"trace_commands", "trace", "stopping", "numerals"}),
    "range": (["range", "--trace", TRACE, "--min-events", "1"],
              {"trace_commands", "trace", "stopping", "numerals"}),
    "surface": (["surface", "--d", "15", "--p", "1e-3"], {"budget_commands", "budget", "models"}),
    "required-distance": (["required-distance", "--nT", "1000"],
                          {"budget_commands", "budget", "models"}),
    "mincost": (["mincost", "--decoder", "quadratic", "--nT", "10,1000"],
                {"cost_commands", "cost", "models"}),
    "compare": (["compare", "--decoder-a", "linear", "--decoder-b", "instantaneous",
                 "--nT", "10,1000"], {"cost_commands", "cost", "models"}),
    "mincost-config": (["mincost", "--decoder", "wide.json", "--nT", "10"],
                       {"cost_commands", "cost", "models", "decoder_config"}),
    "compare-config": (["compare", "--decoder-a", "wide.json", "--decoder-b", "quadratic",
                        "--nT", "10"], {"cost_commands", "cost", "models", "decoder_config"}),
    "mincost-trace": (["mincost", "--trace", TRACE, "--nT", "1,5"],
                      {"cost_commands", "cost", "models", "trace", "stopping"}),
    "synth": ([*SYNTH, "quadratic"], {"synth_command", "models", "sampling", "trace", "numerals"}),
    "synth-per-shot": ([*SYNTH, "quadratic", "--per-shot"],
                       {"synth_command", "models", "sampling", "trace"}),
    "synth-config": ([*SYNTH, "wide.json"],
                     {"synth_command", "models", "sampling", "trace", "decoder_config", "numerals"}),
    "help": (["-h"], COMMAND_MODULES),
    "stop-help": (["stop", "-h"], {"trace_commands"}),
    "bogus": (["bogus"], COMMAND_MODULES),
}


@pytest.mark.parametrize("case", PACKAGE_MODULES)
def test_a_call_loads_only_its_own_command(tmp_path, case):
    argv, own = PACKAGE_MODULES[case]
    (tmp_path / "wide.json").write_text(json.dumps(BINOMIAL_CONFIG))
    code, loaded = probe(argv, tmp_path, package=True)
    assert code == (2 if case == "bogus" else 0)
    assert loaded == CORE | {f"stopcost.{module}" for module in own}


@pytest.mark.parametrize("case", PACKAGE_MODULES)
def test_cli_is_compiled_once(tmp_path, case):
    # Under -m, cli.py runs as __main__, so importing stopcost.cli would
    # compile and run it again.  -X importtime lists each import statement's
    # module (not build_parser's import_module calls).
    argv, _ = PACKAGE_MODULES[case]
    (tmp_path / "wide.json").write_text(json.dumps(BINOMIAL_CONFIG))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "stopcost.cli", *argv],
        cwd=tmp_path,
        env=ENV,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == (2 if case == "bogus" else 0), proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "stopcost.values" in imported
    assert "stopcost.cli" not in imported


def test_bare_package_import_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stopcost; print(sorted(m for m in sys.modules"
         " if m == 'numpy' or m.startswith('stopcost')))"],
        env=ENV,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == ["['stopcost']"]


class TestLazyExports:
    def test_every_name_resolves_to_its_definition(self):
        for name, module in stopcost._EXPORTS.items():
            defined = getattr(importlib.import_module(f"stopcost.{module}"), name)
            assert getattr(stopcost, name) is defined

    def test_star_import(self):
        namespace = {}
        exec("from stopcost import *", namespace)
        assert set(stopcost.__all__) <= set(namespace)

    def test_dir_lists_the_exports(self):
        assert set(stopcost.__all__) <= set(dir(stopcost))
        assert "__version__" in dir(stopcost)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            stopcost.no_such_name
        assert not hasattr(stopcost, "cli_main")

    def test_documented_entry_points_and_no_test_only_names(self):
        for name in (
            "parse_trace", "stopping_curve", "range_curve", "decoder_range",
            "min_spacetime_costs", "compare_decoders",
            # bench/tests pins the tracer's wrapping of stopping_candidates.
            "stopping_candidates",
        ):
            assert name in stopcost.__all__ and callable(getattr(stopcost, name))
        for name in (
            "EmpiricalRuntimeDistribution", "interrupted_distribution",
            "interrupted_failure_bound", "require_significant_stopping_times",
            "build_distribution", "range_optimized_stopping_time", "min_spacetime_cost",
            "significant_stopping_times", "interrupted_failure_exact", "InterruptedStats",
            "spacetime_cost", "CostPoint",
        ):
            assert name not in stopcost.__all__
            assert not hasattr(stopcost, name)
        assert len(stopcost.__all__) == 43
        for attr in (
            "from_records", "iter_records", "points", "record_count",
            "count_at_or_below", "failed_at_or_below", "survival", "min_runtime_ns",
        ):
            assert not hasattr(stopcost.RuntimeTrace, attr)
        for runtime in (stopcost.BinomialRuntime, stopcost.InstantaneousRuntime,
                        stopcost.EmpiricalRuntime):
            for attr in ("survival", "mean_ns", "max_runtime_ns"):
                assert not hasattr(runtime, attr), (runtime.__name__, attr)
