"""Golden CLI outputs: every subcommand, byte for byte, on stdout and --out.

The files under ``tests/golden/`` hold the exact bytes each call printed
when they were made; a change to any output shows up here as a diff.  The
inputs are small fixed files under ``tests/golden/inputs/``:
``ns.csv`` is a seeded 200-runtime ns-resolution histogram, and
``quadratic.csv``/``linear.csv`` are themselves ``synth`` goldens.

To regenerate after a deliberate output change, run from the repository
root::

    PYTHONPATH=src python tests/test_golden.py

and review the diff before committing it.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from stopcost.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# name -> (argv, exit code); each runs once per output format.  Paths are
# relative to INPUTS.
TABLE_CASES = {
    "trace-stats": (["trace-stats", "--trace", "ns.csv"], 0),
    "trace-stats-per-shot": (["trace-stats", "--trace", "linear.csv"], 0),
    "stop": (["stop", "--trace", "ns.csv"], 0),
    "range": (["range", "--trace", "ns.csv", "--min-events", "5"], 0),
    "surface": (
        ["surface", "--d", "7", "--p", "1e-3", "--alphas", "0.5,0.75,1",
         "--m-cycles", "0,10,100"],
        0,
    ),
    "mincost-decoder": (
        ["mincost", "--decoder", "quadratic", "--nT", "1,100,10000,1e6,1e30",
         "--distances", "3:15"],
        0,
    ),
    "mincost-trace": (["mincost", "--trace", "ns.csv", "--nT", "1,5,9,10,1e30"], 0),
    "mincost-infeasible": (
        ["mincost", "--decoder", "instantaneous", "--nT", "1e30", "--distances", "3:5"],
        3,
    ),
    "compare": (
        ["compare", "--decoder-a", "linear", "--decoder-b", "quadratic",
         "--nT", "1,10,1000,1e5,1e30", "--distances", "3:11"],
        0,
    ),
    "required-distance": (["required-distance", "--nT", "1000", "--p", "1e-3"], 0),
}

# name -> synth argv; the golden output is the trace and its sidecar.
SYNTH_CASES = {
    "quadratic": ["synth", "--model", "quadratic", "--d", "5", "--p", "5e-3",
                  "--shots", "4000", "--seed", "11"],
    "linear": ["synth", "--model", "linear", "--d", "5", "--p", "1e-3",
               "--shots", "300", "--seed", "3", "--per-shot"],
}

FORMATS = ("csv", "json")


def _argv(name: str, fmt: str) -> list[str]:
    argv, _ = TABLE_CASES[name]
    return [str(INPUTS / a) if a.endswith(".csv") else a for a in argv] + ["--format", fmt]


def _golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{fmt}"


def _run_to_stdout(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_stdout_matches_golden(name, fmt, capsysbinary):
    code = main(_argv(name, fmt))
    assert code == TABLE_CASES[name][1]
    assert capsysbinary.readouterr().out == _golden_path(name, fmt).read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_out_file_matches_golden(name, fmt, tmp_path, capsysbinary):
    out = tmp_path / f"{name}.{fmt}"
    code = main(_argv(name, fmt) + ["--out", str(out)])
    assert code == TABLE_CASES[name][1]
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == _golden_path(name, fmt).read_bytes()


@pytest.mark.parametrize("name", sorted(SYNTH_CASES))
def test_synth_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(SYNTH_CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (INPUTS / f"{name}.csv").read_bytes()
    assert out.with_suffix(".json").read_bytes() == (INPUTS / f"{name}.json").read_bytes()


def regenerate() -> None:
    for name, argv in SYNTH_CASES.items():
        assert main(argv + ["--out", str(INPUTS / f"{name}.csv")]) == 0
    for name in TABLE_CASES:
        for fmt in FORMATS:
            code, out = _run_to_stdout(_argv(name, fmt))
            assert code == TABLE_CASES[name][1], (name, fmt, code)
            _golden_path(name, fmt).write_bytes(out)


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
