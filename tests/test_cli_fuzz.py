"""Fuzz ``cli.main(argv)`` in-process: whatever the arguments and config
files, a call exits 0, 2, 3 or 4, a failure is one ``stopcost:`` line on
stderr, and no traceback escapes.

The argv comes from the parser's own subcommands and options, with values
drawn from pools of valid, boundary and malformed text; the decoder and
run config files and the metadata sidecar hold random JSON.  Values that only make the work large
(the ``synth`` shot count, the list of distances to search) stay small
enough that every example finishes quickly; the parsers of those values are
still fed malformed text.  Every file a call may write is in a temporary
directory.
"""

import argparse
import contextlib
import io
import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from stopcost import cli, command, decoder_config, trace

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"

# A leading "@" in a drawn argument stands for the fixture directory.  It
# holds copies of the golden input traces and the decoder config, run
# config and sidecar files that each example writes; every file a call may
# write is in it.
DECODER_FILE = "@/decoder.json"
CONFIG_FILE = "@/config.json"
META_FILE = "@/meta.json"

# Typical values of each option, and malformed or extreme ones by type.
GOOD = {
    "d": ["3", "5", "15", "1.5e1", "2049"],
    "distance": ["5", "7"],
    "p": ["1e-3", "5e-4", "0.02", "0.05"],
    "nT": ["10", "1,10,1000", "1e6", "1e30"],
    "distances": ["3:7", "3,5", "9", "3:31", "101", "3:101", "2049", "2045:2051"],
    "alphas": ["0.2,0.8", "1"],
    "m_cycles": ["0,10", "5"],
    "epsilon": ["0.5", "0.1"],
    "t_sec_ns": ["1000", "1e3", "400"],
    "min_failure_events": ["0", "1", "20"],
    "seed": ["0", "7"],
    "shots": ["100", "1e3", "20000"],
    "sec_cycle_ns": ["1000"],
    "delay_ns": ["0", "1000"],
    "d_max": ["3", "99", "2099"],
    "out": ["@/out.csv"],
    "trace": ["@/ns.csv", "@/linear.csv", "@/quadratic.csv"],
    "meta": ["@/ns.json", "@/linear.json", META_FILE],
    "config": [CONFIG_FILE],
    "decoder": [DECODER_FILE, *command.BUILTIN_DECODERS],
    "decoder_a": [DECODER_FILE, *command.BUILTIN_DECODERS],
    "decoder_b": [DECODER_FILE, *command.BUILTIN_DECODERS],
    "model": [DECODER_FILE, *command.BUILTIN_DECODERS],
}
INTEGER_TEXT = ["0", "-1", "1.7", "1e-3", "", "x", "nan", "1e400", "9" * 25]
FLOAT_TEXT = ["0", "1", "1.5", "-1", "nan", "inf", "1e-300", "1e-320", "", "x"]
LIST_TEXT = ["10,0", "1e400", "1.7", ",", "", "x", "0.5,1"]
PATH_TEXT = ["@/bad.csv", "@/missing.csv", "@", "", DECODER_FILE, CONFIG_FILE, META_FILE,
             "@/ns.json"]
FILE_OPTIONS = ("trace", "meta", "config", "decoder", "decoder_a", "decoder_b", "model")
# Malformed values chosen per option: --out names only paths in the fixture
# directory, and the values that only make the work large stay small.
BAD = {
    "out": ["@/no-dir/out.csv", "@", "@/out.json"],
    "distances": ["7:3", "4", "1", "3:x", ",", "", "1e400"],
    "shots": ["0", "-1", "1.7", "x", ""],
}

# Besides the JSON types, numbers written as strings and the non-standard
# NaN, Infinity and -Infinity tokens (json.dumps writes them for these floats).
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**30), 10**30), st.floats(allow_nan=True),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["x", "1e3", "0.3", "100", *decoder_config.DECODER_CONFIG_KEYS["runtime"],
                     *decoder_config.DECODER_CONFIG_KEYS["failure"]]),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
GOOD_JSON = {
    "N": [100, 1e3, 100000], "Q": [0.25, 0.0005], "unit_ns": [1000, 500], "A": [0.1],
    "B": [100, 1000, 1e300], "alpha": [0.5], "rate": [1e-3, 0.0], "events": [10],
    "trace": ["ns.csv"], "meta": ["ns.json"],
    "epsilon": [0.25], "t_sec_ns": [1000], "min_failure_events": [5], "format": ["json"],
    "seed": [3], "schedule": [{"h_cycles": 1}],
    "distance": [7], "physical_error_rate": [0.001], "shots": [20000], "sec_cycle_ns": [1000],
}


def mutated(good, bad):
    """Mostly a typical value; about one time in eight a malformed one."""
    if not good:
        return bad
    return st.sampled_from([st.sampled_from(good)] * 7 + [bad]).flatmap(lambda value: value)


@st.composite
def keyed(draw, keys):
    """A JSON object over ``keys`` and the unknown key ``zz``, with mutated values."""
    chosen = draw(st.lists(st.sampled_from([*keys, "zz"]), unique=True, max_size=4))
    return {key: draw(mutated(GOOD_JSON.get(key, []), json_values)) for key in chosen}


@st.composite
def decoder_configs(draw):
    """A decoder config near the grammar: known kinds and keys, mutated values."""
    sections = {}
    for section, kinds in decoder_config.DECODER_CONFIG_KEYS.items():
        kind = draw(st.sampled_from(sorted(kinds)))
        sections[section] = {"kind": kind, **draw(keyed(list(kinds[kind])))}
    return draw(mutated([sections], keyed(["name", "runtime", "failure"]) | json_values))


run_configs = mutated([{}], keyed(list(cli.SETTINGS)) | json_values)
# The sidecar of ns.csv, or one near it.
meta_files = mutated(
    [json.loads((INPUTS / "ns.json").read_text())],
    keyed(list(trace.METADATA_FIELDS)) | json_values,
)


def _subcommands():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


SUBCOMMANDS = _subcommands()


def option_values(action):
    if action.choices:
        return mutated(list(action.choices), st.just("xml"))
    if action.dest in BAD:
        bad = st.sampled_from(BAD[action.dest])
    elif action.type is cli.integer:
        bad = st.sampled_from(INTEGER_TEXT) | st.text(max_size=4)
    elif action.type is float:
        bad = st.sampled_from(FLOAT_TEXT) | st.text(max_size=4)
    elif action.dest in FILE_OPTIONS:
        bad = st.sampled_from(PATH_TEXT)
    else:
        bad = st.sampled_from(LIST_TEXT) | st.text(max_size=4)
    return mutated(GOOD[action.dest], bad)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if draw(st.integers(0, 9)) >= (9 if action.required else 5):
            continue
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            argv.append(draw(option_values(action)))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fuzz")
    for path in INPUTS.iterdir():
        (tmp / path.name).write_bytes(path.read_bytes())
    (tmp / "bad.csv").write_text("runtime_ns,failed\n12,x\n")
    (tmp / "bad.json").write_text(json.dumps({"distance": 5}))
    return tmp


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Inputs that once crashed with a traceback, or failed naming no argument.
MINCOST = ["mincost", "--decoder", DECODER_FILE, "--nT", "10"]
HEURISTIC = {"kind": "heuristic"}
# The run config and sidecar of an example that reads neither.
NO_FILES = {"run_config": {}, "meta_file": {}}


@given(argv=argvs(), decoder_config=decoder_configs(), run_config=run_configs,
       meta_file=meta_files)
@example(argv=MINCOST, decoder_config={"runtime": 5, "failure": HEURISTIC}, **NO_FILES)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "instantaneous"}, "failure": {"kind": "heuristic", "A": None}},
    **NO_FILES,
)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "binomial", "N": 1.7, "Q": 0.25}, "failure": HEURISTIC},
    **NO_FILES,
)
# Once an all-inf table and exit 3; numbers written as strings; a model's
# own range check, and settings that named no file.
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "instantaneous"}, "failure": {"kind": "heuristic", "A": math.nan}},
    **NO_FILES,
)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "binomial", "N": "100", "Q": "0.3"}, "failure": HEURISTIC},
    **NO_FILES,
)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "binomial", "N": 100, "Q": 1.5}, "failure": HEURISTIC},
    **NO_FILES,
)
@example(
    argv=["required-distance", "--nT", "10", "--config", CONFIG_FILE],
    decoder_config={}, run_config={"epsilon": 2.0, "format": 5}, meta_file={},
)
@example(
    argv=["trace-stats", "--trace", "@/ns.csv", "--meta", META_FILE],
    decoder_config={}, run_config={}, meta_file={"distance": 7, "shots": "100", "zz": math.inf},
)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "instantaneous", "N": 1}, "failure": HEURISTIC, "x": 1},
    **NO_FILES,
)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "instantaneous"}, "failure": {"kind": "heuristic", "B": 1e300}},
    **NO_FILES,
)
@example(
    argv=MINCOST,
    decoder_config={"runtime": {"kind": "binomial", "N": 10**30, "Q": 0.5, "unit_ns": 1000},
                    "failure": HEURISTIC},
    **NO_FILES,
)
# Heuristic rates whose power passes the float range, and a search past
# the distance limit.
@example(
    argv=[*MINCOST, "--p", "0.5", "--distances", "231"],
    decoder_config={"runtime": {"kind": "instantaneous"}, "failure": {"kind": "heuristic", "B": 1000}},
    **NO_FILES,
)
@example(argv=["surface", "--d", "2049", "--p", "0.02"], decoder_config={}, **NO_FILES)
@example(
    argv=["required-distance", "--nT", "1000", "--p", "0.02", "--d-max", "2099"],
    decoder_config={}, **NO_FILES,
)
@example(
    argv=["mincost", "--decoder", "linear", "--p", "0.02", "--nT", "10", "--distances", "2049"],
    decoder_config={}, **NO_FILES,
)
@example(
    argv=["synth", "--model", "instantaneous", "--d", "2049", "--p", "0.02", "--shots", "100",
          "--out", "@/out.csv"],
    decoder_config={}, **NO_FILES,
)
@example(argv=["required-distance", "--nT", "10", "--d-max", "100003"], decoder_config={}, **NO_FILES)
@example(argv=["required-distance", "--nT", "10", "--p", "0"], decoder_config={}, **NO_FILES)
@example(argv=["required-distance", "--nT", "1e400"], decoder_config={}, **NO_FILES)
@example(argv=["surface", "--d", "31", "--p", "1e-320"], decoder_config={}, **NO_FILES)
@example(argv=["surface", "--d", "3", "--p", "3e-157"], decoder_config={}, **NO_FILES)
@example(argv=["stop", "--trace", ""], decoder_config={}, **NO_FILES)
@example(
    argv=["trace-stats", "--trace", "@/ns.csv", "--meta", META_FILE],
    decoder_config={}, run_config={}, meta_file={"distance": 7, "shots": None, "zz": 1},
)
# A key with a character str.splitlines breaks a line at, named in the error.
@example(
    argv=["required-distance", "--nT", "10", "--config", CONFIG_FILE],
    decoder_config={}, run_config={"\x1e": None}, meta_file={},
)
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_cli_exits_cleanly_on_any_input(workdir, argv, decoder_config, run_config, meta_file):
    (workdir / "decoder.json").write_text(json.dumps(decoder_config))
    (workdir / "config.json").write_text(json.dumps(run_config))
    (workdir / "meta.json").write_text(json.dumps(meta_file))
    argv = [str(workdir) + arg[1:] if arg.startswith("@") else arg for arg in argv]
    cwd = os.getcwd()
    os.chdir(workdir)  # relative paths in a drawn argv stay in the fixture directory
    try:
        code, out, err = run_main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in out + err
    lines = err.splitlines()
    assert all(line.startswith("stopcost:") for line in lines), err
    if code != 0:
        problems = [line for line in lines if not line.startswith("stopcost: warning:")]
        assert len(problems) == 1, err
