"""Outside-in benchmark of the stopcost CLI.

    python3 bench/run.py --workload highcard_trace --seed 0 --seconds 35 --trace 0

Each workload (see ``workloads.py``) is a fixed sequence of ``stopcost`` CLI
calls.  With ``--trace 0`` every call runs in a fresh ``python3 -m
stopcost.cli`` child, one at a time in a closed loop, timed end to end
(interpreter start and ``import stopcost.cli`` included, because users pay
both on every call).  The sequence repeats while another pass fits in
``--seconds``; timings are medians over the passes, scaled to a reference
machine speed (see ``REFERENCE_S``).  With ``--trace 1`` the run measures the
per-layer metrics instead: the import time of the CLI, one untraced pass of
children, and one pass of in-process traced calls (see ``tracing.py``).

Every call's exit code and output are checked: at the default seed against
the digests in ``expected.json``, at any seed for agreement across passes and
between the children and the traced calls.  Each run's record in ``out/``
lists the digests it saw, so a deliberate output change can update
``expected.json`` by hand.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the metrics are the ``end_to_end`` (``--trace 0``) or
``per_layer`` (``--trace 1``) names of ``BENCHMARK.json``.  Earlier lines and
``bench/out/`` hold every metric, the fixtures and the environment.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
OUT = BENCH / "out"

IMPORT_REPS = 5
NPROC = len(os.sched_getaffinity(0))  # before main() pins the run to one CPU
RUN_DEADLINE_S = 170.0  # every run must end well within 180 s

# Shared hosts change speed in spells of tens of seconds to minutes, and the
# raw times of whole 35 s runs then spread by a quarter or more.  So a fixed
# stand-in call (``reference.py``) is timed right before and after every
# child, and the child's wall time is scaled by REFERENCE_S over the mean of
# those two timings.  REFERENCE_S is the stand-in's median time on a 2-vCPU
# Xeon VM with Python 3.11, so there a scaled time reads close to the raw one.
REFERENCE_S = 0.3

E2E_METRICS = {
    "wall_ref_s": ("s", "wall time of the whole call sequence, scaled to the reference speed"),
    "peak_rss_mib": ("MiB", "largest ru_maxrss among the sequence's children"),
    "setup_s": ("s", "fixture build in a helper child, scaled to the reference speed; "
                     "median of setups spread over the run"),
}


@dataclass
class CallResult:
    kind: str
    wall_s: float
    exit_code: int
    cpu_s: float
    maxrss_kib: int
    digest: str
    rows: int
    scale: float = 1.0  # REFERENCE_S over the stand-in's time around the call
    error: str | None = None


def scale_between(before: float, after: float) -> float:
    """Factor that takes a time measured between two stand-in runs to the reference speed."""
    return 2 * REFERENCE_S / (before + after)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, stdout, deadline: float):
    """Run one child to completion; return (wall_s, exit_code, rusage)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=stdout, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_call(call: workloads.Call, cwd: Path, deadline: float) -> CallResult:
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out:
        wall, code, usage = spawn(
            [sys.executable, "-m", "stopcost.cli", *call.argv], cwd, out, deadline
        )
    with open(out_path, newline="") as out:
        digest, rows = tracing.output_digest(out)
    return CallResult(
        kind=call.kind,
        wall_s=wall,
        exit_code=code,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kib=usage.ru_maxrss,
        digest=digest,
        rows=rows,
    )


def check_call(call: workloads.Call, code: int, rows: int, digest: str, reference: str | None):
    """Why a call's result is wrong, or None when it passes."""
    if code != call.exit_code:
        return f"exit code {code}, expected {call.exit_code}"
    if call.rows is not None and not call.rows[0] <= rows <= call.rows[1]:
        return f"{rows} data rows, expected {call.rows[0]}..{call.rows[1]}"
    if reference is not None and digest != reference:
        return f"output digest {digest[:12]} differs from reference {reference[:12]}"
    return None


class Session:
    """One benchmark run: fixtures, references, call results and failures."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.workload: workloads.Workload | None = None
        self.numpy_version: str | None = None
        self.fixtures: dict[str, dict] = {}
        self.golden = self._golden()
        self.import_checked = False
        self.references: list[str | None] = []
        self.digests: list[str] = []  # output digests of the first pass, for the record
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.stand_in_times: list[float] = []

    def time_stand_in(self) -> float:
        """Seconds one run of the stand-in call takes now."""
        wall, code, _ = spawn(
            [sys.executable, str(BENCH / "reference.py")], BENCH, subprocess.DEVNULL,
            self.deadline,
        )
        if code != 0:
            raise SystemExit("bench: reference.py failed")
        self.stand_in_times.append(wall)
        return wall

    def _golden(self) -> dict | None:
        if self.args.seed != workloads.DEFAULT_SEED:
            return None
        if not EXPECTED.exists():
            return None
        return json.loads(EXPECTED.read_text()).get(self.args.size, {}).get(self.args.workload)

    def record_fixture(self, fixture: workloads.Fixture) -> None:
        previous = self.fixtures.get(fixture.name)
        if previous is not None and previous["sha256"] != fixture.sha256:
            self.errors.append(f"fixture {fixture.name} changed between builds of one seed")
        self.fixtures[fixture.name] = dataclasses.asdict(fixture)
        if self.golden is not None:
            expected = self.golden["fixtures"].get(fixture.name)
            if expected != fixture.sha256:
                self.errors.append(f"fixture {fixture.name} sha256 differs from expected.json")

    def helper(self, argv: list[str], cwd: Path) -> str:
        """Run a benchmark helper child and return its standard output."""
        done = subprocess.run(
            argv, cwd=cwd, env=child_env(), capture_output=True, text=True,
            timeout=max(self.deadline - time.monotonic(), 1.0),
        )
        if done.returncode != 0:
            raise SystemExit(f"bench: {argv[1:]} failed: {done.stderr.strip()}")
        return done.stdout

    def setup(self) -> tuple[float, float]:
        """Build the fixtures; return the seconds taken and their scale.

        Fixtures are built in a child so this process stays small (see
        ``workloads.main``); the time includes that child's interpreter start
        and numpy import.  ``pershot_pipeline`` has no fixture to build (its
        trace is written by a timed ``synth`` call), so its setup is only that.
        The stand-in call is timed before and after, as around every call.
        """
        before = self.time_stand_in()
        start = time.perf_counter()
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        built = json.loads(self.helper([
            sys.executable, str(BENCH / "workloads.py"), "build", self.args.workload,
            str(self.workdir), str(self.args.seed), self.args.size,
        ], BENCH))
        elapsed = time.perf_counter() - start
        scale = scale_between(before, self.time_stand_in())
        self.workload = workloads.workload_from_json(built)
        self.numpy_version = built["numpy"]
        for fixture in self.workload.fixtures:
            self.record_fixture(fixture)
        if not self.import_checked:
            probe = self.helper(
                [sys.executable, "-c", "import stopcost.cli; print(stopcost.cli.__file__)"],
                self.workdir,
            )
            if not Path(probe.strip()).resolve().is_relative_to(SRC.resolve()):
                raise SystemExit(f"bench: stopcost.cli was not imported from {SRC}")
            self.import_checked = True
        return elapsed, scale

    def run_pass(self) -> list[CallResult]:
        results = []
        before = self.time_stand_in()
        for index, call in enumerate(self.workload.calls):
            result = run_call(call, self.workdir, self.deadline)
            after = self.time_stand_in()
            result.scale = scale_between(before, after)
            before = after
            self.attempted += 1
            if index == len(self.references):
                golden = self.golden["calls"][index] if self.golden else None
                self.references.append(golden)
                self.digests.append(result.digest)
            reference = self.references[index]
            result.error = check_call(call, result.exit_code, result.rows, result.digest, reference)
            if reference is None and result.error is None:
                self.references[index] = result.digest
            if result.error is None and call.writes:
                result.error = self.check_written(call.writes)
            if result.error is not None:
                self.failed += 1
                self.errors.append(f"call {index} ({call.kind}): {result.error}")
            results.append(result)
            if time.monotonic() > self.deadline:
                break
        return results

    def check_written(self, name: str) -> str | None:
        path = self.workdir / name
        if name in self.fixtures:
            if workloads.sha256_file(path) != self.fixtures[name]["sha256"]:
                return f"{name} differs from the first pass"
            return None
        described = self.helper(
            [sys.executable, str(BENCH / "workloads.py"), "describe", str(path)], BENCH
        )
        self.record_fixture(workloads.Fixture(**json.loads(described)))
        return None

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def metric_unit(name: str) -> str:
    """Unit of a metric outside the documented tables, from its suffix."""
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mib"):
        return "MiB"
    return "s" if name.endswith("_s") else "count"


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    """Untraced passes for ``seconds``; return (gated metrics, extra metrics).

    The fixtures are rebuilt before every pass, so the setup times sample the
    machine over the whole run, as the passes do.  Times ending in ``_raw_s``
    are as measured; every other time is scaled to the reference speed.
    """
    setups: list[tuple[float, float]] = []
    passes: list[list[CallResult]] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        setups.append(session.setup())
        results = session.run_pass()
        passes.append(results)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        typical = statistics.median(rounds)
        complete = len(results) == len(session.workload.calls)
        if not complete or elapsed + typical > seconds or time.monotonic() + typical > session.deadline:
            break
    passes = [p for p in passes if len(p) == len(session.workload.calls)] or passes
    kinds = [r.kind for r in passes[0]]

    def per_pass(select):
        return statistics.median([select(p) for p in passes])

    gated = {
        "wall_ref_s": per_pass(lambda p: sum(r.wall_s * r.scale for r in p)),
        "peak_rss_mib": per_pass(lambda p: max(r.maxrss_kib for r in p) / 1024.0),
        "setup_s": statistics.median([elapsed * scale for elapsed, scale in setups]),
    }
    extra = {
        f"{kind.replace('-', '_')}_s": per_pass(
            lambda p, k=kind: sum(r.wall_s * r.scale for r in p if r.kind == k)
        )
        for kind in dict.fromkeys(kinds)
    }
    extra["wall_raw_s"] = per_pass(lambda p: sum(r.wall_s for r in p))
    extra["setup_raw_s"] = statistics.median([elapsed for elapsed, _ in setups])
    extra["stand_in_raw_s"] = statistics.median(session.stand_in_times)
    extra["cpu_raw_s"] = per_pass(lambda p: sum(r.cpu_s for r in p))
    # A child's ru_maxrss is at least this process's peak RSS; keep it below.
    extra["bench_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra["passes"] = len(passes)
    extra["setups"] = len(setups)
    return gated, extra


def measure_traced(session: Session) -> dict:
    """Per-layer metrics: CLI import time, one untraced pass, one traced pass."""
    session.setup()
    imports = []
    for _ in range(IMPORT_REPS):
        wall, code, _ = spawn(
            [sys.executable, "-c", "import stopcost.cli"], session.workdir,
            subprocess.DEVNULL, session.deadline,
        )
        if code != 0:
            session.errors.append("import stopcost.cli failed")
        imports.append(wall)
    untraced = session.run_pass()

    spec_path = session.workdir / "trace_spec.json"
    result_path = session.workdir / "trace_result.json"
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{run_name(session.args)}.json"
    spec = {
        "src": str(SRC),
        "cwd": str(session.workdir),
        "calls": [list(call.argv) for call in session.workload.calls],
        "spans_out": str(spans_path),
    }
    spec_path.write_text(json.dumps(spec))
    _, code, _ = spawn(
        [sys.executable, str(BENCH / "tracing.py"), str(spec_path), str(result_path)],
        session.workdir, subprocess.DEVNULL, session.deadline,
    )
    if code != 0:
        raise SystemExit("bench: traced run failed")
    result = json.loads(result_path.read_text())
    for index, (call, traced) in enumerate(zip(session.workload.calls, result["calls"])):
        session.attempted += 1
        reference = untraced[index].digest if index < len(untraced) else None
        error = check_call(call, traced["exit_code"], traced["rows"], traced["digest"], reference)
        if error is None and (
            traced["untraced_digest"] != traced["digest"]
            or traced["untraced_exit_code"] != traced["exit_code"]
        ):
            error = "traced and untraced in-process results differ"
        if error is None and call.writes:
            error = session.check_written(call.writes)
        if error is None:
            error = tracing.additivity_error(traced)
        if error is not None:
            session.failed += 1
            session.errors.append(f"traced call {index} ({call.kind}): {error}")
    metrics = tracing.layer_metrics(result)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.cpu_s"] = sum(r.cpu_s for r in untraced)
    metrics["bench.traced_calls"] = len(result["calls"])
    metrics["bench.spans_recorded"] = result["spans_recorded"]
    return metrics


def environment(numpy_version: str | None) -> dict:
    def read(path, prefix=None):
        try:
            with open(path) as fh:
                for line in fh:
                    if prefix is None:
                        return line.strip()
                    if line.startswith(prefix):
                        return line.split(":", 1)[1].strip()
        except OSError:
            return None
        return None

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "nproc": NPROC,
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_model": read("/proc/cpuinfo", "model name"),
        "l3_cache": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "platform": platform.platform(),
    }


def run_name(args) -> str:
    """File name stem of a run's records; the size is named unless it is full."""
    size = "" if args.size == "full" else f"-{args.size}"
    return f"{args.workload}{size}-seed{args.seed}-trace{args.trace}"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # One CPU for this process and its children, so the stand-in runs where
    # the calls run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "stopcost" / "cli.py").is_file():
        print(f"bench: no stopcost sources under {SRC}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    session = Session(args)
    try:
        if args.trace:
            everything = measure_traced(session)
            table = tracing.LAYER_METRICS
            gated_names = [m["name"] for m in contract["per_layer"]]
        else:
            gated, extra = measure(session, args.seconds)
            everything = {**gated, **extra}
            table = E2E_METRICS
            gated_names = [m["name"] for m in contract["end_to_end"]]
    finally:
        session.cleanup()

    everything["failed_frac"] = session.failed / max(session.attempted, 1)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(session.numpy_version),
        "fixtures": session.fixtures,
        "calls": [
            {"argv": list(call.argv), "exit_code": call.exit_code, "digest": digest}
            for call, digest in zip(session.workload.calls, session.digests)
        ] if session.workload else [],
        "metrics": everything,
        "errors": session.errors,
    }
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{run_name(args)}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"env {json.dumps(record['environment'])}")
    for fixture in session.fixtures.values():
        print(f"fixture {json.dumps(fixture)}")
    for error in session.errors:
        print(f"FAILED {error}")
    units = {}
    for name, value in everything.items():
        unit, note = table.get(name, (metric_unit(name), None))
        units[name] = unit
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit}" + (f"  # {note}" if note else ""))
    print(f"record {out_path.relative_to(ROOT)}")
    result = {
        "correct": not session.errors,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": everything[name], "unit": units[name]} for name in gated_names
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
