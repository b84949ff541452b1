"""Seeded workloads of the stopcost CLI benchmark.

Each workload is a fixed sequence of ``stopcost`` CLI calls on inputs that
this module builds from the workload seed.  The fixtures are made with numpy
alone, never with ``stopcost`` code, so a change to the program cannot change
another workload's input.  The one exception is ``pershot_pipeline``, whose
trace is written by the program's own ``synth`` call because that write path
is part of what the workload measures.

Why each workload exists:

* ``highcard_trace``: a histogram with ~1e5 distinct ns runtimes, so the
  per-candidate loops of the stopping sweep, the range curve, the candidate
  table and table rendering dominate every call.
* ``pershot_pipeline``: ``synth --per-shot`` writes 1e6 rows with ~17
  distinct runtimes, which four calls then read back, so row-by-row CSV write
  and parse dominate and the sweep sees almost no candidates.
* ``model_cost``: no trace; the paper's 289-point workload grid over
  d = 3..31 for the built-in decoders and for a wide-tail binomial decoder,
  so binomial quantile walks and per-workload candidate tables dominate.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
DISTANCE = 15
PHYSICAL_ERROR_RATE = 1e-3
SEC_CYCLE_NS = 1000

# highcard_trace: lognormal runtimes around 100 us; slow shots fail more
# often.  With these values the optimal range is ~40, so the mincost workload
# below is feasible while every stopping time stays significant.
HIGHCARD_MEDIAN_NS = 1e5
HIGHCARD_SIGMA = 0.6
HIGHCARD_BASE_FAILURE = 1e-4
HIGHCARD_NT = "10"

PERSHOT_NT = "10,1000,100000"

# The paper's workload grid: 12 decades at 24 points per decade.
GRID_DECADES = 12
WIDE_TAIL_STEP_PROBABILITY = 0.3

SIZES = {
    "full": {
        "highcard_trace": {"distinct": 100_000, "shots": 1_000_000},
        "pershot_pipeline": {"shots": 1_000_000},
        "model_cost": {"grid_points": GRID_DECADES * 24 + 1, "wide_trials": 100_000},
    },
    "smoke": {
        "highcard_trace": {"distinct": 2_000, "shots": 100_000},
        "pershot_pipeline": {"shots": 20_000},
        "model_cost": {"grid_points": 25, "wide_trials": 2_000},
    },
}

WORKLOADS = ("highcard_trace", "pershot_pipeline", "model_cost")


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, expected exit code and expected data rows."""

    argv: tuple[str, ...]
    exit_code: int = 0
    rows: tuple[int, int] | None = None  # inclusive bounds on data rows
    writes: str | None = None  # fixture file the call writes, checked after it

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Fixture:
    """Identity of one input file, so runs on two commits can be matched."""

    name: str
    sha256: str
    shots: int | None
    rows: int | None
    distinct: int | None


@dataclass
class Workload:
    calls: list[Call]
    fixtures: list[Fixture] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _write_sidecar(path: Path, shots: int) -> None:
    meta = {
        "distance": DISTANCE,
        "physical_error_rate": PHYSICAL_ERROR_RATE,
        "shots": shots,
        "sec_cycle_ns": SEC_CYCLE_NS,
    }
    path.write_text(json.dumps(meta, indent=2) + "\n")


def highcard_histogram(seed: int, distinct: int, shots: int):
    """Exactly ``distinct`` runtimes and ``shots`` shots, from the seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pool = np.empty(0, dtype=np.int64)
    while pool.size < distinct:
        draws = rng.lognormal(np.log(HIGHCARD_MEDIAN_NS), HIGHCARD_SIGMA, size=3 * distinct)
        pool = np.union1d(pool, np.rint(draws).astype(np.int64))
    runtimes = np.sort(rng.choice(pool, size=distinct, replace=False))
    counts = 1 + rng.multinomial(shots - distinct, np.full(distinct, 1.0 / distinct))
    fail_prob = np.minimum(1.0, HIGHCARD_BASE_FAILURE * (runtimes / HIGHCARD_MEDIAN_NS) ** 2)
    failed = rng.binomial(counts, fail_prob)
    return runtimes, counts, failed


def build_highcard(workdir: Path, seed: int, distinct: int, shots: int) -> Workload:
    runtimes, counts, failed = highcard_histogram(seed, distinct, shots)
    trace = workdir / "highcard.csv"
    body = "".join(
        f"{r},{c},{f}\n" for r, c, f in zip(runtimes.tolist(), counts.tolist(), failed.tolist())
    )
    trace.write_text("runtime_ns,count_total,count_failed\n" + body)
    _write_sidecar(trace.with_suffix(".json"), shots)
    fixture = Fixture("highcard.csv", sha256_file(trace), shots, distinct, distinct)
    calls = [
        Call(("trace-stats", "--trace", trace.name), rows=(1, 1)),
        Call(("stop", "--trace", trace.name), rows=(distinct, distinct)),
        Call(("range", "--trace", trace.name), rows=(1, distinct)),
        Call(("mincost", "--trace", trace.name, "--nT", HIGHCARD_NT), rows=(1, 1)),
    ]
    return Workload(calls, [fixture])


def build_pershot(workdir: Path, seed: int, shots: int) -> Workload:
    trace = "pershot.csv"
    n_T = len(PERSHOT_NT.split(","))
    calls = [
        Call(
            (
                "synth", "--model", "quadratic", "--d", str(DISTANCE),
                "--p", repr(PHYSICAL_ERROR_RATE), "--shots", str(shots),
                "--seed", str(seed), "--per-shot", "--out", trace,
            ),
            rows=(0, 0),
            writes=trace,
        ),
        Call(("trace-stats", "--trace", trace), rows=(1, 1)),
        Call(("stop", "--trace", trace), rows=(1, shots)),
        Call(("range", "--trace", trace), rows=(1, shots)),
        Call(("mincost", "--trace", trace, "--nT", PERSHOT_NT), rows=(n_T, n_T)),
    ]
    return Workload(calls)


def paper_grid(points: int) -> list[int]:
    """``points`` log-spaced workloads from 1 to 1e12, rounded (duplicates kept)."""
    import numpy as np

    return [int(round(v)) for v in np.geomspace(1, 10.0**GRID_DECADES, points)]


def build_model_cost(workdir: Path, seed: int, grid_points: int, wide_trials: int) -> Workload:
    import numpy as np

    rng = np.random.default_rng(seed)
    grid = [int(v) for v in rng.permutation(paper_grid(grid_points))]
    grid_text = ",".join(map(str, grid))
    (workdir / "grid.txt").write_text(grid_text + "\n")
    wide = workdir / "wide_tail.json"
    config = {
        "name": "wide-tail",
        "runtime": {
            "kind": "binomial",
            "N": wide_trials,
            "Q": WIDE_TAIL_STEP_PROBABILITY,
            "unit_ns": SEC_CYCLE_NS,
        },
        "failure": {"kind": "heuristic"},
    }
    wide.write_text(json.dumps(config, indent=2) + "\n")
    distinct = len(set(grid))
    fixtures = [
        Fixture("grid.txt", sha256_file(workdir / "grid.txt"), None, len(grid), distinct),
        Fixture("wide_tail.json", sha256_file(wide), None, None, None),
    ]
    calls = [
        Call(("compare", "--decoder-a", "linear", "--decoder-b", "quadratic", "--nT", grid_text),
             rows=(distinct, distinct)),
        Call(("mincost", "--decoder", "quadratic", "--nT", grid_text), rows=(len(grid), len(grid))),
        Call(("compare", "--decoder-a", wide.name, "--decoder-b", "quadratic", "--nT", grid_text),
             rows=(distinct, distinct)),
    ]
    return Workload(calls, fixtures)


def build(name: str, workdir: Path, seed: int, size: str = "full") -> Workload:
    """Write the fixtures of workload ``name`` into ``workdir``."""
    params = SIZES[size][name]
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "highcard_trace":
        return build_highcard(workdir, seed, **params)
    if name == "pershot_pipeline":
        return build_pershot(workdir, seed, **params)
    if name == "model_cost":
        return build_model_cost(workdir, seed, **params)
    raise ValueError(f"unknown workload {name!r}")


def describe_pershot(path: Path) -> Fixture:
    """Fixture record of a per-shot trace CSV (``runtime_ns,failed``) the program wrote."""
    import numpy as np

    lines = [line for line in Path(path).read_text().splitlines() if line and line[0] != "#"]
    runtimes = np.array([line.split(",", 1)[0] for line in lines[1:]], dtype=np.int64)
    return Fixture(
        Path(path).name, sha256_file(path), runtimes.size, runtimes.size, int(np.unique(runtimes).size)
    )


def workload_from_json(data: dict) -> Workload:
    calls = [
        Call(
            tuple(c["argv"]), c["exit_code"], tuple(c["rows"]) if c["rows"] else None, c["writes"]
        )
        for c in data["calls"]
    ]
    return Workload(calls, [Fixture(**f) for f in data["fixtures"]])


def main(argv: list[str]) -> int:
    """Child-process entry, so the benchmark process never loads numpy or large files:
    a child's ru_maxrss includes its parent's peak RSS, which would hide the
    program's own memory use.

        python3 bench/workloads.py build WORKLOAD DIR SEED SIZE
        python3 bench/workloads.py describe PERSHOT_CSV
    """
    import numpy as np

    if argv[0] == "build":
        name, workdir, seed, size = argv[1:]
        workload = build(name, Path(workdir), int(seed), size)
        print(json.dumps({**dataclasses.asdict(workload), "numpy": np.__version__}))
    elif argv[0] == "describe":
        print(json.dumps(dataclasses.asdict(describe_pershot(Path(argv[1])))))
    else:
        raise SystemExit(f"unknown command {argv[0]!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
