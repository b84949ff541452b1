"""Fixed stand-in for one CLI call, timed to gauge the machine's speed.

    python3 bench/reference.py

It starts an interpreter, imports numpy and runs a fixed mix of the kinds of
work the CLI calls do: interpreter loops with float math and dict updates,
many small numpy calls on a 1e5-element array, CSV-style text formatting and
parsing, and scattered reads of a large list.  It uses no ``stopcost`` code,
so no change to the program can change it.  ``run.py`` times it before and
after every call and scales the call's wall time by how fast it ran (see
``REFERENCE_S`` there).
"""

import math
import random

import numpy as np

ROUNDS = 2


def mix(array, big, scattered) -> float:
    table = {}
    total = 0.0
    for i in range(20_000):
        x = (i * 2654435761) % 1000003
        total += math.sqrt(x) / (1 + (i & 7))
        table[x & 1023] = table.get(x & 1023, 0) + 1
    for i in range(2_000):
        j = int(np.searchsorted(array, i * 500_000, side="right"))
        total += float(array[:j].size)
    lines = [f"{i},{i * 7 % 13},{i & 1}" for i in range(15_000)]
    total += sum(int(line.split(",")[1]) for line in lines)
    for i in scattered:
        total += big[i]
    return total + len(table)


def main() -> None:
    array = np.sort(np.random.default_rng(7).integers(0, 10**9, 100_000))
    big = list(range(500_000))
    rng = random.Random(3)
    scattered = [rng.randrange(len(big)) for _ in range(40_000)]
    for _ in range(ROUNDS):
        mix(array, big, scattered)


if __name__ == "__main__":
    main()
