"""A runtime law's code sampler and one chunk's histogram, which only
``synth`` loads (through :func:`stopcost.models.sample_trace`)."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .trace import FLAG_SLICE_SHOTS, aggregate_shots


class CodeSampler(NamedTuple):
    """A runtime law's sampler, built once per synthetic trace.

    ``draw(rng, k)`` draws ``k`` runtimes as non-negative integer codes that
    rise with runtime, so a chunk can hold them in the narrowest dtype they
    need and sort them; ``to_ns(codes)`` maps the distinct codes to their
    int64 runtimes in ns.
    """

    draw: Callable[[np.random.Generator, int], np.ndarray]
    to_ns: Callable[[np.ndarray], np.ndarray]


def _sample_chunk(
    sampler: CodeSampler,
    rate: float,
    n: int,
    seed: int,
    chunk_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The aggregated histogram of one chunk of ``n`` shots, drawn from the
    chunk's own (seed, chunk-index) substream: the runtimes, then the
    failure flags.

    Both are drawn ``FLAG_SLICE_SHOTS`` at a time, which continues the
    stream exactly as one draw of ``n`` would.  The runtimes are kept as
    codes in a uint8 array, widened when a slice's largest code does not
    fit; each flag slice keeps only its failed shots' codes.  Only the
    distinct codes become ns.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))
    codes = np.empty(n, dtype=np.uint8)
    for start in range(0, n, FLAG_SLICE_SHOTS):
        draws = sampler.draw(rng, min(FLAG_SLICE_SHOTS, n - start))
        top = draws.max()
        if top > np.iinfo(codes.dtype).max:
            codes = codes.astype(np.min_scalar_type(top))
        codes[start : start + draws.size] = draws
    del draws  # half a byte per shot of a chunk, held through the flags
    failed = []
    for start in range(0, n, FLAG_SLICE_SHOTS):
        shots = codes[start : start + FLAG_SLICE_SHOTS]
        failed.append(shots[rng.random(shots.size) < rate])
    distinct, totals, failed_counts = aggregate_shots(codes, np.concatenate(failed))
    return sampler.to_ns(distinct), totals, failed_counts
