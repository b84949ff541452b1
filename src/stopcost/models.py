"""Failure-rate and runtime models for surface code decoders.

Failure models give the decoding failure rate of the *uninterrupted*
decoder as a function of code distance and physical error rate.  Runtime
models describe how long a single decoding call takes; the binomial law
is parameterized by the number of Bernoulli steps (which is also the
worst-case runtime in units) and a per-step probability, so mean and
maximum runtime can be dialed independently.

All model evaluations are pure.  The synthetic trace sampler partitions
shots into fixed-size chunks, each driven by its own (seed, chunk-index)
substream, so chunked or parallel generation reproduces the serial
output record for record; ``sampling`` holds its per-chunk code.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Union

from .values import INT64_MAX, _validate_distance, _validate_probability, at_least, below_int64, checked

if TYPE_CHECKING:
    from .sampling import CodeSampler
    from .trace import RuntimeTrace

HEURISTIC_VALIDITY_P = 1e-2

# Shots per sampling substream; parallel generation must use the same value.
SAMPLE_CHUNK_SHOTS = 1 << 20


def python_values(column) -> Sequence:
    """A numpy column's ``tolist()``; any other sequence as it is."""
    return column.tolist() if hasattr(column, "tolist") else column


# ---------------------------------------------------------------------------
# Failure models


@checked
class HeuristicFailure(NamedTuple):
    """Below-threshold failure-rate heuristic for matching decoders.

    rate = min(1, prefactor * (p / threshold) ** ((d + 1) / 2)), also where
    the power alone passes the float range.

    The defaults reproduce the standard minimum-weight-matching heuristic
    with threshold 1e-2.  The heuristic is only trusted for p below the
    threshold; evaluating at p >= 1e-2 warns but does not fail.
    """

    prefactor: float = 0.1
    threshold: float = 0.01

    def _check(self) -> None:
        if not (0.0 < self.prefactor < math.inf and 0.0 < self.threshold < math.inf):
            raise ValueError(
                f"prefactor and threshold must be positive and finite, got "
                f"{self.prefactor} and {self.threshold}"
            )

    def rate(self, d: int, p: float) -> float:
        _validate_distance(d)
        _validate_probability(p, "p")
        if p >= HEURISTIC_VALIDITY_P:
            warnings.warn(
                f"heuristic failure rate evaluated at p={p}, at or above its "
                f"validity threshold {HEURISTIC_VALIDITY_P}",
                stacklevel=2,
            )
        exponent = (d + 1) // 2
        try:
            power = (p / self.threshold) ** exponent
        except OverflowError:  # p / threshold > 1: compare in log space
            log_rate = math.log(self.prefactor) + exponent * math.log(p / self.threshold)
            return 1.0 if log_rate >= 0.0 else math.exp(log_rate)
        return min(1.0, self.prefactor * power)


# Fitted rate of a software matching decoder at p = 1e-3, measured with an
# uninterrupted decoder: 0.04 * (0.1) ** ((d + 1) / 2).
FITTED_MATCHING_FAILURE = HeuristicFailure(prefactor=0.04)


@checked
class AccuracyScaledFailure(NamedTuple):
    """Failure rate of a decoder with relative accuracy alpha in (0, 1].

    A decoder of accuracy alpha fails at base_rate / alpha; alpha = 1
    recovers the base model exactly.
    """

    base: FailureModel
    alpha: float

    def _check(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"accuracy must be in (0, 1], got {self.alpha}")

    def rate(self, d: int, p: float) -> float:
        return min(1.0, self.base.rate(d, p) / self.alpha)


@checked
class EmpiricalFailure(NamedTuple):
    """Directly measured failure rate with its supporting event count."""

    failure_rate: float
    failure_events: int = 0

    def _check(self) -> None:
        if not 0.0 <= self.failure_rate <= 1.0:
            raise ValueError(f"failure rate must be in [0, 1], got {self.failure_rate}")
        at_least(self.failure_events, 0, "failure_events")

    def rate(self, d: int, p: float) -> float:
        _validate_distance(d)
        _validate_probability(p, "p")
        return self.failure_rate


FailureModel = Union[HeuristicFailure, AccuracyScaledFailure, EmpiricalFailure]


# ---------------------------------------------------------------------------
# Binomial survival


_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _stirlerr(n: float) -> float:
    # log(n!) - log(sqrt(2 pi n) (n/e)^n), via the asymptotic series for
    # large n.  Direct lgamma differences lose ~6 digits once lgamma(n)
    # reaches 1e10 (n ~ 1e9), which is why the pmf anchor below is built
    # from saddle-point pieces instead.
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LOG_SQRT_TWO_PI
    nn = n * n
    if n > 500:
        return (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / 1260.0 / nn) / nn) / n
    if n > 80:
        return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / 1680.0 / nn) / nn) / nn) / n
    return (
        1.0 / 12.0
        - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0 - 1.0 / 1188.0 / nn) / nn) / nn) / nn
    ) / n


def _bd0(x: float, mean: float) -> float:
    # Binomial deviance x*log(x/mean) + mean - x, evaluated by series when
    # x is close to mean to avoid cancellation.
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        ej = 2.0 * x * v
        v2 = v * v
        j = 1
        while True:
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / mean) + mean - x


def _log_pmf(n: int, q: float, t: int) -> float:
    # Saddle-point form of log C(n, t) q^t (1-q)^(n-t); accurate to a few
    # ulps for n up to 1e9 and beyond.
    if t == 0:
        return n * math.log1p(-q)
    if t == n:
        return n * math.log(q)
    lc = (
        _stirlerr(n)
        - _stirlerr(t)
        - _stirlerr(n - t)
        - _bd0(t, n * q)
        - _bd0(n - t, n * (1.0 - q))
    )
    return lc + 0.5 * math.log(n / (2.0 * math.pi * t * (n - t)))


def _upper_tail(n: int, q: float, m: int) -> float:
    # Sum pmf(t) for t in (m, n], moving away from the mode.  Terms decay
    # geometrically past the mode, so stopping once a term drops below
    # 1e-16 of the accumulated sum bounds the relative error near 1e-10.
    t = m + 1
    term = math.exp(_log_pmf(n, q, t))
    if term == 0.0:
        # Leading term underflowed; the whole tail is below ~1e-300.
        return 0.0
    total = term
    while t < n:
        term *= (n - t) * q / ((t + 1) * (1.0 - q))
        t += 1
        total += term
        if term <= total * 1e-16:
            break
    return min(total, 1.0)


def _lower_tail(n: int, q: float, m: int) -> float:
    # Sum pmf(t) for t in [0, m], moving downward from m (m below the mode,
    # so terms decay).
    term = math.exp(_log_pmf(n, q, m))
    total = term
    t = m
    while t > 0:
        term *= t * (1.0 - q) / ((n - t + 1) * q)
        t -= 1
        total += term
        if term <= total * 1e-16:
            break
    return min(total, 1.0)


def binomial_survival(trials: int, step_probability: float, threshold: int) -> float:
    """P(T > threshold) for T ~ Binomial(trials, step_probability).

    Computed by summing probability-mass terms outward from the mode via
    recurrence ratios, which stays accurate (relative error ~1e-10) and
    overflow-free even for trials around 1e9 with small means.  A negative
    threshold returns the full mass, 1.
    """
    at_least(trials, 1, "trials")
    _validate_probability(step_probability, "step probability")
    if threshold < 0:
        return 1.0
    if threshold >= trials:
        return 0.0
    mode = min(trials, int((trials + 1) * step_probability))
    if threshold >= mode:
        return _upper_tail(trials, step_probability, threshold)
    return max(0.0, 1.0 - _lower_tail(trials, step_probability, threshold))


# ---------------------------------------------------------------------------
# Runtime models


@checked
class BinomialRuntime(NamedTuple):
    """Runtime of ``trials`` Bernoulli steps, each taking ``unit_ns``.

    Mean runtime is trials * step_probability units; the worst case is
    exactly ``trials`` units.
    """

    trials: int
    step_probability: float
    unit_ns: int = 1000

    def _check(self) -> None:
        at_least(self.trials, 1, "trials")
        _validate_probability(self.step_probability, "step probability")
        at_least(self.unit_ns, 1, "unit_ns")

    def sampler(self) -> CodeSampler:
        """Codes are unit counts."""
        import numpy as np

        from .sampling import CodeSampler

        # Trace runtimes are int64 ns: refuse a law whose draws would wrap.
        law = f"binomial runtime N={self.trials}, Q={self.step_probability!r}, unit_ns={self.unit_ns}"
        if self.trials > INT64_MAX:
            raise ValueError(f"{law} cannot be sampled: N must be below the 2**63 trace limit")

        def draw(rng: np.random.Generator, k: int) -> np.ndarray:
            return rng.binomial(self.trials, self.step_probability, size=k)

        def to_ns(units: np.ndarray) -> np.ndarray:
            top = int(units.max(initial=0))
            if top > INT64_MAX // self.unit_ns:
                raise ValueError(
                    f"{law} cannot be sampled: a draw of {top} units "
                    "passes the 2**63 ns trace limit"
                )
            return units.astype(np.int64) * self.unit_ns

        return CodeSampler(draw, to_ns)


class InstantaneousRuntime:
    """Zero-delay decoder: the runtime is identically 0.  A plain class: a
    NamedTuple without fields would be an empty, and so false, tuple."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "InstantaneousRuntime()"

    def __eq__(self, other) -> bool:
        return type(other) is InstantaneousRuntime

    def __hash__(self) -> int:
        return hash(InstantaneousRuntime)

    def sampler(self) -> CodeSampler:
        """The one code is 0; drawing it takes nothing from the stream."""
        import numpy as np

        from .sampling import CodeSampler

        return CodeSampler(
            lambda rng, k: np.zeros(k, dtype=np.uint8),
            lambda codes: np.zeros(codes.size, dtype=np.int64),
        )


class EmpiricalRuntime(NamedTuple):
    """Runtime distribution backed by a measured trace."""

    trace: RuntimeTrace

    def sampler(self) -> CodeSampler:
        """Codes index the trace's sorted runtimes.  A draw inverts the
        cumulative weights exactly as ``rng.choice(runtimes, k, p=weights)``
        does, so it takes the same uniforms and picks the same runtimes."""
        from .sampling import CodeSampler

        weights = self.trace.counts.astype(float)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        return CodeSampler(
            lambda rng, k: cdf.searchsorted(rng.random(k), side="right"),
            self.trace.runtimes_ns.take,
        )


RuntimeModel = Union[BinomialRuntime, InstantaneousRuntime, EmpiricalRuntime]


class DecoderModel(NamedTuple):
    """A named decoder: a runtime law plus a failure-rate law."""

    name: str
    runtime: RuntimeModel
    failure: FailureModel

    @property
    def rate_method(self) -> str:
        """``"exact"`` for a measured runtime, else ``"upper_bound"``."""
        return "exact" if isinstance(self.runtime, EmpiricalRuntime) else "upper_bound"

    @property
    def measured_distance(self) -> int | None:
        """The one distance a measured runtime holds at; None for an analytic law."""
        return self.runtime.trace.metadata.distance if self.rate_method == "exact" else None


DecoderFactory = Callable[[int], DecoderModel]


def _model_at(decoder: DecoderModel | DecoderFactory, d: int) -> DecoderModel:
    """``decoder`` itself, or its factory's model at distance ``d``."""
    return decoder if isinstance(decoder, DecoderModel) else decoder(d)


def reference_decoder(name: str, d: int, p: float) -> DecoderModel:
    """The reference ``"quadratic"``-time or ``"linear"``-time decoder model.

    The quadratic-time decoder has mean runtime p * d**3 us, worst case
    d**6 us, and the standard heuristic failure rate.  The linear-time
    decoder is four times faster on average with worst case 0.25 * d**3 us
    but fails 4/3 as often (accuracy 3/4).  The linear step count is
    rounded to the nearest integer and the step probability re-derived so
    the mean is preserved exactly.
    """
    _validate_distance(d)
    _validate_probability(p, "p")
    if name == "quadratic":
        return DecoderModel(
            name="quadratic",
            runtime=BinomialRuntime(trials=d**6, step_probability=p / d**3, unit_ns=1000),
            failure=HeuristicFailure(),
        )
    linear_trials = round(0.25 * d**3)
    linear_q = 0.25 * p * d**3 / linear_trials
    if not 0.0 < linear_q < 1.0:
        raise ValueError(
            f"linear decoder step probability {linear_q} falls outside (0, 1)"
        )
    return DecoderModel(
        name="linear",
        runtime=BinomialRuntime(
            trials=linear_trials, step_probability=linear_q, unit_ns=1000
        ),
        failure=AccuracyScaledFailure(base=HeuristicFailure(), alpha=0.75),
    )


def make_reference_decoders(d: int, p: float) -> tuple[DecoderModel, DecoderModel]:
    """Both :func:`reference_decoder` models, ``(quadratic, linear)``."""
    return reference_decoder("quadratic", d, p), reference_decoder("linear", d, p)


# ---------------------------------------------------------------------------
# Synthetic trace sampling


def sample_trace(
    runtime: RuntimeModel,
    failure: FailureModel,
    d: int,
    p: float,
    shots: int,
    seed: int,
    sec_cycle_ns: int = 1000,
) -> RuntimeTrace:
    """Draw a synthetic trace: runtimes from the runtime model, failure
    flags as independent Bernoulli draws at the model failure rate.

    Deterministic for a given seed.  Runtime and failure are sampled
    independently; no joint model is assumed.
    """
    from .sampling import _sample_chunk
    from .trace import RuntimeTrace, TraceMetadata, fold_histograms

    below_int64(at_least(shots, 1, "shots"), "shots")
    at_least(seed, 0, "seed")
    rate = failure.rate(d, p)
    sampler = runtime.sampler()
    parts = (
        _sample_chunk(sampler, rate, min(SAMPLE_CHUNK_SHOTS, shots - start), seed, index)
        for index, start in enumerate(range(0, shots, SAMPLE_CHUNK_SHOTS))
    )
    metadata = TraceMetadata(
        distance=d, physical_error_rate=p, shots=shots, sec_cycle_ns=sec_cycle_ns
    )
    return RuntimeTrace._from_fold(metadata, *fold_histograms(parts))
