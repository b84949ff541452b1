import copy
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from oracles import chunk_draws, max_runtime_ns, mean_ns, survival, trace_from_records
from stopcost import (
    FITTED_MATCHING_FAILURE,
    AccuracyScaledFailure,
    BinomialRuntime,
    ConfigError,
    DecoderModel,
    EmpiricalFailure,
    EmpiricalRuntime,
    GateSchedule,
    HeuristicFailure,
    InstantaneousRuntime,
    TraceMetadata,
    binomial_survival,
    load_decoder_config,
    make_reference_decoders,
    sample_trace,
)
from stopcost.models import SAMPLE_CHUNK_SHOTS
from stopcost.sampling import _sample_chunk
from stopcost.trace import FLAG_SLICE_SHOTS, RuntimeTrace, aggregate_runtimes

# Its draws at seed 5, chunk 2 first pass 255 in the third 2^16-shot slice.
WIDENS_MID_CHUNK = BinomialRuntime(trials=1000, step_probability=0.195, unit_ns=1)


class TestFailureModels:
    def test_heuristic_at_reference_point(self):
        assert HeuristicFailure().rate(3, 1e-3) == pytest.approx(1e-3, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 7, 15, 29])
    def test_heuristic_distance_independent_at_threshold(self, d):
        with pytest.warns(UserWarning):
            assert HeuristicFailure().rate(d, 1e-2) == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["prefactor", "threshold"])
    def test_heuristic_refuses_a_non_finite_or_non_positive_parameter(self, field, value):
        with pytest.raises(ValueError, match="must be positive and finite"):
            HeuristicFailure(**{field: value})

    def test_accuracy_one_is_identity(self):
        base = HeuristicFailure()
        scaled = AccuracyScaledFailure(base=base, alpha=1.0)
        for d in (3, 9, 21):
            for p in (1e-4, 1e-3, 5e-3):
                assert scaled.rate(d, p) == base.rate(d, p)

    def test_fitted_matching_at_d29(self):
        assert FITTED_MATCHING_FAILURE.rate(29, 1e-3) == pytest.approx(4e-17, rel=1e-12)

    def test_accuracy_strictly_increases_rate(self):
        base = HeuristicFailure()
        for alpha in (0.2, 0.5, 0.9):
            scaled = AccuracyScaledFailure(base=base, alpha=alpha)
            assert scaled.rate(11, 1e-3) > base.rate(11, 1e-3)

    def test_rate_clamped_to_one(self):
        with pytest.warns(UserWarning):
            assert HeuristicFailure().rate(3, 0.5) == 1.0

    @pytest.mark.parametrize(
        "d, p, threshold",
        # p / threshold = 2 at d = 2049 and 500 at d = 231 (config B = 1000):
        # the power alone passes the float range.
        [(2049, 0.02, 1e-2), (2099, 0.02, 1e-2), (231, 0.5, 1e-3)],
    )
    def test_rate_clamped_where_the_power_overflows(self, d, p, threshold):
        with pytest.warns(UserWarning):
            assert HeuristicFailure(threshold=threshold).rate(d, p) == 1.0

    def test_tiny_prefactor_brings_an_overflowing_power_back_below_one(self):
        # 5e-324 * 2**1025 = 2**-49, though 2.0**1025 overflows.
        with pytest.warns(UserWarning):
            rate = HeuristicFailure(prefactor=5e-324).rate(2049, 0.02)
        assert rate == pytest.approx(math.ldexp(5e-324, 1025), rel=1e-9)

    @pytest.mark.parametrize("d, p, threshold", [(2045, 0.02, 1e-2), (227, 0.5, 1e-3)])
    def test_largest_powers_in_range_keep_their_formula(self, d, p, threshold):
        model = HeuristicFailure(threshold=threshold)
        with pytest.warns(UserWarning):
            assert model.rate(d, p) == min(1.0, 0.1 * (p / threshold) ** ((d + 1) // 2))

    @pytest.mark.parametrize("d", [2, 1, 4, 0])
    def test_invalid_distance(self, d):
        with pytest.raises(ValueError):
            HeuristicFailure().rate(d, 1e-3)
        with pytest.raises(ValueError):
            EmpiricalFailure(0.01, 100).rate(d, 1e-3)

    def test_empirical_rate_passthrough(self):
        assert EmpiricalFailure(0.0125, 25).rate(9, 1e-3) == 0.0125

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            AccuracyScaledFailure(base=HeuristicFailure(), alpha=0.0)
        with pytest.raises(ValueError):
            AccuracyScaledFailure(base=HeuristicFailure(), alpha=1.5)


class TestBinomialSurvival:
    def test_two_coin_flips(self):
        assert binomial_survival(2, 0.5, 0) == pytest.approx(0.75, rel=1e-12)

    def test_support_bounded(self):
        assert binomial_survival(10, 0.3, 10) == 0.0
        assert binomial_survival(10, 0.3, 25) == 0.0

    def test_negative_threshold_full_mass(self):
        assert binomial_survival(10, 0.3, -1) == 1.0

    def test_hand_summed_tail(self):
        expected = 1 - 0.75**4 - 4 * 0.25 * 0.75**3
        assert binomial_survival(4, 0.25, 1) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "n,q",
        [
            (100, 0.3),
            (1000, 0.001),
            (729, 1e-3 / 27),
            (10**6, 3e-5),
            (887503681, 1e-3 / 29791),  # d=31 quadratic-decoder scale
        ],
    )
    def test_matches_scipy_survival(self, n, q):
        mean = n * q
        width = max(5.0, 6 * math.sqrt(mean))
        checkpoints = sorted(
            {0, int(mean), int(mean + width), int(mean + 3 * width), n - 1}
        )
        for m in checkpoints:
            if m >= n:
                continue
            ours = binomial_survival(n, q, m)
            reference = float(stats.binom.sf(m, n, q))
            if reference > 1e-300:
                assert ours == pytest.approx(reference, rel=1e-9)
            else:
                assert ours <= 1e-300

    @pytest.mark.parametrize(
        "n,q,m,expected",
        [
            # Frozen from a 50-digit arbitrary-precision tail summation.
            (887503681, 3.3567184720217515e-08, 62, 7.9321661564196273e-8),
            (1000000000, 0.5, 500000000, 0.49998738433739305),
            (1000000, 3e-05, 60, 4.4824953934293032e-7),
            (1000, 0.9, 920, 0.013265229731767226),
        ],
    )
    def test_relative_accuracy_contract(self, n, q, m, expected):
        assert binomial_survival(n, q, m) == pytest.approx(expected, rel=1e-10)

    def test_non_increasing_in_threshold(self):
        values = [binomial_survival(50, 0.2, m) for m in range(-1, 51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_pmf_from_survival_differences_sums_to_one(self):
        for n, q in [(100, 0.3), (1000, 0.01)]:
            total = sum(
                binomial_survival(n, q, m - 1) - binomial_survival(n, q, m)
                for m in range(0, n + 1)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_tail_decay_with_fixed_mean(self, n):
        mean = 3.0
        q = mean / n
        assert binomial_survival(n, q, math.ceil(10 * mean)) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_survival(0, 0.5, 1)
        with pytest.raises(ValueError):
            binomial_survival(10, 0.0, 1)
        with pytest.raises(ValueError):
            binomial_survival(10, 1.0, 1)


class TestPaperDecoders:
    def test_quadratic_shape_at_d15(self):
        quadratic, _ = make_reference_decoders(15, 1e-3)
        runtime = quadratic.runtime
        assert mean_ns(runtime) == pytest.approx(3.375e3, rel=1e-12)  # 3.375 us
        assert max_runtime_ns(runtime) == 11390625 * 1000  # d**6 us
        assert isinstance(quadratic.failure, HeuristicFailure)

    def test_linear_shape_at_d15(self):
        _, linear = make_reference_decoders(15, 1e-3)
        runtime = linear.runtime
        assert runtime.trials == 844  # round(0.25 * 15**3)
        assert mean_ns(runtime) == pytest.approx(843.75, rel=1e-12)  # 0.84375 us

    @pytest.mark.parametrize("d", [3, 9, 15, 31])
    @pytest.mark.parametrize("p", [1e-4, 1e-3])
    def test_linear_failure_is_four_thirds(self, d, p):
        quadratic, linear = make_reference_decoders(d, p)
        assert linear.failure.rate(d, p) == pytest.approx(
            4 / 3 * quadratic.failure.rate(d, p), rel=1e-12
        )

    def test_linear_mean_preserved_exactly(self):
        for d in (3, 5, 7, 21):
            _, linear = make_reference_decoders(d, 1e-3)
            runtime = linear.runtime
            assert runtime.trials * runtime.step_probability == pytest.approx(
                0.25 * 1e-3 * d**3, rel=1e-15
            )

    def test_step_probability_out_of_range(self):
        # round(0.25 * 125) = 31 < 31.25 pushes Q above 1 for p close to 1
        with pytest.raises(ValueError):
            make_reference_decoders(5, 0.995)


class TestSampling:
    def metadata(self, shots):
        return TraceMetadata(
            distance=5, physical_error_rate=1e-3, shots=shots, sec_cycle_ns=1000
        )

    def test_instantaneous_all_zero(self):
        trace = sample_trace(
            InstantaneousRuntime(), HeuristicFailure(), d=5, p=1e-3, shots=1000, seed=4
        )
        assert list(trace.runtimes_ns) == [0]
        assert trace.shots == 1000

    def test_binomial_sample_mean_within_three_sigma(self):
        shots = 10**6
        trace = sample_trace(
            BinomialRuntime(trials=100, step_probability=0.3, unit_ns=1),
            EmpiricalFailure(0.01),
            d=5,
            p=1e-3,
            shots=shots,
            seed=11,
        )
        se = math.sqrt(100 * 0.3 * 0.7 / shots)
        assert abs(trace.mean_ns() - 30.0) < 3 * se

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            sample_trace(InstantaneousRuntime(), HeuristicFailure(), 5, 1e-3, 10, seed=-1)

    def test_shots_past_the_int64_trace_limit_refused_before_any_draw(self, monkeypatch):
        # Trace counts are int64; 1e20 shots used to loop over ~1e14 chunks.
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a chunk before checking shots")

        monkeypatch.setattr("stopcost.sampling._sample_chunk", no_draws)
        for shots in (2**63, 10**20):
            with pytest.raises(ValueError, match=rf"^shots must be below the 2\*\*63 trace limit, got {shots}$"):
                sample_trace(InstantaneousRuntime(), HeuristicFailure(), 5, 1e-3, shots, seed=0)

    def test_same_seed_reproduces(self):
        kwargs = dict(
            runtime=BinomialRuntime(trials=50, step_probability=0.2, unit_ns=10),
            failure=EmpiricalFailure(0.05),
            d=7,
            p=1e-3,
            shots=5000,
            seed=99,
        )
        assert sample_trace(**kwargs) == sample_trace(**kwargs)

    def test_different_seed_differs(self):
        kwargs = dict(
            runtime=BinomialRuntime(trials=50, step_probability=0.2, unit_ns=10),
            failure=EmpiricalFailure(0.05),
            d=7,
            p=1e-3,
            shots=5000,
        )
        assert sample_trace(seed=1, **kwargs) != sample_trace(seed=2, **kwargs)

    def test_chunked_generation_matches_serial(self):
        runtime = BinomialRuntime(trials=20, step_probability=0.4, unit_ns=1)
        shots = SAMPLE_CHUNK_SHOTS + 12345
        trace = sample_trace(
            runtime, EmpiricalFailure(0.1), d=5, p=1e-3, shots=shots, seed=3
        )
        r0, f0 = chunk_draws(runtime, 0.1, SAMPLE_CHUNK_SHOTS, 3, 0)
        r1, f1 = chunk_draws(runtime, 0.1, 12345, 3, 1)
        runtimes = np.concatenate([r0, r1])
        failed = np.concatenate([f0, f1])
        manual = trace_from_records(
            self.metadata(shots), zip(runtimes.tolist(), failed.tolist())
        )
        assert np.array_equal(trace.runtimes_ns, manual.runtimes_ns)
        assert np.array_equal(trace.counts, manual.counts)
        assert np.array_equal(trace.failed_counts, manual.failed_counts)

    def empirical_law(self, distinct):
        counts = 1 + np.arange(distinct) % 7
        trace = RuntimeTrace(
            self.metadata(int(counts.sum())),
            10 * np.arange(1, distinct + 1),
            counts,
            np.zeros(distinct, np.int64),
        )
        return EmpiricalRuntime(trace)

    @pytest.mark.parametrize(
        "runtime",
        [
            BinomialRuntime(trials=40, step_probability=0.5, unit_ns=3),
            BinomialRuntime(trials=10**6, step_probability=1e-3, unit_ns=1),
            InstantaneousRuntime(),
            3,
            300,
            70_000,
            BinomialRuntime(trials=10**12, step_probability=0.5, unit_ns=1),
            WIDENS_MID_CHUNK,
        ],
        ids=[
            "binomial-np-20",
            "binomial-np-1000",
            "instantaneous",
            "empirical",
            "empirical-300",
            "empirical-70000",
            "binomial-np-5e11",
            "binomial-widens",
        ],
    )
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, FLAG_SLICE_SHOTS - 1, FLAG_SLICE_SHOTS + 1, 200_001])
    def test_sliced_flags_match_one_shot_draws(self, runtime, rate, n):
        # numpy draws a binomial by inversion below n*p = 30 and by BTPE
        # above, which use the stream differently; the flags follow either.
        # The larger laws' codes need uint16, uint32 and uint64.
        if isinstance(runtime, int):
            runtime = self.empirical_law(runtime)
        sampler = runtime.sampler()
        seen = []

        def to_ns(codes):
            seen.append(codes)
            return sampler.to_ns(codes)

        got = _sample_chunk(sampler._replace(to_ns=to_ns), rate, n, 5, 2)
        runtimes, failed = chunk_draws(runtime, rate, n, 5, 2)
        want = aggregate_runtimes(runtimes, np.ones(n, np.int64), failed)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)
        (codes,) = seen  # the chunk's distinct codes, in the narrowest dtype
        assert codes.dtype == np.min_scalar_type(codes.max())

    def test_widening_law_widens_mid_chunk(self):
        # The premise of the binomial-widens case above: its first two
        # slices fit uint8 and its third does not.
        runtimes, _ = chunk_draws(WIDENS_MID_CHUNK, 0.0, 200_001, 5, 2)
        assert runtimes[: 2 * FLAG_SLICE_SHOTS].max() <= 255 < runtimes.max()

    def chunk_peak(self, runtime, shots):
        # tracemalloc peak of a warm chunk: imports, first calls and the
        # sampler's own set-up come before it.
        sampler = runtime.sampler()
        _sample_chunk(sampler, 1e-3, shots, 0, 0)
        tracemalloc.start()
        try:
            _sample_chunk(sampler, 1e-3, shots, 0, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chunk_peaks_below_three_bytes_per_shot(self):
        # The quadratic d = 15 law's codes fit one byte each; holding each
        # shot's runtime as int64 ns peaked at 9.02 bytes per shot.
        shots = 1 << 20
        assert self.chunk_peak(make_reference_decoders(15, 1e-3)[0].runtime, shots) < 3 * shots

    def test_empirical_chunk_peaks_below_twelve_bytes_per_shot(self):
        # 1e5 distinct runtimes need uint32 codes; drawing them all at once
        # by rng.choice, with the weights rebuilt per chunk, peaked at 25.5
        # bytes per shot.
        shots, distinct = 1 << 20, 100_000
        rng = np.random.default_rng(1)
        counts = rng.integers(1, 30, distinct)
        trace = RuntimeTrace(
            self.metadata(int(counts.sum())),
            1000 + np.cumsum(rng.integers(1, 50, distinct)),
            counts,
            rng.integers(0, counts + 1),
        )
        assert self.chunk_peak(EmpiricalRuntime(trace), shots) < 12 * shots

    def test_empirical_runtime_resampling(self):
        base = trace_from_records(
            self.metadata(4), [(10, False), (10, False), (30, True), (50, False)]
        )
        model = EmpiricalRuntime(base)
        trace = sample_trace(
            model, EmpiricalFailure(0.0), d=5, p=1e-3, shots=2000, seed=8
        )
        assert set(trace.runtimes_ns.tolist()) <= {10, 30, 50}
        assert trace.shots == 2000


class TestRuntimeModels:
    def test_binomial_survival_uses_completed_units(self):
        runtime = BinomialRuntime(trials=10, step_probability=0.5, unit_ns=1000)
        # 1500 ns of budget completes only a single 1000 ns unit.
        assert survival(runtime, 1500) == binomial_survival(10, 0.5, 1)
        assert survival(runtime, 10_000) == 0.0

    def test_instantaneous_contract(self):
        runtime = InstantaneousRuntime()
        assert survival(runtime, 0) == 0.0
        assert max_runtime_ns(runtime) == 0
        trace = sample_trace(runtime, HeuristicFailure(), d=5, p=1e-3, shots=3, seed=0)
        assert (trace.runtimes_ns.tolist(), trace.counts.tolist()) == ([0], [3])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BinomialRuntime(trials=0, step_probability=0.5)
        with pytest.raises(ValueError):
            BinomialRuntime(trials=10, step_probability=1.5)


class TestDecoderConfig:
    def test_binomial_config_roundtrip(self, tmp_path):
        cfg = {
            "name": "toy",
            "runtime": {"kind": "binomial", "N": 100, "Q": 0.25, "unit_ns": 500},
            "failure": {"kind": "heuristic", "A": 0.1, "B": 100},
        }
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(cfg))
        model = load_decoder_config(path)
        assert model.name == "toy"
        assert model.runtime == BinomialRuntime(100, 0.25, 500)
        assert model.failure.rate(3, 1e-3) == pytest.approx(1e-3, rel=1e-9)

    def test_accuracy_and_empirical_failures(self, tmp_path):
        for failure, expected in [
            ({"kind": "accuracy", "alpha": 0.5}, 2e-3),
            ({"kind": "empirical", "rate": 0.007, "events": 70}, 0.007),
        ]:
            path = tmp_path / "cfg.json"
            path.write_text(
                json.dumps({"runtime": {"kind": "instantaneous"}, "failure": failure})
            )
            model = load_decoder_config(path)
            assert model.failure.rate(3, 1e-3) == pytest.approx(expected, rel=1e-9)

    def test_empirical_runtime_config(self, tmp_path):
        trace_csv = tmp_path / "runs.csv"
        trace_csv.write_text("runtime_ns,count_total,count_failed\n100,9,0\n300,1,1\n")
        (tmp_path / "runs.json").write_text(
            json.dumps(
                {
                    "distance": 5,
                    "physical_error_rate": 1e-3,
                    "shots": 10,
                    "sec_cycle_ns": 1000,
                }
            )
        )
        cfg = tmp_path / "dec.json"
        cfg.write_text(
            json.dumps(
                {
                    "runtime": {"kind": "empirical", "trace": "runs.csv"},
                    "failure": {"kind": "empirical", "rate": 0.1, "events": 1},
                }
            )
        )
        model = load_decoder_config(cfg)
        assert isinstance(model.runtime, EmpiricalRuntime)
        assert model.runtime.trace.max_runtime_ns == 300

    def test_missing_sections_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"runtime": {"kind": "instantaneous"}}))
        with pytest.raises(ConfigError):
            load_decoder_config(path)
        path.write_text(
            json.dumps({"runtime": {"kind": "warp"}, "failure": {"kind": "heuristic"}})
        )
        with pytest.raises(ConfigError):
            load_decoder_config(path)

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"runtime": 5}, "'runtime' must be a JSON object, got int"),
            ({"failure": {"kind": "heuristic", "A": None}}, "key 'A': expected a number, got null"),
            ({"failure": {"kind": "accuracy", "alpha": True}}, "expected a number, got true"),
            ({"runtime": {"kind": "binomial", "N": 1.7, "Q": 0.25}}, "invalid integer '1.7'"),
            ({"runtime": {"kind": "binomial", "N": None, "Q": 0.25}}, "expected an integer, got null"),
            ({"runtime": {"kind": "binomial", "N": 100, "Q": 0.25, "unit_ns": False}},
             "expected an integer, got false"),
            ({"failure": {"kind": "empirical", "rate": 0.1, "events": 2.5}}, "invalid integer"),
            ({"runtime": {"kind": "instantaneous", "N": 100}}, "unknown key(s) in instantaneous runtime: N"),
            ({"failure": {"kind": "heuristic", "alpha": 0.5}}, "unknown key(s) in heuristic failure: alpha"),
            ({"extra": 1}, "unknown key(s) in the config: extra"),
            ({"runtime": {"kind": ["binomial"]}}, "unknown runtime model kind ['binomial']"),
            ({"runtime": {"kind": "empirical", "trace": 5}}, "key 'trace': expected a string, got int"),
            ({"name": None}, "'name' must be a string, got NoneType"),
            ({"runtime": {"kind": "binomial", "N": "100", "Q": 0.25}},
             "key 'N': expected an integer, got \"100\""),
            ({"runtime": {"kind": "binomial", "N": 100, "Q": "0.3"}},
             "key 'Q': expected a number, got \"0.3\""),
            ({"failure": {"kind": "heuristic", "A": 10**400}},
             "key 'A': expected a finite number, got inf"),
            ({"runtime": {"kind": "binomial", "N": 100, "Q": 1.5}},
             "step probability must be in (0, 1), got 1.5"),
            ({"failure": {"kind": "accuracy", "alpha": 2.0}}, "accuracy must be in (0, 1], got 2.0"),
            ({"failure": {"kind": "empirical", "rate": 0.1, "events": -1}},
             "failure_events must be >= 0, got -1"),
        ],
        ids=["runtime-not-object", "A-null", "alpha-bool", "N-fraction", "N-null",
             "unit-bool", "events-fraction", "unknown-runtime-key", "unknown-failure-key",
             "unknown-top-level-key", "kind-unhashable", "trace-not-string", "name-null",
             "N-string", "Q-string", "A-past-float-range", "Q-out-of-range", "alpha-out-of-range",
             "events-negative"],
    )
    def test_malformed_config_rejected(self, tmp_path, cfg, message):
        base = {
            "runtime": {"kind": "binomial", "N": 100, "Q": 0.25},
            "failure": {"kind": "heuristic"},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, **cfg}))
        with pytest.raises(ConfigError) as err:
            load_decoder_config(path)
        assert str(err.value).startswith(f"decoder config {path}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["A", "B"])
    def test_non_finite_tokens_rejected(self, tmp_path, token, key):
        # Once read as an all-inf table (exit 3): refused where it is read.
        path = tmp_path / "bad.json"
        path.write_text(
            '{"runtime": {"kind": "instantaneous"}, '
            f'"failure": {{"kind": "heuristic", "{key}": {token}}}}}'
        )
        with pytest.raises(ConfigError) as err:
            load_decoder_config(path)
        assert str(err.value) == (
            f"invalid decoder config JSON in {path}: {token} is not a JSON number"
        )

    @pytest.mark.parametrize(
        "content, detail",
        [(b'{"N": 1' + b"0" * 5000 + b"}", "(4300 digits)"), (b'{"N": \xff}', "0xff")],
        ids=["integer-past-digit-limit", "not-utf-8"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, content, detail):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError) as err:
            load_decoder_config(path)
        assert str(err.value).startswith(f"invalid decoder config JSON in {path}: ")
        assert detail in str(err.value)

    @pytest.mark.parametrize("top", [[1], "x", None])
    def test_config_must_be_an_object(self, tmp_path, top):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(top))
        with pytest.raises(ConfigError, match="the config must be a JSON object"):
            load_decoder_config(path)

    def test_integral_float_and_exponent_counts_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"runtime": {"kind": "binomial", "N": 1e2, "Q": 0.25, "unit_ns": 500.0},'
            ' "failure": {"kind": "heuristic"}}'
        )
        assert load_decoder_config(path).runtime == BinomialRuntime(100, 0.25, 500)


class TestRecords:
    """Every record type: a NamedTuple, except the fieldless
    InstantaneousRuntime, and read-only either way."""

    @staticmethod
    def record_types():
        import stopcost
        import stopcost.cli

        exported = [getattr(stopcost, name) for name in stopcost.__all__]
        return [
            cls
            for cls in [stopcost.cli.RunConfig, *exported]
            if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")
        ]

    def test_assigning_a_field_raises(self):
        types = self.record_types()
        assert len(types) == 16
        for cls in types:
            record = cls._make(range(len(cls._fields)))
            for field in cls._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.not_a_field = None
        with pytest.raises(AttributeError):
            InstantaneousRuntime().not_a_field = None

    def test_validated_records_keep_their_values(self):
        assert HeuristicFailure(0.2, 0.5).prefactor == 0.2
        assert FITTED_MATCHING_FAILURE.prefactor == 0.04
        assert BinomialRuntime(7, 0.5, 3)[2] == BinomialRuntime(7, 0.5, 3).unit_ns == 3
        assert repr(EmpiricalFailure(0.25)) == (
            "EmpiricalFailure(failure_rate=0.25, failure_events=0)"
        )

    @pytest.mark.parametrize(
        "cls, good, bad",
        [
            (GateSchedule, {"h_cycles": 1}, {"h_cycles": 0}),
            (HeuristicFailure, {"prefactor": 0.2}, {"prefactor": -1.0}),
            (AccuracyScaledFailure, {"base": HeuristicFailure(), "alpha": 0.5},
             {"base": HeuristicFailure(), "alpha": 2.0}),
            (EmpiricalFailure, {"failure_rate": 0.25, "failure_events": 3},
             {"failure_rate": 0.25, "failure_events": -1}),
            (BinomialRuntime, {"trials": 7, "step_probability": 0.5},
             {"trials": 0, "step_probability": 0.5}),
            (TraceMetadata, {"distance": 5, "physical_error_rate": 1e-3, "shots": 10,
                             "sec_cycle_ns": 1000},
             {"distance": 5, "physical_error_rate": 1e-3, "shots": 10, "sec_cycle_ns": 0}),
        ],
        ids=["GateSchedule", "HeuristicFailure", "AccuracyScaledFailure", "EmpiricalFailure",
             "BinomialRuntime", "TraceMetadata"],
    )
    def test_checked_records(self, cls, good, bad):
        # A bad value is refused by keyword and by position, and a good one
        # survives pickling and copying as the same read-only value.
        with pytest.raises(ValueError):
            cls(**bad)
        positional = [bad.get(field, cls._field_defaults.get(field)) for field in cls._fields]
        with pytest.raises(ValueError):
            cls(*positional)
        record = cls(**good)
        for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(clone) is cls and clone == record and repr(clone) == repr(record)
            assert hash(clone) == hash(record)
            with pytest.raises(AttributeError):
                setattr(clone, cls._fields[0], None)

    def test_instantaneous_runtime_is_a_true_value(self):
        runtime = InstantaneousRuntime()
        assert runtime and runtime == InstantaneousRuntime()
        assert hash(runtime) == hash(InstantaneousRuntime())
        assert repr(DecoderModel("x", runtime, HeuristicFailure())) == (
            "DecoderModel(name='x', runtime=InstantaneousRuntime(), "
            "failure=HeuristicFailure(prefactor=0.1, threshold=0.01))"
        )
