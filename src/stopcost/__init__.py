"""Stopping-time, range, and spacetime-cost analysis for surface code decoders.

Given a decoder's runtime/failure statistics, measured as traces or given
as analytic models, this package computes the optimal decoder stopping
time, the reliable logical T-depth it supports (the decoder's range), and
the minimum spacetime cost per logical workload, enabling quantitative
selection between decoders for a fault-tolerant architecture.
"""

from .cost import (
    CompareRow,
    CostPoint,
    MinCostResult,
    StoppingCandidate,
    compare_decoders,
    min_spacetime_cost,
    min_spacetime_costs,
    spacetime_cost,
    stopping_candidates,
)
from .errors import ConfigError, InfeasibleError, TraceIntegrityError, TraceParseError
from .models import (
    FITTED_MATCHING_FAILURE,
    AccuracyScaledFailure,
    BinomialRuntime,
    DecoderModel,
    EmpiricalFailure,
    EmpiricalRuntime,
    FailureModel,
    HeuristicFailure,
    InstantaneousRuntime,
    RuntimeModel,
    binomial_survival,
    load_decoder_config,
    make_reference_decoders,
    sample_trace,
)
from .ranges import (
    GateSchedule,
    RangeCurve,
    RangeResult,
    RequiredDistance,
    accuracy_surface,
    decoder_range,
    delay_cycles,
    range_curve,
    range_optimized_stopping_time,
    required_distance,
    sec_depth,
    unencoded_range,
)
from .stopping import (
    InterruptedStats,
    StoppingCurve,
    interrupted_distribution,
    interrupted_failure_bound,
    interrupted_failure_exact,
    significant_stopping_times,
    stopping_curve,
)
from .trace import (
    EmpiricalRuntimeDistribution,
    RuntimeTrace,
    TraceMetadata,
    build_distribution,
    load_metadata,
    parse_trace,
    write_metadata,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyScaledFailure",
    "BinomialRuntime",
    "CompareRow",
    "ConfigError",
    "CostPoint",
    "DecoderModel",
    "EmpiricalFailure",
    "EmpiricalRuntime",
    "EmpiricalRuntimeDistribution",
    "FITTED_MATCHING_FAILURE",
    "FailureModel",
    "GateSchedule",
    "HeuristicFailure",
    "InfeasibleError",
    "InstantaneousRuntime",
    "InterruptedStats",
    "MinCostResult",
    "RangeCurve",
    "RangeResult",
    "RequiredDistance",
    "RuntimeModel",
    "RuntimeTrace",
    "StoppingCandidate",
    "StoppingCurve",
    "TraceIntegrityError",
    "TraceMetadata",
    "TraceParseError",
    "accuracy_surface",
    "binomial_survival",
    "build_distribution",
    "compare_decoders",
    "decoder_range",
    "delay_cycles",
    "interrupted_distribution",
    "interrupted_failure_bound",
    "interrupted_failure_exact",
    "load_decoder_config",
    "load_metadata",
    "make_reference_decoders",
    "min_spacetime_cost",
    "min_spacetime_costs",
    "parse_trace",
    "range_curve",
    "range_optimized_stopping_time",
    "required_distance",
    "sample_trace",
    "sec_depth",
    "significant_stopping_times",
    "spacetime_cost",
    "stopping_candidates",
    "stopping_curve",
    "unencoded_range",
    "write_metadata",
    "write_trace_csv",
]
