"""Stopping-time, range, and spacetime-cost analysis for surface code decoders.

Given a decoder's runtime/failure statistics, measured as traces or given
as analytic models, this package computes the optimal decoder stopping
time, the reliable logical T-depth it supports (the decoder's range), and
the minimum spacetime cost per logical workload, enabling quantitative
selection between decoders for a fault-tolerant architecture.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Names load on first access
# (PEP 562), so importing the package, or running ``python -m stopcost.cli``,
# imports no submodule, and numpy only with the trace modules that need it.
_EXPORTS = {
    "AccuracyScaledFailure": "models",
    "BinomialRuntime": "models",
    "CompareRow": "cost",
    "ConfigError": "errors",
    "DecoderModel": "models",
    "EmpiricalFailure": "models",
    "EmpiricalRuntime": "models",
    "FITTED_MATCHING_FAILURE": "models",
    "FailureModel": "models",
    "GateSchedule": "ranges",
    "HeuristicFailure": "models",
    "InfeasibleError": "errors",
    "InstantaneousRuntime": "models",
    "MinCostResult": "cost",
    "RangeCurve": "stopping",
    "RangeResult": "ranges",
    "RequiredDistance": "budget",
    "RuntimeModel": "models",
    "RuntimeTrace": "trace",
    "StoppingCandidate": "cost",
    "StoppingCurve": "stopping",
    "TraceIntegrityError": "errors",
    "TraceMetadata": "trace",
    "TraceParseError": "errors",
    "accuracy_surface": "budget",
    "binomial_survival": "models",
    "compare_decoders": "cost",
    "decoder_range": "ranges",
    "delay_cycles": "ranges",
    "load_decoder_config": "decoder_config",
    "load_metadata": "trace",
    "make_reference_decoders": "models",
    "min_spacetime_costs": "cost",
    "parse_trace": "trace",
    "range_curve": "stopping",
    "required_distance": "budget",
    "sample_trace": "models",
    "sec_depth": "ranges",
    "stopping_candidates": "cost",
    "stopping_curve": "stopping",
    "unencoded_range": "ranges",
    "write_metadata": "trace",
    "write_trace_csv": "trace",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
