"""A decoder model from its JSON config file, loaded only when a decoder source names one."""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .models import AccuracyScaledFailure, BinomialRuntime, DecoderModel, EmpiricalFailure
from .models import EmpiricalRuntime, FailureModel, HeuristicFailure, InstantaneousRuntime, RuntimeModel
from .values import json_fields, json_integer, json_number, json_object, json_string, read_json


# Section -> kind -> the known keys besides "kind", each with the parser of
# its JSON value.
DECODER_CONFIG_KEYS = {
    "runtime": {
        "binomial": {"N": json_integer, "Q": json_number, "unit_ns": json_integer},
        "instantaneous": {},
        "empirical": {"trace": json_string, "meta": json_string},
    },
    "failure": {
        "heuristic": {"A": json_number, "B": json_number},
        "accuracy": {"alpha": json_number},
        "empirical": {"rate": json_number, "events": json_integer},
    },
}


# The keys a kind must set, by the name its errors give the section.
_REQUIRED_KEYS = {
    "binomial runtime": ("N", "Q"),
    "empirical runtime": ("trace",),
    "accuracy failure": ("alpha",),
    "empirical failure": ("rate",),
}


def _config_section(raw, section: str) -> tuple[str, dict]:
    # (kind, parsed values) of one section; a missing optional key is absent.
    kinds = DECODER_CONFIG_KEYS[section]
    kind = json_object(raw, repr(section)).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {section} model kind {kind!r}")
    what = f"{kind} {section}"
    parsers = {"kind": str, **kinds[kind]}
    return kind, json_fields(raw, parsers, what, _REQUIRED_KEYS.get(what, ()))


def _build(model, **fields):
    # A model made from config values: its own range checks are config errors.
    try:
        return model(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _failure_from_config(raw) -> FailureModel:
    kind, cfg = _config_section(raw, "failure")
    if kind == "heuristic":
        scale = cfg.get("B", 100.0)
        if scale <= 0:
            raise ConfigError(f"heuristic B must be positive, got {scale}")
        return _build(HeuristicFailure, prefactor=cfg.get("A", 0.1), threshold=1.0 / scale)
    if kind == "accuracy":
        return _build(AccuracyScaledFailure, base=HeuristicFailure(), alpha=cfg["alpha"])
    return _build(EmpiricalFailure, failure_rate=cfg["rate"], failure_events=cfg.get("events", 0))


def _runtime_from_config(raw, base_dir: Path) -> RuntimeModel:
    kind, cfg = _config_section(raw, "runtime")
    if kind == "binomial":
        return _build(
            BinomialRuntime,
            trials=cfg["N"],
            step_probability=cfg["Q"],
            unit_ns=cfg.get("unit_ns", 1000),
        )
    if kind == "instantaneous":
        return InstantaneousRuntime()
    from .trace import parse_trace

    trace_path = base_dir / cfg["trace"]
    if "meta" in cfg:
        meta_path = base_dir / cfg["meta"]
    else:
        meta_path = trace_path.with_suffix(".json")
    return EmpiricalRuntime(parse_trace(trace_path, meta_path))


def load_decoder_config(path: str | Path) -> DecoderModel:
    """Load a decoder model from its JSON description.

    Each section is a JSON object whose keys must be known for its
    ``kind``; integers are read strictly, and ``null`` or a boolean is
    refused where a number belongs.  Relative trace paths inside the
    config resolve against the config file's directory; the metadata
    sidecar defaults to the trace path with a ``.json`` suffix.
    """
    path = Path(path)
    raw = read_json(path, "decoder config")
    try:
        sections = dict.fromkeys(("name", "runtime", "failure"), lambda value: value)
        cfg = json_fields(raw, sections, "the config", required=("runtime", "failure"))
        name = cfg.get("name", path.stem)
        if not isinstance(name, str):
            raise ConfigError(f"'name' must be a string, got {type(name).__name__}")
        return DecoderModel(
            name=name,
            runtime=_runtime_from_config(cfg["runtime"], path.parent),
            failure=_failure_from_config(cfg["failure"]),
        )
    except ConfigError as exc:
        raise ConfigError(f"decoder config {path}: {exc}") from exc
