"""The ``synth`` command: sample a synthetic trace and write it with its sidecar."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .command import _atomic_path, nonempty
from .errors import ConfigError
from .values import integer

if TYPE_CHECKING:
    import argparse

    from .cli import RunConfig
    from .models import DecoderFactory, DecoderModel


def cmd_synth(
    args: argparse.Namespace, config: RunConfig, trace: None, model: DecoderModel | DecoderFactory
) -> None:
    if args.out is None:
        raise ConfigError("synth requires --out for the trace file")
    out_path = Path(args.out)
    meta_path = out_path.with_suffix(".json")
    if meta_path == out_path:
        raise ConfigError(f"synth --out {args.out} would be overwritten by its .json sidecar")
    from .models import _model_at, sample_trace
    from .trace import check_per_shot_rows, write_metadata, write_trace_csv

    model = _model_at(model, args.d)
    if model.measured_distance not in (None, args.d):
        raise ConfigError(
            f"synth --model {args.model}: its empirical runtime was not measured at --d {args.d}"
        )
    if args.per_shot:
        check_per_shot_rows(args.shots)  # before sampling, not after
    trace = sample_trace(
        model.runtime,
        model.failure,
        d=args.d,
        p=args.p,
        shots=args.shots,
        seed=config.seed,
        sec_cycle_ns=config.t_sec_ns,
    )
    # The sidecar is renamed into place first, so a reader never pairs a
    # new trace with an old sidecar; either write failing leaves both as
    # they were.
    with _atomic_path(out_path) as trace_tmp, _atomic_path(meta_path) as meta_tmp:
        write_trace_csv(trace, trace_tmp, per_shot=args.per_shot)
        write_metadata(trace.metadata, meta_tmp)


def _add_synth(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=nonempty, required=True, help="quadratic, linear, instantaneous, or a decoder config JSON")
    parser.add_argument("--d", type=integer, required=True, help="code distance")
    parser.add_argument("--p", type=float, required=True, help="physical error rate")
    parser.add_argument("--shots", type=integer, required=True, help="number of shots")
    parser.add_argument("--per-shot", dest="per_shot", action="store_true", help="write per-shot rows instead of a histogram")
    parser.add_argument("--out", type=nonempty, default=None, help="trace CSV to write (required), with its .json metadata sidecar; both written atomically")
