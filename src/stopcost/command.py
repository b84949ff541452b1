"""What the CLI's core and its command modules share.  None of them imports
``cli`` at run time: ``python -m stopcost.cli`` runs it as ``__main__``."""

from __future__ import annotations

import argparse
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from .values import integer

BUILTIN_DECODERS = ("quadratic", "linear", "instantaneous")


class Table(NamedTuple):
    """A subcommand's result, which ``main`` renders and writes.

    ``columns`` is what :func:`stopcost.cli.render_table` takes, with
    ``rows`` the row count of a block function.  ``infeasible`` is the
    reason the analysis has no feasible answer, if it has none: the table
    is still written, then the call exits 3.
    """

    columns: dict | Callable[[int, int], dict]
    extras: dict | None = None
    infeasible: str | None = None
    rows: int | None = None


@contextmanager
def _atomic_path(out_path: Path) -> Iterator[str]:
    """A temp file beside ``out_path``, renamed over it if the block succeeds.

    The temp file comes from ``mkstemp``, so every output gets its 0600
    mode; on any failure it is removed and ``out_path`` is left untouched.
    A temp file that cannot be made or renamed is reported under
    ``out_path``'s name.
    """
    import tempfile

    try:
        fd, tmp_name = tempfile.mkstemp(
            dir=out_path.parent, prefix=out_path.name, suffix=".tmp"
        )
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(out_path)) from None
    os.close(fd)
    try:
        yield tmp_name
        try:
            os.replace(tmp_name, out_path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(out_path)) from None
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _parse_list(text: str, parse: Callable = integer) -> list:
    """A comma list of at least one value, each read by ``parse``."""
    values = [parse(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"empty {'integer' if parse is integer else 'float'} list {text!r}")
    return values


def nonempty(text: str) -> str:
    """A file path or decoder name argument, which must not be empty."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _add_trace_inputs(parser: argparse.ArgumentParser, source=None) -> None:
    """The trace flags, ``--trace`` required or else in ``source``'s exclusive group."""
    (source or parser).add_argument("--trace", type=nonempty, required=source is None, help="trace CSV (per-shot or histogram layout)")
    parser.add_argument("--meta", type=nonempty, default=None, help="metadata sidecar JSON (default: trace path with .json)")
    parser.add_argument("--distance", type=integer, default=None, help="override metadata distance")
    parser.add_argument("--p", type=float, default=None, help="override metadata physical error rate")
    parser.add_argument("--shots", type=integer, default=None, help="override metadata shot count")
    parser.add_argument("--sec-cycle-ns", dest="sec_cycle_ns", type=integer, default=None, help="override metadata SEC cycle time")
