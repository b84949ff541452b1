"""Strict values: command-line integers, range checks and JSON files.

The command line, the settings file, decoder configs and trace sidecars
read their values here, so a value is refused the same way wherever it
arrives.  The range rules (a distance, a probability, a lower bound such
as ``n_T >= 1``, the 2**63 trace limit) are each stated once here, for the
library and the CLI alike, and :func:`checked` makes a record run its own
checks whenever it is built.  This module imports only the standard
library and :mod:`stopcost.errors`, so every command can load it.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Iterable

from .errors import ConfigError

if TYPE_CHECKING:
    from pathlib import Path

# Trace integers (runtimes in ns, counts) are int64 and so below 2**63.
INT64_MAX = 2**63 - 1

_INTEGER_RE = re.compile(r"([+-]?)([0-9]+)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")
# CPython's default limit on the digits of int(str); it also bounds the
# exponent form, so "1e999999999" is refused instead of built.
MAX_INTEGER_DIGITS = 4300


def _validate_distance(d: int, name: str = "distance") -> None:
    if d < 3 or d % 2 == 0:
        raise ValueError(f"{name} must be an odd integer >= 3, got {d}")


def _validate_probability(p: float, name: str) -> float:
    if not 0.0 < p < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {p}")
    return p


def at_least(value, low: int, name: str):
    """``value``, if it is at least ``low``; else a ``ValueError`` that
    names it."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def below_int64(value: int, name: str) -> int:
    """``value``, if it fits a trace's int64; else a ``ValueError`` that names it."""
    if value > INT64_MAX:
        raise ValueError(f"{name} must be below the 2**63 trace limit, got {value}")
    return value


def checked(record):
    """Class decorator: each new ``record``, a NamedTuple class, runs its
    ``_check(self)``, which raises ``ValueError`` for a value outside its
    domain.  ``copy`` and ``pickle`` (protocol 2 and up) build through the
    same ``__new__``; ``_make`` and ``_replace`` call ``tuple.__new__``, so
    they skip the check."""
    make = record.__new__

    def __new__(cls, *args, **kwargs):
        self = make(cls, *args, **kwargs)
        self._check()
        return self

    record.__new__ = __new__
    return record


def integer(text: str) -> int:
    """Parse an integer strictly.

    Accepts plain integers and ``1e6``-style values that are exactly
    integral, computed in integers so nothing is lost above 2**53;
    anything else (``1.7``, ``nan``, ``1e-3``) raises ``ValueError``.
    """
    match = _INTEGER_RE.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"invalid integer {text!r}")
    sign, whole, fraction, exponent = match.groups()
    digits = whole + (fraction or "")
    shift = int(exponent or 0) - len(fraction or "")  # value = digits * 10**shift
    if len(digits) + max(shift, 0) > MAX_INTEGER_DIGITS:
        raise ValueError(f"invalid integer {text!r}: more than {MAX_INTEGER_DIGITS} digits")
    if shift >= 0:
        value = int(digits) * 10**shift
    else:
        # An n-digit mantissa is below 10**n, so any deeper shift leaves it
        # all as remainder; capping the divisor keeps 1e-999999999 cheap.
        value, rest = divmod(int(digits), 10 ** min(-shift, len(digits)))
        if rest:
            raise ValueError(f"invalid integer {text!r}: not a whole number")
    return -value if sign == "-" else value


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_integer(value) -> int:
    """A JSON number read by :func:`integer`, so a whole float such as
    ``1e6`` passes; strings, ``null`` and booleans fail."""
    if not _is_json_number(value):
        import json

        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return integer(str(value))


def json_number(value) -> float:
    """A JSON number as a finite float; strings, ``null``, booleans and
    non-finite numbers (``1e999`` reads as inf) fail."""
    if not _is_json_number(value):
        import json

        raise ValueError(f"expected a number, got {json.dumps(value)}")
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {number}")
    return number


def json_string(value) -> str:
    """A JSON string; any other value fails."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {type(value).__name__}")
    return value


def json_object(raw, what: str) -> dict:
    """``raw`` if it is a JSON object; ``what`` names it in the error."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(raw).__name__}")
    return raw


def read_json(path: str | Path, what: str):
    """The JSON document in ``path``.  A syntax error, text that is not
    UTF-8, an integer past Python's digit limit, nesting past the
    interpreter's recursion limit or one of the non-standard ``NaN``,
    ``Infinity`` and ``-Infinity`` tokens names ``what`` and the path."""
    import json

    def refuse(token: str):
        raise ValueError(f"{token} is not a JSON number")

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_constant=refuse)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid {what} JSON in {path}: {exc}") from exc


def json_fields(raw, parsers: dict, what: str, required: Iterable[str] = ()) -> dict:
    """The JSON object ``raw`` with each value read by its key's parser.

    A key outside ``parsers`` or a missing ``required`` key is refused,
    and a value its parser rejects is reported under its key; ``what``
    names the object in every error.
    """
    raw = json_object(raw, what)
    unknown = sorted(set(raw) - set(parsers))
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {what}: {', '.join(unknown)}; known: {', '.join(parsers)}"
        )
    missing = [key for key in required if key not in raw]
    if missing:
        raise ConfigError(f"missing key(s) in {what}: {', '.join(missing)}")
    values = {}
    for key, parse in parsers.items():
        if key in raw:
            try:
                values[key] = parse(raw[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{what} key {key!r}: {exc}") from exc
    return values
