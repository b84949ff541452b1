"""Numerals: the shortest round-trip decimals of a numeric block, in numpy.

:func:`format_rows` writes a block of numpy integer and float columns as
text when it can write every cell, and gives the block up otherwise.  It
writes the CLI's ``stop`` and ``range`` curves and
:func:`stopcost.trace.write_trace_csv`'s histogram rows, and only those
calls load this module.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .values import INT64_MAX

# _DECADES[i - 1] = 1e(i - 9): a float's decade index i, its insertion point
# in this table, puts it in [1e(i - 9), 1e(i - 8)).  Indices 1-23 (1e-8 up
# to 1e15) and zero are the kernel's domain.
_DECADES = np.array([float(f"1e{k}") for k in range(-8, 16)])
# _SCALES[i] = 10.0**(23 - i) for the domain's indices, exact as doubles
# (up to 1e22), and 1 outside it.
_SCALES = np.array([1.0] + [float(10 ** (23 - i)) for i in range(1, 24)] + [1.0])
# Zero is read in 1's decade, as c = 0 with 15 trailing zeros stripped, which
# the layout of exponent 0 writes as repr's 0.0.
_ZERO_DECADE = 9
_INT_POWERS = np.array([10**k for k in range(19)], dtype=np.int64)
# The bytes a float's text takes besides its 15 digits.
_FLOAT_CONSTANTS = np.frombuffer(b"0.e-\x005678", dtype=np.uint8)


def format_rows(
    columns: Sequence[np.ndarray],
    row_start: str,
    between_cells: str,
    row_end: str,
) -> str | None:
    """The rows of equal-length numeric columns as text, each row
    ``row_start``, its cells joined by ``between_cells``, then ``row_end``.

    A float cell is ``repr``'s shortest round-trip decimal and an integer
    cell its digits.  When the numpy kernel can write every cell of the
    block (see :func:`_float_text` and :func:`_int_text`), it writes them
    all at once in one uint8 matrix of NUL-padded cells and separators;
    for any other block it returns None.
    """
    rows = len(columns[0])

    def constant(text: str) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(text.encode(), dtype=np.uint8), (rows, len(text)))

    texts = [None] * len(columns)
    # Float columns first: they are the ones the kernel may not write.
    for j in sorted(range(len(columns)), key=lambda j: columns[j].dtype.kind != "f"):
        texts[j] = (_float_text if columns[j].dtype.kind == "f" else _int_text)(columns[j])
        if texts[j] is None:
            return None
    parts = [constant(row_start)]
    for text in texts:
        parts += [text, constant(between_cells)]
    parts[-1] = constant(row_end)
    return np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode()


def _float_text(column: np.ndarray) -> np.ndarray | None:
    """Floats as ``repr`` writes them, one NUL-padded row each, or None
    unless every one is zero or lies from 1e-8 up to 1e15 in size and has
    a shortest decimal of at most 15 significant digits.  Rates of a
    power-of-ten shot count (k / 10**6) all do; those of most other shot
    counts mostly need 16 or 17 digits.

    With ``a = |x|`` in the decade of exponent e, the candidate is the
    integer c nearest ``a * 10**q``, q = 14 - e.  The one check
    ``c / 10.0**q == a`` is exact: c and ``10.0**q`` (q <= 22) are exact
    doubles, so the division is the correctly rounded parse of the decimal
    c * 10**-q.  As c < 10**15, a's rounding interval is narrower than
    10**-q, so it holds at most one multiple of 10**-q; ``repr``'s
    shortest decimal, of no more digits than c, is one, so it is c
    without c's trailing zeros.  When a c passes, ``a * 10**q`` is within
    0.23 of it, so the nearest integer is the one candidate.  The layout
    (sign, point, exponent) follows from the digits alone, so a decade
    read one too high still writes the right text, and one read too low
    fails the check.
    """
    x = column.astype(np.float64, copy=False)
    a = np.abs(x)
    decade = np.searchsorted(_DECADES, a, side="right")  # nan sorts last
    decade[a == 0] = _ZERO_DECADE
    if not ((decade > 0) & (decade < len(_DECADES))).all():
        return None
    scale = _SCALES[decade]
    digits = (a * scale + 0.5).astype(np.int64)
    if not ((digits < 10**15) & (digits / scale == a)).all():
        return None
    exponent = decade - 24  # c's decimal exponent, once its digit count is added
    for k in (8, 4, 2, 1):  # strip c's trailing zeros, at most 14 (15 for zero)
        higher = digits // 10**k
        exact = higher * 10**k == digits
        np.copyto(digits, higher, where=exact)
        np.add(exponent, k, out=exponent, where=exact)
    count = np.searchsorted(_INT_POWERS, digits, side="right")
    exponent += count
    layout = (exponent + 8) * 16 + count
    # The digits and constants, one column per cell, which each cell's
    # layout picks its bytes from.
    source = np.empty((15 + len(_FLOAT_CONSTANTS), len(x)), np.uint8)
    source[15:] = _FLOAT_CONSTANTS[:, None]
    _digits(digits, source[:15].T)
    layouts, lengths = _float_layouts()
    width = lengths[layout].max(initial=0)
    index = layouts[:, :width].take(layout, axis=0)
    index *= len(x)
    index += np.arange(len(x))[:, None]
    text = np.empty((len(x), width + 1), np.uint8)
    text[:, 0] = 0
    text[np.signbit(x), 0] = ord("-")
    text[:, 1:] = source.ravel().take(index)
    return text


@functools.cache
def _float_layouts() -> tuple[np.ndarray, np.ndarray]:
    """Row ``(e + 8) * 16 + n`` is the text of a positive float with decimal
    exponent e (-8 to 14) and n significant digits, as the rows of its 15
    right-aligned digits and then ``_FLOAT_CONSTANTS`` that it takes,
    NUL-padded: positional with at least one digit after the point for
    e >= -4, else ``d[.ddd]e-0X``, as ``repr`` writes them.  With each
    row's length."""
    zero, point, mark, minus, nul = range(15, 20)
    rows = []
    for e in range(-8, 15):
        for n in range(16):
            digits = list(range(15 - n, 15))
            if e < -4:
                rows.append(digits[:1] + [point] * (n > 1) + digits[1:] + [mark, minus, zero, 15 - e])
                continue
            run = [zero] * -e + digits
            whole = max(e, 0) + 1
            run += [zero] * (whole + 1 - len(run))
            rows.append(run[:whole] + [point] + run[whole:])
    width = max(map(len, rows))
    layouts = np.array([row + [nul] * (width - len(row)) for row in rows], dtype=np.intp)
    return layouts, np.array(list(map(len, rows)))


def _int_text(column: np.ndarray) -> np.ndarray | None:
    """Integers as digits, by repeated floor division, one NUL-padded row
    each, or None if one is int64's minimum or a uint64 above int64."""
    if column.dtype.kind == "u":
        fast = column <= np.uint64(INT64_MAX)  # compared as uint64 under numpy 1.x too
    else:
        fast = column > -INT64_MAX - 1
    if not fast.all():
        return None
    values = column.astype(np.int64)
    negative = values < 0
    np.negative(values, out=values, where=negative)
    text = np.empty((len(values), 20), np.uint8)
    first = _digits(values, text[:, 1:])
    text[:, first] = 0  # the column left of the digits
    text[negative, first] = ord("-")
    return text[:, first:]


def _digits(values: np.ndarray, out: np.ndarray) -> int:
    """Write the decimal digits of non-negative ``values`` right-aligned in
    the rows of ``out``, by repeated floor division until every value is
    used up, and return the first column written: from there, a row is NUL
    up to its value's digits.  The columns left of it are not written."""
    col = out.shape[1] - 1
    while True:
        higher = values // 10
        digit = values - higher * 10
        digit += ord("0")
        if col < out.shape[1] - 1:
            np.copyto(digit, 0, where=values == 0)
        out[:, col] = digit
        values = higher
        if not values.any() or not col:
            return col
        col -= 1
