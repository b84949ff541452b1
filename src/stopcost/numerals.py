"""Numerals: the shortest round-trip decimals of a numeric block, in numpy.

:func:`format_rows` writes a block of numpy integer and float columns as
text when it can write every cell, and gives the block up otherwise.  It
writes the CLI's ``stop`` and ``range`` curves and
:func:`stopcost.trace.write_trace_csv`'s histogram rows, and only those
calls load this module.  A column costs a fixed number of numpy calls,
however long its numerals: a value's digits are read four at a time from
a table of the 10**4 four-digit strings (:func:`_words`), and its text is
gathered from them by its layout (:func:`_gather`).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

import numpy as np

from .values import INT64_MAX

# _DECADES[i - 1] = 1e(i - 9): a float's decade index i, its insertion point
# in this table, puts it in [1e(i - 9), 1e(i - 8)).  Indices 1-23 (1e-8 up
# to 1e15) are the kernel's domain; 0 holds zero and the sizes below 1e-8,
# which fail the exact check.  A binade holds at most one power of ten, so
# i is _BINADES[b], the index of 2**(b - 1023), for a float of biased
# exponent b, plus one if the float is at least _DECADES[_BINADES[b]].
_DECADES = np.array([float(f"1e{k}") for k in range(-8, 16)] + [np.inf])
_BINADES = np.searchsorted(np.log2(_DECADES), np.arange(-1023, 1025), side="right")
# _SCALES[i] = 10.0**(23 - i), exact as doubles (up to 1e22), and 1 for 0.
_SCALES = np.array([1.0] + [float(10 ** (23 - i)) for i in range(1, 24)])
# An integer's insertion point here gives its sign and digit count.
_INT_STARTS = np.array([1 - 10**k for k in range(18, 0, -1)] + [0] + [10**k for k in range(1, 19)])
# Each digit group's weight in a float's trailing zeros; the words after a
# value's digits (:func:`_words`), and the positions of their bytes.
_GROUP_ZEROS = np.array([[16], [12], [8], [4], [0]], dtype=np.uint8)
_CONSTANTS = np.frombuffer(b".e-\0" b"5678", np.uint32)[:, None]
_POINT, _MARK, _MINUS, _NUL = range(20, 24)


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
    into one uint8 matrix of NUL-padded cells and separators; for any other
    block it returns None.  A column with the dtype and the bytes of an
    earlier column (so not ``0.0`` for ``-0.0``) reuses that column's text.
    """
    keys = [(column.dtype, column.tobytes()) for column in columns]
    first = [keys.index(key) for key in keys]
    del keys
    texts = [None] * len(columns)
    # Float columns first: they are the ones the kernel may not write.
    for j in sorted(set(first), key=lambda j: columns[j].dtype.kind != "f"):
        texts[j] = (_float_text if columns[j].dtype.kind == "f" else _int_text)(columns[j])
        if texts[j] is None:
            return None
    cells = [texts[j] for j in first]
    start, between = row_start.encode(), between_cells.encode()
    row = start + between.join(bytes(cell.shape[1]) for cell in cells) + row_end.encode()
    block = np.empty((len(columns[0]), len(row)), np.uint8)
    block[:] = np.frombuffer(row, np.uint8)
    at = len(start)
    for cell in cells:
        block[:, at : at + cell.shape[1]] = cell
        at += cell.shape[1] + len(between)
    # The texts, the matrix and its text are let go in turn.  (Deleting the
    # NULs from bytes, by translate, grew the heap by ~3 MiB over a curve.)
    del texts, cells
    text = str(block, "utf-8")
    del block
    return text.replace("\0", "")


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
    c * 10**-q.  A c that passes has 15 digits (10**15 would parse to the
    next decade), so a's rounding interval is narrower than 10**-q and
    holds at most one multiple of 10**-q; ``repr``'s shortest decimal, of
    no more digits than c, is one, so it is c without c's trailing zeros.
    When a c passes, ``a * 10**q`` is within 0.23 of it, so the nearest
    integer is the one candidate.  The layout follows from the sign, the
    decade and c's trailing zeros: the least, over c's 4-digit groups, of
    the group's own (15 for 0) plus four per group after it.
    """
    a = np.abs(column, dtype=np.float64)
    layout = _BINADES.take(a.view(np.int64) >> 52)
    layout += a >= _DECADES.take(layout)
    if layout.max(initial=0) >= 24:  # nan, infinities and sizes from 1e15 up
        return None
    scale = _SCALES.take(layout)
    digits = (a * scale + 0.5).astype(np.int64)
    if not (digits / scale == a).all():
        return None
    del a, scale  # a block holds one column's arrays at a time
    words, groups = _words(digits)
    trailing = _digit_tables()[1].take(groups)
    del digits, groups
    trailing += _GROUP_ZEROS
    layout += np.signbit(column) * 24
    layout *= 16
    layout += trailing.min(axis=0)
    return _gather(words, layout, *_layouts(_float_layouts, 768))


def _int_text(column: np.ndarray) -> np.ndarray | None:
    """Integers as digits, one NUL-padded row each, or None if one is
    int64's minimum or a uint64 above int64."""
    if column.dtype.kind == "u":
        fast = column <= np.uint64(INT64_MAX)  # compared as uint64 under numpy 1.x too
    else:
        fast = column > -INT64_MAX - 1
    if not fast.all():
        return None
    values = column.astype(np.int64, copy=False)
    layout = _INT_STARTS.searchsorted(values, side="right")
    return _gather(_words(np.abs(values))[0], layout, *_layouts(_int_layouts, 38))


def _words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative int64 ``values`` as 7 rows of uint32 words, a column
    each: rows 0-4 hold their 4-digit groups (most significant first, as
    ASCII), and rows 5-6 ``_CONSTANTS``.  With the groups, as integers."""
    groups = np.empty((5, len(values)), np.intp)
    for j, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(values, power, out=groups[j])
    groups[4] = values
    groups[1:] -= groups[:4] * 10**4
    words = np.empty((7, len(values)), np.uint32)
    _digit_tables()[0].take(groups, out=words[:5], mode="clip")  # no copy: every group is < 10**4
    words[5:] = _CONSTANTS
    return words, groups


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Entry g (below 10**4) of the first table is g's 4 ASCII digits as
    one uint32, and of the second g's trailing zeros, 15 for 0."""
    text = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):
        text[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - k))
    zeros = np.zeros(10**4, np.uint8)
    for step in (10, 100, 1000):
        zeros[::step] += 1
    zeros[0] = 15
    return text.reshape(-1).view(np.uint32), zeros


def _gather(words: np.ndarray, layout: np.ndarray, layouts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each value's text, one NUL-padded row each: the bytes of its column
    of ``words`` at the positions in its layout, ``layouts[:, layout]``."""
    width = lengths.take(layout).max(initial=0)
    positions = layouts[:width]
    # Position p is byte p % 4 of the value's word in row p // 4.
    offsets = np.multiply(positions >> 2, words.nbytes // 7 - 4, dtype=np.intp)
    offsets += positions
    index = offsets.take(layout, axis=1)
    del offsets
    index += np.arange(0, 4 * len(layout), 4)
    return words.view(np.uint8).take(index).T


@functools.cache
def _layouts(rows: Callable[[], Iterator[list[int]]], count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` layouts ``rows`` yields, as the NUL-padded columns of a
    uint8 table, with their lengths.  (Built a layout at a time: a list
    each held ~0.2 MiB while a call at its peak RSS compiled the table.)"""
    layouts = np.full((21, count), _NUL, np.uint8)
    lengths = np.empty(count, np.uint8)
    for k, row in enumerate(rows()):
        layouts[: len(row), k] = row
        lengths[k] = len(row)
    return layouts, lengths


def _float_layouts() -> Iterator[list[int]]:
    """Layout ``(24 * s + i) * 16 + t`` is a float's of sign bit s in
    decade i (exponent e = i - 9) whose c has t trailing zeros, so n = 15
    - t significant digits, positions 5 on in its words: positional with
    at least one digit after the point for e >= -4, else ``d[.ddd]e-0X``,
    as ``repr`` writes them, and ``0.0`` in decade 0.  Position 0 is a 0."""
    for sign in ([], [_MINUS]):
        for e in range(-9, 15):
            for n in range(15, -1, -1):
                digits = list(range(5, 5 + n))
                if e == -9:
                    body = [0, _POINT, 0]
                elif e < -4:
                    body = digits[:1] + [_POINT] * (n > 1) + digits[1:] + [_MARK, _MINUS, 0, 19 - e]
                else:
                    run = [0] * -e + digits
                    whole = max(e, 0) + 1
                    run += [0] * (whole + 1 - len(run))
                    body = run[:whole] + [_POINT] + run[whole:]
                yield sign + body


def _int_layouts() -> Iterator[list[int]]:
    """Layout i is an integer's at insertion point i in ``_INT_STARTS``:
    a minus and 19 - i digits below 19, else i - 18 digits."""
    for i in range(38):
        yield [_MINUS] * (i < 19) + list(range(i + 1 if i < 19 else 38 - i, 20))
