"""CSV lines of an id and numbers, formatted in numpy, byte for byte as ``%``.

``format_lines`` prints a batch of rows through a line template of a
leading ``%s`` id followed by ``%.6f`` and ``%d`` fields, the templates of
every file clvkit writes except a competing calibration file's. The bytes
equal ``template % row`` for each row, without a Python call per row.

A ``%.6f`` field prints ``round(|x| * 1e6)`` with a point before its last
six digits, and a minus sign where ``signbit(x)`` is set (so -0.0 and tiny
negatives print ``-0.000000``, as Python prints them). Python rounds the
exact decimal value of x half to even. Below 2**52 / 1e6 in size,
``p = |x| * 1e6`` is under 2**52, where every half-integer is a double, so
``rint(p)`` is that rounding unless ``p`` is itself a half-integer; there
the rounding error ``e`` of the product, exact by Dekker's two-product (1e6
has 14 significant bits, so only x is split), tells on which side of the
tie the exact product lies. A larger or non-finite float is not printed.

Each line is built as a row of 4-byte words: table lookups give the digits
of 4-digit groups and of the fraction, and NUL bytes pad the words. The
lines are the non-NUL bytes in order, so an id holding a NUL (or a comma,
which marks where ids end) is not printed either.
"""

from __future__ import annotations

import functools
import re

import numpy as np

# Line templates ``format_lines`` prints: an id, then %.6f and %d fields.
_NUMERIC_LINE = re.compile(r"%s((?:,%(?:\.6f|d))+)\n")
# Largest |x| (exclusive) of a float field: x * 1e6 stays below 2**52.
_FLOAT_LIMIT = 2.0**52 / 1e6


def field_kinds(template: str) -> str | None:
    """``f`` for each ``%.6f`` and ``d`` for each ``%d`` field of a
    ``_NUMERIC_LINE`` template, in order; None for any other template."""
    fields = _NUMERIC_LINE.fullmatch(template)
    if fields is None:
        return None
    return "".join(field[-1] for field in fields.group(1).split(",")[1:])


def _words(text) -> np.ndarray:
    """Rows of four bytes as uint32 words, which keep the bytes' order in memory."""
    return np.ascontiguousarray(text, dtype=np.uint8).view(np.uint32)[:, 0]


_MINUS = _words([[45, 0, 0, 0]])[0]


@functools.cache
def _digit_words():
    """Words of decimal digits, built on first use.

    ``groups[v + 10_000 * full]`` is v in 0..9999 as 4 digits, with leading
    NULs instead of zeros unless ``full`` (0 is all NULs), and ``lowest``
    the same for a number's last group, where 0 prints ``0``. ``dot[v]`` is
    ``.`` and v in 0..999 as 3 digits, and ``last[c][v]`` 3 digits and the
    byte c.
    """
    digits = (np.arange(10_000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48).astype(np.uint8)
    lead = np.where(np.maximum.accumulate(digits != 48, axis=1), digits, 0)
    groups = _words(np.concatenate([lead, digits]))
    lead[0, 3] = 48
    lowest = _words(np.concatenate([lead, digits]))
    three = digits[:1000, 1:]
    dot = _words(np.column_stack([np.full(1000, 46), three]))
    last = {c: _words(np.column_stack([three, np.full(1000, c)])) for c in b",\n"}
    return groups, lowest, dot, last


def _group_words(u: np.ndarray) -> list[np.ndarray]:
    """Words of int64 ``u >= 0`` in decimal, 4 digits each from the highest,
    without leading zeros (0 prints ``0``)."""
    groups, table = _digit_words()[:2]
    words = []
    while u.max(initial=0) >= 10_000:
        high = u // 10_000
        words.append(table[u - 10_000 * high + 10_000 * (high > 0)])
        u, table = high, groups
    words.append(table[u])
    return words[::-1]


def _signed(negative: np.ndarray, words: list[np.ndarray]) -> list[np.ndarray]:
    """``words`` after a word holding the minus sign where ``negative``, if any is."""
    if not negative.any():
        return words
    return [np.where(negative, _MINUS, np.uint32(0)), *words]


def _number_words(kind: str, column: np.ndarray, end: int) -> list | None:
    """``column`` as ``%.6f`` (kind ``f``) or ``%d`` (kind ``d``) prints it,
    then the byte ``end``, as word columns; None if a value is not printed
    (see the module docstring) or the column is not float64 or integer."""
    if kind == "d":
        if column.dtype.kind not in "bi":
            return None
        magnitude = np.abs(column.astype(np.int64))
        if magnitude.min(initial=0) < 0:  # -2**63 has no int64 magnitude
            return None
        return _signed(column < 0, [*_group_words(magnitude),
                                    np.broadcast_to(_words([[end, 0, 0, 0]]), column.shape)])
    if column.dtype != np.float64:
        return None
    x = np.abs(column)
    if not (x < _FLOAT_LIMIT).all():  # NaN fails too
        return None
    p = x * 1e6
    r = np.rint(p)
    ties = np.flatnonzero(np.abs(p - r) == 0.5)
    if ties.size:
        x, p = x[ties], p[ties]
        hi = x * 134217729.0  # Veltkamp split of x into two 26-bit halves
        hi -= hi - x
        e = (hi * 1e6 - p) + (x - hi) * 1e6
        r[ties] = np.where(e == 0.0, r[ties], p + 0.5 * np.sign(e))
    micros = r.astype(np.int64)
    whole = micros // 10**6
    fraction = micros - 10**6 * whole
    high = fraction // 1000
    _, _, dot, last = _digit_words()
    return _signed(np.signbit(column), [*_group_words(whole), dot[high],
                                        last[end][fraction - 1000 * high]])


def format_lines(kinds: str, ids, columns) -> bytes | None:
    """The UTF-8 bytes of ``template % (id, *fields)`` for each row.

    ``kinds`` is ``field_kinds(template)`` and ``columns`` one 1-d array per
    field. Returns None if any value, id or column is not printed (see the
    module docstring). A row's words are the id's bytes and a comma, then
    each field's words with the comma or newline after it.
    """
    ends = b"," * (len(kinds) - 1) + b"\n"
    numbers = [_number_words(*field) for field in zip(kinds, columns, ends)]
    joined = ",".join(ids) + ","
    if None in numbers or "\0" in joined:
        return None
    try:
        text = np.frombuffer(joined.encode(), np.uint8)
    except UnicodeEncodeError:
        return None
    commas = np.flatnonzero(text == 44)
    if len(commas) != len(ids):
        return None
    lengths = np.diff(commas, prepend=-1)  # each id's bytes and its comma
    longest = int(lengths.max())
    width = -(-longest // 4)
    id_bytes = np.zeros((len(ids), 4 * width), np.uint8)
    if lengths.min() == longest:
        id_bytes[:, :longest] = text.reshape(len(ids), longest)
    else:
        id_bytes[np.arange(4 * width) < lengths[:, None]] = text
    words = [word for number in numbers for word in number]
    matrix = np.empty((len(ids), width + len(words)), np.uint32)
    matrix[:, :width] = id_bytes.view(np.uint32)
    matrix[:, width:] = np.stack(words).T  # stacked by rows, then copied once
    line_bytes = matrix.view(np.uint8)
    return line_bytes[line_bytes != 0].tobytes()
