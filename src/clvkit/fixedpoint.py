"""CSV lines of ids and numbers, printed and read in numpy, byte for byte as Python.

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

``parse_lines`` reads the cells of a block of lines from their UTF-8
bytes, with no Python object per number. A number cell is read only if it
matches ``-?[0-9]+(\\.[0-9]+)?`` with at most 15 digits. Its digits then
form an integer N < 2**53, exact in a double as every power 10**k used is,
and IEEE division is correctly rounded: ``N / 10**k`` is the double
nearest the decimal, which is what ``float`` returns. The sign is applied
after dividing, so ``-0.000000`` reads -0.0 as ``float`` reads it. An
integer cell is ``±N``, and a flag cell the one byte ``0`` or ``1``. Any
other number cell (``+1``, ``.5``, ``1e3``, ``nan``, `` 1``, a non-ASCII
digit, 16 digits or more) is not read, and nor is a block holding one.
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

    ``kinds`` is ``field_kinds(template)``, ``ids`` the rows' ids, or the
    UTF-8 bytes of every id and a comma after it as a uint8 array, and
    ``columns`` one 1-d array per field. Returns None if any value, id or
    column is not printed (see the module docstring). A row's words are the
    id's bytes and a comma, then each field's words with the comma or
    newline after it.
    """
    ends = b"," * (len(kinds) - 1) + b"\n"
    numbers = [_number_words(*field) for field in zip(kinds, columns, ends)]
    if None in numbers:
        return None
    text = ids
    if not isinstance(text, np.ndarray):
        try:
            text = np.frombuffer((",".join(ids) + ",").encode(), np.uint8)
        except UnicodeEncodeError:
            return None
    rows = len(columns[0])
    commas = np.flatnonzero(text == 44)
    if len(commas) != rows or not text.all():  # an id holds a comma or a NUL
        return None
    lengths = np.diff(commas, prepend=-1)  # each id's bytes and its comma
    longest = int(lengths.max())
    width = -(-longest // 4)
    id_bytes = np.zeros((rows, 4 * width), np.uint8)
    if lengths.min() == longest:
        id_bytes[:, :longest] = text.reshape(rows, longest)
    else:
        id_bytes[np.arange(4 * width) < lengths[:, None]] = text
    words = [word for number in numbers for word in number]
    matrix = np.empty((rows, width + len(words)), np.uint32)
    matrix[:, :width] = id_bytes.view(np.uint32)
    matrix[:, width:] = np.stack(words).T  # stacked by rows, then copied once
    line_bytes = matrix.view(np.uint8)
    return line_bytes[line_bytes != 0].tobytes()


# The longest number cell ``parse_lines`` reads: a sign, 15 digits and a point.
_CELL_BYTES = 17
# Powers of ten, exact as doubles, to divide by.
_POW10 = 10.0 ** np.arange(16)
# Zero bytes in front of a block's text, as many as the widest window of a
# number cell (see ``_number_cells``), so that every window starts in it.
_PAD = bytes(_CELL_BYTES // 4 * 4 + 4)


def _text_cells(text: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The cells from ``starts`` to ``ends`` (exclusive) of ``text``, as str,
    sliced out together, then decoded and split once."""
    lengths = ends - starts + 1  # each cell and a newline
    stops = np.cumsum(lengths)
    picked = text[np.arange(stops[-1]) + np.repeat(starts - stops + lengths, lengths)]
    picked[stops - 1] = 10
    return picked.tobytes().decode().split("\n")[:-1]


def _number_cells(text: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  kinds: list[str]) -> list[np.ndarray] | None:
    """The number cells from ``starts`` to ``ends`` of ``text``, (columns,
    rows) arrays, as one array per column of ``kinds`` (see ``parse_lines``);
    None if a cell is not read.

    Each cell is right-aligned in a window longer than the longest cell, so
    that a byte's place (the bytes after it in its cell) is given by its row
    of the (window, cell) byte matrix. All columns go through the same calls.
    """
    lengths = ends - starts
    longest = int(lengths.max(initial=0))
    if longest > _CELL_BYTES:
        return None
    span = longest // 4 * 4 + 4  # whole groups of 4 places
    windows = np.ndarray((text.size - span + 1,), f"V{span}", text, strides=(1,))
    digit = np.ascontiguousarray(
        windows[ends.ravel() - span].view(np.uint8).reshape(-1, span).T)
    place = np.arange(span - 1, -1, -1, dtype=np.uint8)[:, None]
    digit *= place < lengths.ravel().astype(np.uint8)  # zero the bytes before each cell
    is_point = digit == 46
    digit -= 48  # wraps past 9 for every byte but a digit
    is_digit = digit < 10
    digits = is_digit.sum(0, dtype=np.uint8).reshape(lengths.shape)
    points = is_point.sum(0, dtype=np.uint8).reshape(lengths.shape)
    point_places = np.multiply(is_point, place, out=is_point.view(np.uint8))
    fraction = point_places.sum(0, dtype=np.uint8).reshape(lengths.shape)
    del is_point, point_places
    negative = text[starts] == 45
    floats = np.array([kind == "f" for kind in kinds])
    flags = [j for j, kind in enumerate(kinds) if kind == "b"]
    # Every byte a digit or the point, but a leading minus; 1 to 15 digits;
    # a point only in a float, with a digit on each side; a flag 0 or 1.
    ok = ((digits + points + negative == lengths) & (digits - np.uint8(1) < 15)  # wraps
          & ((points == 0) | (floats[:, None] & (points == 1) & (fraction >= 1)
                              & (fraction < lengths - 1 - negative))))
    if not (ok.all() and (lengths[flags] == 1).all()
            and (digit[-1].reshape(lengths.shape)[flags] <= 1).all()):
        return None
    digit *= is_digit
    del is_digit
    if points.any():  # close up each point: the digits before it move a place down
        step = np.subtract(digit[:-1], digit[1:])  # wraps, and wraps back when added
        step *= place[1:] >= fraction.ravel() + (points.ravel() == 0) * np.uint8(span)
        digit[1:] += step
        del step
    # Horner steps: 4 places at a time in uint16, then those in int64.
    groups = digit.reshape(span // 4, 4, -1)
    quads = groups[:, 0].astype(np.uint16)
    for k in range(1, 4):
        quads *= 10
        quads += groups[:, k]
    del digit, groups
    value = quads[0].astype(np.int64)
    for quad in quads[1:]:
        value *= 10_000
        value += quad
    value = value.reshape(lengths.shape)
    sign = 1 - 2 * negative.view(np.int8)
    numbers = value[floats] / _POW10[fraction[floats]]
    numbers *= sign[floats]  # after dividing, so that -0.0 keeps its sign
    columns = dict(zip(np.flatnonzero(floats), numbers))
    return [columns[j] if floats[j] else value[j] * sign[j] for j in range(len(kinds))]


def parse_lines(data: bytes, rows: int, kinds: str) -> list | None:
    """The cells of ``rows`` comma-separated lines, each ending in a newline,
    from their UTF-8 bytes ``data``, column by column.

    ``kinds`` holds each column's kind: ``s`` text (a list of str), ``d`` an
    integer or ``b`` a 0 or 1 flag (int64 arrays), ``f`` a float (a float64
    array). Returns None if a line has another number of cells, or a number
    cell is not read (see the module docstring).
    """
    width = len(kinds)
    if len(data) >= 2**31 - len(_PAD):  # positions are int32
        return None
    text = np.frombuffer(_PAD + data, np.uint8)
    separators = text == 44
    separators |= text == 10
    ends = np.flatnonzero(separators).astype(np.int32)
    del separators
    if ends.size != rows * width or not (text[ends[width - 1::width]] == 10).all():
        return None
    starts = np.empty_like(ends)
    starts[0] = len(_PAD)
    starts[1:] = ends[:-1] + 1
    starts, ends = starts.reshape(rows, width).T, ends.reshape(rows, width).T
    numeric = [j for j, kind in enumerate(kinds) if kind != "s"]
    numbers = _number_cells(text, starts[numeric], ends[numeric], [kinds[j] for j in numeric])
    if numbers is None:
        return None
    columns = dict(zip(numeric, numbers))
    return [columns[j] if j in columns else _text_cells(text, starts[j], ends[j])
            for j in range(width)]
