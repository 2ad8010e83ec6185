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

``parse_lines`` reads cells, given their bounds, from their UTF-8 bytes,
with no Python object per number. A number cell is read only if it
matches ``-?[0-9]+(\\.[0-9]+)?`` with at most 15 digits. Its digits then
form an integer N < 2**53, exact in a double as every power 10**k used
is, and IEEE division is correctly rounded: ``N / 10**k`` is the double
nearest the decimal, which is what ``float`` returns. The sign is applied
after dividing, so ``-0.000000`` reads -0.0 as ``float`` reads it. An
integer cell is ``±N``, and a flag cell the one byte ``0`` or ``1``. A
code cell is empty or one ASCII byte other than NUL, and a code column
comes as a one-character numpy str column (``U1``). A column with any
other cell (``+1``, ``.5``, ``1e3``, ``nan``, `` 1``, a non-ASCII digit,
16 digits or more; a longer code) comes as text.
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
# Zero bytes in front of a block's bytes, as many as the widest window of a
# number cell (see ``_number_cells``), so that every window starts in them.
_PAD = bytes(_CELL_BYTES // 4 * 4 + 4)


def _text_cells(text: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                dropped: np.ndarray | None) -> list[str]:
    """The cells from ``starts`` to ``ends`` (exclusive) of ``text``, as str,
    without the bytes ``dropped`` marks, sliced out together, decoded and split once (at byte offsets if one holds a "\\n")."""
    lengths = ends - starts + 1  # each cell and a newline
    stops = np.cumsum(lengths)
    index = np.arange(stops[-1]) + np.repeat(starts - stops + lengths, lengths)
    picked = text[index]
    picked[stops - 1] = 10
    if dropped is not None:
        kept = ~dropped[index]
        kept[stops - 1] = True
        picked = picked[kept]
    cells = picked.tobytes().decode().split("\n")[:-1]
    if len(cells) == len(starts):
        return cells
    if dropped is not None:
        stops = np.cumsum(kept)[stops - 1]
    picked = picked.tobytes()
    return [picked[a:b - 1].decode() for a, b in zip([0, *stops[:-1].tolist()], stops.tolist())]


def _code_cells(text: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The cells from ``starts`` to ``ends`` of ``text`` as a ``U1`` column
    (an empty cell is ""); None if a cell is longer than one byte, or is one
    byte that is not ASCII or is NUL, which ``U1`` would read as ""."""
    lengths = ends - starts
    if lengths.max(initial=0) > 1:
        return None
    codes = text[starts].astype(np.uint32)  # an empty cell starts at its separator
    codes *= lengths == 1
    if not (codes - 1 < 127)[lengths == 1].all():  # 0 wraps
        return None
    return codes.view("U1")


def _number_cells(text: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                  kinds: list[str]) -> list[np.ndarray | None]:
    """The number cells from ``starts`` to ``ends`` of the bytes after
    ``_PAD`` in ``text``, (columns, rows) arrays of cells of at most
    ``_CELL_BYTES``, as one array per column of ``kinds`` (see
    ``parse_lines``), or None for a column with a cell that is not read.

    Each cell is right-aligned in a window longer than the longest cell, so
    that a byte's place (the bytes after it in its cell) is given by its row
    of the (window, cell) byte matrix. All columns go through the same calls.
    """
    lengths = ends - starts
    longest = int(lengths.max())
    span = longest // 4 * 4 + 4  # whole groups of 4 places
    windows = np.ndarray((text.size - span + 1,), f"V{span}", text, strides=(1,))
    digit = np.ascontiguousarray(
        windows[ends.ravel() + (len(_PAD) - span)].view(np.uint8).reshape(-1, span).T)
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
    negative = text[len(_PAD):][starts] == 45
    floats = np.array([kind == "f" for kind in kinds])
    flags = [j for j, kind in enumerate(kinds) if kind == "b"]
    # Every byte a digit or the point, but a leading minus; 1 to 15 digits;
    # a point only in a float, with a digit on each side; a flag 0 or 1.
    ok = ((digits + points + negative == lengths) & (digits - np.uint8(1) < 15)  # wraps
          & ((points == 0) | (floats[:, None] & (points == 1) & (fraction >= 1)
                              & (fraction < lengths - 1 - negative))))
    ok[flags] &= (lengths[flags] == 1) & (digit[-1].reshape(lengths.shape)[flags] <= 1)
    read = ok.all(axis=1)
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
    floats &= read  # a column not read may hold any number of points
    numbers = value[floats] / _POW10[fraction[floats]]
    numbers *= sign[floats]  # after dividing, so that -0.0 keeps its sign
    floated = dict(zip(np.flatnonzero(floats).tolist(), numbers))
    return [(floated[j] if floats[j] else value[j] * sign[j]) if read[j] else None
            for j in range(len(kinds))]


def parse_lines(data: bytes, starts: np.ndarray, ends: np.ndarray, kinds: str,
                dropped: np.ndarray | None = None) -> list:
    """The cells of a block of records from their UTF-8 bytes ``data``,
    column by column, given (columns, rows) arrays of each cell's first
    byte and the byte after its last (at most ``len(data)``); its byte
    matrices take about 1.7 MB for 2048 rows of 11 cells. ``kinds`` holds
    each column's kind: ``s`` text, ``c`` a code (a ``U1`` array), ``d`` an
    integer or ``b`` a 0 or 1 flag (int64 arrays), ``f`` a float (float64).
    A text column, and a number or code column with a cell that is not read
    (see the module docstring), comes as a list of str, without the bytes
    that ``dropped`` (a bool array, one longer than ``data``) marks."""
    padded = np.frombuffer(b"".join((_PAD, data, b"\n")), np.uint8)
    text = padded[len(_PAD):]  # the block and a newline
    numeric = [j for j, kind in enumerate(kinds) if kind in "dbf"]
    longest = (ends[numeric] - starts[numeric]).max(axis=1, initial=0).tolist()
    fit = [j for j, n in zip(numeric, longest) if n <= _CELL_BYTES]
    columns = dict(zip(fit, _number_cells(padded, starts[fit], ends[fit],
                                          [kinds[j] for j in fit]) if fit else ()))
    for j in (j for j, kind in enumerate(kinds) if kind == "c"):
        columns[j] = _code_cells(text, starts[j], ends[j])
    return [_text_cells(text, starts[j], ends[j], dropped) if columns.get(j) is None
            else columns[j] for j in range(len(kinds))]
