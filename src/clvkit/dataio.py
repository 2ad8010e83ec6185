"""CSV schemas and batched readers/writers.

Three row formats move through the pipeline:

* calibration: one customer observed at a snapshot, with the churn outcome
  over the following month (``customer_id,tenure,churned``, plus ``cause``,
  required in competing-risks mode and optional otherwise, and optional
  covariate columns ``x1..xm``),
* scoring: one live customer with churn-model score(s) and a monthly margin,
* projections: the per-customer output written by the scorer.

Files are UTF-8 CSV with a header row that must match the declared schema
exactly (case-sensitive). LF and CRLF are both accepted; blank lines are
skipped. Floats are written with six decimal places.

Readers yield validated column batches: up to ``batch_size`` records at a
time, parsed column by column into numpy arrays. A file (a regular file or
a pipe) is read once, in order, from its raw bytes by one line source
(``_Lines``): the header line, then a block of whole batches at a time
(about ``_PARSE_ROWS`` lines, or one longer batch), cut at newlines found
in numpy. A block of plain lines (no quote, carriage return, NUL or blank
line) whose number cells are plain fixed-point decimals and code cells
(``cause``) single ASCII bytes is parsed from those bytes by
``fixedpoint.parse_lines``, to the values ``int`` and ``float`` give. Any
other block is decoded and split into lines at "\\n", "\\r" and "\\r\\n",
as ``csv.reader`` is given them, and read batch by batch: a plain batch
split at commas and newlines and parsed cell by cell, and any other batch
read by ``csv.reader``, which takes further lines from the same source
where a quoted field runs past the block. The next block that starts where
a batch ends is tried as bytes again. Every way, the cells are those
``csv.reader`` gives. The header is read as text after a UTF-8 byte order
mark. The record readers (``read_calibration``, ``read_scoring``) are views
over the same batches.
Each schema is one table of rules in check order: the field count, the id
(non-empty, and new across batches too), then each column's parse and
range rules, with a rule over two columns (``churned`` with ``cause``,
``score_v + score_inv <= 1``) after the columns it reads. Every rule gives
a boolean mask over the batch's rows; a number column is parsed cell by
cell only if it fails to parse as a whole. The error reported is that of the
smallest failing row, and within that row of the first rule it breaks, so
it names the row number (header = row 1, counting csv records), column
and reason a row-by-row reader would, at any batch size. An error
surfaces when its batch is read, before any record of that batch is
consumed. Text that is not UTF-8, or a record csv refuses (a field past
its size limit), is ``InvalidDocument`` naming the file, raised after the
records before it have been checked. For bytes that do not decode, those
are the records of the lines before the line that holds the first such
byte: a UTF-8 character holds no newline byte, so each line decodes on its
own.

Every writer (projections, and the simulator's calibration, scoring and
truth files) formats each batch through one line template and quotes ids
as ``csv.writer`` does, all in ``_write_rows``. Record inputs are converted
to batches first. A template of an id and ``%.6f`` and ``%d`` fields over
array columns is printed by ``fixedpoint.format_lines`` in slices of
``_FORMAT_ROWS`` rows from the batch's ids joined once, byte for byte as
the template prints; a batch whose
ids csv may quote, and a slice that ``format_lines`` does not print (a
non-finite float, say), go through the template line by line. The
projection writer writes to a temporary file that replaces the output only
once every batch is written.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
import re
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ClvkitError, DuplicateCustomerId, InvalidDocument, InvalidValue, MissingColumn

CAUSE_VOLUNTARY = "V"
CAUSE_INVOLUNTARY = "I"
# The competing-risks causes, in the order of their score columns and baselines.
CAUSES = (CAUSE_VOLUNTARY, CAUSE_INVOLUNTARY)

PROJECTION_COLUMNS = ["customer_id", "alpha", "ert_months", "clv", "truncated_at"]

# Lines that fixedpoint.parse_lines reads at a time, so that its arrays stay
# small (about 1.7 MB at most for 2048 lines of 11 cells).
_PARSE_ROWS = 2048
# Rows per batch. A calibration batch is one parse block, so that its rules,
# its batch and its counting step run once per block: against 512-row
# batches this saves 9-21 ms of reading and counting the benchmark's panel
# file (100k rows), 36-46 ms on its competing file (200k rows, two causes)
# and 2-11 ms on its longtail file (100k rows), for at most 0.2 MB more
# peak memory.
CALIBRATION_BATCH_SIZE = _PARSE_ROWS
SCORING_BATCH_SIZE = 8192
# Bytes read from a file at a time (at least). Reads of 256 KiB raised
# `baseline`'s peak memory by up to 0.5 MB.
_READ_BYTES = 64 * 1024

# Largest tenure (months) a calibration row may hold. Counting sizes its
# arrays by the largest tenure, so this bounds them at about 0.8 MB each.
MAX_CALIBRATION_TENURE = 100_000

_FLOAT_FMT = "%.6f"
_PROJECTION_LINE = f"%s,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT},%d\n"
# Characters besides a comma that may make csv.writer quote an id. A batch
# holding one (or a comma) has its ids quoted by csv.writer itself, which
# (on Python 3.11) leaves an id with a lone "\r" unquoted, so a hand-written
# rule could drift from it.
_CSV_SPECIAL = re.compile('["\r\n]')
_INT64_MAX = int(np.iinfo(np.int64).max)
# Rows that fixedpoint.format_lines prints at a time, so that its byte
# matrices stay small.
_FORMAT_ROWS = 2048


@dataclass(frozen=True)
class CalibrationRecord:
    """One customer at the snapshot: tenure and next-month churn outcome."""

    customer_id: str
    tenure: int
    churned: int
    cause: str | None = None
    covariates: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ScoringRecord:
    """A live customer to project: current tenure, score(s), monthly margin.

    Single-risk rows carry ``churn_score``; competing-risks rows carry
    ``score_v`` and ``score_inv`` instead (their sum is a probability, so it
    must not exceed 1).
    """

    customer_id: str
    tenure: int
    margin: float
    churn_score: float | None = None
    score_v: float | None = None
    score_inv: float | None = None


@dataclass(frozen=True)
class ProjectionRow:
    """Scorer output for one customer."""

    customer_id: str
    alpha: float
    ert_months: float
    clv: float
    truncated_at: int


class CalibrationBatch(NamedTuple):
    """Consecutive calibration rows as columns.

    From a file, ``tenure`` and ``churned`` are int64; ``cause`` holds "V",
    "I" or "" (survivors) per row if the file has a cause column, else None;
    ``covariates`` is a C-contiguous (rows, m) float64 array, or None when
    the file has no ``x`` columns. The record-level estimators
    build batches whose columns hold the records' own objects instead.
    """

    ids: tuple[str, ...]
    tenure: np.ndarray
    churned: np.ndarray
    cause: np.ndarray | None
    covariates: np.ndarray | None

    @classmethod
    def from_records(cls, records: list[CalibrationRecord]) -> CalibrationBatch:
        """Columns of ``records``, with "" for a None cause.

        Covariates are a column block if the first record has them.
        """
        n = len(records)
        covariates = None
        if records[0].covariates:
            covariates = np.array([r.covariates for r in records], dtype=np.float64)
        return cls(tuple(r.customer_id for r in records),
                   np.fromiter((r.tenure for r in records), np.int64, n),
                   np.fromiter((r.churned for r in records), np.int64, n),
                   np.array([r.cause or "" for r in records]), covariates)

    def records(self) -> Iterator[CalibrationRecord]:
        n = len(self.ids)
        causes = [None] * n if self.cause is None else [c or None for c in self.cause.tolist()]
        covariates = ([None] * n if self.covariates is None
                      else map(tuple, self.covariates.tolist()))
        for fields in zip(self.ids, self.tenure.tolist(), self.churned.tolist(), causes,
                          covariates):
            yield CalibrationRecord(*fields)


class ScoringBatch(NamedTuple):
    """Consecutive scoring rows as columns.

    Single-risk batches carry ``churn_score``, competing-risks batches
    ``score_v`` and ``score_inv``; the other score columns are None.
    """

    ids: tuple[str, ...]
    tenure: np.ndarray
    margin: np.ndarray
    churn_score: np.ndarray | None = None
    score_v: np.ndarray | None = None
    score_inv: np.ndarray | None = None

    @classmethod
    def from_records(cls, records: list[ScoringRecord]) -> ScoringBatch:
        """Columns of ``records``; a score column is present if the first record has it."""
        first = records[0]

        def column(name: str):
            if getattr(first, name) is None:
                return None
            return np.array([getattr(r, name) for r in records])

        return cls(tuple(r.customer_id for r in records),
                   np.array([r.tenure for r in records], dtype=np.int64),
                   np.array([r.margin for r in records]),
                   column("churn_score"), column("score_v"), column("score_inv"))

    def records(self) -> Iterator[ScoringRecord]:
        names = score_columns("single" if self.churn_score is not None else "competing")
        for cid, tenure, margin, *scores in zip(
                self.ids, self.tenure.tolist(), self.margin.tolist(),
                *(getattr(self, name).tolist() for name in names)):
            yield ScoringRecord(cid, tenure, margin, **dict(zip(names, scores)))


class ProjectionBatch(NamedTuple):
    """Scorer output for consecutive customers, as columns."""

    ids: tuple[str, ...]
    alpha: np.ndarray
    ert_months: np.ndarray
    clv: np.ndarray
    truncated_at: np.ndarray

    @classmethod
    def from_rows(cls, rows: list[ProjectionRow]) -> ProjectionBatch:
        return cls(tuple(r.customer_id for r in rows),
                   np.array([r.alpha for r in rows], dtype=np.float64),
                   np.array([r.ert_months for r in rows], dtype=np.float64),
                   np.array([r.clv for r in rows], dtype=np.float64),
                   np.array([r.truncated_at for r in rows], dtype=np.int64))

    def rows(self) -> list[ProjectionRow]:
        return [ProjectionRow(*fields) for fields in
                zip(self.ids, self.alpha.tolist(), self.ert_months.tolist(),
                    self.clv.tolist(), self.truncated_at.tolist())]


def chunks(items: Iterable, size: int) -> Iterator[list]:
    """Consecutive lists of at most ``size`` items."""
    items = iter(items)
    while chunk := list(islice(items, size)):
        yield chunk


def json_number(value, name: str, kind: type = float):
    """``value``, from a JSON document or a command-line flag, as a finite ``kind``.

    ``kind`` is int or float. A bool is not a number, and an int loses no
    fraction: 1000.0 is 1000, 2.5 is an error. Errors are ValueErrors whose
    message starts with ``name``.
    """
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        number = kind(value)
        finite = math.isfinite(number)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {noun}, got {value!r}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def _calibration_header(mode: str, covariate_count: int) -> list[str]:
    cols = ["customer_id", "tenure", "churned"]
    if mode == "competing":
        cols.append("cause")
    cols.extend(f"x{i}" for i in range(1, covariate_count + 1))
    return cols


def score_columns(mode: str) -> list[str]:
    """The score columns of a scoring file in ``mode``, one per cause."""
    return ["score_v", "score_inv"] if mode == "competing" else ["churn_score"]


def _scoring_header(mode: str) -> list[str]:
    return ["customer_id", "tenure", *score_columns(mode), "margin"]


def _check_mode(mode: str) -> None:
    if mode not in ("single", "competing"):
        raise ValueError(f"mode must be 'single' or 'competing', got {mode!r}")


def _validate_header(header: list[str] | None, required: list[str]) -> int:
    """Check the fixed columns and return the number of trailing x1..xm columns."""
    if header is None:
        raise MissingColumn(required[0])
    header = [h.strip() for h in header]
    for i, name in enumerate(required):
        if i >= len(header) or header[i] != name:
            raise MissingColumn(name)
    extra = header[len(required):]
    for i, name in enumerate(extra, start=1):
        if name != f"x{i}":
            raise InvalidValue(1, name, f"unexpected column (expected x{i})")
    return len(extra)


# Schemas. Each calibration and scoring schema is one table of rules in check
# order; a row breaks the first rule it fails, and a batch reports its
# smallest failing row. A rule with a parser parses its column, for itself
# and the rules after it, and is broken where a cell does not parse. A
# rule's test gives the mask of rows that break it from ``c``: each column's
# cells or parsed values by name, "fields" the rows' field counts and "seen"
# the ids of earlier batches. ``reason`` is formatted with the row's cell in
# ``column``, or is a function that builds the whole error from the row
# number and cells (the field count rule names no one column). A column
# whose first rule has a parser may come parsed from the line bytes, and
# then gives that parser no cell to refuse and later rules its values as
# cells.

class _Parser(NamedTuple):
    """Cell text to value, the dtype of the parsed column, and the kind of
    cell ``fixedpoint.parse_lines`` reads from bytes to the same values."""

    parse: Callable[[str], object]
    dtype: type | str
    kind: str


class _Rule(NamedTuple):
    column: str
    parser: _Parser | None
    test: Callable[[dict], np.ndarray] | None
    reason: str | Callable[[int, list[str]], ClvkitError]


_INTEGER = _Parser(int, np.int64, "d")
_NUMBER = _Parser(float, np.float64, "f")
_FLAG = _Parser({"0": 0, "1": 1}.__getitem__, np.int64, "b")


def _code(codes: tuple[str, ...]) -> _Parser:
    """A code column (``cause``): a ``U1`` column holding each cell that is
    empty or one of ``codes`` as it is and any other as "?", which breaks
    the column's rules as that cell does, however long it is. From the
    bytes, a cell that is empty or one ASCII byte is read as it is."""
    known = dict.fromkeys(("", *codes))
    return _Parser(lambda cell: cell if cell in known else "?", "U1", "c")


def _empty(cells: tuple[str, ...]) -> np.ndarray:
    """Rows whose cell is empty, with a Python call per cell only if one is."""
    n = len(cells)
    if "" not in cells:
        return np.zeros(n, dtype=bool)
    return np.fromiter(map("".__eq__, cells), bool, n)


def _repeated(ids: tuple[str, ...], seen: set[str]) -> np.ndarray:
    """Rows whose id is in ``seen`` or on an earlier row; ``ids`` join ``seen``."""
    n = len(ids)
    repeated = np.zeros(n, dtype=bool)
    if not seen.isdisjoint(ids):
        repeated = np.fromiter(map(seen.__contains__, ids), bool, n)
    count = len(seen)
    seen.update(ids)
    if len(seen) - count < n:
        later = np.ones(n, dtype=bool)
        later[np.unique(ids, return_index=True)[1]] = False
        repeated |= later
    return repeated


def _field_count_error(names: list[str]) -> Callable[[int, list[str]], InvalidValue]:
    def error(row: int, cells: list[str]) -> InvalidValue:
        if len(cells) < len(names):
            return InvalidValue(row, names[len(cells)], "missing field")
        return InvalidValue(row, f"field {len(names) + 1}", "unexpected extra field")
    return error


def _at_most(bound: int) -> _Rule:
    return _Rule("tenure", None, lambda c: c["tenure"] > bound, f"must be <= {bound}")


def _float_rules(column: str, test: Callable[[np.ndarray], np.ndarray],
                 reason: str) -> list[_Rule]:
    return [_Rule(column, _NUMBER, None, "{!r} is not a number"),
            _Rule(column, None, lambda c: test(c[column]), reason)]


def _finite(column: str) -> list[_Rule]:
    return _float_rules(column, lambda x: ~np.isfinite(x), "must be finite")


def _probability(column: str) -> list[_Rule]:
    return _float_rules(column, lambda p: ~((p >= 0.0) & (p <= 1.0)), "must be in [0, 1]")


def _leading_rules(names: list[str]) -> list[_Rule]:
    """The field count, id and tenure rules every schema starts with."""
    return [
        _Rule("", None, lambda c: c["fields"] != len(names), _field_count_error(names)),
        _Rule("customer_id", None, lambda c: _empty(c["customer_id"]), "must be non-empty"),
        _Rule("customer_id", None, lambda c: _repeated(c["customer_id"], c["seen"]),
              lambda row, cells: DuplicateCustomerId(cells[0], row)),
        _Rule("tenure", _INTEGER, None, "{!r} is not an integer"),
        _Rule("tenure", None, lambda c: c["tenure"] < 0, "must be >= 0"),
        _at_most(_INT64_MAX),
    ]


def _sum_error(row: int, cells: list[str]) -> InvalidValue:
    total = float(cells[2]) + float(cells[3])
    return InvalidValue(row, "score_v/score_inv", f"sum {total:g} exceeds 1")


def _covariates(names: list[str]) -> list[str]:
    """The x1..xm columns of a calibration schema."""
    return names[4 if "cause" in names else 3:]


def _calibration_rules(names: list[str]) -> list[_Rule]:
    rules = [*_leading_rules(names), _at_most(MAX_CALIBRATION_TENURE),
             _Rule("churned", _FLAG, None, "must be 0 or 1")]
    if "cause" in names:
        causes = np.array(CAUSES)
        rules += [_Rule("cause", _code(CAUSES),
                        lambda c: (c["churned"] == 1) & ~np.isin(c["cause"], causes),
                        "must be V or I for churners"),
                  _Rule("cause", None, lambda c: (c["churned"] == 0) & (c["cause"] != ""),
                        "must be empty unless churned")]
    for name in _covariates(names):
        rules += _finite(name)
    return rules


def _scoring_rules(names: list[str]) -> list[_Rule]:
    rules = _leading_rules(names)
    for name in names[2:-1]:
        rules += _probability(name)
    if "score_v" in names:
        rules.append(_Rule("score_v/score_inv", None,
                           lambda c: c["score_v"] + c["score_inv"] > 1.0, _sum_error))
    return rules + _finite("margin")


def _parsed(cells: tuple[str, ...], parser: _Parser) -> tuple[np.ndarray, np.ndarray]:
    """``cells`` parsed into a ``parser.dtype`` column, and the mask of cells that do not parse.

    Only a column that fails as a whole is parsed cell by cell: its failed
    cells then hold 0, and an integer column holds Python ints, so that a
    tenure past int64 keeps its value for the range rules.
    """
    parse, dtype, _ = parser
    n = len(cells)
    try:
        return np.fromiter(map(parse, cells), dtype, n), np.zeros(n, dtype=bool)
    except (ValueError, KeyError, OverflowError):  # OverflowError: an int past int64
        pass
    values, failed = [], np.zeros(n, dtype=bool)
    for i, cell in enumerate(cells):
        try:
            values.append(parse(cell))
        except (ValueError, KeyError):
            values.append(0)
            failed[i] = True
    return np.array(values, dtype=object if dtype is np.int64 else dtype), failed


def _checked_columns(rules: list[_Rule], names: list[str], numbers, columns: list,
                     rows: list[list[str]] | None, seen: set[str]) -> dict:
    """One batch's columns by name, parsed; raises the error of its first failing row.

    ``numbers`` are the rows' numbers in the file, ``columns`` their cells
    transposed and ``rows`` their cells if some row has another number of
    fields than ``names``.
    """
    n = len(numbers)
    c = dict(zip(names, columns))
    c["fields"] = (np.full(n, len(names)) if rows is None
                   else np.fromiter(map(len, rows), np.int64, n))
    c["seen"] = seen
    masks = []
    for rule in rules:
        mask = np.zeros(n, dtype=bool)
        if rule.parser is not None and not isinstance(c[rule.column], np.ndarray):
            c[rule.column], mask = _parsed(c[rule.column], rule.parser)
        if rule.test is not None:
            mask |= rule.test(c)
        masks.append(mask)
    broken = np.logical_or.reduce(masks)
    if broken.any():
        i = int(broken.argmax())
        rule = next(rule for rule, mask in zip(rules, masks) if mask[i])
        cells = rows[i] if rows else [column[i].item() if isinstance(column, np.ndarray)
                                      else column[i] for column in columns]
        if callable(rule.reason):
            raise rule.reason(numbers[i], cells)
        raise InvalidValue(numbers[i], rule.column,
                           rule.reason.format(cells[names.index(rule.column)]))
    return c


def _calibration_batch(c: dict, names: list[str]) -> CalibrationBatch:
    covariates = [c[name] for name in _covariates(names)]
    return CalibrationBatch(c["customer_id"], c["tenure"], c["churned"], c.get("cause"),
                            np.stack(covariates, axis=1) if covariates else None)


def _scoring_batch(c: dict, names: list[str]) -> ScoringBatch:
    return ScoringBatch(c["customer_id"], c["tenure"], c["margin"],
                        **{name: c[name] for name in names[2:-1]})


# Characters that make text not plain, as str and as bytes.
_NOT_PLAIN = {str: ('"', "\r", "\0"), bytes: (b'"', b"\r", b"\0")}


def _plain(text: str | bytes, line_lengths: Callable[[], np.ndarray]) -> bool:
    """Whether ``csv.reader`` reads each line of ``text`` (str, or UTF-8
    bytes) as ``line.split(",")``.

    That holds when the text has no quote, carriage return, NUL or blank
    line and no line long enough to hold a field past csv's size limit.
    ``line_lengths()`` gives each line's length with its newline (in bytes,
    for bytes: never fewer than its characters), so a blank line is 1 long;
    so is a last line of one character without a newline, which is then
    taken for a blank line.
    """
    if any(b in text for b in _NOT_PLAIN[type(text)]):
        return False
    lengths = line_lengths()
    limit = csv.field_size_limit()
    return lengths.min() > 1 and (len(text) <= limit or lengths.max() <= limit)


def _columns(rows: list[list[str]], width: int) -> tuple[list, list[list[str]] | None]:
    """The rows transposed, and the rows themselves if one has another number
    of fields than ``width`` (its cells then cut or padded with "")."""
    if set(map(len, rows)) == {width}:
        return list(zip(*rows)), None
    return list(zip(*((cells + [""] * width)[:width] for cells in rows))), rows


def _newlines(data: bytes) -> np.ndarray:
    """The offsets of the newline bytes in ``data``."""
    return np.flatnonzero(np.frombuffer(data, np.uint8) == 10)


def _byte_columns(data: bytes, ends: np.ndarray, kinds: str) -> list | None:
    """The columns of the lines ``data``, each ending in a newline at an
    offset in ``ends`` but the file's last line, which may have none,
    parsed from their bytes by ``fixedpoint.parse_lines``, ``_PARSE_ROWS``
    lines at a time: a tuple of cells for a text column, an array for any
    other. None if the lines are not plain (``_plain``) or ``parse_lines``
    does not read one.
    """
    from .fixedpoint import parse_lines  # loaded on the first read

    if not data.endswith(b"\n"):
        data += b"\n"
        ends = np.append(ends, len(data) - 1)
    if not _plain(data, lambda: np.diff(ends, prepend=-1)):
        return None
    parts = []
    start = 0
    for first in range(0, len(ends), _PARSE_ROWS):
        stop = int(ends[min(first + _PARSE_ROWS, len(ends)) - 1]) + 1
        columns = parse_lines(data[start:stop], min(_PARSE_ROWS, len(ends) - first), kinds)
        if columns is None:
            return None
        parts.append(columns)
        start = stop
    return [tuple(chain.from_iterable(cs)) if kind == "s" else np.concatenate(cs)
            for cs, kind in zip(zip(*parts), kinds)]


def _sliced(columns: list, n: int, size: int, first: int):
    """The batches (row numbers, columns, None) of at most ``size`` rows of
    the ``n`` rows of a block's ``columns``, whose first is row ``first``."""
    for start in range(0, n, size):
        rows = slice(start, start + size)
        yield range(first + start, first + min(start + size, n)), [c[rows] for c in columns], None


class _Lines:
    """The lines of an unbuffered binary file (a regular file or a pipe), read once from its start.

    ``take`` gives the next lines as one block of bytes, read
    ``_READ_BYTES`` or more at a time and cut at newlines found in numpy.
    ``push`` splits a block into text lines at "\\n", "\\r" and "\\r\\n", as a
    text file opened with ``newline=""`` splits them; ``read_text`` and
    iteration take those before further lines of the file, which they push
    as they need them. The lines end before the first line that does not
    decode as UTF-8, whose error is kept in ``error``. No UTF-8 character
    holds a newline byte, so a block of whole lines decodes on its own.
    """

    def __init__(self, fh):
        self.fh = fh
        self.error: UnicodeDecodeError | None = None
        self.data = b""  # bytes read and not yet taken
        self.ends = np.zeros(0, dtype=np.intp)  # the offsets of their newlines
        self.eof = False
        self.text: deque[str] = deque()  # lines pushed and not yet taken

    def take(self, lines: int) -> tuple[bytes, np.ndarray]:
        """The next ``lines`` lines (fewer at the end of the file or before
        a line that does not decode, and b"" past them), and the offsets of
        their newlines."""
        while len(self.ends) < lines and not self.eof:
            chunk = self.fh.read(max(_READ_BYTES, len(self.data)))  # doubling, for long lines
            self.eof = not chunk
            self.ends = np.concatenate([self.ends, _newlines(chunk) + len(self.data)])
            self.data += chunk
        ends = self.ends[:lines]
        cut = int(ends[-1]) + 1 if len(ends) == lines else len(self.data)
        data = self.data[:cut]
        self.data, self.ends = self.data[cut:], self.ends[lines:] - cut
        if not data.isascii():
            try:
                data.decode()
            except UnicodeDecodeError as exc:
                self.error = exc
                ends = ends[:np.searchsorted(ends, exc.start)]  # the lines before its line
                data = data[:int(ends[-1]) + 1 if len(ends) else 0]
                self.data, self.ends, self.eof = b"", self.ends[:0], True
        return data, ends

    def push(self, data: bytes) -> None:
        """Put the lines of ``data``, a block ``take`` gave, before the file's next lines."""
        self.text.extend(io.StringIO(data.decode(), newline=""))

    def _more(self, lines: int) -> bool:
        """Push up to ``lines`` more lines of the file; False past its last."""
        data = self.take(lines)[0]
        self.push(data)
        return bool(data)

    def read_text(self, n: int) -> list[str]:
        """The next ``n`` text lines (fewer at the end)."""
        while len(self.text) < n and self._more(n - len(self.text)):
            pass
        return [self.text.popleft() for _ in range(min(n, len(self.text)))]

    def __iter__(self) -> Iterator[str]:
        """The next text lines, one at a time, for a reader that may stop after any."""
        while self.text or self._more(1):
            yield self.text.popleft()


def _header(lines: _Lines, path: str | Path) -> list[str] | None:
    """The header's cells, read by ``csv.reader`` after a UTF-8 byte order
    mark; None if the file holds no record."""
    lines.push(lines.take(1)[0].removeprefix(codecs.BOM_UTF8))
    try:
        return next(csv.reader(lines), None)
    except csv.Error as exc:
        raise InvalidDocument(path, f"row 1: {exc}") from None


def _text_batch(lines: _Lines, path: str | Path, width: int, size: int, first: int):
    """Read the next batch of at most ``size`` records, from row ``first``
    on, from the text lines of ``lines``; returns the number of records.

    Yields (row numbers, columns, rows) for the batch's non-blank records,
    if it has any: ``columns`` holds the cells transposed, and ``rows`` is
    None when every record has ``width`` fields, else it holds each
    record's cells (the columns then hold them cut or padded with "" to
    ``width``). A batch of plain lines (``_plain``) is split at commas and
    newlines; any other batch is read by ``csv.reader`` from the same lines,
    and from the lines after them where a quoted field runs on. A record csv
    cannot read ends the batch before it, and its error is raised after the
    batch.
    """
    batch = lines.read_text(size)
    text = "".join(batch)
    if _plain(text, lambda: np.fromiter(map(len, batch), np.int64, len(batch))):
        numbers = range(first, first + len(batch))
        if set(map(str.count, batch, repeat(","))) != {width - 1}:
            yield numbers, *_columns([line.rstrip("\n").split(",") for line in batch], width)
            return len(numbers)
        del batch  # free each copy of the text before the cells exist
        text = text.replace("\n", ",")
        cells = text.split(",")
        del text, cells[len(numbers) * width:]  # the cell after a final newline
        yield numbers, [tuple(cells[j::width]) for j in range(width)], None
        return len(numbers)
    del text
    rows: list[list[str]] = []
    error = None
    try:
        rows.extend(islice(csv.reader(chain(batch, lines)), size))
    except csv.Error as exc:
        error = InvalidDocument(path, f"row {first + len(rows)}: {exc}")
    del batch
    count = len(rows)
    numbers = range(first, first + count)
    if not all(rows):
        numbers = [n for n, cells in zip(numbers, rows) if cells]
        rows = [cells for cells in rows if cells]
    if rows:
        yield numbers, *_columns(rows, width)
    del rows
    if error is not None:
        raise error
    return count


def _byte_kinds(names: list[str], rules: list[_Rule]) -> str:
    """Each column's ``fixedpoint.parse_lines`` kind: that of the parser of
    the column's first rule, or ``s`` (text) if that rule has none."""
    first: dict[str, _Parser | None] = {}
    for rule in rules:
        first.setdefault(rule.column, rule.parser)
    return "".join(first[name].kind if first.get(name) else "s" for name in names)


def _batches(lines: _Lines, path: str | Path, width: int, kinds: str, size: int):
    """Row numbers, columns and rows (see ``_text_batch``) of each batch of
    at most ``size`` records after the header.

    While no text line is left over, the next block of lines is read by
    ``_byte_columns``; a block it does not read is pushed as text lines,
    which ``_text_batch`` reads until a batch ends with none left over.
    """
    block = size * max(1, _PARSE_ROWS // size)
    first = 2  # the row number of the next record
    while True:
        if not lines.text:
            data, ends = lines.take(block)
            if not data:
                return
            columns = _byte_columns(data, ends, kinds)
            if columns is not None:
                del data, ends
                n = len(columns[0])
                yield from _sliced(columns, n, size, first)
                del columns
                first += n
                continue
            lines.push(data)
            del data, ends
        first += yield from _text_batch(lines, path, width, size, first)


def _read_batches(path: str | Path, schema, batch_of, size: int):
    """Shared reader loop: header, then one validated batch per ``size`` records.

    ``schema(header)`` checks the file's header and returns the column names
    of its rows and their rules; ``batch_of(c, names)`` builds a batch from
    the checked columns. Text that is not UTF-8, or a record csv cannot
    read, is InvalidDocument naming the file.
    """
    if size < 1:
        raise ValueError("batch_size must be >= 1")
    seen: set[str] = set()
    with open(path, "rb", buffering=0) as fh:
        lines = _Lines(fh)
        header = _header(lines, path)
        if lines.error is None:
            names, rules = schema(header)
            for numbers, columns, rows in _batches(lines, path, len(names),
                                                   _byte_kinds(names, rules), size):
                c = _checked_columns(rules, names, numbers, columns, rows, seen)
                del columns, rows  # free the cells before the next batch is read
                batch = batch_of(c, names)
                del c
                yield batch
    if (exc := lines.error) is not None:
        raise InvalidDocument(path, f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x} "
                                    "cannot be decoded)")


def read_calibration_batches(path: str | Path, mode: str = "single",
                             batch_size: int = CALIBRATION_BATCH_SIZE,
                             ) -> Iterator[CalibrationBatch]:
    """Stream validated calibration rows from ``path`` as column batches.

    Duplicate customer ids are rejected; multiple snapshots per file are out
    of scope.
    """
    _check_mode(mode)

    def schema(header):
        # A single-risk file may label its churners' causes: the column is
        # checked as in a competing-risks file, and counting ignores it.
        kind = "competing" if [h.strip() for h in (header or [])[3:4]] == ["cause"] else mode
        names = _calibration_header(kind, _validate_header(header, _calibration_header(kind, 0)))
        return names, _calibration_rules(names)

    return _read_batches(path, schema, _calibration_batch, batch_size)


def read_scoring_batches(path: str | Path, mode: str = "single",
                         batch_size: int = SCORING_BATCH_SIZE) -> Iterator[ScoringBatch]:
    """Stream validated scoring rows from ``path`` as column batches.

    Memory stays flat in the file length apart from the id set used for
    duplicate detection.
    """
    _check_mode(mode)

    def schema(header):
        names = _scoring_header(mode)
        if _validate_header(header, names):
            raise InvalidValue(1, header[len(names)], "unexpected column")
        return names, _scoring_rules(names)

    return _read_batches(path, schema, _scoring_batch, batch_size)


def read_calibration(path: str | Path, mode: str = "single") -> Iterator[CalibrationRecord]:
    """Stream validated calibration records from ``path`` (see ``read_calibration_batches``)."""
    for batch in read_calibration_batches(path, mode):
        yield from batch.records()


def read_scoring(path: str | Path, mode: str = "single") -> Iterator[ScoringRecord]:
    """Stream validated scoring records from ``path`` (see ``read_scoring_batches``)."""
    for batch in read_scoring_batches(path, mode):
        yield from batch.records()


def _csv_field(value: str) -> str:
    """``value`` as ``csv.writer`` writes it in a row of several fields."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((value, ""))
    return out.getvalue()[:-2]


def _write_template(fh, template: str, ids: tuple[str, ...], columns: list,
                    quote: bool) -> None:
    """Write ``template % (id, *fields)`` line by line, with ids quoted as
    ``csv.writer`` does if ``quote``."""
    cells = map(_csv_field, ids) if quote else ids
    # Line by line: joining the batch first is about 20% faster but holds
    # every line and their join at once (0.8 MB more peak on 8192 rows).
    fh.writelines(map(template.__mod__, zip(cells, *(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns))))


def _write_rows(fh, template: str, ids: tuple[str, ...], columns: Iterable) -> int:
    """Write one ``template`` line per id, with ids quoted as ``csv.writer`` quotes them.

    ``columns`` holds the other fields, one array (or sequence) per column.
    The ids are joined and searched once. Array columns under a template of
    an id and ``%.6f`` and ``%d`` fields are printed by
    ``fixedpoint.format_lines`` from the joined ids' bytes, ``_FORMAT_ROWS``
    rows at a time. A batch with an id that csv may quote, any other
    template or column, and a slice that ``format_lines`` does not print go
    through the template line by line.
    """
    from .fixedpoint import field_kinds, format_lines  # compiled only where rows are written

    columns = list(columns)
    kinds = field_kinds(template)
    joined = ",".join(ids) + ","  # each id and a comma after it
    quote = joined.count(",") != len(ids) or _CSV_SPECIAL.search(joined) is not None
    text = None
    if not (quote or kinds is None or len(kinds) != len(columns)
            or not all(isinstance(c, np.ndarray) and c.ndim == 1 for c in columns)):
        try:
            text = np.frombuffer(joined.encode(), np.uint8)
        except UnicodeEncodeError:  # the template raises the file's error
            pass
    del joined
    if text is None:
        _write_template(fh, template, ids, columns, quote)
        return len(ids)
    ends = np.flatnonzero(text == 44) + 1  # where each id's bytes and comma end
    for start in range(0, len(ids), _FORMAT_ROWS):
        rows = slice(start, start + _FORMAT_ROWS)
        part = [c[rows] for c in columns]
        lines = format_lines(kinds, text[ends[start - 1] if start else 0:ends[rows][-1]], part)
        if lines is None:
            _write_template(fh, template, ids[rows], part, False)
        else:
            fh.write(lines.decode())
    return len(ids)


def write_csv(path: str | Path, header: list[str], template: str,
              batches: Iterable[tuple[tuple[str, ...], Iterable]]) -> int:
    """Write ``header`` and, for each ``(ids, columns)`` batch, one line per id.

    Lines are ``template % (id, *fields)``; returns the number of rows written.
    """
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for ids, columns in batches:
            count += _write_rows(fh, template, ids, columns)
    return count


def as_batches(rows, batch_type: type, size: int = SCORING_BATCH_SIZE) -> Iterator:
    """``rows`` if it is one ``batch_type``, else its records in batches of ``size``."""
    if isinstance(rows, batch_type):
        return iter([rows])
    return map(batch_type.from_records, chunks(rows, size))


def write_projection_batches(path: str | Path, batches: Iterable[ProjectionBatch]) -> int:
    """Write projection batches in order; returns the number of rows written.

    The rows go to a temporary file beside ``path``, which replaces ``path``
    only after the last batch: if a batch fails, ``path`` is left as it was.
    Each batch is formatted through one line template, with ids quoted as
    ``csv.writer`` quotes them.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    count = 0
    fh = open(tmp, "x", newline="", encoding="utf-8")
    try:
        with fh:
            fh.write(",".join(PROJECTION_COLUMNS) + "\n")
            for b in batches:
                count += _write_rows(fh, _PROJECTION_LINE, b.ids, b[1:])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def write_projections(path: str | Path, rows: Iterable[ProjectionRow]) -> int:
    """Write projection rows; returns the number of rows written."""
    return write_projection_batches(
        path, map(ProjectionBatch.from_rows, chunks(rows, SCORING_BATCH_SIZE)))


def write_calibration(path: str | Path, records: CalibrationBatch | Iterable[CalibrationRecord],
                      mode: str = "single") -> int:
    """Write calibration rows, a column batch or records; returns the row count.

    The first batch sets the covariate columns. In competing-risks mode a
    batch without a cause column writes empty causes.
    """
    _check_mode(mode)
    competing = mode == "competing"
    batches = as_batches(records, CalibrationBatch, CALIBRATION_BATCH_SIZE)
    first = next(batches, None)
    n_cov = 0 if first is None or first.covariates is None else first.covariates.shape[1]
    template = "%s,%d,%d" + ",%s" * competing + f",{_FLOAT_FMT}" * n_cov + "\n"

    def rows():
        for b in () if first is None else chain([first], batches):
            columns = [b.tenure, b.churned]
            if competing:
                columns.append(repeat("") if b.cause is None else b.cause)
            if n_cov:
                columns.extend(b.covariates.T)
            yield b.ids, columns

    return write_csv(path, _calibration_header(mode, n_cov), template, rows())


def write_scoring(path: str | Path, records: ScoringBatch | Iterable[ScoringRecord],
                  mode: str = "single") -> int:
    """Write scoring rows, a column batch or records; returns the row count.

    A score column the batch lacks is written as zeros.
    """
    _check_mode(mode)
    names = score_columns(mode)
    template = "%s,%d" + f",{_FLOAT_FMT}" * (len(names) + 1) + "\n"

    def rows():
        for b in as_batches(records, ScoringBatch):
            scores = [repeat(0.0) if getattr(b, name) is None else getattr(b, name)
                      for name in names]
            yield b.ids, [b.tenure, *scores, b.margin]

    return write_csv(path, _scoring_header(mode), template, rows())
