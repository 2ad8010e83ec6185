"""CSV schemas and batched readers/writers.

Three row formats move through the pipeline:

* calibration: one customer observed at a snapshot, with the churn outcome
  over the following month (``customer_id,tenure,churned``, plus ``cause``,
  required in competing-risks mode and optional otherwise, and optional
  covariate columns ``x1..xm``),
* scoring: one live customer with churn-model score(s) and a monthly margin,
* projections: the per-customer output written by the scorer.

Files are UTF-8 CSV with a header row that must match the declared schema
exactly (case-sensitive). Floats are written with six decimal places.

Readers yield validated column batches of up to ``batch_size`` records. A
file (a regular file or a pipe) is read once, in order, from its raw bytes
after a UTF-8 byte order mark, and tokenized in numpy as the ``csv`` module
reads a text file opened with ``newline=""`` (``_Lines``, ``_records``): a
record ends at "\\n", "\\r\\n" or a lone "\\r", and a cell at a comma or
a record end, outside quoted sections; a blank record is skipped but keeps
its row number. A quote opens a section only at a field start or right
after the quote that closed one (so ``""`` in a section reads ``"``), and
any quote in a section closes it; any other quote, and NUL, is an ordinary
character: ``a"b`` reads ``a"b`` and ``"ab"c`` reads ``abc``. A batch is
a slice of one block: a batch of ``_PARSE_ROWS`` records or more is a block
of its own, and a smaller one is cut from a block of the fewest whole
batches that hold ``_PARSE_ROWS`` records. Each block is parsed by one
``fixedpoint.parse_lines`` call: plain fixed-point number cells and
one-byte code cells (``cause``) to the values ``int`` and ``float`` give,
and a column with a quoted or any other cell as text, which is parsed cell
by cell. Each schema is one table of rules in check order (the field count,
the id, each column's parse and range rules, then rules over two columns),
evaluated as masks over a batch; the error reported is that of the smallest
failing row, and within that row of the first rule it breaks, so it names
the row number (header = row 1, counting csv records), column and reason a
row-by-row reader would, at any batch size, before any record of its batch
is consumed. A repeated id is found by an index of the ids read
(``idindex.IdIndex``) that holds no str per id: each batch's ids joined into
one str, and each id's hash and number as one int64 key, in sorted runs
behind a bit filter; every match of hashes is confirmed on the text. Text
that is not UTF-8, or a cell past csv's field size limit, is
``InvalidDocument`` naming the file, raised after the records before it (for
bytes that do not decode, those before the line that holds the first such
byte) have been checked.

Every writer (projections, and the simulator's calibration, scoring and
truth files) formats each batch through one line template and quotes ids
as ``csv.writer`` does, all in ``_write_rows``. A template of an id and
``%.6f`` and ``%d`` fields over array columns is printed by
``fixedpoint.format_lines`` byte for byte as the template prints; a batch
whose ids csv may quote, and a slice that ``format_lines`` does not print
(a non-finite float, say), go through the template line by line. The
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
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ClvkitError, DuplicateCustomerId, InvalidDocument, InvalidValue, MissingColumn

if TYPE_CHECKING:
    from .idindex import IdIndex

CAUSE_VOLUNTARY = "V"
CAUSE_INVOLUNTARY = "I"
# The competing-risks causes, in the order of their score columns and baselines.
CAUSES = (CAUSE_VOLUNTARY, CAUSE_INVOLUNTARY)

PROJECTION_COLUMNS = ["customer_id", "alpha", "ert_months", "clv", "truncated_at"]

# Records tokenized and parsed as one block, at least: a larger batch is one block.
_PARSE_ROWS = 2048
# Rows per batch. A calibration batch is one block: 2-46 ms less than 512-row
# batches on the benchmark's calibration files, for at most 0.2 MB more peak memory.
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

    ``kind`` is int or float. A bool or a string is not a number, and an int
    loses no fraction: 1000.0 is 1000, 2.5 is an error. Errors are
    ValueErrors whose message starts with ``name``.
    """
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, (bool, str)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        number = kind(value)
        finite = math.isfinite(number)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be {noun}, got {value!r}") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


def json_string(value, name: str) -> str:
    """``value``, from a JSON document, if it is a string; else a ValueError naming ``name``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


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
# cells or parsed values by name, "fields" the rows' field counts and
# "earlier" the index of the ids of earlier batches (``idindex.IdIndex``),
# which the id rule adds the batch's ids to. ``reason`` is formatted with the
# row's cell in ``column``, or is a function that builds the whole error from
# the row number and cells (the field count rule names no one column). A column
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
        _Rule("customer_id", None, lambda c: c["earlier"].repeated(c["customer_id"]),
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
                     fields: np.ndarray | None, earlier: IdIndex) -> dict:
    """One batch's columns by name, parsed; raises the error of its first failing row.

    ``numbers`` are the rows' numbers in the file, ``columns`` their cells
    by column, cut or padded with "" to ``names``, and ``fields`` their
    numbers of fields (None if every row has as many as ``names``).
    """
    n = len(numbers)
    c = dict(zip(names, columns))
    c["fields"] = np.full(n, len(names)) if fields is None else fields
    c["earlier"] = earlier
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
        cells = [column[i].item() if isinstance(column, np.ndarray) else column[i]
                 for column in columns][:None if fields is None else fields[i]]
        if callable(rule.reason):
            raise rule.reason(int(numbers[i]), cells)
        raise InvalidValue(int(numbers[i]), rule.column,
                           rule.reason.format(cells[names.index(rule.column)]))
    return c


def _calibration_batch(c: dict, names: list[str]) -> CalibrationBatch:
    covariates = [c[name] for name in _covariates(names)]
    return CalibrationBatch(c["customer_id"], c["tenure"], c["churned"], c.get("cause"),
                            np.stack(covariates, axis=1) if covariates else None)


def _scoring_batch(c: dict, names: list[str]) -> ScoringBatch:
    return ScoringBatch(c["customer_id"], c["tenure"], c["margin"],
                        **{name: c[name] for name in names[2:-1]})


# The bytes the tokenizer looks for.
_LF, _CR, _QUOTE, _COMMA = 10, 13, 34, 44


def _quotes(a: np.ndarray) -> np.ndarray:
    """The offsets of the quotes of ``a`` (bytes as uint8, from a record
    start on) that act as csv's quote character: outside a quoted section,
    one at a field start or right after the quote that closed one (an
    escaped ``""``) opens it; inside, every quote closes it."""
    quotes = np.flatnonzero(a == _QUOTE)
    starts = np.isin(a[quotes - 1], (_COMMA, _LF, _CR)) | (quotes == 0)
    acting, inside, last = [], False, -2
    for p, start in zip(quotes.tolist(), starts.tolist()):
        if inside or start or p == last + 1:
            acting.append(p)
            inside, last = not inside, p
    return np.array(acting, dtype=np.intp)


def _outside(offsets: np.ndarray, quotes: np.ndarray) -> np.ndarray:
    """The sorted ``offsets`` that are not from an opening quote of ``quotes``
    (those that act) to the one that closes it, or to the end."""
    bounds = np.append(np.searchsorted(offsets, quotes), offsets.size)
    edges = np.bincount(bounds[0:-1:2], minlength=offsets.size + 1)
    edges -= np.bincount(bounds[1::2], minlength=offsets.size + 1)
    return offsets[np.cumsum(edges)[:-1] == 0]


class _Records(NamedTuple):
    """The records of a block of bytes, as ``_records`` reads them."""

    starts: np.ndarray  # each cell's first byte, and
    stops: np.ndarray  # the byte after its last, in order
    first: np.ndarray  # each record's first cell, and
    last: np.ndarray  # its last
    index: np.ndarray  # the records, of the first ``count``, that are not blank
    count: int  # the records read: all, or those before the one ``error`` names
    quoted: np.ndarray | None  # the cells with a quote that acts (and one after)
    dropped: np.ndarray | None  # the bytes csv removes: those quotes but escaped ones
    error: str | None


def _records(data: bytes, ends: np.ndarray, quotes: np.ndarray) -> _Records:
    """The cells of ``data``, a block of whole records, as the ``csv`` module
    reads them, given its line ends and the quotes that act (``_Lines``); the
    last record ends at the end of the block if no line end does (a quote
    left open at the end of a file runs to it). A cell of more characters
    than csv's field size limit ends the records before its record."""
    a = np.frombuffer(data, np.uint8)
    found = a == _COMMA
    found[ends] = True
    separators = np.flatnonzero(found).astype(np.int32 if a.size < 2**31 - 64 else np.intp)
    if quotes.size:
        separators = _outside(separators, quotes)
    stops = separators
    if b"\r" in data:  # a "\r\n" ends its line's last cell at its "\r"
        stops = separators.copy()
        stops[np.searchsorted(separators, ends)] -= (
            (a[ends] == _LF) & (a[ends - 1] == _CR) & (ends > 0))
    if not (ends.size and ends[-1] == a.size - 1):
        ends = np.append(ends, a.size)
        separators, stops = np.append(separators, a.size), np.append(stops, a.size)
    last = np.searchsorted(separators, ends)  # each record's last cell
    starts = np.empty_like(separators)
    starts[0], starts[1:] = 0, separators[:-1] + 1
    first = np.empty_like(last)
    first[0], first[1:] = 0, last[:-1] + 1
    index = np.flatnonzero(stops[last] > starts[first])  # the records that are not blank
    quoted = dropped = None
    if quotes.size:
        quoted = np.zeros(starts.size + 1, dtype=bool)
        quoted[np.searchsorted(separators, quotes)] = True
        # The quote an escaped "" reads opens a section right after one closed.
        escaped = np.zeros(quotes.size, dtype=bool)
        escaped[2::2] = quotes[2::2] == quotes[1:-1:2] + 1
        dropped = np.zeros(a.size + 1, dtype=bool)
        dropped[quotes[~escaped]] = True
    records = _Records(starts, stops, first, last, index, last.size, quoted, dropped, None)
    limit = csv.field_size_limit()
    for cell in np.flatnonzero(stops - starts > limit).tolist() if a.size > limit else ():
        span = slice(starts[cell], stops[cell])
        kept = (a[span] & 0xC0) != 0x80  # the bytes that start a character
        if dropped is not None:
            kept &= ~dropped[span]
        if np.count_nonzero(kept) > limit:
            count = int(np.searchsorted(last, cell))
            return records._replace(index=index[index < count], count=count,
                                    error=f"field larger than field limit ({limit})")
    return records


class _Lines:
    """The records of an unbuffered binary file (a regular file or a pipe),
    read once after a UTF-8 byte order mark, ``_READ_BYTES`` or more at a
    time, their quotes that act (``_quotes``) and line ends found as the
    bytes come: a "\\n", a "\\r\\n" (at its "\\n") or another "\\r", as
    ``newline=""`` ends lines, outside quoted sections. The records end
    before the first line with a byte that does not decode as UTF-8 (its
    error is ``error``); no UTF-8 character holds a byte below 128, so a
    block decodes on its own."""

    def __init__(self, fh):
        self.fh = fh
        self.error: UnicodeDecodeError | None = None
        self.data = b""  # bytes read and not yet taken
        self.eof = False
        self.ends = self.quotes = np.zeros(0, dtype=np.intp)  # of the records found, in data
        while len(self.data) < len(codecs.BOM_UTF8) and not self.eof:
            self._read()
        self.data = self.data.removeprefix(codecs.BOM_UTF8)
        self._scan()

    def _read(self) -> None:
        chunk = self.fh.read(max(_READ_BYTES, len(self.data)))  # doubling, for long records
        self.eof = not chunk
        self.data += chunk

    def _scan(self) -> None:
        """Find the records after those found (at the end of the file, up to it)."""
        start = int(self.ends[-1]) + 1 if self.ends.size else 0
        a = np.frombuffer(self.data, np.uint8)[start:]
        quotes = _quotes(a) if self.data.find(b'"', start) >= 0 else self.quotes[:0]
        cr = self.data.find(b"\r", start) >= 0
        ends = np.flatnonzero((a == _LF) | (a == _CR) if cr else a == _LF)
        if quotes.size:
            ends = _outside(ends, quotes)
        if cr:  # the "\n" of a "\r\n" ends its line, and may come in the next read
            ends = ends[~((a[ends] == _CR) & (a[np.minimum(ends + 1, a.size - 1)] == _LF)
                          | (ends == a.size - 1) & (a[ends] == _CR) & (not self.eof))]
        if not self.eof:  # the last record may run on in the next read
            quotes = quotes[:np.searchsorted(quotes, ends[-1] if ends.size else 0)]
        self.ends = np.concatenate([self.ends, ends + start])
        self.quotes = np.concatenate([self.quotes, quotes + start])

    def take(self, records: int) -> tuple[bytes, _Records]:
        """The next ``records`` records as one block of bytes and its cells
        (``_records``): fewer at the end or before a line that does not decode."""
        while self.ends.size < records and not self.eof:
            self._read()
            self._scan()
        cut = int(self.ends[records - 1]) + 1 if self.ends.size >= records else len(self.data)
        data = self.data[:cut]
        if not data.isascii():
            try:
                data.decode()
            except UnicodeDecodeError as exc:
                self.error, self.eof, self.data = exc, True, b""
                cut = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
                data = data[:cut]
        self.data = self.data[cut:]
        ends, quotes = (found[:np.searchsorted(found, cut)] for found in (self.ends, self.quotes))
        self.ends, self.quotes = self.ends[ends.size:] - cut, self.quotes[quotes.size:] - cut
        if self.error is not None:  # no record follows
            self.ends, self.quotes = ends[:0], quotes[:0]
        return data, _records(data, ends, quotes)


def _byte_kinds(names: list[str], rules: list[_Rule]) -> str:
    """Each column's ``fixedpoint.parse_lines`` kind: that of the parser of
    the column's first rule, or ``s`` (text) if that rule has none."""
    first: dict[str, _Parser | None] = {}
    for rule in rules:
        first.setdefault(rule.column, rule.parser)
    return "".join(first[name].kind if first.get(name) else "s" for name in names)


def _columns(data: bytes, records: _Records, width: int, kinds: str):
    """The columns of the non-blank records of a block (``parse_lines``, a
    text column as a tuple; a column with a ``quoted`` cell as text), their
    missing cells empty and extra ones dropped, and their numbers of cells."""
    from .fixedpoint import parse_lines  # loaded on the first read

    first = records.first[records.index]
    counts = records.last[records.index] - first + 1
    starts, stops = records.starts, records.stops
    if counts.size * width == starts.size and (counts == width).all():  # every cell, in order
        cells = np.arange(starts.size, dtype=starts.dtype).reshape(-1, width)
        starts, stops = starts.reshape(cells.shape), stops.reshape(cells.shape)
    else:
        cells = np.where(np.arange(width) < counts[:, None], first[:, None] + np.arange(width),
                         starts.size)  # an empty cell after the last
        starts, stops = np.append(starts, 0)[cells], np.append(stops, 0)[cells]
    if records.quoted is not None:
        text = set(np.flatnonzero(records.quoted[cells].any(axis=0)).tolist())
        kinds = "".join("s" if j in text else kind for j, kind in enumerate(kinds))
    del cells
    return [c if isinstance(c, np.ndarray) else tuple(c)
            for c in parse_lines(data, starts.T, stops.T, kinds, records.dropped)], counts


def _header(lines: _Lines, path: str | Path) -> list[str] | None:
    """The cells of the file's first record; None if the file holds none."""
    data, records = lines.take(1)
    if not data:
        return None
    if records.error is not None:
        raise InvalidDocument(path, f"row 1: {records.error}")
    width = int(records.last[0] - records.first[0] + 1) if records.index.size else 0
    return [column[0] for column in _columns(data, records, width, "s" * width)[0]]


def _batches(lines: _Lines, path: str | Path, width: int, kinds: str, size: int):
    """The row numbers, columns and field counts (``_columns``) of each batch
    of ``size`` records after the header, blank ones left out: slices of a
    block of ``size * ceil(_PARSE_ROWS / size)`` records, tokenized and
    parsed at once. A record csv cannot read ends the records; its error is
    raised after the batches of those before it."""
    block = size * -(-_PARSE_ROWS // size)
    first, error = 2, None  # the row number of the block's first record
    while error is None:
        data, records = lines.take(block)
        if not data:
            break
        columns, fields = _columns(data, records, width, kinds) if records.index.size else ([], [])
        index, count, error = records.index, records.count, records.error
        del data, records  # free the bounds before the batches are read
        numbers = first + index
        for start in range(0, count, size):
            rows = slice(*np.searchsorted(index, (start, start + size)).tolist())
            if rows.start < rows.stop:
                yield numbers[rows], [c[rows] for c in columns], fields[rows]
        first += count
    if error is not None:
        raise InvalidDocument(path, f"row {first}: {error}")


def _read_batches(path: str | Path, schema, batch_of, size: int):
    """Shared reader loop: header, then one validated batch per ``size`` records.

    ``schema(header)`` checks the file's header and returns the column names
    of its rows and their rules; ``batch_of(c, names)`` builds a batch from
    the checked columns. Text that is not UTF-8, or a record csv cannot
    read, is InvalidDocument naming the file.
    """
    from .idindex import IdIndex  # loaded on the first read

    if size < 1:
        raise ValueError("batch_size must be >= 1")
    earlier = IdIndex()
    with open(path, "rb", buffering=0) as fh:
        lines = _Lines(fh)
        header = _header(lines, path)
        if lines.error is None:
            names, rules = schema(header)
            for numbers, columns, fields in _batches(lines, path, len(names),
                                                     _byte_kinds(names, rules), size):
                c = _checked_columns(rules, names, numbers, columns, fields, earlier)
                del columns  # free the cells before the next batch is read
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

    Memory stays flat in the file length apart from the index of ids read
    (``idindex.IdIndex``), which keeps each id's text and 14 to 20 bytes
    more to find duplicates.
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
