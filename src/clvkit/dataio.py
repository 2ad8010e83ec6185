"""CSV schemas and batched readers/writers.

Three row formats move through the pipeline:

* calibration: one customer observed at a snapshot, with the churn outcome
  over the following month (``customer_id,tenure,churned``, plus ``cause``
  in competing-risks mode and optional covariate columns ``x1..xm``),
* scoring: one live customer with churn-model score(s) and a monthly margin,
* projections: the per-customer output written by the scorer.

Files are UTF-8 CSV with a header row that must match the declared schema
exactly (case-sensitive). LF and CRLF are both accepted; blank lines are
skipped. Floats are written with six decimal places.

Readers yield validated column batches: up to ``batch_size`` records at a
time, parsed column by column into numpy arrays, with every rule checked on
whole columns (duplicate ids also across batches). A batch whose text has
no quote, carriage return, NUL or blank line is split as text at commas
and newlines; any other batch is read by ``csv.reader``, which reads a
quoted field on past the batch's last line if it must. Either way the
cells are those ``csv.reader`` gives. The record readers
(``read_calibration``, ``read_scoring``) are views over the same batches.
Only when a batch breaks a rule (a line with another number of fields
than the schema's is one) do the per-row checks run over it, to report the
first failing row as a row-by-row reader would: its row number (header =
row 1, counting csv records), column and reason. An error therefore
surfaces when its batch is read, before any record of that batch is
consumed, and its message does not depend on the batch size. Text that is
not UTF-8, or a record csv refuses (a field past its size limit), is
``InvalidDocument`` naming the file, raised after the records before it
have been checked.

Every writer (projections, and the simulator's calibration, scoring and
truth files) formats each batch through one line template and quotes ids
as ``csv.writer`` does. Record inputs are converted to batches first. The
projection writer writes to a temporary file that replaces the output only
once every batch is written.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DuplicateCustomerId, InvalidDocument, InvalidValue, MissingColumn

CAUSE_VOLUNTARY = "V"
CAUSE_INVOLUNTARY = "I"

PROJECTION_COLUMNS = ["customer_id", "alpha", "ert_months", "clv", "truncated_at"]

# Rows per batch. Calibration batches stay small: a file is counted batch by
# batch, and on the benchmark's inputs batches past 512 rows only added peak
# memory (about 1.5 MB at 4096 rows) without reading faster.
CALIBRATION_BATCH_SIZE = 512
SCORING_BATCH_SIZE = 8192

# Largest tenure (months) a calibration row may hold. Counting sizes its
# arrays by the largest tenure, so this bounds them at about 0.8 MB each.
MAX_CALIBRATION_TENURE = 100_000

_FLOAT_FMT = "%.6f"
_PROJECTION_LINE = f"%s,{_FLOAT_FMT},{_FLOAT_FMT},{_FLOAT_FMT},%d\n"
# Characters that may make csv.writer quote an id. A batch holding one has
# its ids quoted by csv.writer itself, which (on Python 3.11) leaves an id
# with a lone "\r" unquoted, so a hand-written rule could drift from it.
_CSV_SPECIAL = re.compile('[,"\r\n]')
_INT64_MAX = int(np.iinfo(np.int64).max)
# (churned, cause) cells a competing-risks calibration row may hold.
_CAUSE_CELLS = {("1", CAUSE_VOLUNTARY), ("1", CAUSE_INVOLUNTARY), ("0", "")}


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
    "I" or "" (survivors) per row in competing-risks mode and is None
    otherwise; ``covariates`` is a C-contiguous (rows, m) float64 array, or
    None when the file has no ``x`` columns. The record-level estimators
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
        columns = [self.ids, self.tenure.tolist(), self.margin.tolist()]
        if self.churn_score is not None:
            for cid, tenure, margin, score in zip(*columns, self.churn_score.tolist()):
                yield ScoringRecord(cid, tenure, margin, churn_score=score)
        else:
            for cid, tenure, margin, score_v, score_inv in zip(
                    *columns, self.score_v.tolist(), self.score_inv.tolist()):
                yield ScoringRecord(cid, tenure, margin, score_v=score_v, score_inv=score_inv)


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


def _calibration_header(mode: str, covariate_count: int) -> list[str]:
    cols = ["customer_id", "tenure", "churned"]
    if mode == "competing":
        cols.append("cause")
    cols.extend(f"x{i}" for i in range(1, covariate_count + 1))
    return cols


def _scoring_header(mode: str) -> list[str]:
    if mode == "competing":
        return ["customer_id", "tenure", "score_v", "score_inv", "margin"]
    return ["customer_id", "tenure", "churn_score", "margin"]


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


# Row checks: the wording of every rule, applied to one row at a time. They
# run only over a batch whose column checks failed, to name its first error.

def _parse_tenure(value: str, row: int) -> int:
    try:
        tenure = int(value)
    except ValueError:
        raise InvalidValue(row, "tenure", f"{value!r} is not an integer") from None
    if tenure < 0:
        raise InvalidValue(row, "tenure", "must be >= 0")
    if tenure > _INT64_MAX:
        raise InvalidValue(row, "tenure", f"must be <= {_INT64_MAX}")
    return tenure


def _parse_probability(value: str, row: int, column: str) -> float:
    try:
        p = float(value)
    except ValueError:
        raise InvalidValue(row, column, f"{value!r} is not a number") from None
    if not math.isfinite(p) or p < 0.0 or p > 1.0:
        raise InvalidValue(row, column, "must be in [0, 1]")
    return p


def _parse_float(value: str, row: int, column: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise InvalidValue(row, column, f"{value!r} is not a number") from None
    if not math.isfinite(x):
        raise InvalidValue(row, column, "must be finite")
    return x


def _check_fields(cells: list[str], columns: list[str], row: int) -> None:
    if len(cells) < len(columns):
        raise InvalidValue(row, columns[len(cells)], "missing field")
    if len(cells) > len(columns):
        raise InvalidValue(row, f"field {len(columns) + 1}", "unexpected extra field")


def _check_id(cells: list[str], columns: list[str], row: int, seen: set[str]) -> None:
    _check_fields(cells, columns, row)
    cid = cells[0]
    if not cid:
        raise InvalidValue(row, "customer_id", "must be non-empty")
    if cid in seen:
        raise DuplicateCustomerId(cid, row)
    seen.add(cid)


def _check_calibration_row(cells: list[str], row: int, columns: list[str],
                           seen: set[str]) -> None:
    _check_id(cells, columns, row, seen)
    if _parse_tenure(cells[1], row) > MAX_CALIBRATION_TENURE:
        raise InvalidValue(row, "tenure", f"must be <= {MAX_CALIBRATION_TENURE}")
    if cells[2] not in ("0", "1"):
        raise InvalidValue(row, "churned", "must be 0 or 1")
    offset = 3
    if "cause" in columns:
        offset = 4
        if cells[2] == "1":
            if cells[3] not in (CAUSE_VOLUNTARY, CAUSE_INVOLUNTARY):
                raise InvalidValue(row, "cause", "must be V or I for churners")
        elif cells[3] != "":
            raise InvalidValue(row, "cause", "must be empty unless churned")
    for column, value in zip(columns[offset:], cells[offset:]):
        _parse_float(value, row, column)


def _check_scoring_row(cells: list[str], row: int, columns: list[str],
                       seen: set[str]) -> None:
    _check_id(cells, columns, row, seen)
    _parse_tenure(cells[1], row)
    if "score_v" in columns:
        score_v = _parse_probability(cells[2], row, "score_v")
        score_inv = _parse_probability(cells[3], row, "score_inv")
        if score_v + score_inv > 1.0:
            raise InvalidValue(row, "score_v/score_inv",
                               f"sum {score_v + score_inv:g} exceeds 1")
    else:
        _parse_probability(cells[2], row, "churn_score")
    _parse_float(cells[-1], row, "margin")


# Column checks: each returns the parsed column, or None if any cell breaks
# its rule.

def _numbers(cells: tuple[str, ...], kind: type, dtype) -> np.ndarray | None:
    try:
        return np.fromiter(map(kind, cells), dtype, len(cells))
    except (ValueError, OverflowError):  # not a number, or an int past int64
        return None


def _tenures(cells: tuple[str, ...]) -> np.ndarray | None:
    tenure = _numbers(cells, int, np.int64)
    return None if tenure is None or (tenure < 0).any() else tenure


def _probabilities(cells: tuple[str, ...]) -> np.ndarray | None:
    p = _numbers(cells, float, np.float64)
    return None if p is None or not ((p >= 0.0) & (p <= 1.0)).all() else p


def _finite(cells: tuple[str, ...]) -> np.ndarray | None:
    x = _numbers(cells, float, np.float64)
    return None if x is None or not np.isfinite(x).all() else x


def _columns(rows: list[list[str]], width: int) -> list | None:
    """The rows transposed, if each has ``width`` fields."""
    return list(zip(*rows)) if set(map(len, rows)) == {width} else None


def _add_ids(ids: tuple[str, ...], seen: set[str]) -> bool:
    """Add ``ids`` to ``seen`` if all are non-empty, distinct and new; else leave it."""
    if "" in ids or not seen.isdisjoint(ids):
        return False
    count = len(seen)
    seen.update(ids)
    if len(seen) - count == len(ids):
        return True
    seen.difference_update(ids)
    return False


def _calibration_batch(columns: list, competing: bool) -> CalibrationBatch | None:
    n_cov = len(columns) - 3 - competing
    tenure = _tenures(columns[1])
    churned = columns[2]
    if (tenure is None or tenure.max() > MAX_CALIBRATION_TENURE
            or not set(churned) <= {"0", "1"}):
        return None
    cause = None
    if competing:
        if not set(zip(churned, columns[3])) <= _CAUSE_CELLS:
            return None
        cause = np.array(columns[3], dtype="U1")
    covariates = None
    if n_cov:
        covariates = np.empty((len(tenure), n_cov))
        for j, cells in enumerate(columns[3 + competing:]):
            x = _finite(cells)
            if x is None:
                return None
            covariates[:, j] = x
    return CalibrationBatch(columns[0], tenure, _numbers(churned, int, np.int64), cause,
                            covariates)


def _scoring_batch(columns: list) -> ScoringBatch | None:
    tenure = _tenures(columns[1])
    margin = _finite(columns[-1])
    if tenure is None or margin is None:
        return None
    if len(columns) == 4:
        score = _probabilities(columns[2])
        return None if score is None else ScoringBatch(columns[0], tenure, margin, score)
    score_v = _probabilities(columns[2])
    score_inv = _probabilities(columns[3])
    if score_v is None or score_inv is None or (score_v + score_inv > 1.0).any():
        return None
    return ScoringBatch(columns[0], tenure, margin, score_v=score_v, score_inv=score_inv)


def _until_error(lines: Iterator[str], failed: list[UnicodeDecodeError]) -> Iterator[str]:
    """``lines`` up to the first one that cannot be decoded; that error goes to ``failed``.

    The text then simply ends, so the records before it are read and checked
    the same way at every batch size before the error is raised.
    """
    try:
        yield from lines
    except UnicodeDecodeError as exc:
        failed.append(exc)


def _plain(text: str, lines: list[str]) -> bool:
    """Whether ``csv.reader`` reads each of ``lines`` as ``line.split(",")``.

    That holds when the text has no quote, carriage return, NUL or blank
    line and no line long enough to hold a field past csv's size limit.
    """
    if '"' in text or "\r" in text or "\0" in text or "\n\n" in text or text[0] == "\n":
        return False
    limit = csv.field_size_limit()
    return len(text) <= limit or max(map(len, lines)) <= limit


def _text_batches(source: Iterator[str], path: str | Path, width: int, size: int):
    """Records after the header in batches of at most ``size``.

    Yields (row numbers, columns, rows) for each batch's non-blank records:
    ``columns`` holds the cells transposed when every record has ``width``
    fields, else it is None and ``rows`` holds each record's cells. A batch
    of plain lines (``_plain``) is split as text; any other batch is read by
    ``csv.reader`` from the same lines, and from the file beyond them where a
    quoted field runs on. A record csv cannot read ends the batch before it,
    and its error is raised after that batch.
    """
    first = 2
    while lines := list(islice(source, size)):
        text = "".join(lines)
        if _plain(text, lines):
            numbers = range(first, first + len(lines))
            first += len(lines)
            if set(map(str.count, lines, repeat(","))) != {width - 1}:
                yield numbers, None, [line.rstrip("\n").split(",") for line in lines]
                continue
            del lines  # free each copy of the text before the cells exist
            text = text.replace("\n", ",")
            cells = text.split(",")
            del text, cells[len(numbers) * width:]  # the cell after a final newline
            yield numbers, [tuple(cells[j::width]) for j in range(width)], None
            continue
        del text
        rows: list[list[str]] = []
        error = None
        try:
            rows.extend(islice(csv.reader(chain(lines, source)), size))
        except csv.Error as exc:
            error = InvalidDocument(path, f"row {first + len(rows)}: {exc}")
        del lines
        numbers = range(first, first + len(rows))
        first += len(rows)
        if not all(rows):
            numbers = [n for n, cells in zip(numbers, rows) if cells]
            rows = [cells for cells in rows if cells]
        if rows:
            columns = _columns(rows, width)
            yield numbers, columns, None if columns else rows
            del columns
        del rows
        if error is not None:
            raise error


def _read_batches(path: str | Path, header_columns, batch_of, row_check, size: int):
    """Shared reader loop: header, then one validated batch per ``size`` records.

    ``header_columns(header)`` checks the file's header and returns the
    column names of its rows; ``batch_of(columns)`` parses the transposed
    cells into a batch, or returns None when a cell breaks a rule, and
    ``row_check(cells, row, names, seen)`` then names the first failing row.
    Text that is not UTF-8, or a record csv cannot read, is InvalidDocument
    naming the file.
    """
    if size < 1:
        raise ValueError("batch_size must be >= 1")
    failed: list[UnicodeDecodeError] = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        source = _until_error(fh, failed)
        try:
            header = next(csv.reader(source), None)
        except csv.Error as exc:
            raise InvalidDocument(path, f"row 1: {exc}") from None
        if not failed:
            columns = header_columns(header)
            seen: set[str] = set()
            for numbers, transposed, rows in _text_batches(source, path, len(columns), size):
                batch = None
                if transposed is not None and _add_ids(transposed[0], seen):
                    batch = batch_of(transposed)
                    if batch is None:
                        seen.difference_update(transposed[0])
                if batch is None:
                    for cells, row in zip(rows or zip(*transposed), numbers):
                        row_check(cells, row, columns, seen)
                    raise AssertionError("a row check must fail where a column check did")
                del transposed, rows  # free the cells before the next batch is read
                yield batch
    if failed:
        exc = failed[0]
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
    competing = mode == "competing"

    def header_columns(header):
        n_cov = _validate_header(header, _calibration_header(mode, 0))
        return _calibration_header(mode, n_cov)

    return _read_batches(path, header_columns, lambda cells: _calibration_batch(cells, competing),
                         _check_calibration_row, batch_size)


def read_scoring_batches(path: str | Path, mode: str = "single",
                         batch_size: int = SCORING_BATCH_SIZE) -> Iterator[ScoringBatch]:
    """Stream validated scoring rows from ``path`` as column batches.

    Memory stays flat in the file length apart from the id set used for
    duplicate detection.
    """
    _check_mode(mode)

    def header_columns(header):
        columns = _scoring_header(mode)
        if _validate_header(header, columns):
            raise InvalidValue(1, header[len(columns)], "unexpected column")
        return columns

    return _read_batches(path, header_columns, _scoring_batch, _check_scoring_row, batch_size)


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


def _write_rows(fh, template: str, ids: tuple[str, ...], columns: Iterable) -> int:
    """Write one ``template`` line per id, with ids quoted as ``csv.writer`` quotes them.

    ``columns`` holds the other fields, one array (or sequence) per column.
    """
    cells = ids
    if _CSV_SPECIAL.search("".join(ids)):
        cells = map(_csv_field, ids)
    # Line by line: joining the batch first is about 20% faster but holds
    # every line and their join at once (0.8 MB more peak on 8192 rows).
    fh.writelines(map(template.__mod__, zip(cells, *(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns))))
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


def read_projections(path: str | Path) -> Iterator[ProjectionRow]:
    """Read back a projections file (used for round-trip checks and tooling)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if _validate_header(header, PROJECTION_COLUMNS):
            raise InvalidValue(1, header[len(PROJECTION_COLUMNS)], "unexpected column")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            _check_fields(row, PROJECTION_COLUMNS, lineno)
            try:
                truncated = int(row[4])
            except ValueError:
                raise InvalidValue(lineno, "truncated_at", "not an integer") from None
            yield ProjectionRow(
                customer_id=row[0],
                alpha=_parse_float(row[1], lineno, "alpha"),
                ert_months=_parse_float(row[2], lineno, "ert_months"),
                clv=_parse_float(row[3], lineno, "clv"),
                truncated_at=truncated,
            )


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
    names = ["score_v", "score_inv"] if mode == "competing" else ["churn_score"]
    template = "%s,%d" + f",{_FLOAT_FMT}" * (len(names) + 1) + "\n"

    def rows():
        for b in as_batches(records, ScoringBatch):
            scores = [repeat(0.0) if getattr(b, name) is None else getattr(b, name)
                      for name in names]
            yield b.ids, [b.tenure, *scores, b.margin]

    return write_csv(path, _scoring_header(mode), template, rows())
