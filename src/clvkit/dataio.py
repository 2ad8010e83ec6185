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

Readers yield validated column batches: up to ``batch_size`` rows at a
time, transposed and parsed column by column into numpy arrays, with every
rule checked on whole columns (duplicate ids also across batches). The
record readers (``read_calibration``, ``read_scoring``) are views over the
same batches. Only when a batch breaks a rule do the per-row checks run
over it, to report the first failing row as a row-by-row reader would: its
row number (header = row 1), column and reason. An error therefore surfaces
when its batch is read, before any record of that batch is consumed, and
its message does not depend on the batch size.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DuplicateCustomerId, InvalidValue, MissingColumn

CAUSE_VOLUNTARY = "V"
CAUSE_INVOLUNTARY = "I"

PROJECTION_COLUMNS = ["customer_id", "alpha", "ert_months", "clv", "truncated_at"]

# Rows per batch. Calibration batches stay small: a file is counted batch by
# batch, and on the benchmark's inputs batches past 512 rows only added peak
# memory (about 1.5 MB at 4096 rows) without reading faster.
CALIBRATION_BATCH_SIZE = 512
SCORING_BATCH_SIZE = 8192

_FLOAT_FMT = "{:.6f}"
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
    _parse_tenure(cells[1], row)
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
    if tenure is None or not set(churned) <= {"0", "1"}:
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


def _row_batches(reader, size: int) -> Iterator[tuple[list[list[str]], range | list[int]]]:
    """Non-blank rows in lists of at most ``size``, with their row numbers."""
    first = 2
    while rows := list(islice(reader, size)):
        numbers: range | list[int] = range(first, first + len(rows))
        first += len(rows)
        if not all(rows):
            numbers = [n for n, cells in zip(numbers, rows) if cells]
            rows = [cells for cells in rows if cells]
        if rows:
            yield rows, numbers


def _read_batches(path: str | Path, header_columns, batch_of, row_check, size: int):
    """Shared reader loop: header, then one validated batch per ``size`` rows.

    ``header_columns(header)`` checks the file's header and returns the
    column names of its rows; ``batch_of(columns)`` parses the transposed
    cells into a batch, or returns None when a cell breaks a rule, and
    ``row_check(cells, row, names, seen)`` then names the first failing row.
    """
    if size < 1:
        raise ValueError("batch_size must be >= 1")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        columns = header_columns(next(reader, None))
        seen: set[str] = set()
        for rows, numbers in _row_batches(reader, size):
            transposed = _columns(rows, len(columns))
            batch = None
            if transposed is not None and _add_ids(transposed[0], seen):
                batch = batch_of(transposed)
                if batch is None:
                    seen.difference_update(transposed[0])
            if batch is None:
                for cells, row in zip(rows, numbers):
                    row_check(cells, row, columns, seen)
                raise AssertionError("a row check must fail where a column check did")
            rows.clear()  # the row lists are no longer needed; free them early
            del transposed
            yield batch


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


def write_projection_batches(path: str | Path, batches: Iterable[ProjectionBatch]) -> int:
    """Write projection batches in order; returns the number of rows written."""
    count = 0
    fmt = _FLOAT_FMT.format
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PROJECTION_COLUMNS)
        for b in batches:
            writer.writerows(zip(b.ids, map(fmt, b.alpha.tolist()),
                                 map(fmt, b.ert_months.tolist()), map(fmt, b.clv.tolist()),
                                 b.truncated_at.tolist()))
            count += len(b.ids)
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


def write_calibration(path: str | Path, records: Iterable[CalibrationRecord],
                      mode: str = "single") -> int:
    _check_mode(mode)
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header: list[str] | None = None
        for rec in records:
            if header is None:
                n_cov = len(rec.covariates) if rec.covariates else 0
                header = _calibration_header(mode, n_cov)
                writer.writerow(header)
            row = [rec.customer_id, str(rec.tenure), str(rec.churned)]
            if mode == "competing":
                row.append(rec.cause or "")
            if rec.covariates:
                row.extend(_FLOAT_FMT.format(x) for x in rec.covariates)
            writer.writerow(row)
            count += 1
        if header is None:
            writer.writerow(_calibration_header(mode, 0))
    return count


def write_scoring(path: str | Path, records: Iterable[ScoringRecord],
                  mode: str = "single") -> int:
    _check_mode(mode)
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_scoring_header(mode))
        for rec in records:
            if mode == "competing":
                writer.writerow([
                    rec.customer_id, str(rec.tenure),
                    _FLOAT_FMT.format(rec.score_v or 0.0),
                    _FLOAT_FMT.format(rec.score_inv or 0.0),
                    _FLOAT_FMT.format(rec.margin),
                ])
            else:
                writer.writerow([
                    rec.customer_id, str(rec.tenure),
                    _FLOAT_FMT.format(rec.churn_score or 0.0),
                    _FLOAT_FMT.format(rec.margin),
                ])
            count += 1
    return count
