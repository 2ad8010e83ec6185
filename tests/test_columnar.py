"""Column batches against the record-by-record reference.

The readers validate whole columns and fall back to row checks only for a
batch that breaks a rule; ``reference_calibration`` and
``reference_scoring`` below are the row-by-row readers they must agree
with, for every batch size: the same records in order, or the same error
type and message. The CLI's column paths must write the same bytes as the
record-level APIs.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import io
import math
import os
import re
import sys
import tempfile
import threading
import tracemalloc
from itertools import islice
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvkit import dataio, fixedpoint
from clvkit.cli import main
from clvkit.dataio import CalibrationRecord, ScoringRecord
from clvkit.errors import DuplicateCustomerId, InvalidDocument, InvalidValue, MissingColumn
from clvkit.odds import PersonPeriodRow, fit_odds_model, save_model
from clvkit.survival import (
    detect_tail_start,
    estimate_cause_specific,
    estimate_hazard_by_tenure,
    extrapolate_tail,
    save_baseline,
)

from conftest import baseline_from_rates

BATCH_SIZES = (1, 2, 3, 8192)
INT64_MAX = 2**63 - 1


# Row-by-row reference readers: one row is parsed and checked at a time, in
# column order, and the first failing check raises.

def _tenure(value, row):
    try:
        tenure = int(value)
    except ValueError:
        raise InvalidValue(row, "tenure", f"{value!r} is not an integer") from None
    if tenure < 0:
        raise InvalidValue(row, "tenure", "must be >= 0")
    if tenure > INT64_MAX:
        raise InvalidValue(row, "tenure", f"must be <= {INT64_MAX}")
    return tenure


def _number(value, row, column, low=-math.inf, high=math.inf, reason="must be finite"):
    try:
        x = float(value)
    except ValueError:
        raise InvalidValue(row, column, f"{value!r} is not a number") from None
    if not (math.isfinite(x) and low <= x <= high):
        raise InvalidValue(row, column, reason)
    return x


def _probability(value, row, column):
    return _number(value, row, column, 0.0, 1.0, "must be in [0, 1]")


def _rows(text, columns):
    """Data rows with their row numbers, after checking field counts and ids."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    seen = set()
    for row, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) < len(columns):
            raise InvalidValue(row, columns[len(cells)], "missing field")
        if len(cells) > len(columns):
            raise InvalidValue(row, f"field {len(columns) + 1}", "unexpected extra field")
        if not cells[0]:
            raise InvalidValue(row, "customer_id", "must be non-empty")
        if cells[0] in seen:
            raise DuplicateCustomerId(cells[0], row)
        seen.add(cells[0])
        yield row, cells


def reference_calibration(text, mode, n_cov):
    columns = ["customer_id", "tenure", "churned"] + ["cause"] * (mode == "competing")
    columns += [f"x{i}" for i in range(1, n_cov + 1)]
    for row, cells in _rows(text, columns):
        tenure = _tenure(cells[1], row)
        if cells[2] not in ("0", "1"):
            raise InvalidValue(row, "churned", "must be 0 or 1")
        churned = int(cells[2])
        cause = None
        if mode == "competing":
            if churned and cells[3] not in ("V", "I"):
                raise InvalidValue(row, "cause", "must be V or I for churners")
            if not churned and cells[3] != "":
                raise InvalidValue(row, "cause", "must be empty unless churned")
            cause = cells[3] or None
        offset = len(columns) - n_cov
        covariates = tuple(_number(cells[offset + i], row, f"x{i + 1}")
                           for i in range(n_cov)) or None
        yield CalibrationRecord(cells[0], tenure, churned, cause, covariates)


def reference_scoring(text, mode):
    if mode == "competing":
        columns = ["customer_id", "tenure", "score_v", "score_inv", "margin"]
    else:
        columns = ["customer_id", "tenure", "churn_score", "margin"]
    for row, cells in _rows(text, columns):
        tenure = _tenure(cells[1], row)
        if mode == "competing":
            score_v = _probability(cells[2], row, "score_v")
            score_inv = _probability(cells[3], row, "score_inv")
            if score_v + score_inv > 1.0:
                raise InvalidValue(row, "score_v/score_inv",
                                   f"sum {score_v + score_inv:g} exceeds 1")
            yield ScoringRecord(cells[0], tenure, _number(cells[4], row, "margin"),
                                score_v=score_v, score_inv=score_inv)
        else:
            score = _probability(cells[2], row, "churn_score")
            yield ScoringRecord(cells[0], tenure, _number(cells[3], row, "margin"),
                                churn_score=score)


def outcome(records):
    """The records in order, or the error's type and message."""
    try:
        return list(records)
    except (InvalidValue, DuplicateCustomerId, MissingColumn) as exc:
        return type(exc), str(exc)


# Drawn files: valid rows, then a few cell-level mutations and blank lines.

BAD_INTS = ["x", "1.5", "", "-3", "99999999999999999999", "-99999999999999999999"]
BAD_FLOATS = ["nan", "inf", "-inf", "abc", ""]
BAD_PROBABILITIES = ["1.5", "-0.1", "nan", "inf", "p"]


@st.composite
def csv_files(draw, kind):
    """(text, mode, covariate count) for a calibration or scoring file."""
    mode = draw(st.sampled_from(["single", "competing"]))
    n_cov = draw(st.integers(0, 2)) if kind == "calibration" else 0
    if kind == "calibration":
        header = ["customer_id", "tenure", "churned"] + ["cause"] * (mode == "competing")
        header += [f"x{i}" for i in range(1, n_cov + 1)]
    elif mode == "competing":
        header = ["customer_id", "tenure", "score_v", "score_inv", "margin"]
    else:
        header = ["customer_id", "tenure", "churn_score", "margin"]
    n = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0)
    rows = []
    for i in range(n):
        cid = draw(st.sampled_from([f"c{i}", f"id,{i}", f'q"{i}']))
        tenure = str(draw(st.integers(0, 40)))
        if kind == "calibration":
            churned = draw(st.sampled_from(["0", "1"]))
            cells = [cid, tenure, churned]
            if mode == "competing":
                cells.append(draw(st.sampled_from(["V", "I"])) if churned == "1" else "")
            cells += [repr(draw(st.floats(-1e6, 1e6))) for _ in range(n_cov)]
        elif mode == "competing":
            score_v = draw(unit)
            score_inv = draw(st.floats(0.0, 1.0 - score_v))
            cells = [cid, tenure, repr(score_v), repr(score_inv),
                     repr(draw(st.floats(-1e6, 1e6)))]
        else:
            cells = [cid, tenure, repr(draw(unit)), repr(draw(st.floats(-1e6, 1e6)))]
        rows.append(cells)

    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        cells = rows[i]
        column = draw(st.integers(0, min(len(cells), len(header)) - 1))
        name = header[column]
        mutation = draw(st.sampled_from(["value", "empty_id", "duplicate", "missing",
                                         "extra", "sum"]))
        if mutation == "empty_id":
            cells[0] = ""
        elif mutation == "duplicate":
            cells[0] = rows[draw(st.integers(0, n - 1))][0]
        elif mutation == "missing":
            cells.pop()
        elif mutation == "extra":
            cells.append("7")
        elif mutation == "sum" and name in ("score_v", "score_inv") and len(cells) > 3:
            cells[2], cells[3] = "0.7", "0.6"
        elif name == "tenure":
            cells[column] = draw(st.sampled_from(BAD_INTS))
        elif name == "churned":
            cells[column] = draw(st.sampled_from(["2", "yes", "", "1", "0"]))
        elif name == "cause":
            cells[column] = draw(st.sampled_from(["", "V", "I", "X", "VI"]))
        elif name in ("churn_score", "score_v", "score_inv"):
            cells[column] = draw(st.sampled_from(BAD_PROBABILITIES))
        elif name != "customer_id":
            cells[column] = draw(st.sampled_from(BAD_FLOATS))

    blanks = draw(st.lists(st.integers(0, n), max_size=3))
    for i in sorted(blanks, reverse=True):
        rows.insert(i, [])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue(), mode, n_cov


def _read(text, reader, mode, batch_size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return outcome(rec for batch in reader(path, mode, batch_size)
                       for rec in batch.records())


@settings(max_examples=300, deadline=None)
@given(drawn=csv_files("calibration"))
def test_calibration_batches_equal_row_by_row_reader(drawn):
    text, mode, n_cov = drawn
    expected = outcome(reference_calibration(text, mode, n_cov))
    for size in BATCH_SIZES:
        assert _read(text, dataio.read_calibration_batches, mode, size) == expected, size


@settings(max_examples=300, deadline=None)
@given(drawn=csv_files("scoring"))
def test_scoring_batches_equal_row_by_row_reader(drawn):
    text, mode, _ = drawn
    expected = outcome(reference_scoring(text, mode))
    for size in BATCH_SIZES:
        assert _read(text, dataio.read_scoring_batches, mode, size) == expected, size


def test_duplicate_across_batch_boundary_names_second_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("customer_id,tenure,churn_score,margin\n"
                    "a,1,0.1,1\nb,2,0.1,1\nc,3,0.1,1\na,4,0.1,1\n", encoding="utf-8")
    for size in BATCH_SIZES:
        with pytest.raises(DuplicateCustomerId) as err:
            list(dataio.read_scoring_batches(path, "single", size))
        assert (err.value.customer_id, err.value.row) == ("a", 5)


def test_batches_are_columns_of_the_records(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("customer_id,tenure,churned,cause,x1,x2\n"
                    "a,1,1,V,0.5,-2\nb,0,0,,1e3,0\n", encoding="utf-8")
    (batch,) = dataio.read_calibration_batches(path, "competing")
    assert batch.ids == ("a", "b")
    assert batch.tenure.dtype == np.int64 and batch.tenure.tolist() == [1, 0]
    assert batch.churned.tolist() == [1, 0]
    assert batch.cause.tolist() == ["V", ""]
    assert batch.covariates.flags.c_contiguous
    assert batch.covariates.tolist() == [[0.5, -2.0], [1000.0, 0.0]]


# The CLI's column paths write what the record-level APIs build.

def _panel(tmp_path, n=3_000, seed=5):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        x = rng.normal(size=3)
        t = int(rng.integers(0, 30))
        p = 1 / (1 + np.exp(-(-2.5 + 0.6 * x[0] - 0.4 * x[1] + 0.1 * x[2])))
        records.append(CalibrationRecord(f"c{i}", t, int(rng.random() < p),
                                         covariates=tuple(x.tolist())))
    path = tmp_path / "panel.csv"
    dataio.write_calibration(path, records)
    return path


def _with_blank_lines(path, every):
    """``path`` with a blank line after every ``every``-th row."""
    header, *rows = path.read_text(encoding="ascii").splitlines(keepends=True)
    path.write_text(header + "".join(row + "\n" * (i % every == every - 1)
                                     for i, row in enumerate(rows)), encoding="ascii")


# The odds fit sums over 2048-row blocks: row counts at and around the block
# seams, and a file whose blank lines make the reader's batches shorter, so
# that the fit re-cuts them.
@pytest.mark.parametrize("n, blank_every", [
    *(pytest.param(n, None, id=str(n)) for n in (2_047, 2_048, 2_049, 3_000, 4_097)),
    pytest.param(5_000, 100, id="5000-blank-lines")])
def test_fit_odds_command_equals_record_api(tmp_path, n, blank_every):
    cal = _panel(tmp_path, n)
    if blank_every is not None:
        _with_blank_lines(cal, blank_every)
        sizes = [len(b.tenure) for b in dataio.read_calibration_batches(cal)]
        assert sizes[0] < dataio.CALIBRATION_BATCH_SIZE and sum(sizes) == n
    bpath = tmp_path / "baseline.json"
    save_baseline(bpath, baseline_from_rates([0.08] * 30, exposure=1000, tail_start=10))
    out = tmp_path / "model.json"
    assert main(["fit-odds", "--calibration", str(cal), "--baseline", str(bpath),
                 "--out", str(out)]) == 0
    rows = [PersonPeriodRow(r.tenure, r.churned, r.covariates)
            for r in dataio.read_calibration(cal)]
    assert len(rows) == n
    expected = tmp_path / "expected.json"
    save_model(expected, fit_odds_model(rows, baseline_from_rates(
        [0.08] * 30, exposure=1000, tail_start=10)))
    assert out.read_bytes() == expected.read_bytes()


def test_fit_odds_memory_per_row(tmp_path):
    """``fit-odds`` holds at most 128 B more per added row at its peak, twice
    the 64 B of an 8-covariate design row: the design is held once, in the
    reader's batches, with no stacked copy and no design-sized temporary
    (stacking the batches held about 255 B)."""
    rng = np.random.default_rng(11)
    bpath = tmp_path / "baseline.json"
    save_baseline(bpath, baseline_from_rates([0.08] * 30, exposure=1000, tail_start=10))
    paths = []
    for n in (20_000, 80_000):
        x = rng.normal(size=(n, 8))
        tenure = rng.integers(0, 30, n)
        churned = (rng.random(n) < 1 / (1 + np.exp(2.5 - x[:, 0] * 0.5))).astype(int)
        path = tmp_path / f"panel{n}.csv"
        path.write_text(
            "customer_id,tenure,churned," + ",".join(f"x{j}" for j in range(1, 9)) + "\n"
            + "".join(f"c{i},{t},{y}," + ",".join(f"{v:.6f}" for v in row) + "\n"
                      for i, (t, y, row) in enumerate(zip(tenure.tolist(), churned.tolist(),
                                                          x.tolist()))),
            encoding="ascii")
        paths.append(path)

    def fit(path):
        return main(["fit-odds", "--calibration", str(path), "--baseline", str(bpath),
                     "--out", str(tmp_path / "model.json")])

    assert fit(paths[0]) == 0  # imports and first-call caches are not counted below
    peaks = []
    for path in paths:
        tracemalloc.start()
        try:
            assert fit(path) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 60_000 <= 128, peaks


@pytest.mark.parametrize("competing", [False, True])
def test_baseline_command_equals_record_api(tmp_path, competing):
    rng = np.random.default_rng(9)
    records = []
    for i in range(20_000):
        t = int(rng.integers(0, 60))
        churned = int(rng.random() < 0.05 + 0.1 / (t + 1))
        cause = ("V" if rng.random() < 0.7 else "I") if churned and competing else None
        records.append(CalibrationRecord(f"c{i}", t, churned, cause))
    mode = "competing" if competing else "single"
    cal = tmp_path / "cal.csv"
    dataio.write_calibration(cal, records, mode)
    out = tmp_path / "b.json"
    flags = ["--competing"] if competing else []
    assert main(["baseline", "--calibration", str(cal), "--out", str(out), *flags]) == 0
    read = dataio.read_calibration(cal, mode)
    if competing:
        estimated = zip(["b_v.json", "b_inv.json"], estimate_cause_specific(read))
    else:
        estimated = [("b.json", estimate_hazard_by_tenure(read))]
    for name, baseline in estimated:
        expected = tmp_path / f"expected_{name}"
        save_baseline(expected, extrapolate_tail(baseline, detect_tail_start(baseline)))
        assert (tmp_path / name).read_bytes() == expected.read_bytes()


# Text-level batches: the writer's line template against csv.writer, and the
# readers' plain split against their csv fallback.

@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(
           st.text(st.sampled_from(list(',"\r\n abé中\U0001f600')), max_size=6),
           *[st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e300]))] * 3,
           st.integers(0, 10**6)), max_size=20),
       size=st.sampled_from([1, 3, 8192]))
def test_projection_writer_equals_csv_writer(rows, size):
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(dataio.PROJECTION_COLUMNS)
    fmt = "{:.6f}".format
    writer.writerows((cid, fmt(a), fmt(e), fmt(c), t) for cid, a, e, c, t in rows)
    batches = [dataio.ProjectionBatch.from_rows([dataio.ProjectionRow(*r) for r in chunk])
               for chunk in dataio.chunks(rows, size)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        assert dataio.write_projection_batches(path, batches) == len(rows)
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert [p.name for p in Path(tmp).iterdir()] == ["p.csv"]


@st.composite
def irregular_files(draw, kind):
    """(text, mode) for a file whose lines csv must read: quoted multi-line ids,
    lone carriage returns, NULs, blank lines, short and long rows, LF or CRLF,
    with or without a final newline."""
    if kind == "calibration":
        header = "customer_id,tenure,churned"
    else:
        header = "customer_id,tenure,churn_score,margin"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [header]
    for i in range(draw(st.integers(1, 10))):
        cells = [f"c{i}", str(draw(st.integers(0, 40)))]
        if kind == "calibration":
            cells.append(draw(st.sampled_from(["0", "1"])))
        else:
            cells += [repr(draw(st.floats(0.0, 1.0))), repr(draw(st.floats(-1e6, 1e6)))]
        shape = draw(st.sampled_from(["plain"] * 4 + ["multiline", "quoted", "cr", "nul",
                                                      "blank", "short", "long"]))
        if shape == "multiline":
            cells[0] = f'"c{newline * draw(st.integers(1, 3))}{i}"'
        elif shape == "quoted":
            cells[0] = f'"q"",{i}"'
        elif shape == "cr":
            cells[0] = f"c\r{i}"
        elif shape == "nul":
            cells[0] = f"c\x00{i}"
        elif shape == "blank":
            lines.append("")
        elif shape == "short":
            cells.pop()
        elif shape == "long":
            cells.append("7")
        lines.append(",".join(cells))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


def _nul_free(text):
    """``text`` as the oracles give it to csv.reader, and the function that
    maps their cells and messages back. csv.reader refuses NUL before
    Python 3.11; there a private-use character that ``text`` does not hold
    stands in for it."""
    if sys.version_info >= (3, 11) or "\0" not in text:
        return text, lambda value: value
    stand_in = next(c for c in map(chr, range(0xE000, 0xF900)) if c not in text)
    escaped = repr(stand_in)[1:-1]  # as a message quotes it
    return text.replace("\0", stand_in), (
        lambda value: value.replace(stand_in, "\0").replace(escaped, "\\x00"))


class _CsvRecords:
    """The oracle of the readers' tokenizer: a file's records as csv.reader
    reads them from its text, after a UTF-8 byte order mark and up to the
    line (as ``newline=""`` splits lines) of its first byte that does not
    decode. That error is ``error`` once those records are read, or once
    the header is if it runs up to that line (a header with no records
    after it, that one more character would join). It stands in for
    ``dataio._Lines``, and its methods for ``dataio._header`` and
    ``dataio._batches`` (``_csv_tokenizer``), so that the batches it gives
    are checked by the readers' own rules. Its text holds no NUL
    (``_nul_free``)."""

    def __init__(self, fh):
        data = fh.read().removeprefix(codecs.BOM_UTF8)
        self.error = self.decode_error = None
        try:
            text = data.decode()
        except UnicodeDecodeError as exc:
            self.decode_error = exc
            text = data[:max(data.rfind(b"\n", 0, exc.start),
                             data.rfind(b"\r", 0, exc.start)) + 1].decode()
        self.text, self.back = _nul_free(text)
        self.records = csv.reader(io.StringIO(self.text, newline=""))

    def header(self, path):
        try:
            header = next(self.records, None)
        except csv.Error as exc:
            raise InvalidDocument(path, f"row 1: {exc}") from None
        if header != next(csv.reader(io.StringIO(self.text + "x", newline="")), None):
            self.error = self.decode_error
        return header and [self.back(cell) for cell in header]

    def batches(self, path, width, kinds, size):
        """Batches of ``size`` records, blank ones left out, each as one
        piece: row numbers, cells by column (cut or padded with "" to
        ``width``; the id column as ``fixedpoint.Ids``), field counts."""
        first = 2
        while True:
            rows, error = [], None
            try:
                rows.extend(islice(self.records, size))
            except csv.Error as exc:
                error = InvalidDocument(path, f"row {first + len(rows)}: {exc}")
            count = len(rows)
            numbers = [first + i for i, cells in enumerate(rows) if cells]
            rows = [[self.back(cell) for cell in cells] for cells in rows if cells]
            if rows:
                fields = np.array([len(cells) for cells in rows])
                padded = [(cells + [""] * width)[:width] for cells in rows]
                yield [(numbers, [fixedpoint.Ids.of(column) if kind == "i" else column
                                  for kind, column in zip(kinds, zip(*padded))],
                        None if (fields == width).all() else fields)]
            if error is not None:
                raise error
            if count < size:
                self.error = self.decode_error
                return
            first += size


def _csv_tokenizer():
    """A patch that reads every file through ``_CsvRecords``."""
    return mock.patch.multiple(dataio, _Lines=_CsvRecords, _header=_CsvRecords.header,
                               _batches=_CsvRecords.batches)


def _read_both_ways(text, reader):
    """The outcome at each batch size, with the file tokenized by the reader
    and by csv.reader."""
    outcomes = []
    for size in BATCH_SIZES:
        outcomes.append(_outcome_of_file(text, reader, size))
        with _csv_tokenizer():
            outcomes.append(_outcome_of_file(text, reader, size))
    return outcomes


def _outcome_of_file(text, reader, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            return [rec for batch in reader(path, "single", size) for rec in batch.records()]
        except (InvalidValue, DuplicateCustomerId, MissingColumn) as exc:
            return type(exc), str(exc)
        except InvalidDocument as exc:
            return type(exc), exc.reason


def _assert_reference(found, text, reference):
    """``found`` is the outcome of ``reference`` reading ``text`` (without
    NUL, ``_nul_free``, whose ids hold its NULs)."""
    text, back = _nul_free(text)
    expected = outcome(reference(text))
    if isinstance(expected, tuple):
        expected = expected[0], back(expected[1])
    else:
        expected = [dataclasses.replace(r, customer_id=back(r.customer_id)) for r in expected]
    assert found == expected


@settings(max_examples=300, deadline=None)
@given(text=irregular_files("scoring"))
def test_scoring_tokenizer_equals_csv_reader(text):
    outcomes = _read_both_ways(text, dataio.read_scoring_batches)
    assert all(o == outcomes[0] for o in outcomes), outcomes
    _assert_reference(outcomes[0], text, lambda text: reference_scoring(text, "single"))


@settings(max_examples=300, deadline=None)
@given(text=irregular_files("calibration"))
def test_calibration_tokenizer_equals_csv_reader(text):
    outcomes = _read_both_ways(text, dataio.read_calibration_batches)
    assert all(o == outcomes[0] for o in outcomes), outcomes
    _assert_reference(outcomes[0], text,
                      lambda text: reference_calibration(text, "single", 0))


def _filler(n, start=0):
    """Rows valid in a scoring file and in a calibration file with one covariate."""
    return "".join(f"c{i},{i % 40},1,1\n" for i in range(start, start + n))


@pytest.mark.parametrize("reader,header", [
    (dataio.read_scoring_batches, "customer_id,tenure,churn_score,margin"),
    (dataio.read_calibration_batches, "customer_id,tenure,churned,x1")])
@pytest.mark.parametrize("where", ["header", "after rows"])
def test_undecodable_bytes_name_the_file(tmp_path, reader, header, where):
    path = tmp_path / "in.csv"
    good = f"{header}\n" + _filler(20_000)
    data = b"\xff\xfe" + good.encode() if where == "header" else good.encode() + b"\xff\n"
    path.write_bytes(data)
    for size in BATCH_SIZES:
        for found in (_exact_batches(path, reader, "single", size),
                      _oracle_batches(path, reader, "single", size)):
            assert found[-1][0] is InvalidDocument
            assert str(path) in found[-1][1] and "UTF-8" in found[-1][1]


def test_rows_before_undecodable_bytes_are_checked_first(tmp_path):
    path = tmp_path / "in.csv"
    text = ("customer_id,tenure,churn_score,margin\n" + _filler(3)
            + "c1,5,0.1,1\n" + _filler(20_000, start=10))
    path.write_bytes(text.encode() + b"\xff\n")
    for size in BATCH_SIZES:
        with pytest.raises(DuplicateCustomerId) as err:
            list(dataio.read_scoring_batches(path, "single", size))
        assert err.value.row == 5


@pytest.mark.parametrize("reader,header,row", [
    (dataio.read_scoring_batches, "customer_id,tenure,churn_score,margin", "c,1,0.1,{}"),
    (dataio.read_calibration_batches, "customer_id,tenure,churned,x1", "c,1,0,{}")])
def test_oversized_field_names_file_and_row(tmp_path, reader, header, row):
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n" + _filler(5) + row.format("1" * 200_000) + "\n"
                    + _filler(5, start=10), encoding="utf-8")
    for size in BATCH_SIZES:
        for found in (_exact_batches(path, reader, "single", size),
                      _oracle_batches(path, reader, "single", size)):
            assert found[-1][0] is InvalidDocument
            assert found[-1][1].startswith(f"{path}: row 7: field larger than field limit")


def test_calibration_tenure_ceiling(tmp_path):
    path = tmp_path / "c.csv"
    top = dataio.MAX_CALIBRATION_TENURE
    path.write_text(f"customer_id,tenure,churned\na,{top},0\nb,{top + 1},1\n",
                    encoding="utf-8")
    for size in BATCH_SIZES:
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_calibration_batches(path, "single", size))
        assert (err.value.row, err.value.column) == (3, "tenure")
    path.write_text(f"customer_id,tenure,churned\na,{top},0\n", encoding="utf-8")
    (batch,) = dataio.read_calibration_batches(path)
    assert batch.tenure.tolist() == [top]


# The byte parser (fixedpoint.parse_lines) against csv.reader and the
# readers' text parse: files whose number cells sit on the edges of the
# grammar it reads, and just outside it.

PARSER_BATCH_SIZES = (1, 7, 512, 8192)
# Cells the byte parser reads, on the grammar's edges: zeros and negative
# zeros, leading zeros, 15 digits.
EDGE_NUMBERS = ["0", "-0", "-0.000000", "0.000000", "000", "007", "-007.50", "0.5",
                "123456789012345", "-12345678901234.5", "0.00000000000001",
                "999999999999999", "-0.999999999999999"]
# Cells float (and some int) reads that the byte parser does not: 16 or 17
# digits (the first is not N / 10**k with N rounded to a double first),
# signs, points and spaces out of place, exponents, words, a non-ASCII digit.
OUTSIDE_NUMBERS = ["96.48064786969077", "1234567890123456", "9007199254740993",
                   "0.30000000000000004", "+1", ".5", "5.", "-.5", "1e3", " 1", "1 ", "1_0",
                   "nan", "inf", "\u0663", "--1", "1-", "1.2.3", ""]
# Cells of an integer column that are fine in a float column.
OUTSIDE_INTEGERS = ["1.0", "-0.0", "12.5"]
EDGE_FLAGS = ["00", "-0", "2", "1.0", "01"]


@st.composite
def decimals(draw, fractions):
    """A fixed-point decimal with a fraction of one of the lengths ``fractions``."""
    whole = draw(st.text("0123456789", min_size=1, max_size=7))
    size = draw(st.sampled_from(fractions))
    fraction = draw(st.text("0123456789", min_size=size, max_size=size))
    return draw(st.sampled_from(["", "-"])) + whole + ("." + fraction) * (size > 0)


@st.composite
def edge_files(draw):
    """(text, reader, mode): a calibration or scoring file of a few or a few
    thousand rows, each number cell drawn from a small pool per column."""
    kind = draw(st.sampled_from(["calibration", "scoring"]))
    mode = draw(st.sampled_from(["single", "competing"]))
    n = draw(st.one_of(st.integers(1, 30), st.integers(1_000, 4_500)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fractions = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3))
    numbers = st.one_of(decimals(fractions), decimals(fractions), st.sampled_from(EDGE_NUMBERS))
    small = st.one_of(st.integers(0, 40).map(str), st.sampled_from(["0", "-0", "007", "00"]))
    unit = st.one_of(st.just("0."), st.just("0.0"), st.just("00.")).flatmap(
        lambda head: st.text("0123456789", min_size=1, max_size=7).map(head.__add__))
    unit = st.one_of(unit, unit, st.sampled_from(["0", "-0", "-0.000", "1", "1.000000"]))

    def column(cells):
        pool = draw(st.lists(cells, min_size=1, max_size=4))
        return [pool[i] for i in rng.integers(0, len(pool), n)]

    prefixes = draw(st.lists(st.sampled_from(["c", "é", "中", "\U0001f600", "id "]),
                             min_size=1, max_size=3))
    ids = [f"{prefixes[i % len(prefixes)]}{i}" for i in range(n)]
    if n > 1 and draw(st.integers(0, 4)) == 0:
        ids[int(rng.integers(1, n))] = ids[0]
    if kind == "calibration":
        n_cov = draw(st.integers(0, 3))
        header = ["customer_id", "tenure", "churned"]
        churned = column(st.sampled_from(["0", "1"]))
        columns = [ids, column(small), churned]
        if mode == "competing":
            header.append("cause")
            columns.append([("V" if i % 3 else "I") if flag == "1" else ""
                            for i, flag in enumerate(churned)])
        header += [f"x{i}" for i in range(1, n_cov + 1)]
        columns += [column(numbers) for _ in range(n_cov)]
    else:
        header = ["customer_id", "tenure", *dataio.score_columns(mode), "margin"]
        columns = [ids, column(small), *(column(unit) for _ in dataio.score_columns(mode)),
                   column(numbers)]
    for _ in range(draw(st.integers(0, 2))):  # a cell the byte parser does not read
        j = draw(st.integers(1, len(columns) - 1))
        odd = {"churned": EDGE_FLAGS, "tenure": OUTSIDE_NUMBERS + OUTSIDE_INTEGERS}.get(
            header[j], OUTSIDE_NUMBERS)
        if header[j] != "cause":
            columns[j][int(rng.integers(0, n))] = draw(st.sampled_from(odd))
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))
    if draw(st.booleans()):
        text = text[:-1]  # no newline after the last line
    reader = (dataio.read_calibration_batches if kind == "calibration"
              else dataio.read_scoring_batches)
    return text, reader, mode


def _exact(field):
    """A batch field as plain values, floats by their bits, so that -0.0 counts."""
    if not isinstance(field, np.ndarray):
        return field
    values = field.view(np.int64) if field.dtype == np.float64 else field
    return field.dtype.str, field.shape, field.flags.c_contiguous, values.tolist()


def _exact_batches(path, reader, mode, size):
    """Every batch's fields exactly, then the error that ended the file, if any."""
    batches = []
    try:
        for batch in reader(path, mode, size):
            batches.append([_exact(field) for field in batch])
    except (InvalidValue, DuplicateCustomerId, MissingColumn, InvalidDocument) as exc:
        batches.append((type(exc), str(exc)))
    return batches


def _text_columns(kinds, columns):
    """The places of the number, code and id columns that ``parse_lines`` gave as text."""
    return [j for j, (kind, column) in enumerate(zip(kinds, columns))
            if kind != "s" and isinstance(column, list)]


def _assert_bytes_read_as_text(path, reader, mode, sizes=PARSER_BATCH_SIZES):
    """The batches at each of ``sizes`` are those of csv.reader's cells
    parsed as text, bit for bit; returns, for each call of the byte parser
    with a number or code column (every call but the header's), the number
    and code columns it gave as text (``_text_columns``)."""
    calls = []

    def recorded(data, starts, ends, kinds, dropped):
        columns = parse_lines(data, starts, ends, kinds, dropped)
        if kinds.strip("s"):
            calls.append(_text_columns(kinds, columns))
        return columns

    parse_lines = fixedpoint.parse_lines
    for size in sizes:
        with mock.patch.object(fixedpoint, "parse_lines", recorded):
            found = _exact_batches(path, reader, mode, size)
        assert found == _oracle_batches(path, reader, mode, size), size
    return calls


@settings(max_examples=60, deadline=None)
@given(drawn=edge_files())
def test_byte_parser_batches_equal_csv_batches(drawn):
    text, reader, mode = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        _assert_bytes_read_as_text(path, reader, mode)


@pytest.mark.parametrize("mode", ["single", "competing"])
def test_byte_parser_reads_the_writers_files(tmp_path, mode):
    rng = np.random.default_rng(3)
    n = 3_000
    tenure = rng.integers(0, 100, n)
    churned = (rng.random(n) < 0.3).astype(np.int64)
    cause = np.where(churned == 1, np.where(rng.random(n) < 0.5, "V", "I"), "")
    covariates = np.round(rng.normal(0.0, 1e3, (n, 3)), int(rng.integers(0, 9)))
    covariates[:5] = [[0.0, -0.0, -1e-7], [5e-7, 1e7, -1e7], [1e-6, -1e-6, 0.5],
                      [2.5e-7, 3.5e-7, -4.5e-7], [99999999.999999, 0.0, 1.0]]
    ids = tuple(f"c{i}é" for i in range(n))
    cal = tmp_path / "cal.csv"
    dataio.write_calibration(cal, dataio.CalibrationBatch(ids, tenure, churned, cause,
                                                          covariates), mode)
    scores = rng.random((2, n)) / 2
    scoring = tmp_path / "scoring.csv"
    dataio.write_scoring(scoring, dataio.ScoringBatch(
        ids, tenure, rng.normal(0.0, 50.0, n), scores[0], scores[0], scores[1]), mode)
    for path, reader in [(cal, dataio.read_calibration_batches),
                         (scoring, dataio.read_scoring_batches)]:
        calls = _assert_bytes_read_as_text(path, reader, mode)
        assert calls and not any(calls), path.name


@pytest.mark.parametrize("column,cell", [
    *(("churned", cell) for cell in EDGE_FLAGS),
    *(("tenure", cell) for cell in OUTSIDE_NUMBERS + OUTSIDE_INTEGERS),
    *((("margin", "churn_score")[i % 2], cell) for i, cell in enumerate(OUTSIDE_NUMBERS))])
def test_byte_parser_leaves_other_cells_to_the_text_parse(tmp_path, column, cell):
    # The cell sits in the second block of lines, after one the byte parser
    # reads (at batch sizes below 8192, which read the file as one block).
    # Only the cell's own column is read as text.
    n, row = 2_200, 2_150
    cells = {"customer_id": [f"c{i}" for i in range(n)],
             "tenure": [str(i % 40) for i in range(n)],
             "churned": [str(i % 2) for i in range(n)],
             "churn_score": [str(i % 7 / 8) for i in range(n)],
             "margin": [str(i / 64) for i in range(n)]}
    cells[column][row] = cell
    if column in ("churned", "tenure"):
        header, reader = ["customer_id", "tenure", "churned"], dataio.read_calibration_batches
    else:
        header = ["customer_id", "tenure", "churn_score", "margin"]
        reader = dataio.read_scoring_batches
    path = tmp_path / "in.csv"
    path.write_text(",".join(header) + "\n"
                    + "\n".join(map(",".join, zip(*(cells[name] for name in header)))),
                    encoding="utf-8")
    calls = _assert_bytes_read_as_text(path, reader, "single", sizes=(7, 512, 8192))
    assert calls[0] == [] and all(text in ([], [header.index(column)]) for text in calls)
    assert [header.index(column)] in calls


def test_byte_parser_counts_each_lines_fields(tmp_path):
    # One line has a field too many and a later one a field too few, so the
    # block holds as many commas as if every line had four fields, and every
    # cell, read four to a line, is a number.
    lines = [f"{i},{i % 40},0.5,1" for i in range(1_100)]
    lines[600] += ",7"
    lines[700] = lines[700].rsplit(",", 1)[0]
    path = tmp_path / "in.csv"
    path.write_text("customer_id,tenure,churn_score,margin\n" + "\n".join(lines),
                    encoding="utf-8")
    _assert_bytes_read_as_text(path, dataio.read_scoring_batches, "single",
                               sizes=(7, 512, 8192))
    with pytest.raises(InvalidValue, match="row 602.*unexpected extra field"):
        list(dataio.read_scoring_batches(path))


def _parse_lines(data, kinds):
    """``fixedpoint.parse_lines`` of ``data``, whose records have ``len(kinds)`` cells each."""
    records = dataio._Lines(io.BytesIO(data)).take(data.count(b"\n"))[1]
    shape = (-1, len(kinds))
    return fixedpoint.parse_lines(data, records.starts.reshape(shape).T,
                                  records.stops.reshape(shape).T, kinds)


def test_parse_lines_reads_columns_of_each_kind():
    data = ("5,-0.000000,a\u00e9,0,-0\n"
            "-12345678901234.5,007.250,,1,123456789012345\n").encode()
    tenure, score, ids, flag, count = _parse_lines(data, "ffsbd")
    assert tenure.tolist() == [5.0, -12345678901234.5]
    assert score.view(np.int64).tolist() == np.array([-0.0, 7.25]).view(np.int64).tolist()
    assert ids == ["a\u00e9", ""]
    assert flag.dtype == count.dtype == np.int64
    assert flag.tolist() == [0, 1] and count.tolist() == [0, 123456789012345]


@pytest.mark.parametrize("data,kinds,text", [
    (b"1,1e3\n2,5\n", "df", {1: ["1e3", "5"]}),
    (b"1,1234567890123456\n", "df", {1: ["1234567890123456"]}),
    (b"1.5,2\n", "df", {0: ["1.5"]}),
    (b"1,V\n2,\x00\n", "dc", {1: ["V", "\x00"]}),  # U1 would read a NUL as ""
    (b"1,V\n2,\xc3\xa9\n", "dc", {1: ["V", "\u00e9"]}),
    (b"1,2\n3,\n", "bd", {0: ["1", "3"], 1: ["2", ""]})])
def test_parse_lines_gives_a_column_it_does_not_read_as_text(data, kinds, text):
    columns = _parse_lines(data, kinds)
    assert {j: columns[j] for j in _text_columns(kinds, columns)} == text


# The readers' tokenizer against csv.reader (``_CsvRecords``): the batches
# and errors must be the same, bit for bit.

ORACLE_BATCH_SIZES = (1, 7, 512, 2048, 8192)
COMPETING_HEADER = "customer_id,tenure,churned,cause,x1"


def _competing_rows(n, start=0):
    """Rows valid in a competing calibration file, churners with either cause."""
    return "".join(f"c{i},{i % 40},{int(i % 3 == 0)},{'VI'[i % 2] if i % 3 == 0 else ''},"
                   f"{i % 9 / 4}\n" for i in range(start, start + n))


def _oracle_batches(path, reader, mode, size):
    """``_exact_batches`` of the file tokenized by csv.reader."""
    with _csv_tokenizer():
        return _exact_batches(path, reader, mode, size)


def _assert_oracle(path, reader, mode="single", sizes=ORACLE_BATCH_SIZES):
    """The batches and error at each of ``sizes`` are the oracle's;
    returns them at the last size."""
    for size in sizes:
        found = _exact_batches(path, reader, mode, size)
        assert found == _oracle_batches(path, reader, mode, size), size
    return found


def _with_byte(data, offset, byte=0xFF):
    data = bytearray(data)
    data[offset] = byte
    return bytes(data)


_SCORING_FILE = ("customer_id,tenure,churn_score,margin\n" + _filler(7_000)).encode()
_CHUNK = 8192


@pytest.mark.parametrize("offset", [
    _SCORING_FILE.index(b"\nc1000,") + 3,  # inside the first block
    _SCORING_FILE.index(b"\nc5000,") + 3,  # inside the third block of 2048 lines
    # just after the end of a block
    *(_SCORING_FILE.index(f"\nc{i},".encode()) + 2 for i in (2044, 2048, 4096)),
    3 * _CHUNK - 1, 3 * _CHUNK, 6 * _CHUNK - 1, 6 * _CHUNK, 6 * _CHUNK + 1,
    len(_SCORING_FILE) - 1])
def test_undecodable_byte_ends_the_rows_where_csv_does(tmp_path, offset):
    path = tmp_path / "in.csv"
    path.write_bytes(_with_byte(_SCORING_FILE, offset))
    found = _assert_oracle(path, dataio.read_scoring_batches)
    assert found[-1][0] is InvalidDocument and "0xff" in found[-1][1]


@pytest.mark.parametrize("kept,at_end", [(3, False), (1, False), (2, False), (2, True)])
def test_character_across_a_decode_chunk_boundary(tmp_path, kept, at_end):
    # Line 2048 (the first of a block at batch sizes 1, 512 and 2048, whose
    # blocks are 2048 records; at batch size 7 a block is 2051) holds
    # the first ``kept`` bytes of a 3-byte character, from the last byte
    # before an 8192-byte boundary on; with at_end, they end the file.
    lines = _filler(5_000).splitlines(keepends=True)
    head = "customer_id,tenure,churn_score,margin\n"
    before = len(head) + sum(map(len, lines[:2048]))
    boundary = -(-(before + 10) // _CHUNK) * _CHUNK
    lines[0] = "c" * (boundary - 5 - before) + lines[0]
    char = "中".encode()[:kept]
    line = b"cccc" + char + (b"" if at_end else b",1,0.5,1\n")
    rest = b"" if at_end else "".join(lines[2049:]).encode()
    data = (head + "".join(lines[:2048])).encode() + line + rest
    assert data.index(char) == boundary - 1
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    found = _assert_oracle(path, dataio.read_scoring_batches)
    assert (found[-1][0] is InvalidDocument) == (kept < 3)


def _scoring_rows_before_line_of(data, offset):
    """The scoring rows on the lines of ``data`` before the line that holds
    byte ``offset``, read from the bytes alone."""
    lines = data[:data.rfind(b"\n", 0, offset) + 1].removeprefix(codecs.BOM_UTF8)
    rows = []
    for line in lines.split(b"\n")[1:-1]:  # after the header
        cid, tenure, score, margin = line.rstrip(b"\r").decode().split(",")
        rows.append((cid, int(tenure), float(score), float(margin)))
    return rows


_CUT = "中".encode()[:2]  # the first two of a 3-byte character's bytes
_CRLF_FILE = _SCORING_FILE.replace(b"\n", b"\r\n")
_BLOCK_END = _SCORING_FILE.index(b"\nc2048,")  # the newline that ends the first 2048 lines


@pytest.mark.parametrize("data,offset", [
    *(pytest.param(_SCORING_FILE, offset, id=f"byte {offset}") for offset in (
        _SCORING_FILE.index(b"\nc1000,") + 3,  # inside a block
        _SCORING_FILE.index(b"\nc5000,") + 3,
        _BLOCK_END + 1, _BLOCK_END + 2,  # just after a block ends
        3 * _CHUNK - 1, 3 * _CHUNK, 3 * _CHUNK + 1, 6 * _CHUNK - 1, 6 * _CHUNK,
        6 * _CHUNK + 1,
        _SCORING_FILE.rindex(b"\n", 0, -1) + 2,  # in the last line
        len(_SCORING_FILE) - 1, 5)),  # the last newline, the header
    # a 3-byte character cut at the end of the first block, and of the file
    pytest.param(_SCORING_FILE[:_BLOCK_END] + _CUT + _SCORING_FILE[_BLOCK_END:], _BLOCK_END,
                 id="cut character at a block end"),
    pytest.param(_SCORING_FILE[:-1] + _CUT, len(_SCORING_FILE) - 1,
                 id="cut character at the end"),
    *(pytest.param(codecs.BOM_UTF8 + text, offset, id=f"byte order mark, {name}, byte {offset}")
      for text, name in ((_SCORING_FILE, "LF"), (_CRLF_FILE, "CRLF"))
      for offset in (3, 5, 3 * _CHUNK, len(text)))])
def test_undecodable_byte_ends_the_rows_before_its_line(tmp_path, data, offset):
    if data[offset] < 0x80:
        data = _with_byte(data, offset)
    expected = _scoring_rows_before_line_of(data, offset)
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    for size in ORACLE_BATCH_SIZES:
        rows = []
        with pytest.raises(InvalidDocument) as err:
            for batch in dataio.read_scoring_batches(path, "single", size):
                rows += [(r.customer_id, r.tenure, r.churn_score, r.margin)
                         for r in batch.records()]
        assert rows == expected, size
        assert str(path) in str(err.value)
        assert f"byte 0x{data[offset]:02x} cannot be decoded" in str(err.value)


def test_row_before_an_undecodable_line_is_checked_in_its_8192_bytes(tmp_path):
    # Row 5 repeats an id, and line 12 holds an undecodable byte in the same
    # first 8192 bytes of the file; the repeated id is reported.
    text = ("customer_id,tenure,churn_score,margin\n" + _filler(3) + "c1,5,0.1,1\n"
            + _filler(6, start=10))
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode() + b"\xff\n" + _filler(2_000, start=20).encode())
    for size in ORACLE_BATCH_SIZES:
        with pytest.raises(DuplicateCustomerId) as err:
            list(dataio.read_scoring_batches(path, "single", size))
        assert err.value.row == 5


@pytest.mark.parametrize("line,cell", [
    (5_000, '"q,1"'), (5_000, "c\r"), (300, '"q"'), (7_400, "c\r"), (7_400, '"x"')])
def test_irregular_line_after_plain_blocks(tmp_path, line, cell):
    lines = _filler(7_500).splitlines(keepends=True)
    lines[line] = lines[line].replace(f"c{line},", f"{cell},", 1)
    path = tmp_path / "in.csv"
    path.write_text("customer_id,tenure,churn_score,margin\n" + "".join(lines),
                    encoding="utf-8", newline="")
    _assert_oracle(path, dataio.read_scoring_batches)


@pytest.mark.parametrize("header", ['customer_id,tenure,"churn_score",margin',
                                    "customer_id,tenure,churn_score,margin\r"])
def test_header_that_is_not_plain(tmp_path, header):
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n" + _filler(3_000), encoding="utf-8", newline="")
    found = _assert_oracle(path, dataio.read_scoring_batches)
    assert not isinstance(found[-1], tuple)


@pytest.mark.parametrize("cell,churned", [("VI", 1), ("é", 1), ("X", 0), ("", 1), ("IV", 0)])
def test_code_cells_the_byte_path_does_not_read(tmp_path, cell, churned):
    lines = _competing_rows(6_000).splitlines(keepends=True)
    lines[4_500] = f"bad,3,{churned},{cell},0.5\n"
    path = tmp_path / "in.csv"
    path.write_text(COMPETING_HEADER + "\n" + "".join(lines), encoding="utf-8")
    found = _assert_oracle(path, dataio.read_calibration_batches, "competing")
    assert found[-1][0] is InvalidValue and "row 4502" in found[-1][1]


def test_empty_and_repeated_ids_in_later_blocks(tmp_path):
    for bad in ("", "c17"):
        lines = _competing_rows(5_000).splitlines(keepends=True)
        lines[4_000] = lines[4_000].replace("c4000,", f"{bad},", 1)
        path = tmp_path / "in.csv"
        path.write_text(COMPETING_HEADER + "\n" + "".join(lines), encoding="utf-8")
        found = _assert_oracle(path, dataio.read_calibration_batches, "competing")
        assert "row 4002" in found[-1][1]


def _spy_byte_parser():
    """A patch that records the number of rows of each ``parse_lines`` call
    with a number or code column (every call but the header's), and the
    number of rows of those calls that give some such column as text."""
    rows, text = [], []
    parse_lines = fixedpoint.parse_lines

    def spy(data, starts, ends, kinds, dropped):
        columns = parse_lines(data, starts, ends, kinds, dropped)
        if kinds.strip("s"):
            (text if _text_columns(kinds, columns) else rows).append(starts.shape[1])
        return columns

    return rows, text, mock.patch.object(fixedpoint, "parse_lines", spy)


def test_a_batch_is_one_block(tmp_path):
    # Records are tokenized and parsed 2048 at a time at every batch size: a
    # larger batch is built from consecutive blocks, and a smaller one is cut
    # from a block of the fewest whole batches that hold 2048 records.
    n = 3 * 8192 + 100
    path = tmp_path / "in.csv"
    path.write_text("customer_id,tenure,churn_score,margin\n" + _filler(n), encoding="utf-8")
    for size, blocks in [(dataio.SCORING_BATCH_SIZE, [2048] * 12 + [100]),
                         (3000, [2048] * 12 + [100]), (7, [2051] * 12 + [64])]:
        parsed, text, spy = _spy_byte_parser()
        with spy:
            batches = list(dataio.read_scoring_batches(path, "single", size))
        assert parsed == blocks and not text, size
        assert [len(b.ids) for b in batches] == [size] * (n // size) + [n % size], size


def test_the_writers_files_are_read_from_bytes(tmp_path):
    rng = np.random.default_rng(8)
    n = 5_000
    tenure = rng.integers(0, 100, n)
    churned = (rng.random(n) < 0.3).astype(np.int64)
    cause = np.where(churned == 1, np.where(rng.random(n) < 0.5, "V", "I"), "")
    ids = tuple(f"c{i}é" for i in range(n))
    cal = tmp_path / "cal.csv"
    dataio.write_calibration(cal, dataio.CalibrationBatch(
        ids, tenure, churned, cause, rng.normal(0.0, 1.0, (n, 2))), "competing")
    scoring = tmp_path / "scoring.csv"
    dataio.write_scoring(scoring, dataio.ScoringBatch(
        ids, tenure, rng.normal(0.0, 50.0, n), None, *(rng.random((2, n)) / 2)), "competing")
    for path, reader in [(cal, dataio.read_calibration_batches),
                         (scoring, dataio.read_scoring_batches)]:
        for size in ORACLE_BATCH_SIZES:
            parsed, text, spy = _spy_byte_parser()
            with spy:
                found = _exact_batches(path, reader, "competing", size)
            assert not text and sum(parsed) == n, (path.name, size)
            assert found == _oracle_batches(path, reader, "competing", size)
    (batch, *_) = dataio.read_calibration_batches(cal, "competing")
    assert batch.cause.dtype == np.dtype("U1")
    assert batch.cause.tolist() == cause[:dataio.CALIBRATION_BATCH_SIZE].tolist()


def test_error_quoting_a_cell_shows_a_str(tmp_path):
    # A rule quoting the cause cell, which comes from the bytes as a U1 array.
    rules = dataio._calibration_rules(COMPETING_HEADER.split(","))
    quoting = [rule._replace(reason="{!r} is not a cause") if rule.column == "cause" else rule
               for rule in rules]
    path = tmp_path / "in.csv"
    path.write_text(COMPETING_HEADER + "\nc1,3,1,X,0.5\n", encoding="utf-8")
    with mock.patch.object(dataio, "_calibration_rules", lambda names: quoting):
        with pytest.raises(InvalidValue, match=r"row 2, column 'cause': invalid value \('X' is not a cause\)"):
            list(dataio.read_calibration_batches(path, "competing"))


@pytest.mark.parametrize("reader,mode,header,rows", [
    (dataio.read_calibration_batches, "competing", COMPETING_HEADER, _competing_rows(3_000)),
    (dataio.read_scoring_batches, "single", "customer_id,tenure,churn_score,margin",
     _filler(3_000))], ids=["calibration", "scoring"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_byte_order_mark_reads_as_without(tmp_path, reader, mode, header, rows, newline):
    text = (header + "\n" + rows).replace("\n", newline)
    without, with_mark = tmp_path / "without.csv", tmp_path / "with.csv"
    without.write_bytes(text.encode())
    with_mark.write_bytes(codecs.BOM_UTF8 + text.encode())
    for size in ORACLE_BATCH_SIZES:
        expected = _exact_batches(without, reader, mode, size)
        assert len(expected) == -(-3_000 // size)  # every batch, and no error
        assert _exact_batches(with_mark, reader, mode, size) == expected, size
        assert _oracle_batches(with_mark, reader, mode, size) == expected, size


def test_long_cause_cell_is_refused_in_little_memory(tmp_path):
    # A cause cell the byte parser does not read sends its block's cause
    # column to the text parse, whose column must not be as wide as its
    # longest cell.
    lines = _competing_rows(3_000).splitlines(keepends=True)
    lines[100] = f"bad,3,1,{'V' * 20_000},0.5\n"
    path = tmp_path / "in.csv"
    path.write_text(COMPETING_HEADER + "\n" + "".join(lines), encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(InvalidValue, match=r"row 102, column 'cause': .*V or I for churners"):
            list(dataio.read_calibration_batches(path, "competing"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    _assert_oracle(path, dataio.read_calibration_batches, "competing")


@pytest.mark.parametrize("cell,churned", [("V\0", 1), ("\0", 0), ("I\0\0", 1)])
def test_cause_cell_with_a_nul_is_refused(tmp_path, cell, churned):
    # numpy drops a str's trailing NULs, so such a cell must not reach it as it is.
    path = tmp_path / "in.csv"
    path.write_text(COMPETING_HEADER + f"\nc1,3,1,V,0.5\nbad,3,{churned},{cell},0.5\n",
                    encoding="utf-8", newline="")
    with pytest.raises(InvalidValue, match="row 3"):
        list(dataio.read_calibration_batches(path, "competing"))


def _through_a_pipe(tmp_path, data, reader, mode, size):
    """``_exact_batches`` of ``data`` read from a named pipe."""
    fifo = tmp_path / "fifo"
    if not fifo.exists():
        os.mkfifo(fifo)

    done = threading.Event()

    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped at an error
            pass
        while not done.wait(1):  # a reader that opens the pipe again finds it ended
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:
                pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return _exact_batches(fifo, reader, mode, size)
    finally:
        done.set()
        writer.join(10)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
def test_a_pipe_reads_as_the_file(tmp_path, newline):
    # A pipe is read by the same line source as a file: a CRLF file, and with
    # LF, one with a late quoted id.
    text = "customer_id,tenure,churn_score,margin\n" + _filler(5_000)
    data = text.replace("c4500,", '"c4500",').replace("\n", newline).encode()
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    for size in (7, 2048, 8192):
        expected = _exact_batches(path, dataio.read_scoring_batches, "single", size)
        assert len(expected) == -(-5_000 // size)  # every batch, and no error
        assert _through_a_pipe(tmp_path, data, dataio.read_scoring_batches, "single",
                               size) == expected, size


@pytest.mark.parametrize("kept", [1, 2])
def test_quoted_id_after_a_character_across_a_read(tmp_path, kept):
    # Line 2048 starts the block (at batch sizes 1, 512 and 2048, whose blocks
    # are 2048 records) that holds
    # a quoted id. Line 2047 starts with a 3-byte character across an
    # 8192-byte boundary, ``kept`` of its bytes before it.
    head = "customer_id,tenure,churn_score,margin\n"
    lines = _filler(5_000).splitlines(keepends=True)
    before = len(head) + sum(map(len, lines[:2047]))
    boundary = -(-(before + kept) // _CHUNK) * _CHUNK
    lines[0] = "c" * (boundary - kept - before) + lines[0]
    lines[2047] = "中" + lines[2047]
    lines[3000] = lines[3000].replace("c3000,", '"c3000",', 1)
    data = (head + "".join(lines)).encode()
    assert data.index("中".encode()) == boundary - kept
    assert data.index(b"\nc2048,") > boundary
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    found = _assert_oracle(path, dataio.read_scoring_batches)
    assert not isinstance(found[-1], tuple)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_plain_pipe_is_read_from_bytes(tmp_path):
    data = (COMPETING_HEADER + "\n" + _competing_rows(5_000)).encode()
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    reader = dataio.read_calibration_batches
    for size in (7, 2048, 8192):
        parsed, text, spy = _spy_byte_parser()
        with spy:
            found = _through_a_pipe(tmp_path, data, reader, "competing", size)
        assert not text and sum(parsed) == 5_000, size
        assert found == _exact_batches(path, reader, "competing", size), size


@pytest.mark.parametrize("form", ["first id quoted", "every id quoted", "every id escaped",
                                  "CRLF", "lone CR"])
def test_irregular_files_are_read_from_bytes(tmp_path, form):
    # Quoted ids, CRLF and lone CR line ends: every number column of every
    # block is read by the byte parser.
    n = 8192 + 2100
    text = "customer_id,tenure,churn_score,margin\n" + _filler(n)
    text = {"first id quoted": text.replace("c0,", '"c0",', 1),
            "every id quoted": re.sub(r"(?m)^(c[0-9]+),", r'"\1",', text),
            "every id escaped": re.sub(r"(?m)^(c[0-9]+),", r'"\1""x",', text),
            "CRLF": text.replace("\n", "\r\n"),
            "lone CR": text.replace("\n", "\r")}[form]
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8", newline="")
    reader = dataio.read_scoring_batches
    for size in ORACLE_BATCH_SIZES:
        parsed, text_calls, spy = _spy_byte_parser()
        with spy:
            found = _exact_batches(path, reader, "single", size)
        assert not text_calls and sum(parsed) == n, size
        assert found == _oracle_batches(path, reader, "single", size), size
        assert len(found) == -(-n // size)  # every batch, and no error


# A corpus of files whose records csv.reader reads in every way it can: the
# tokenizer must give its batches and errors, bit for bit, at every batch
# size and through a pipe.

def _corpus_lines(n=2_100):
    return ["customer_id,tenure,churn_score,margin", *(f"c{i},{i % 40},1,1" for i in range(n))]


# The rows where a corpus file differs from a plain one: the first, each side
# of a cut between batches of 7 (after record 2044), of the cut between
# blocks at batch sizes 1, 512 and 2048 (after record 2048) and of the one at
# batch size 7 (after record 2051, 293 batches), and the last.
_CORPUS_ROWS = (1, 2044, 2045, 2048, 2049, 2051, 2052, 2100)


def _with_ids(form, rows=_CORPUS_ROWS):
    """A scoring file whose ids on ``rows`` are ``form.format(i=row)``."""
    lines = _corpus_lines()
    for row in rows:
        lines[row] = form.format(i=row) + lines[row][lines[row].index(","):]
    return "\n".join(lines) + "\n"


def _corpus():
    plain = "\n".join(_corpus_lines()) + "\n"
    lines = _corpus_lines()
    blank = lines[:]
    for row in sorted(_CORPUS_ROWS, reverse=True):
        blank.insert(row, "")
    blank.insert(1000, "\r")
    undecodable = _with_ids('"c\n{i}"').encode()
    cut = undecodable.index(b'"c\n2049"') + 3
    files = {
        "CRLF": plain.replace("\n", "\r\n"),
        "lone CR": plain.replace("\n", "\r"),
        "mixed line ends": "".join(line + ("\n", "\r\n", "\r")[i % 3]
                                   for i, line in enumerate(lines)),
        "blank lines": "\n".join(blank) + "\n\n",
        "quoted ids": _with_ids('"q{i}"'),
        "quoted commas": _with_ids('"c,{i}"'),
        "quoted newlines": _with_ids('"c\n{i}\r\n\r"'),
        "escaped quotes": _with_ids('"q""{i}"""'),
        "a quote inside a cell": _with_ids('c"{i}'),
        "text after a closing quote": _with_ids('"q"{i}'),
        "NUL": _with_ids("c\0{i}").replace("c2098,18,1,1", "c2098,18,1\0,1"),
        "quoted header cell": plain.replace("tenure", '"tenure"', 1),
        "quoted numbers": plain.replace(",1,1\n", ',"1","1"\n'),
        "a ragged quoted row": _with_ids('"c{i}",""', rows=(2047,)),
        "a quote left open at the end": plain + '"c9,1,1,1\n',
        "an undecodable byte in a quoted record": undecodable[:cut] + b"\xff" + undecodable[cut:],
        "an over-long field": _with_ids('"' + "x" * 70_000 + "\n" + "y" * 70_000 + '"',
                                        rows=(2047,)),
    }
    return {name: data if isinstance(data, bytes) else data.encode()
            for name, data in files.items()}


CORPUS = _corpus()


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_reads_as_csv(tmp_path, name):
    path = tmp_path / "in.csv"
    path.write_bytes(CORPUS[name])
    _assert_oracle(path, dataio.read_scoring_batches)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_reads_through_a_pipe_as_csv(tmp_path, name):
    reader = dataio.read_scoring_batches
    for size in (7, 2048):
        with _csv_tokenizer():
            expected = _through_a_pipe(tmp_path, CORPUS[name], reader, "single", size)
        assert _through_a_pipe(tmp_path, CORPUS[name], reader, "single", size) == expected, size


@st.composite
def edited_files(draw):
    """A competing scoring file with a few bytes inserted or replaced."""
    lines = ["customer_id,tenure,score_v,score_inv,margin"]
    lines += [f"c{i},{i % 9},0.{i % 7}5,{draw(st.floats(0.0, 0.5))!r},{i * 1.5}"
              for i in range(draw(st.integers(1, 40)))]
    data = bytearray(("\n".join(lines) + "\n").encode())
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(data) - 1))
        data[at:at + draw(st.sampled_from([0, 1]))] = draw(st.sampled_from(
            [b'"', b'""', b"\r", b"\r\n", b"\0", b"\xff", b",", b"\n", b".", b"-", b"7"]))
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(data=edited_files())
def test_edited_files_read_as_csv(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        _assert_oracle(path, dataio.read_scoring_batches, "competing", sizes=(1, 7, 8192))
