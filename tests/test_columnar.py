"""Column batches against the record-by-record reference.

The readers validate whole columns and fall back to row checks only for a
batch that breaks a rule; ``reference_calibration`` and
``reference_scoring`` below are the row-by-row readers they must agree
with, for every batch size: the same records in order, or the same error
type and message. The CLI's column paths must write the same bytes as the
record-level APIs.
"""

from __future__ import annotations

import csv
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvkit import dataio
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


def test_fit_odds_command_equals_record_api(tmp_path):
    cal = _panel(tmp_path)
    bpath = tmp_path / "baseline.json"
    save_baseline(bpath, baseline_from_rates([0.08] * 30, exposure=1000, tail_start=10))
    out = tmp_path / "model.json"
    assert main(["fit-odds", "--calibration", str(cal), "--baseline", str(bpath),
                 "--out", str(out)]) == 0
    rows = [PersonPeriodRow(r.tenure, r.churned, r.covariates)
            for r in dataio.read_calibration(cal)]
    expected = tmp_path / "expected.json"
    save_model(expected, fit_odds_model(rows, baseline_from_rates(
        [0.08] * 30, exposure=1000, tail_start=10)))
    assert out.read_bytes() == expected.read_bytes()


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


def _read_both_ways(text, reader):
    """The outcome at each batch size, with plain batches split as text and
    with every batch read by csv."""
    outcomes = []
    for size in BATCH_SIZES:
        outcomes.append(_outcome_of_file(text, reader, size))
        with mock.patch.object(dataio, "_plain", lambda text, lines: False):
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


def _assert_reference(found, records):
    """``found`` is the reference reader's outcome; a record csv refuses
    (NUL before Python 3.11) is InvalidDocument."""
    try:
        expected = outcome(records)
    except csv.Error:
        assert found[0] is InvalidDocument, found
    else:
        assert found == expected


@settings(max_examples=300, deadline=None)
@given(text=irregular_files("scoring"))
def test_scoring_plain_split_equals_csv_fallback(text):
    outcomes = _read_both_ways(text, dataio.read_scoring_batches)
    assert all(o == outcomes[0] for o in outcomes), outcomes
    _assert_reference(outcomes[0], reference_scoring(text, "single"))


@settings(max_examples=300, deadline=None)
@given(text=irregular_files("calibration"))
def test_calibration_plain_split_equals_csv_fallback(text):
    outcomes = _read_both_ways(text, dataio.read_calibration_batches)
    assert all(o == outcomes[0] for o in outcomes), outcomes
    _assert_reference(outcomes[0], reference_calibration(text, "single", 0))


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
        for plain in (True, False):
            with mock.patch.object(dataio, "_plain", dataio._plain if plain
                                   else lambda text, lines: False):
                with pytest.raises(InvalidDocument) as err:
                    list(reader(path, "single", size))
            assert str(path) in str(err.value) and "UTF-8" in str(err.value)


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
        for plain in (True, False):
            with mock.patch.object(dataio, "_plain", dataio._plain if plain
                                   else lambda text, lines: False):
                with pytest.raises(InvalidDocument) as err:
                    list(reader(path, "single", size))
            assert err.value.reason.startswith("row 7: field larger than field limit")
            assert str(path) in str(err.value)


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
