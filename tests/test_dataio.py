from __future__ import annotations

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clvkit import dataio, fixedpoint, simulate
from clvkit.dataio import CalibrationRecord, ProjectionRow, ScoringRecord
from clvkit.errors import DuplicateCustomerId, InvalidValue, MissingColumn


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestReadCalibration:
    def test_minimal_valid_file(self, tmp_path):
        path = write(tmp_path / "c.csv", "customer_id,tenure,churned\nc1,5,1\n")
        records = list(dataio.read_calibration(path))
        assert records == [CalibrationRecord("c1", 5, 1)]

    def test_crlf_accepted(self, tmp_path):
        path = write(tmp_path / "c.csv", "customer_id,tenure,churned\r\nc1,5,1\r\n")
        assert list(dataio.read_calibration(path))[0].tenure == 5

    def test_bad_churn_flag_reports_row(self, tmp_path):
        path = write(tmp_path / "c.csv", "customer_id,tenure,churned\nc1,5,2\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_calibration(path))
        assert err.value.row == 2
        assert err.value.column == "churned"

    def test_missing_column(self, tmp_path):
        path = write(tmp_path / "c.csv", "customer_id,tenure\nc1,5\n")
        with pytest.raises(MissingColumn) as err:
            list(dataio.read_calibration(path))
        assert err.value.name == "churned"

    def test_header_case_sensitive(self, tmp_path):
        path = write(tmp_path / "c.csv", "Customer_Id,tenure,churned\nc1,5,1\n")
        with pytest.raises(MissingColumn):
            list(dataio.read_calibration(path))

    def test_negative_tenure(self, tmp_path):
        path = write(tmp_path / "c.csv", "customer_id,tenure,churned\nc1,-2,1\n")
        with pytest.raises(InvalidValue):
            list(dataio.read_calibration(path))

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned\nc1,5,1\nc1,6,0\n")
        with pytest.raises(DuplicateCustomerId) as err:
            list(dataio.read_calibration(path))
        assert err.value.customer_id == "c1"
        assert err.value.row == 3

    def test_covariate_columns(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned,x1,x2\nc1,5,1,0.5,-1.25\n")
        rec = list(dataio.read_calibration(path))[0]
        assert rec.covariates == (0.5, -1.25)

    def test_misnamed_covariate_column(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned,age\nc1,5,1,44\n")
        with pytest.raises(InvalidValue):
            list(dataio.read_calibration(path))

    def test_competing_requires_cause_for_churners(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned,cause\nc1,5,1,\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_calibration(path, "competing"))
        assert err.value.column == "cause"

    def test_competing_forbids_cause_for_survivors(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned,cause\nc1,5,0,V\n")
        with pytest.raises(InvalidValue):
            list(dataio.read_calibration(path, "competing"))

    def test_competing_valid(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned,cause\nc1,5,1,V\nc2,3,0,\n")
        records = list(dataio.read_calibration(path, "competing"))
        assert records[0].cause == "V"
        assert records[1].cause is None

    def test_streaming_is_lazy(self, tmp_path):
        rows = "\n".join(f"c{i},1,0" for i in range(100))
        path = write(tmp_path / "c.csv", "customer_id,tenure,churned\n" + rows + "\n")
        stream = dataio.read_calibration(path)
        first = next(stream)
        assert first.customer_id == "c0"
        stream.close()


class TestReadScoring:
    def test_valid_single(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,7,0.08,25.5\n")
        records = list(dataio.read_scoring(path))
        assert records == [ScoringRecord("c1", 7, 25.5, churn_score=0.08)]

    def test_score_out_of_range(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,7,1.2,25\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_scoring(path))
        assert err.value.column == "churn_score"

    def test_competing_sum_constraint(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,score_v,score_inv,margin\nc1,7,0.7,0.4,25\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_scoring(path, "competing"))
        assert err.value.row == 2

    def test_competing_sum_exactly_one_allowed(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,score_v,score_inv,margin\nc1,7,0.5,0.5,25\n")
        rec = list(dataio.read_scoring(path, "competing"))[0]
        assert rec.score_v == 0.5 and rec.score_inv == 0.5

    def test_negative_margin_allowed(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,7,0.1,-3.5\n")
        assert list(dataio.read_scoring(path))[0].margin == -3.5

    def test_duplicate_rejected(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,7,0.1,1\nc1,8,0.1,1\n")
        with pytest.raises(DuplicateCustomerId):
            list(dataio.read_scoring(path))

    def test_missing_field_in_row(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,7,0.1\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_scoring(path))
        assert err.value.column == "margin"

    def test_extra_column_rejected(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin,x1\nc1,7,0.1,1,2\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_scoring(path))
        assert err.value.row == 1


class TestProjectionsRoundTrip:
    def test_values_survive_at_printed_precision(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = [ProjectionRow(f"c{i}", float(rng.uniform(0, 4)),
                              float(rng.uniform(0, 300)), float(rng.uniform(-50, 900)),
                              int(rng.integers(0, 1200)))
                for i in range(50)]
        path = tmp_path / "p.csv"
        assert dataio.write_projections(path, rows) == 50
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == dataio.PROJECTION_COLUMNS
            back = list(reader)
        assert [r[0] for r in back] == [r.customer_id for r in rows]
        for a, (_, alpha, ert, clv, truncated_at) in zip(rows, back):
            assert float(alpha) == pytest.approx(a.alpha, abs=5e-7)
            assert float(ert) == pytest.approx(a.ert_months, abs=5e-7)
            assert float(clv) == pytest.approx(a.clv, abs=5e-7)
            assert int(truncated_at) == a.truncated_at

    def test_fixed_column_order(self, tmp_path):
        path = tmp_path / "p.csv"
        dataio.write_projections(path, [ProjectionRow("c1", 1.0, 2.0, 3.0, 4)])
        header = path.read_text().splitlines()[0]
        assert header == "customer_id,alpha,ert_months,clv,truncated_at"


class TestWriters:
    def test_calibration_round_trip(self, tmp_path):
        records = [CalibrationRecord("a", 0, 1), CalibrationRecord("b", 3, 0)]
        path = tmp_path / "c.csv"
        dataio.write_calibration(path, records)
        assert list(dataio.read_calibration(path)) == records

    def test_competing_round_trip(self, tmp_path):
        records = [CalibrationRecord("a", 0, 1, "I"), CalibrationRecord("b", 3, 0)]
        path = tmp_path / "c.csv"
        dataio.write_calibration(path, records, "competing")
        assert list(dataio.read_calibration(path, "competing")) == records

    def test_scoring_round_trip(self, tmp_path):
        records = [ScoringRecord("a", 2, 10.0, churn_score=0.125)]
        path = tmp_path / "s.csv"
        dataio.write_scoring(path, records)
        assert list(dataio.read_scoring(path)) == records


class TestTenureRange:
    """A tenure past int64 is a data error naming its row, not an overflow."""

    def test_calibration_tenure_past_int64(self, tmp_path):
        path = write(tmp_path / "c.csv",
                     "customer_id,tenure,churned\nc1,5,0\nc2,99999999999999999999,1\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_calibration(path))
        assert (err.value.row, err.value.column) == (3, "tenure")

    def test_scoring_tenure_past_int64(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,99999999999999999999,0.1,1\n")
        with pytest.raises(InvalidValue) as err:
            list(dataio.read_scoring(path))
        assert (err.value.row, err.value.column) == (2, "tenure")

    def test_largest_int64_tenure_reads(self, tmp_path):
        path = write(tmp_path / "s.csv",
                     "customer_id,tenure,churn_score,margin\nc1,9223372036854775807,0.1,1\n")
        assert list(dataio.read_scoring(path))[0].tenure == 2**63 - 1


# The line template of every CSV writer: projections, truth, calibration
# (single risk with 0 to 2 covariates, and competing) and scoring (single
# risk and competing).
WRITER_TEMPLATES = [
    dataio._PROJECTION_LINE, simulate._TRUTH_LINE,
    "%s,%d,%d\n", "%s,%d,%d,%.6f\n", "%s,%d,%d,%.6f,%.6f\n", "%s,%d,%d,%s,%.6f\n",
    "%s,%d,%.6f,%.6f\n", "%s,%d,%.6f,%.6f,%.6f\n",
]
FLOAT_LIMIT = 2.0**52 / 1e6  # floats this size or larger go through the template
BELOW_LIMIT = float(np.nextafter(FLOAT_LIMIT, 0))
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 4.9e-7, 5e-7, 1.5e-6,
               2.5e-6, -2.5e-6, 0.1, 2.675, 4503.599627370495, 11111111111.111113, 1e15, 1e300,
               BELOW_LIMIT, -BELOW_LIMIT, FLOAT_LIMIT, float(np.nextafter(FLOAT_LIMIT, 1e300)),
               float("nan"), float("inf"), float("-inf")]
PRINTED_FLOATS = [x for x in EDGE_FLOATS if abs(x) < FLOAT_LIMIT]
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e4, 1e4),
    st.integers(-2**40, 2**40).map(lambda k: k / 128),  # exact ties at the sixth decimal
    st.integers(-10**12, 10**12).map(lambda k: (k + 0.5) / 1e6),  # near ties
    st.floats(FLOAT_LIMIT * 0.999, FLOAT_LIMIT * 1.001), st.floats(FLOAT_LIMIT, 8 * FLOAT_LIMIT))
ints = st.one_of(st.sampled_from([0, -1, 1, 2**63 - 1, -2**63, -2**63 + 1]),
                 st.integers(-2**63, 2**63 - 1), st.integers(-10**6, 10**6))
ids = st.one_of(st.text(max_size=10), st.text(alphabet='ab,"\r\n', max_size=4),
                st.sampled_from(["c0000001", "é", "日本語", "", "\x00", "a\rb"]))


def csv_id(value: str) -> str:
    """``value`` as ``csv.writer`` writes it as the first field of a row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([value, ""])
    return out.getvalue()[:-2]


class TestWriterOracle:
    """Every writer template prints what ``template % row`` prints, with the
    id quoted by csv.writer, whether numpy or the template formats it."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), template=st.sampled_from(WRITER_TEMPLATES),
           rows=st.sampled_from([1, 7, 8192]))
    @example(data=None, template=dataio._PROJECTION_LINE, rows=8192)
    def test_lines_equal_the_template(self, data, template, rows):
        fields = template.rstrip("\n").split(",")[1:]
        if data is None:  # every edge value in one batch, with plain ids
            pools = {"%.6f": PRINTED_FLOATS, "%d": [0, -1, 2**63 - 1, -2**63 + 1]}
            id_pool, seed = ["c1", "é"], 0
        else:
            pools = {"%.6f": data.draw(st.lists(floats, min_size=1, max_size=12)),
                     "%d": data.draw(st.lists(ints, min_size=1, max_size=6)),
                     "%s": data.draw(st.lists(st.sampled_from(["V", "I", ""]), min_size=1))}
            id_pool = data.draw(st.lists(ids, min_size=1, max_size=6))
            seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)

        def column(pool, dtype=None):
            return np.array(pool, dtype=dtype)[rng.integers(0, len(pool), rows)]

        batch_ids = tuple(column(id_pool, object).tolist())
        columns = [column(pools[f], {"%.6f": np.float64, "%d": np.int64, "%s": None}[f])
                   for f in fields]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.csv"
            assert dataio.write_csv(path, ["h"], template, [(batch_ids, columns)]) == rows
            written = path.read_bytes()
        expected = "".join(template % (csv_id(i), *row) for i, *row in zip(
            batch_ids, *(c.tolist() for c in columns)))
        assert written == ("h\n" + expected).encode("utf-8")

    def test_numpy_prints_every_float_below_the_limit(self):
        values = np.array(PRINTED_FLOATS * 2 + [k / 128 for k in range(-300, 300)])
        lines = fixedpoint.format_lines("f", ("c",) * len(values), [values])
        assert lines == "".join("c,%.6f\n" % x for x in values.tolist()).encode()
