"""Each rule of each CSV schema, broken on its own by one row.

The expected errors are written out here rather than taken from the
reader's rule tables, so a rule that a table drops or rewords fails here.
"""

from __future__ import annotations

import pytest

from clvkit import dataio
from clvkit.errors import DuplicateCustomerId, InvalidValue

INT64_MAX = 2**63 - 1

# (reader, mode, header, a valid row, the column checks) where each column
# check is (column, bad cell, reason). Rules over the row as a whole, and over
# two columns, are in ROW_RULES and PAIR_RULES.
SCHEMAS = {
    "calibration single": (
        dataio.read_calibration_batches, "single", "customer_id,tenure,churned,x1",
        ["c1", "5", "1", "0.5"], [
            ("tenure", "x", "'x' is not an integer"),
            ("tenure", "-1", "must be >= 0"),
            ("tenure", "99999999999999999999", f"must be <= {INT64_MAX}"),
            ("tenure", "100001", "must be <= 100000"),
            ("churned", "2", "must be 0 or 1"),
            ("x1", "abc", "'abc' is not a number"),
            ("x1", "inf", "must be finite"),
        ]),
    "calibration competing": (
        dataio.read_calibration_batches, "competing", "customer_id,tenure,churned,cause,x1",
        ["c1", "5", "1", "V", "0.5"], [
            ("tenure", "1.5", "'1.5' is not an integer"),
            ("tenure", "-99999999999999999999", "must be >= 0"),
            ("tenure", "99999999999999999999", f"must be <= {INT64_MAX}"),
            ("tenure", "100001", "must be <= 100000"),
            ("churned", "yes", "must be 0 or 1"),
            ("cause", "X", "must be V or I for churners"),
            ("x1", "", "'' is not a number"),
            ("x1", "nan", "must be finite"),
        ]),
    "scoring single": (
        dataio.read_scoring_batches, "single", "customer_id,tenure,churn_score,margin",
        ["c1", "5", "0.1", "2.5"], [
            ("tenure", "", "'' is not an integer"),
            ("tenure", "-1", "must be >= 0"),
            ("tenure", "99999999999999999999", f"must be <= {INT64_MAX}"),
            ("churn_score", "p", "'p' is not a number"),
            ("churn_score", "1.5", "must be in [0, 1]"),
            ("margin", "m", "'m' is not a number"),
            ("margin", "nan", "must be finite"),
        ]),
    "scoring competing": (
        dataio.read_scoring_batches, "competing", "customer_id,tenure,score_v,score_inv,margin",
        ["c1", "5", "0.1", "0.2", "2.5"], [
            ("tenure", "t", "'t' is not an integer"),
            ("tenure", "-2", "must be >= 0"),
            ("tenure", "99999999999999999999", f"must be <= {INT64_MAX}"),
            ("score_v", "v", "'v' is not a number"),
            ("score_v", "-0.1", "must be in [0, 1]"),
            ("score_inv", "i", "'i' is not a number"),
            ("score_inv", "inf", "must be in [0, 1]"),
            ("margin", "", "'' is not a number"),
            ("margin", "-inf", "must be finite"),
        ]),
}

# (schema, the row's cells by column, column named, reason)
PAIR_RULES = [
    ("calibration competing", {"churned": "1", "cause": ""}, "cause",
     "must be V or I for churners"),
    ("calibration competing", {"churned": "0", "cause": "I"}, "cause",
     "must be empty unless churned"),
    ("scoring competing", {"score_v": "0.7", "score_inv": "0.6"}, "score_v/score_inv",
     "sum 1.3 exceeds 1"),
]


def _read(tmp_path, schema, second_row, size):
    """Read a file whose second data row (file row 3) is ``second_row``."""
    reader, mode, header, valid, _ = SCHEMAS[schema]
    path = tmp_path / "in.csv"
    path.write_text("\n".join([header, ",".join(["c0", *valid[1:]]), second_row]) + "\n",
                    encoding="utf-8")
    return list(reader(path, mode, size))


def _column_cases():
    for schema, (_, _, header, valid, checks) in SCHEMAS.items():
        names = header.split(",")
        for column, cell, reason in checks:
            cells = list(valid)
            cells[names.index(column)] = cell
            yield schema, ",".join(cells), column, reason
        for _, changes, column, reason in (p for p in PAIR_RULES if p[0] == schema):
            cells = list(valid)
            for name, cell in changes.items():
                cells[names.index(name)] = cell
            yield schema, ",".join(cells), column, reason
        short = ",".join(valid[:-1])
        yield schema, short, names[-1], "missing field"
        yield schema, ",".join([*valid, "7"]), f"field {len(names) + 1}", "unexpected extra field"
        yield schema, ",".join(["", *valid[1:]]), "customer_id", "must be non-empty"


@pytest.mark.parametrize("size", [1, 8192])
@pytest.mark.parametrize("schema, row, column, reason", list(_column_cases()))
def test_each_rule_names_row_column_and_reason(tmp_path, size, schema, row, column, reason):
    with pytest.raises(InvalidValue) as err:
        _read(tmp_path, schema, row, size)
    assert (err.value.row, err.value.column, err.value.reason) == (3, column, reason)


@pytest.mark.parametrize("size", [1, 8192])
@pytest.mark.parametrize("schema", SCHEMAS)
def test_repeated_id_names_its_row(tmp_path, schema, size):
    valid = SCHEMAS[schema][3]
    with pytest.raises(DuplicateCustomerId) as err:
        _read(tmp_path, schema, ",".join(["c0", *valid[1:]]), size)
    assert (err.value.customer_id, err.value.row) == ("c0", 3)


@pytest.mark.parametrize("schema", SCHEMAS)
def test_valid_rows_read(tmp_path, schema):
    (batch,) = _read(tmp_path, schema, ",".join(SCHEMAS[schema][3]), 8192)
    assert batch.ids == ("c0", "c1")
