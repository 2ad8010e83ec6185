"""The readers parse 2048 records at a time, at every batch size.

A batch of 2048 records or more is built from the pieces of consecutive
blocks: each piece is checked in row order, then the checked columns are
joined. These tests pin what that must not change: the scorer's output at
every batch size, batches of exactly ``size`` records, the row an error
names, and ids repeated across blocks and batches. The last one pins what
it is for: a larger batch holds little more memory than a 2048-row one.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from clvkit import dataio
from clvkit.cli import main
from clvkit.errors import DuplicateCustomerId, InvalidValue
from clvkit.survival import save_baseline

from conftest import baseline_from_rates, fixture_curve_rates

ROW_COUNTS = [2047, 2048, 2049, 8191, 8192, 8193, 10_000]
BATCH_SIZES = [1, 7, 2048, 3000, 8192, 10_000]
HEADER = "customer_id,tenure,churn_score,margin\n"


def _id(i: int) -> str:
    """Ids of several lengths, some non-ASCII, some quoted in the file."""
    cell = ("c", "é", "中", "id-")[i % 4] + str(i) + "x" * (i % 3)
    return f'"{cell}"' if i % 11 == 0 else cell


def _rows(n: int, start: int = 0) -> str:
    return "".join(f"{_id(i)},{i % 53},0.{i % 997:03d},{i % 300}.{i % 7}\n"
                   for i in range(start, start + n))


def _score(tmp_path, baseline, n, size) -> bytes:
    """The scorer's output on the first ``n`` rows of ``_rows``, at ``size`` rows a batch."""
    scoring, out = tmp_path / f"scoring{n}.csv", tmp_path / f"out{n}-{size}.csv"
    if not scoring.exists():
        scoring.write_text(HEADER + _rows(n), encoding="utf-8")
    assert main(["score", "--scoring", str(scoring), "--baseline", str(baseline),
                 "--out", str(out), "--discount-annual", "0.1", "--chunk-size", str(size)]) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A baseline, and the output lines of ``--chunk-size 1`` on the most
    rows; every file is a prefix of that file, and each customer is scored
    on its own, so a file's output at size 1 is a prefix of those lines."""
    tmp_path = tmp_path_factory.mktemp("scored")
    baseline = tmp_path / "baseline.json"
    save_baseline(baseline, baseline_from_rates(fixture_curve_rates(), tail_start=25))
    return baseline, _score(tmp_path, baseline, max(ROW_COUNTS), 1).splitlines(keepends=True)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_scores_are_byte_identical_at_every_batch_size(tmp_path, scored, n):
    baseline, lines = scored
    expected = b"".join(lines[:n + 1])
    for size in BATCH_SIZES[1:]:
        assert _score(tmp_path, baseline, n, size) == expected, size
    for size in BATCH_SIZES:
        lengths = [len(b.ids) for b in
                   dataio.read_scoring_batches(tmp_path / f"scoring{n}.csv", "single", size)]
        assert lengths == [size] * (n // size) + [n % size] * (n % size > 0), size


def _batches(path, size):
    """Every batch's fields, floats by their bits, and the ids as str."""
    return [[tuple(field) if i == 0 else field.view(np.int64).tolist()
             if field.dtype == np.float64 else field.tolist()
             for i, field in enumerate(batch) if field is not None]
            for batch in dataio.read_scoring_batches(path, "single", size)]


def test_quoted_number_in_the_second_block_of_a_batch(tmp_path):
    # Rows 2048 to 4095 are the second block of the first 8192-row batch;
    # there the margin column is parsed as text, elsewhere from the bytes.
    lines = _rows(9_000).splitlines(keepends=True)
    cells = lines[3_000].split(",")
    lines[3_000] = ",".join([*cells[:3], f'"{cells[3].strip()}"\n'])
    quoted, plain = tmp_path / "quoted.csv", tmp_path / "plain.csv"
    quoted.write_text(HEADER + "".join(lines), encoding="utf-8")
    plain.write_text(HEADER + _rows(9_000), encoding="utf-8")
    for size in (7, 3000, dataio.SCORING_BATCH_SIZE):
        assert _batches(quoted, size) == _batches(plain, size), size


@pytest.mark.parametrize("size,yielded", [(dataio.SCORING_BATCH_SIZE, 0), (3000, 1)])
def test_bad_cell_in_the_third_block_names_its_row(tmp_path, size, yielded):
    # Record 5000 lies in the third 2048-record block: of the first batch at
    # size 8192, and of the second at size 3000, after the first is yielded.
    lines = _rows(10_000).splitlines(keepends=True)
    lines[5_000] = lines[5_000].replace(",0.", ",1.", 1)
    path = tmp_path / "in.csv"
    path.write_text(HEADER + "".join(lines), encoding="utf-8")
    batches = dataio.read_scoring_batches(path, "single", size)
    for _ in range(yielded):
        assert len(next(batches).ids) == size
    with pytest.raises(InvalidValue) as err:
        next(batches)
    assert (err.value.row, err.value.column) == (5_002, "churn_score")


@pytest.mark.parametrize("first,repeat", [(100, 6_000), (100, 9_000), (2_047, 2_048)])
def test_id_repeated_across_blocks_and_batches(tmp_path, first, repeat):
    lines = _rows(10_000).splitlines(keepends=True)
    lines[repeat] = _id(first) + lines[repeat][lines[repeat].index(","):]
    path = tmp_path / "in.csv"
    path.write_text(HEADER + "".join(lines), encoding="utf-8")
    for size in BATCH_SIZES[1:]:
        read = []
        with pytest.raises(DuplicateCustomerId) as err:
            for batch in dataio.read_scoring_batches(path, "single", size):
                read += batch.ids
        assert (err.value.customer_id, err.value.row) == (_id(first).strip('"'), repeat + 2)
        assert len(read) == repeat // size * size, size


def test_larger_batches_hold_little_more_memory(tmp_path):
    """Streaming at 8192-row batches peaks at most two batches' checked
    columns above 2048-row batches: the pieces of a batch and their join.
    Parsing each 8192-row batch as one block held about 2.4 MB more."""
    n = 32_768
    path = tmp_path / "in.csv"
    path.write_text(HEADER + "".join(f"c{i:07d},{i % 97},0.{i % 1000:03d}5,{i % 5000}.{i % 100:02d}\n"
                                     for i in range(n)), encoding="ascii")
    # Per row: tenure, churn_score and margin (8 bytes each), and the id's
    # 8 bytes, a comma and an int64 end offset.
    checked_bytes = dataio.SCORING_BATCH_SIZE * (3 * 8 + 8 + 1 + 8)
    peaks = {}
    for size in (2048, dataio.SCORING_BATCH_SIZE):
        tracemalloc.start()
        try:
            for _ in dataio.read_scoring_batches(path, "single", size):
                pass
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[dataio.SCORING_BATCH_SIZE] - peaks[2048] <= 2 * checked_bytes
