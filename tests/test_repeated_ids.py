"""The readers' index of ids read so far (``idindex.IdIndex``) against a set.

Duplicate customer ids are found by keeping, per batch, the ids' text and
their hashes in sorted runs behind a bit filter, not a set of strs. These
tests check that the index marks exactly the rows a set would, with the
hash as it is and with the hash patched to a handful of values so that
unequal ids share hashes, and that the memory it keeps per id stays small.
"""

from __future__ import annotations

import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clvkit import dataio, idindex
from clvkit.errors import DuplicateCustomerId, InvalidValue

_BATCH_SIZES = [1, 7, 2048, 8192]

# Ids that are empty, hold NUL or other control characters, non-ASCII text,
# quotes, commas or line ends, or are prefixes of one another.
_ID = st.one_of(st.sampled_from(["", "\0", "a\0", "a", "ab", "a,b", 'a"b', "a\nb", "\r",
                                 "é", "\U0001f600"]),
                st.text(max_size=4))


@st.composite
def _id_lists(draw):
    """Ids with repeats: a few drawn ids, each possibly several times, among
    distinct ones; the filler crosses the index's filter growth at 64, 256
    and 1024 ids."""
    pool = draw(st.lists(_ID, min_size=1, max_size=6, unique=True))
    filler = [f"id{i}" for i in range(draw(st.sampled_from([0, 100, 300, 1100])))]
    repeats = draw(st.lists(st.sampled_from(pool + filler[-3:]), max_size=10))
    return draw(st.permutations(pool + filler + repeats))


def _few_hashes(value: str) -> int:
    """Five hash values, with the high 32 bits all set or all clear."""
    return hash(value) % 5 - 2


_HASHES = pytest.mark.parametrize("id_hash", [hash, _few_hashes], ids=["hash", "five hashes"])


@_HASHES
@settings(max_examples=60, deadline=None)
@given(ids=_id_lists(), size=st.sampled_from(_BATCH_SIZES))
def test_index_marks_the_rows_a_set_marks(id_hash, ids, size):
    index, seen = idindex.IdIndex(), set()
    with mock.patch.object(idindex, "_id_hash", id_hash):
        for start in range(0, len(ids), size):
            batch = tuple(ids[start:start + size])
            expected = []
            for cell in batch:
                expected.append(cell in seen)
                seen.add(cell)
            assert index.repeated(batch).tolist() == expected


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


def _outcome(path, size):
    """The ids read from ``path`` at ``size`` rows a batch, or the error raised."""
    try:
        return [cell for batch in dataio.read_calibration_batches(path, batch_size=size)
                for cell in batch.ids]
    except (InvalidValue, DuplicateCustomerId) as exc:
        return exc


@_HASHES
@settings(max_examples=30, deadline=None)
@given(ids=_id_lists())
def test_reader_names_the_first_repeated_row(id_hash, tmp_path_factory, ids):
    path = tmp_path_factory.mktemp("ids") / "c.csv"
    path.write_text("customer_id,tenure,churned\n"
                    + "".join(f"{_quoted(cell)},1,0\n" for cell in ids),
                    encoding="utf-8", newline="")
    expected, seen = ids, set()
    for row, cell in enumerate(ids, start=2):
        if cell == "":
            expected = InvalidValue(row, "customer_id", "must be non-empty")
            break
        if cell in seen:
            expected = DuplicateCustomerId(cell, row)
            break
        seen.add(cell)
    for size in _BATCH_SIZES:
        with mock.patch.object(idindex, "_id_hash", id_hash):
            outcome = _outcome(path, size)
        assert (type(outcome), str(outcome)) == (type(expected), str(expected)), size


def test_a_file_read_twice_fails_at_its_second_half_in_linear_time(tmp_path):
    """Every row of the second batch repeats one of the first, so each is
    confirmed on the text of an earlier batch. Each confirmation takes the id
    by its offsets; a split of the batch's text up to the row would make
    about 1.25e9 strs here, minutes of work instead of a fraction of a second."""
    n = 50_000
    rows = "".join(f"c{i:07d},{i % 97},0.5,10\n" for i in range(n))
    path = tmp_path / "s.csv"
    path.write_text("customer_id,tenure,churn_score,margin\n" + rows + rows, encoding="ascii")
    start = time.process_time()
    with pytest.raises(DuplicateCustomerId) as raised:
        for _ in dataio.read_scoring_batches(path, batch_size=n):
            pass
    assert str(raised.value) == str(DuplicateCustomerId("c0000000", n + 2))
    assert time.process_time() - start < 5.0


def test_memory_per_id_read(tmp_path):
    """Streaming a file of unique ids holds at most 48 B more per added id
    at its peak (a set of the ids held about 107 B)."""
    peaks = []
    for n in (50_000, 200_000):
        path = tmp_path / f"c{n}.csv"
        path.write_text("customer_id,tenure,churned\n"
                        + "".join(f"c{i:07d},{i % 97},{i % 2}\n" for i in range(n)),
                        encoding="ascii")
        tracemalloc.start()
        try:
            for _ in dataio.read_calibration_batches(path):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 150_000 <= 48
