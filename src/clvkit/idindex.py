"""An exact index of the customer ids a reader has read, with no str per id.

The CSV readers reject a repeated id (``dataio._read_batches``). A set of
the ids would keep one Python str per row alive until the file ends, about
107 bytes per id; ``IdIndex`` keeps about 14 to 20 bytes besides each id's
text, and is loaded on the first read, so commands that read no CSV never
compile it.

Each batch's ids are kept as their text, joined into one str with each id's
end offset, and as int64 keys: each id's Python hash with its low 32 bits
replaced by the id's number in the file (from 0), modulo 2**32, so a key
keeps 32 bits of the hash. Python's str hash is keyed per process unless
PYTHONHASHSEED fixes it, so with a random seed no file can be made to
collide on purpose; with a fixed seed, ids that share those 32 bits can be
found, and each is confirmed against every earlier one. The keys sit in
sorted runs: a new batch's run merges with the last run while that is no
bigger, so there are about log2(batches) runs. A filter of 16 to 64 bits per
id (one bit per key, from its hash bits) passes every key that a run may
hold, and only those are searched there. A repeat within a batch shares its
hash bits with its neighbour in the batch's sorted keys. Every match is
confirmed on the id text, so the rows marked are exactly those a set marks.
"""

from __future__ import annotations

import bisect

import numpy as np

# The hash kept of an id. One name, so that a test can patch it.
_id_hash = hash
# A key's low bits: its id's number modulo 2**32. The rest are the hash's.
_NUMBER_BITS = (1 << 32) - 1
_HASH_BITS = np.int64(~_NUMBER_BITS)
# Ids per 64-bit word of the filter, at most: past that it grows 4 times
# over, or more to fit. Against 2, this took 1.6 MB off the peak of reading
# 200k ids, and a key passes the filter wrongly 1/16 of the time or less.
_IDS_PER_WORD = 4
# Keys probed at a time when the filter grows, to bound the probes' memory.
_FILL_KEYS = 1 << 15


class IdIndex:
    """The ids of the batches read so far (see the module docstring)."""

    def __init__(self):
        self.count = 0  # the ids added
        # Per batch: the number of its first id, its ids joined, and where
        # each id ends in that text.
        self.firsts: list[int] = []
        self.texts: list[str] = []
        self.ends: list[np.ndarray] = []
        self.runs: list[np.ndarray] = []  # sorted keys, the largest run first
        self.filter = np.zeros(16, dtype=np.uint64)

    def repeated(self, ids: tuple[str, ...]) -> np.ndarray:
        """The rows of ``ids`` whose id is on an earlier row or was added
        before; ``ids`` are added."""
        n, first = len(ids), self.count
        keys = (np.fromiter(map(_id_hash, ids), np.int64, n) & _HASH_BITS
                | np.arange(first, first + n, dtype=np.int64) & _NUMBER_BITS)
        keys.sort()
        repeated = np.zeros(n, dtype=bool)
        hashed = keys & _HASH_BITS
        shared = np.flatnonzero(hashed[1:] == hashed[:-1])  # and the key after each
        if shared.size:  # in row order, a repeat if an earlier row holds its text
            kept = set()
            rows = (keys[np.union1d(shared, shared + 1)] - first) & _NUMBER_BITS
            for row in np.sort(rows).tolist():
                repeated[row] = ids[row] in kept
                kept.add(ids[row])
        words, bits = self._probes(keys)
        passed = self.filter[words] & bits != 0
        found, hashed = keys[passed], hashed[passed]
        for run in self.runs:
            starts = run.searchsorted(hashed)  # where the keys of each one's hash bits start
            for i in np.flatnonzero(run[np.minimum(starts, run.size - 1)] & _HASH_BITS
                                    == hashed).tolist():
                row = (int(found[i]) - first) & _NUMBER_BITS
                stop = run.searchsorted(hashed[i] | _NUMBER_BITS, "right")
                repeated[row] |= any(self._holds(int(key) & _NUMBER_BITS, ids[row])
                                     for key in run[starts[i]:stop])
        np.bitwise_or.at(self.filter, words, bits)
        self._add(ids, keys)
        return repeated

    def _holds(self, low: int, cell: str) -> bool:
        """Whether an id added with a number of ``low`` modulo 2**32 is ``cell``."""
        for number in range(low, self.count, 1 << 32):
            batch = bisect.bisect_right(self.firsts, number) - 1
            row = number - self.firsts[batch]
            ends = self.ends[batch]
            start = int(ends[row - 1]) if row else 0
            if self.texts[batch][start:int(ends[row])] == cell:
                return True
        return False

    def _add(self, ids: tuple[str, ...], keys: np.ndarray) -> None:
        """Keep the batch ``ids`` and their sorted ``keys``, whose bits are set."""
        n = len(ids)
        text = "".join(ids)
        offset = np.int32 if len(text) < 1 << 31 else np.int64
        self.firsts.append(self.count)
        self.texts.append(text)
        self.ends.append(np.fromiter(map(len, ids), offset, n).cumsum(dtype=offset))
        self.count += n
        while self.runs and self.runs[-1].size <= keys.size:
            keys = np.concatenate([self.runs.pop(), keys])
            keys.sort(kind="stable")  # merges the two sorted runs
        self.runs.append(keys)
        size = self.filter.size
        while self.count > _IDS_PER_WORD * size:
            size *= 4
        if size > self.filter.size:
            self.filter = np.zeros(size, dtype=np.uint64)
            for run in self.runs:
                for start in range(0, run.size, _FILL_KEYS):
                    np.bitwise_or.at(self.filter, *self._probes(run[start:start + _FILL_KEYS]))

    def _probes(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each key's word of the filter and its bit there, from its hash bits."""
        words = (keys >> (65 - self.filter.size.bit_length())) + self.filter.size // 2
        return words, np.uint64(1) << (keys.view(np.uint64) >> 32 & 63)
