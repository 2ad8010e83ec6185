"""An exact index of the customer ids a reader has read, with no str per id.

The CSV readers reject a repeated id (``dataio._read_batches``). A set of
the ids would keep one Python str per row alive until the file ends, about
107 bytes per id; ``IdIndex`` keeps about 14 to 20 bytes besides each id's
bytes, and is loaded on the first read, so commands that read no CSV never
compile it.

Ids come as their UTF-8 bytes (``fixedpoint.Ids``) and are never decoded
here. Each batch's ids are kept as those bytes with each id's end offset,
and as int64 keys: each id's 64-bit hash (``_id_hash``) with its low 32
bits replaced by the id's number in the file (from 0), modulo 2**32, so a
key keeps 32 bits of the hash. The hash is keyed by 40 random bytes drawn
once per process, and mixes each 8-byte word of an id whole under the key
before the words are summed, so which ids share a hash changes from one
process to the next. It is not a cryptographic hash: ids that share the 32
kept bits are each confirmed against every earlier one, so a file built
to make them share would be slow to read, not read wrongly. A block's ids
are hashed once (``hashed``), whatever the batches it is cut into. The
keys sit in sorted runs: a new batch's run merges with the last run while
that is no bigger, so there are about log2(batches) runs. A filter of 16 to
64 bits per id (one bit per key, from its hash bits) passes every key that a
run may hold, and only those are searched there. A repeat within a batch
shares its hash bits with its neighbour in the batch's sorted keys. Every
match is confirmed on the id bytes, so the rows marked are exactly those a
set marks.
"""

from __future__ import annotations

import bisect
import os

import numpy as np

from .fixedpoint import Ids

# The hash's key: five random 64-bit words, the second and third odd.
_KEY = np.frombuffer(os.urandom(40), np.uint64) | np.array([0, 1, 1, 0, 0], np.uint64)
_U64 = np.uint64
# Zero bytes after an id block, so that every id's last word can be read whole.
_WORD_PAD = np.zeros(8, np.uint8)


def _id_hash(ids: Ids) -> np.ndarray:
    """Each id's 64-bit hash, as int64, of its bytes and their number under
    ``_KEY``. An id is read as little-endian 8-byte words from its first
    byte, its last word zero-filled past it; each word is xored with a key
    word of its place in the id and mixed whole (``_mixed``), the mixed
    words are summed (modulo 2**64), and the sum and the id's size are
    mixed once more. A word must be mixed whole before the sum: with only a
    multiply, a change of a word's bit 62 changes its term in 4 bits
    whatever the key, so ids that differ in such bits fall into few sums.
    One name, so that a test can patch it."""
    sizes = ids.sizes()
    counts = (sizes + 7) >> 3  # words per id
    firsts = np.cumsum(counts) - counts  # each id's first word
    owner = np.repeat(np.arange(len(ids)), counts)
    place = np.arange(owner.size) - firsts[owner]
    left = sizes[owner] - 8 * place  # the id's bytes from the word's first on
    text = np.concatenate([ids.text, _WORD_PAD])
    windows = np.ndarray((text.size - 7,), "V8", text, strides=(1,))
    words = windows[ids.ends[owner] - 1 - left].view("<u8").astype(_U64, copy=False)
    words &= _U64(2**64 - 1) >> (64 - 8 * np.minimum(left, 8)).astype(_U64)
    words ^= place.astype(_U64) * _KEY[1] + _KEY[0]
    words *= _KEY[2]
    _mixed(words)
    sums = np.zeros(owner.size + 1, _U64)
    np.cumsum(words, out=sums[1:])
    h = sums[firsts + counts] - sums[firsts]
    h += sizes.astype(_U64) * _KEY[3] + _KEY[4]
    return _mixed(h).view(np.int64)


def hashed(ids: Ids) -> Ids:
    """``ids`` with each id's hash (``_id_hash``) kept as ``ids.hashes``,
    which its slices share: the readers hash a block's ids once, however
    many batches it is cut into."""
    ids.hashes = _id_hash(ids)
    return ids


def _mixed(x: np.ndarray) -> np.ndarray:
    """``x`` (uint64) through MurmurHash3's 64-bit finalizer, in place: each
    bit of the result depends on every bit of the input."""
    for multiplier in (_U64(0xFF51AFD7ED558CCD), _U64(0xC4CEB9FE1A85EC53)):
        x ^= x >> _U64(33)
        x *= multiplier
    x ^= x >> _U64(33)
    return x


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
        # Per batch: the number of its first id, and its ids.
        self.firsts: list[int] = []
        self.batches: list[Ids] = []
        self.runs: list[np.ndarray] = []  # sorted keys, the largest run first
        self.filter = np.zeros(16, dtype=np.uint64)

    def repeated(self, ids: Ids) -> np.ndarray:
        """The rows of ``ids`` whose id is on an earlier row or was added
        before; ``ids`` are added."""
        n, first = len(ids), self.count
        hashes = _id_hash(ids) if ids.hashes is None else ids.hashes
        keys = (hashes & _HASH_BITS
                | np.arange(first, first + n, dtype=np.int64) & _NUMBER_BITS)
        keys.sort()
        repeated = np.zeros(n, dtype=bool)
        hashed = keys & _HASH_BITS
        shared = np.flatnonzero(hashed[1:] == hashed[:-1])  # and the key after each
        if shared.size:  # in row order, a repeat if an earlier row holds its bytes
            kept = set()
            rows = (keys[np.union1d(shared, shared + 1)] - first) & _NUMBER_BITS
            for row in np.sort(rows).tolist():
                cell = ids.utf8(row)
                repeated[row] = cell in kept
                kept.add(cell)
        words, bits = self._probes(keys)
        passed = self.filter[words] & bits != 0
        found, hashed = keys[passed], hashed[passed]
        for run in self.runs if found.size else ():
            starts = run.searchsorted(hashed)  # where the keys of each one's hash bits start
            for i in np.flatnonzero(run[np.minimum(starts, run.size - 1)] & _HASH_BITS
                                    == hashed).tolist():
                row = (int(found[i]) - first) & _NUMBER_BITS
                stop = run.searchsorted(hashed[i] | _NUMBER_BITS, "right")
                cell = ids.utf8(row)
                repeated[row] |= any(self._holds(int(key) & _NUMBER_BITS, cell)
                                     for key in run[starts[i]:stop])
        np.bitwise_or.at(self.filter, words, bits)
        self._add(ids, keys)
        return repeated

    def _holds(self, low: int, cell: bytes) -> bool:
        """Whether an id added with a number of ``low`` modulo 2**32 has the bytes ``cell``."""
        for number in range(low, self.count, 1 << 32):
            batch = bisect.bisect_right(self.firsts, number) - 1
            if self.batches[batch].utf8(number - self.firsts[batch]) == cell:
                return True
        return False

    def _add(self, ids: Ids, keys: np.ndarray) -> None:
        """Keep a copy of the batch ``ids`` and their sorted ``keys``, whose bits are set."""
        offset = np.int32 if ids.text.size < 1 << 31 else np.int64
        self.firsts.append(self.count)
        self.batches.append(Ids(ids.text.copy(), ids.ends.astype(offset)))
        self.count += len(ids)
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
