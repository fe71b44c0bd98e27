"""Packed bitvector with constant-time rank and sampled select.

Positions are 1-based. Bit i lives in word (i - 1) // 64 at intra-word
offset (i - 1) % 64, words filled LSB-first; the last word's bits past
the length are padding, and must be clear. Alongside the raw words the
vector keeps a rank directory (cumulative popcount at every 512-bit
boundary) and select samples (the position of every 8192nd set bit and
every 8192nd clear bit).

The serialized section is the in-memory structure: a vector is one
array of little-endian u64 words, and queries read those words through
a word view. The query functions below take that view, the word index
of the packed bits and that of the rank directory, so wavelet trees and
forests run them directly on the bitvector sections inside their own
buffers.

Trees and forests take the section geometry from here alone:
section_offsets, section_words and WORDS_AT.

There is one query path. A public query given a trace list reads
through a view that records the byte offset of every word it serves
(_bits.TracedWords), so a trace is exactly the words the query read;
without one it reads the bare memoryview.
"""

from __future__ import annotations

import operator
from bisect import bisect_left

import numpy as np

from ._bits import (_U64, WordBuffer, header_word, inside, pack_bits,
                    popcount_words, ranges, read_words, select_in_word,
                    select_in_words, truncated, word_view)

MAGIC = b"WFBV"
MAGIC_WORD = header_word(MAGIC)

SUPER_BITS = 512
SELECT_SAMPLE = 8192

# Serialized layout, offsets relative to the section start:
#   0  magic "WFBV" + 4 zero bytes
#   8  length in bits, u64
#   16 words, 8 * ceil(length / 64) bytes
#      rank directory, 8 * (length // 512) bytes
#      count of 1-samples (u64), then the samples
#      count of 0-samples (u64), then the samples
# All integers little-endian; every section lands 8-byte aligned.
WORDS_AT = 2  # word index of the packed bits within a section

# Sections that write_sections completes per batch: its scratch arrays
# then hold one batch's words, not every section's.
_CHUNK = 1 << 14


def section_offsets(starts, lengths):
    """Word offsets of the packed words and of the rank directory of the
    sections at starts of lengths bits; ints or int64 arrays."""
    words_at = starts + WORDS_AT
    return words_at, words_at + (lengths + 63) // 64


def section_words(length, ones):
    """Section size in words; works on ints and on int64 arrays."""
    return (4 + (length + 63) // 64 + length // SUPER_BITS
            + ones // SELECT_SAMPLE + (length - ones) // SELECT_SAMPLE)


def read_sections(buf, starts):
    """Length, set-bit count and size in words of the bitvector sections
    at word offsets starts of buf, each checked to lie inside buf, to
    share no word with another and to have clear padding bits. The set
    bits are the last rank directory entry plus the popcount of the
    words after it."""
    starts = np.asarray(starts, np.int64)
    if (buf[inside(buf, starts)] != MAGIC_WORD).any():
        raise ValueError("bad bitvector magic")
    lengths = read_words(buf, starts + 1, 64 * len(buf))
    nwords = (lengths + 63) // 64
    ndir = lengths // SUPER_BITS
    words_at, dir_at = section_offsets(starts, lengths)
    dir_end = dir_at + ndir
    if (dir_end >= len(buf)).any():  # the 1-sample count follows
        raise truncated()
    # Padding, the last word's bits from length % 64 up, must be clear;
    # two shifts drop a full last word, where one by 64 is undefined.
    shift = ((lengths - 1) & 63).astype(_U64)
    if ((buf[dir_at - 1] >> shift) >> 1).any():
        raise ValueError("bitvector has a padding bit set past its length")
    ones = np.where(ndir > 0, buf[dir_end - 1], 0).astype(np.int64)
    tail = nwords - 8 * ndir
    ones += np.bincount(np.repeat(np.arange(len(starts)), tail),
                        popcount_words(buf[ranges(words_at + 8 * ndir, tail)]),
                        len(starts)).astype(np.int64)
    sizes = section_words(lengths, ones)
    if (starts + sizes > len(buf)).any():
        raise truncated()
    # In order of start, each section starts where the one before ends
    # or later.
    at = np.argsort(starts, kind="stable")
    if (starts[at[1:]] < (starts + sizes)[at[:-1]]).any():
        raise ValueError("bitvector sections overlap")
    # Select reads its sample counts; they must be the ones sized here.
    n1 = ones // SELECT_SAMPLE
    if ((buf[dir_end].astype(np.int64) != n1).any()
            or (buf[dir_end + 1 + n1].astype(np.int64)
                != (lengths - ones) // SELECT_SAMPLE).any()):
        raise ValueError("bitvector select-sample counts do not match its bits")
    return lengths, ones, sizes


def write_sections(buf, starts, lengths, ones) -> None:
    """Complete the bitvector sections that start at word offsets
    `starts` of buf: each section's packed words must already sit where
    section_offsets puts them; this writes the header, rank directory
    and select samples of all of them, _CHUNK sections per few array
    passes."""
    starts = np.asarray(starts, np.int64)
    lengths = np.asarray(lengths, np.int64)
    ones = np.asarray(ones, np.int64)
    for lo in range(0, len(starts), _CHUNK):
        at = slice(lo, lo + _CHUNK)
        _write_batch(buf, starts[at], lengths[at], ones[at])


def _write_batch(buf, starts, lengths, ones) -> None:
    nsec = len(starts)
    nwords = (lengths + 63) // 64
    ndir = lengths // SUPER_BITS
    buf[starts] = MAGIC_WORD
    buf[starts + 1] = lengths
    words_at, dir_at = section_offsets(starts, lengths)

    words = buf[ranges(words_at, nwords)]
    first = np.cumsum(nwords) - nwords  # each section's first word in `words`
    pc = popcount_words(words)
    zc = 64 - pc
    last = first[nwords > 0] + nwords[nwords > 0] - 1
    valid = lengths[nwords > 0] - 64 * (nwords[nwords > 0] - 1)
    zc[last] = valid - pc[last]  # padding bits are not clear bits

    cum1 = np.concatenate([[0], np.cumsum(pc)])
    sec = np.repeat(np.arange(nsec), ndir)
    entry = ranges(np.zeros(nsec, np.int64), ndir)
    buf[dir_at[sec] + entry] = (cum1[first[sec] + 8 * entry + 8]
                                - cum1[first[sec]])

    count_at = dir_at + ndir
    for kind_ones, cum in ((True, cum1),
                           (False, np.concatenate([[0], np.cumsum(zc)]))):
        total = ones if kind_ones else lengths - ones
        nsamp = total // SELECT_SAMPLE
        buf[count_at] = nsamp
        sec = np.repeat(np.arange(nsec), nsamp)
        q = ranges(np.ones(nsec, np.int64), nsamp)
        target = cum[first[sec]] + q * SELECT_SAMPLE
        w = np.searchsorted(cum, target, side="left") - 1
        word = words[w]
        if not kind_ones:
            rest = lengths[sec] - 64 * (w - first[sec])
            word = ~word & np.where(
                rest >= 64, ~np.uint64(0),
                (np.uint64(1) << np.minimum(rest, 63).astype(np.uint64))
                - np.uint64(1))
        bit = select_in_words(word, target - cum[w])
        buf[count_at[sec] + q] = 64 * (w - first[sec]) + bit + 1
        count_at = count_at + 1 + nsamp


def rank1(mv, w: int, d: int, i: int) -> int:
    """Set bits among the first i bits of the vector whose packed words
    start at word w of mv and whose rank directory starts at word d.
    The caller checks 0 <= i <= length. Reads the directory entry, then
    the words from the superblock's start through bit i: one slice read
    as one little-endian integer, or, for a lone word, that word (a
    slice costs more than an item there, and small nodes hit it most)."""
    if i == 0:
        return 0
    s = (i - 1) >> 9
    count = mv[d + s - 1] if s else 0
    lo, hi = w + (s << 3), w + ((i + 63) >> 6)
    bits = mv[lo] if hi - lo == 1 else int.from_bytes(mv[lo:hi], "little")
    return count + (bits & ((1 << (i - (s << 9))) - 1)).bit_count()


def select(mv, w: int, d: int, length: int, j: int, ones: bool) -> int:
    """Position of the j-th (1-based) set bit (ones) or clear bit of the
    vector laid out as for rank1. The caller checks that j is in range.
    A vector of one word is read as that word alone (small nodes hit it
    most); a longer one narrows to a superblock by its select samples
    and rank directory, then scans words."""
    if length <= 64:
        word = mv[w]
        if not ones:
            word = ~word & ((1 << length) - 1)
        return select_in_word(word, j) + 1
    ndir = length >> 9
    count_at = d + ndir
    if not ones:
        count_at += 1 + mv[count_at]
    samples, nsamp = count_at + 1, mv[count_at]
    q, rem = divmod(j, SELECT_SAMPLE)
    if rem == 0:
        return mv[samples + q - 1]

    lo, hi = 0, ndir  # candidate superblocks lo..hi, hi == ndir means the tail
    if q >= 1:
        lo = (mv[samples + q - 1] - 1) >> 9
    if q < nsamp:
        hi = min(hi, (mv[samples + q] - 1) >> 9)

    # First superblock whose cumulative count reaches j. The set-bit
    # counts are the directory itself, searched in C; bisect probes the
    # same entries in the same order as the clear-bit loop does.
    if ones:
        lo = bisect_left(mv, j, d + lo, d + hi) - d
    else:
        while lo < hi:
            mid = (lo + hi) >> 1
            if SUPER_BITS * (mid + 1) - mv[d + mid] >= j:
                hi = mid
            else:
                lo = mid + 1

    count = 0
    if lo:
        c = mv[d + lo - 1]
        count = c if ones else SUPER_BITS * lo - c
    for k in range(lo << 3, (length + 63) >> 6):
        word = mv[w + k]
        if not ones:
            valid = min(64, length - 64 * k)
            word = ~word & ((1 << valid) - 1)
        pc = word.bit_count()
        if count + pc >= j:
            return 64 * k + select_in_word(word, j - count) + 1
        count += pc
    raise AssertionError("select ordinal not found; structure corrupt")


class BitVector(WordBuffer):
    __slots__ = ("_length", "_num_ones", "_dir_at", "_words", "_dir")

    def __init__(self, buf: np.ndarray):
        """Wrap the u64 words of a serialized bitvector section."""
        (length,), (ones,), (size,) = read_sections(buf, [0])
        self._buf = buf[:size]
        self._mv = word_view(self._buf)
        self._length = length = int(length)
        self._num_ones = int(ones)
        words_at, self._dir_at = section_offsets(0, length)
        self._words = self._buf[words_at:self._dir_at]
        self._dir = self._buf[self._dir_at:self._dir_at + length // SUPER_BITS]

    # -- construction ------------------------------------------------

    @classmethod
    def from_bits(cls, bits) -> "BitVector":
        """Build from an iterable/array of 0 and 1 values."""
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and int(arr.max()) > 1:
            raise ValueError("bits must contain only 0 and 1")
        return cls.from_words(pack_bits(arr), int(arr.size))

    @classmethod
    def from_words(cls, words: np.ndarray, length: int) -> "BitVector":
        """Build from packed words (see _bits.pack_bits), padding clear."""
        words = np.ascontiguousarray(words, dtype=_U64)
        if length < 0 or len(words) != (length + 63) // 64:
            raise ValueError("word count does not match length")
        if length % 64 and int(words[-1]) >> (length % 64):
            raise ValueError("bitvector has a padding bit set past its length")
        ones = int(popcount_words(words).sum())
        buf = np.zeros(section_words(length, ones), _U64)
        buf[WORDS_AT:WORDS_AT + len(words)] = words
        write_sections(buf, [0], [length], [ones])
        return cls(buf)

    # -- queries -----------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def num_ones(self) -> int:
        return self._num_ones

    @property
    def num_zeros(self) -> int:
        return self._length - self._num_ones

    def access(self, i: int, trace=None, base: int = 0) -> int:
        """Bit at position i (1-based)."""
        i = operator.index(i)
        if i < 1 or i > self._length:
            raise IndexError(f"position {i} out of range 1..{self._length}")
        mv = self._reader(trace, base)
        return (mv[WORDS_AT + ((i - 1) >> 6)] >> ((i - 1) & 63)) & 1

    def rank1(self, i: int, trace=None, base: int = 0) -> int:
        """Number of set bits in positions 1..i; rank1(0) is 0."""
        i = operator.index(i)
        if i < 0 or i > self._length:
            raise IndexError(f"position {i} out of range 0..{self._length}")
        return rank1(self._reader(trace, base), WORDS_AT, self._dir_at, i)

    def rank0(self, i: int, trace=None, base: int = 0) -> int:
        """Number of clear bits in positions 1..i."""
        i = operator.index(i)
        return i - self.rank1(i, trace, base)

    def select1(self, j: int, trace=None, base: int = 0) -> int:
        """Position of the j-th (1-based) set bit."""
        j = operator.index(j)
        if j < 1 or j > self._num_ones:
            raise ValueError(f"ordinal {j} out of range 1..{self._num_ones}")
        return select(self._reader(trace, base), WORDS_AT, self._dir_at,
                      self._length, j, True)

    def select0(self, j: int, trace=None, base: int = 0) -> int:
        """Position of the j-th (1-based) clear bit."""
        j = operator.index(j)
        zeros = self._length - self._num_ones
        if j < 1 or j > zeros:
            raise ValueError(f"ordinal {j} out of range 1..{zeros}")
        return select(self._reader(trace, base), WORDS_AT, self._dir_at,
                      self._length, j, False)
