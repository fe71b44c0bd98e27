"""FM-index: backward pattern counting over a BWT.

The Burrows-Wheeler transform is taken over the text followed by a
sentinel (value 2^alphabet_bits) that sorts before every text symbol.
The transformed sequence, drawn from the alphabet extended by that one
value, is stored in a wavelet tree or forest built with one extra
alphabet bit; counting a pattern of length m then costs exactly two
rank queries per symbol unless the row interval empties early.

The C array maps each text symbol c to 1 + (number of text symbols
smaller than c): one slot past the sentinel's row. lf_step treats the
sentinel's C value as 0.

As trees and forests are, an FM-index is one array of u64 words in the
layout below, which to_bytes returns and from_buffer wraps; its backend
is a view of the array's backend section.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import wforest, wtree
from ._bits import (_U64, WordBuffer, _ceil8, header_fields, header_word,
                    truncated, word_view)
from .wforest import WaveletForest
from .wtree import WaveletTree, _as_symbol_array

MAGIC = b"WFFM"

# The sentinel needs one more alphabet bit, and trees hold at most 16.
MAX_ALPHABET_BITS = 15

# Longest text whose suffix sort keys, below (n + 2)^2, fit in int64.
_MAX_TEXT = math.isqrt(np.iinfo(np.int64).max) - 2

# Serialized layout, offsets relative to the section start:
#   0  magic "WFFM", alphabet_bits u8, 3 zero bytes
#   8  text length n, u64
#   16 primary index (BWT row holding the original text), u64
#   24 C array, (2^alphabet_bits + 1) u64 entries; the final entry is
#      the total row count n + 1
#      backend section (a wavelet tree or wavelet forest over the BWT),
#      zero-padded to start on a 64-byte boundary so the backend's
#      cache-line-aligned word arrays stay aligned inside this file
_C_AT = 3  # word index of the C array


def _backend_at(alphabet_bits: int) -> int:
    """Word offset of the backend section."""
    return _ceil8(_C_AT + (1 << alphabet_bits) + 1)


def _c_array(backend, alphabet_bits: int) -> np.ndarray:
    """C[c] = 1 + occurrences in the BWT of symbols below c, c = 0..2^bits."""
    hist = backend.histogram[:(1 << alphabet_bits) + 1]
    return 1 + np.cumsum(hist) - hist


@dataclass
class Bwt:
    alphabet_bits: int
    primary_index: int
    transformed: np.ndarray

    @property
    def sentinel(self) -> int:
        return 1 << self.alphabet_bits


def build_bwt(symbols, alphabet_bits: int) -> Bwt:
    """BWT of the text extended with its unique smallest sentinel.

    The rotations are ordered by _suffix_array: prefix doubling over
    packed first keys that re-sorts only tied suffixes, with int32
    order and ranks below 2^31 symbols. Its traced peak is about 25
    bytes per symbol on uniform 8-bit text and at most 40 where most
    suffixes stay tied for many rounds (a unary text).

    Raises ValueError unless alphabet_bits is in 1..MAX_ALPHABET_BITS
    (15): the sentinel 2^alphabet_bits widens the alphabet by one bit.
    Raises ValueError for an empty text, and for one longer than
    _MAX_TEXT (about 3.0e9), whose suffix sort keys would overflow int64;
    the length is checked before any symbol is read."""
    if alphabet_bits > MAX_ALPHABET_BITS:
        raise ValueError(f"FM-index alphabet_bits must be in "
                         f"1..{MAX_ALPHABET_BITS}")
    arr = np.asarray(getattr(symbols, "symbols", symbols))
    if arr.size > _MAX_TEXT:
        raise ValueError(f"text of {arr.size} symbols is too long to "
                         f"transform")
    arr = _as_symbol_array(arr, alphabet_bits)
    if arr.size == 0:
        raise ValueError("cannot transform an empty text")
    sa = _suffix_array(arr, alphabet_bits)
    dtype = np.uint16 if alphabet_bits >= 8 else np.uint8
    full = np.append(arr, 1 << alphabet_bits).astype(dtype)
    # The suffix at 0 wraps round to the sentinel, full[-1].
    transformed = full[sa - 1]
    primary = int(np.flatnonzero(sa == 0)[0])
    return Bwt(alphabet_bits=alphabet_bits, primary_index=primary,
               transformed=transformed)


def _suffix_array(symbols: np.ndarray, alphabet_bits: int) -> np.ndarray:
    """Suffix ordering of symbols followed by a sentinel below every
    symbol, by prefix doubling that re-sorts only tied suffixes (Larsson
    and Sadakane, TCS 2007).

    The first sort orders the suffixes by their first q symbols, packed
    into one int64 key in base 2^alphabet_bits + 1 (the sentinel and the
    positions past it are digit 0), with q the largest count whose keys
    stay below 2^62: 39 symbols at 1 bit, 7 at 8 bits, 4 at 15 bits. A
    suffix's rank is then the sorted position where its group of equal
    keys starts. Each later round, with h symbols already sorted, sorts
    only the suffixes in groups of two or more, by (rank, rank of the
    suffix h later); ranks are updated in place and h doubles. A tied
    suffix never reaches the sentinel within h symbols, so the suffix h
    later exists. A suffix drops out once its group has one member.

    The order and the ranks are int32 below 2^31 suffixes, int64 above.
    The first sort holds 20 bytes per suffix (int64 keys, their int64
    permutation and its int32 copy). A round holds 8 per suffix, the
    order and the ranks, plus at most 32 per tied suffix: its int64 keys,
    their int64 permutation and sorted copy, its position and suffix."""
    size = symbols.size + 1
    itype = np.int32 if size <= np.iinfo(np.int32).max else np.int64
    base = (1 << alphabet_bits) + 1
    q = 1
    while base ** (q + 1) < 1 << 62:
        q += 1
    key = _packed_keys(symbols, base, q)
    sa = np.argsort(key).astype(itype)
    key.sort()
    rank = np.empty(size, itype)
    tied, idx, group = _rank_groups(key, sa, np.arange(size, dtype=itype),
                                    rank)
    h = q
    while tied.size:
        key = group.astype(np.int64)
        del group
        key *= size
        idx += h
        key += rank[idx]
        idx -= h
        order = np.argsort(key)
        idx = idx[order]
        key = key[order]
        del order
        sa[tied] = idx
        tied, idx, group = _rank_groups(key, idx, tied, rank)
        h <<= 1
    return sa


def _packed_keys(symbols: np.ndarray, base: int, q: int) -> np.ndarray:
    """Each suffix's first q digits as one int64 in base `base`: symbol
    + 1 for a text symbol, 0 for the sentinel and past it. Packs by
    doubling, q's bits high to low: the key of 2d digits is the key of
    d times base^d plus the key of d at the suffix d later, and a set
    bit then appends one digit. That takes three array passes a step,
    24 for q = 39 where packing digit by digit took 117."""
    size = symbols.size + 1
    key = np.zeros(size, np.int64)
    key[:-1] = symbols
    key[:-1] += 1
    d = 1
    for bit in bin(q)[3:]:
        cut = max(size - d, 0)
        head = key[:cut] * base ** d
        head += key[d:]
        key[cut:] *= base ** d
        key[:cut] = head
        del head
        d *= 2
        if bit == "1":
            cut = max(size - 1 - d, 0)
            key *= base
            key[:cut] += symbols[d:]
            key[:cut] += 1
            d += 1
    return key


def _rank_groups(key: np.ndarray, idx: np.ndarray, pos: np.ndarray,
                 rank: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
    """Rank the suffixes idx, in the order of their sorted keys and
    at the ascending sorted positions pos: each gets the position where
    its run of equal keys starts. Returns the positions, suffixes and
    ranks of those whose run has two or more."""
    new = np.empty(key.size, bool)
    new[0] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    start = np.where(new, pos, 0)
    np.maximum.accumulate(start, out=start)
    rank[idx] = start
    new[:-1] &= new[1:]  # first and last of its run: a single
    tied = np.logical_not(new, out=new)
    group = start[tied]
    del start
    return pos[tied], idx[tied], group


class FmIndex(WordBuffer):
    __slots__ = ("_n", "_alphabet_bits", "_primary", "_back_at", "_backend")

    def __init__(self, buf: np.ndarray):
        """Wrap the u64 words of a serialized FM-index."""
        if len(buf) < _C_AT:
            raise truncated()
        bits = header_fields(buf[0], MAGIC, "FM-index",
                             max_bits=MAX_ALPHABET_BITS)
        back_at = _backend_at(bits)
        if len(buf) <= back_at:
            raise truncated()
        kind = STRUCTURES.get(int(buf[back_at]).to_bytes(8, "little")[:4])
        if kind not in (WaveletTree, WaveletForest):
            raise ValueError("unrecognized FM-index backend section")
        backend = kind.from_buffer(buf, 8 * back_at)[0]
        if backend.alphabet_bits != bits + 1:
            raise ValueError("FM-index backend alphabet is not one bit wider")
        n, primary = int(buf[1]), int(buf[2])
        c_array = _c_array(backend, bits)
        if (n + 1 != len(backend) or primary > n
                or (buf[_C_AT:_C_AT + len(c_array)].astype(np.int64)
                    != c_array).any()):
            raise ValueError("FM-index header disagrees with its backend")
        self._buf = buf[:back_at + backend.size_bytes() // 8]
        self._mv = word_view(self._buf)
        self._n, self._primary = n, primary
        self._alphabet_bits = bits
        self._back_at = back_at
        self._backend = backend

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, symbols, alphabet_bits: int, backend: str = "tree",
              block_len: int | None = None) -> "FmIndex":
        return cls.from_bwt(build_bwt(symbols, alphabet_bits),
                            backend=backend, block_len=block_len)

    @classmethod
    def from_bwt(cls, bwt: Bwt, backend: str = "tree",
                 block_len: int | None = None) -> "FmIndex":
        ab = bwt.alphabet_bits
        if backend == "tree":
            store = WaveletTree.build(bwt.transformed, ab + 1)
        elif backend == "forest":
            if block_len is None:
                raise ValueError("forest backend needs a block_len")
            store = WaveletForest.build(bwt.transformed, block_len, ab + 1)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        back_at = _backend_at(ab)
        buf = np.zeros(back_at + store.size_bytes() // 8, _U64)
        buf[0] = header_word(MAGIC, ab)
        buf[1:_C_AT] = len(bwt.transformed) - 1, bwt.primary_index
        buf[_C_AT:_C_AT + (1 << ab) + 1] = _c_array(store, ab)
        buf[back_at:] = np.frombuffer(store.to_bytes(), _U64)
        return cls(buf)

    # -- queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def alphabet_bits(self) -> int:
        return self._alphabet_bits

    @property
    def sentinel(self) -> int:
        return 1 << self._alphabet_bits

    @property
    def primary_index(self) -> int:
        return self._primary

    @property
    def c_array(self) -> np.ndarray:
        return self._buf[_C_AT:_C_AT + self.sentinel + 1].astype(np.int64)

    @property
    def backend(self):
        return self._backend

    def index_bytes(self) -> int:
        """Bytes of the backend's query tables (see _Trees.index_bytes);
        the FM-index keeps none of its own."""
        return self._backend.index_bytes()

    @property
    def backend_kind(self) -> str:
        return "forest" if isinstance(self._backend, WaveletForest) else "tree"

    def bwt_symbol(self, row: int, trace=None, base: int = 0) -> int:
        """BWT symbol of a row (0-based), the sentinel included."""
        row = operator.index(row)
        if row < 0 or row > self._n:
            raise IndexError(f"row {row} out of range 0..{self._n}")
        return self._backend.access(row + 1, trace, base + 8 * self._back_at)

    def lf_step(self, row: int, trace=None, base: int = 0) -> int:
        """Row of the rotation one position to the left."""
        row = operator.index(row)
        c = self.bwt_symbol(row, trace, base)
        if c == self.sentinel:
            return 0
        return self._reader(trace, base)[_C_AT + c] + self._backend.rank(
            c, row + 1, trace, base + 8 * self._back_at) - 1

    def count(self, pattern, trace=None, base: int = 0) -> int:
        """Occurrences of the pattern in the text."""
        pat = [operator.index(c) for c in pattern]
        if not pat:
            raise ValueError("pattern must be non-empty")
        sigma = 1 << self._alphabet_bits
        if any(c < 0 or c >= sigma for c in pat):
            return 0
        mv, boff = self._reader(trace, base), base + 8 * self._back_at
        lo, hi = 0, self._n + 1
        for c in reversed(pat):
            start = mv[_C_AT + c]
            lo = start + self._backend.rank(c, lo, trace, boff)
            hi = start + self._backend.rank(c, hi, trace, boff)
            if lo >= hi:
                return 0
        return hi - lo


# The class of every serialized structure, by the magic it starts with.
STRUCTURES = {wtree.MAGIC: WaveletTree, wforest.MAGIC: WaveletForest,
              MAGIC: FmIndex}
