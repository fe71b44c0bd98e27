"""Wavelet forest: fixed-length blocks, one wavelet tree per block.

The text is cut into blocks of block_len symbols (the last may be
short). Each block gets its own Huffman-shaped wavelet tree built from
the block's own histogram, and a rank table row R[k][c] stores how often
symbol c occurs before block k. A global query then touches one rank
table row plus exactly one block's tree, so its reads stay inside one
block-sized slice of the structure instead of spraying across level
bitmaps the way a monolithic tree's do.

Queries are wtree._Trees', whose one-block case is a WaveletTree; the
forest adds only _before, its read of R[k][c]. access resolves entirely
inside a block; rank adds R[k][c] to the local rank; select finds its
block with one search of the symbol's run of the loaded per-symbol
tables (wtree), reading no rank row, and finishes locally. Loading
checks the block count against ceil(n / block_len).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ._bits import (_U64, _ceil8, header_fields, header_word, read_words,
                    table, truncated)
from .wtree import WaveletTree, _as_symbol_array, _Trees, build_trees

MAGIC = b"WFWF"
VERSION = 1

# Serialized layout, offsets relative to the section start:
#   0  magic "WFWF", version u8, alphabet_bits u8, 2 zero bytes
#   8  n, u64
#   16 block_len, u64
#   24 block count, u64
#   32 block section offsets, u64 each, relative to the section start
#      per block: rank row (2^alphabet_bits u64 values R[k][c]),
#      then the block's wavelet tree section; blocks are zero-padded
#      so each tree starts on a 64-byte boundary, keeping its
#      internally aligned word arrays cache-line aligned here too
_HEADER_WORDS = 4

# Blocks whose rank rows are written per array pass while building.
_ROW_BATCH = 4096


def _place_blocks(n, block_len, alphabet_bits, tree_words, counts):
    """Lay out the forest around its tree sections (see build_trees)."""
    m = len(tree_words)
    sigma = 1 << alphabet_bits
    step = _ceil8(tree_words + sigma)
    tree_at = _ceil8(_HEADER_WORDS + m + sigma) + np.cumsum(step) - step
    size = int(tree_at[-1] + tree_words[-1]) if m else _HEADER_WORDS
    buf = np.zeros(size, _U64)
    buf[0] = header_word(MAGIC, VERSION, alphabet_bits)
    buf[1:4] = n, block_len, m
    row_at = tree_at - sigma
    buf[_HEADER_WORDS:_HEADER_WORDS + m] = 8 * row_at
    # Row k holds the counts of blocks 0..k-1: a running sum, in place.
    np.cumsum(counts, axis=0, out=counts)
    col = np.arange(sigma)
    for lo in range(1, m, _ROW_BATCH):
        hi = min(lo + _ROW_BATCH, m)
        buf[row_at[lo:hi, None] + col] = counts[lo - 1:hi - 1]
    return buf, tree_at


class WaveletForest(_Trees):
    __slots__ = ("_row_at",)

    def __init__(self, buf: np.ndarray):
        """Wrap the u64 words of a serialized forest section."""
        if len(buf) < _HEADER_WORDS:
            raise truncated()
        bits = header_fields(buf[0], MAGIC, "wavelet forest", VERSION)
        n, block_len, m = (int(x) for x in buf[1:_HEADER_WORDS])
        if block_len < 1:
            raise ValueError("corrupt forest: block_len must be positive")
        if m != -(-n // block_len):
            raise ValueError("corrupt forest: block count disagrees with "
                             "n and block_len")
        if m > len(buf):  # before allocating m offsets
            raise truncated()
        row_at = read_words(buf, np.arange(_HEADER_WORDS, _HEADER_WORDS + m),
                            8 * len(buf)) // 8
        self._n = n
        self._block_len = block_len
        self._row_at = table(row_at, len(buf))
        self._index(buf, row_at + (1 << bits), bits, _HEADER_WORDS + m)

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, symbols, block_len: int, alphabet_bits: int) -> "WaveletForest":
        if block_len < 1:
            raise ValueError("block_len must be at least 1")
        symbols = _as_symbol_array(symbols, alphabet_bits)
        n = int(symbols.size)
        return cls(build_trees(symbols, block_len, -(-n // block_len),
                               alphabet_bits, partial(_place_blocks, n,
                                                      block_len, alphabet_bits)))

    # -- blocks ------------------------------------------------------

    @property
    def block_len(self) -> int:
        return self._block_len

    @property
    def block_count(self) -> int:
        return len(self._row_at)

    @property
    def rank_table(self) -> np.ndarray:
        """R[k][c]: occurrences of c before block k, as a fresh copy of
        the serialized rank rows. access never reads it."""
        at = np.asarray(self._row_at)[:, None]
        return self._buf[at + np.arange(1 << self._alphabet_bits)].astype(
            np.int64)

    def block(self, k: int) -> WaveletTree:
        """Block k's wavelet tree, a view of its section in this forest."""
        at = self._row_at[k] + (1 << self._alphabet_bits)
        return WaveletTree(self._buf[at:self._tree_end[k]])

    def _before(self, mv, k: int, c: int) -> int:
        return mv[self._row_at[k] + c]

    def index_bytes(self) -> int:
        return super().index_bytes() + self._row_at.nbytes

    # -- sizes and serialization --------------------------------------

    def header_bytes(self) -> int:
        """Fixed header plus the block offset table."""
        return 8 * (_HEADER_WORDS + len(self._row_at))

    def block_section_bytes(self, k: int) -> int:
        return 8 * (int(self._tree_end[k]) - self._row_at[k])

    def block_section_offset(self, k: int) -> int:
        return 8 * self._row_at[k]

    def max_block_section_bytes(self) -> int:
        return 8 * int((self._tree_end - np.asarray(self._row_at))
                       .max(initial=0))
