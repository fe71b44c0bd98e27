"""Expected answers, computed with numpy apart from the library.

access, rank and select come from the sequence itself and per-symbol
position arrays (flatnonzero, searchsorted); a forest's rank rows from
cumulative block histograms (bincount); count from the sorted exact
keys of every length-m window of the text; a BWT is accepted only if
inverting it gives back the text.
"""

from __future__ import annotations

import numpy as np


class SymbolIndex:
    """Answers access/rank/select over one sequence from the 0-based
    positions of each symbol."""

    def __init__(self, seq):
        self.seq = np.asarray(seq)
        self.pos = {int(c): np.flatnonzero(self.seq == c).astype(np.int32)
                    for c in np.unique(self.seq)}

    def access(self, queries) -> list:
        """queries: (i,) tuples; the symbol at position i."""
        return self.seq[np.asarray([q[0] for q in queries], np.int64) - 1].tolist()

    def rank(self, queries) -> list:
        """queries: (symbol, i) pairs; occurrences of symbol in 1..i."""
        c, i = (np.asarray(col, np.int64) for col in zip(*queries))
        out = np.zeros(len(c), np.int64)
        for sym in np.unique(c).tolist():
            at = c == sym
            out[at] = np.searchsorted(self.pos.get(sym, np.empty(0, np.int64)),
                                      i[at])
        return out.tolist()

    def select(self, queries) -> list:
        """queries: (symbol, j) pairs; 1-based position of the j-th symbol."""
        c, j = (np.asarray(col, np.int64) for col in zip(*queries))
        out = np.zeros(len(c), np.int64)
        for sym in np.unique(c).tolist():
            at = c == sym
            out[at] = self.pos[sym][j[at] - 1] + 1
        return out.tolist()


def cumulative_block_counts(seq, block_len: int, sigma: int) -> np.ndarray:
    """Row k: occurrences of each symbol of seq before block k. Works on
    about 2^20 positions at a time, so that the process's peak memory
    stays the library's."""
    seq = np.asarray(seq)
    m = -(-len(seq) // block_len)
    counts = np.zeros((m + 1, sigma), np.int64)
    step = max(1, (1 << 20) // block_len)
    for k0 in range(0, m, step):
        part = seq[k0 * block_len:(k0 + step) * block_len].astype(np.int64)
        key = np.arange(len(part)) // block_len * sigma + part
        nblocks = -(-len(part) // block_len)
        counts[k0 + 1:k0 + 1 + nblocks] = np.bincount(
            key, minlength=nblocks * sigma).reshape(nblocks, sigma)
    return np.cumsum(counts, axis=0)[:m]


def window_counts(text, patterns) -> list:
    """Occurrences of each pattern in text, from the sorted keys of all
    windows of the patterns' length; a key packs a window's 8-bit
    symbols exactly, so equal keys mean equal windows."""
    text = np.asarray(text)
    m = len(patterns[0])
    if text.max(initial=0) > 255 or m > 8 or any(len(p) != m for p in patterns):
        raise ValueError("exact window keys need 8-bit symbols and m <= 8")
    span = len(text) - m + 1
    keys = np.zeros(max(span, 0), np.uint64)
    for k in range(m):
        keys = (keys << np.uint64(8)) | text[k:k + span].astype(np.uint64)
    keys.sort()
    want = np.zeros(len(patterns), np.uint64)
    for k in range(m):
        want = (want << np.uint64(8)) | np.array([p[k] for p in patterns],
                                                 np.uint64)
    return (np.searchsorted(keys, want, "right")
            - np.searchsorted(keys, want, "left")).tolist()


def bwt_inverts_to(bwt, text, sentinel: int) -> bool:
    """Whether walking the LF mapping of bwt from the sentinel's row
    spells text backwards, ending on the sentinel."""
    bwt = np.asarray(bwt, np.int64)
    if len(bwt) != len(text) + 1 or int((bwt == sentinel).sum()) != 1:
        return False
    order = np.argsort(np.where(bwt == sentinel, -1, bwt), kind="stable")
    lf = np.empty_like(order)
    lf[order] = np.arange(len(order))
    lf, last = lf.tolist(), bwt.tolist()
    out, row = [], 0
    for _ in range(len(text)):
        out.append(last[row])
        row = lf[row]
    return last[row] == sentinel and out[::-1] == np.asarray(text).tolist()
