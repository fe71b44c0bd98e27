"""Canonical Huffman codes with deterministic tie-breaking.

Code shape is fixed by two rules: merges take, in each table, the two
least subtrees by (total weight, smallest contained symbol), and the
finished lengths are reassigned canonically, shortest first, symbols
ascending within a length, each code being (previous + 1) shifted left
by the length difference. Two builds over equal frequency maps therefore
produce byte-identical tables, regardless of dict iteration order.

code_lengths owns the lengths, for all tables of a build in one pass;
build_code_table is its one-table case. canonical_codes is the one place
that turns lengths into codes, for CodeTable and for the tree shapes.

A single-symbol alphabet gets the empty code (length 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def zeroth_order_entropy(freqs) -> float:
    """Empirical entropy sum((f/n) * log2(n/f)) in bits per symbol."""
    total = 0
    for f in freqs.values():
        if f < 0:
            raise ValueError("negative frequency")
        total += f
    if total == 0:
        return 0.0
    h = 0.0
    for f in freqs.values():
        if f:
            h += (f / total) * math.log2(total / f)
    return h


def canonical_codes(lengths: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Canonical code values (u64) of the entries of many tables: lengths
    (at most 64) ordered by (length, symbol) within each table, first[e]
    the index of entry e's table's first entry. A code is the Kraft sum
    of the entries before it in its table, shifted to its length."""
    if (lengths > 64).any():
        raise ValueError("code lengths over 64 bits")
    shift = (64 - np.maximum(lengths, 1)).astype(np.uint64)
    kraft = np.where(lengths > 0, np.uint64(1) << shift, np.uint64(0))
    cum = np.cumsum(kraft, dtype=np.uint64) - kraft
    return (cum - cum[first]) >> shift


@dataclass
class CodeTable:
    """Symbol -> (length, canonical code value, MSB first)."""

    lengths: dict[int, int]

    @classmethod
    def from_lengths(cls, lengths: dict[int, int]) -> "CodeTable":
        return cls(dict(lengths))

    @cached_property
    def codes(self) -> dict[int, int]:
        """Symbol -> canonical code value, derived from the lengths."""
        entries = self.sorted_entries()
        lengths = np.array([ln for _, ln in entries], np.int64)
        codes = canonical_codes(lengths, np.zeros(len(entries), np.int64))
        return dict(zip([sym for sym, _ in entries], codes.tolist()))

    @property
    def sigma_effective(self) -> int:
        return len(self.lengths)

    @property
    def max_length(self) -> int:
        return max(self.lengths.values(), default=0)

    def mean_length(self, freqs) -> float:
        """Expected code length under the given frequency map."""
        total = sum(freqs.values())
        if total == 0:
            return 0.0
        return sum(f * self.lengths[s] for s, f in freqs.items() if f) / total

    def sorted_entries(self) -> list[tuple[int, int]]:
        """(symbol, length) pairs ordered by (length, symbol)."""
        return sorted(self.lengths.items(), key=lambda kv: (kv[1], kv[0]))


_RANGE = "counts too large for 63-bit Huffman merge keys"


def code_lengths(table, counts) -> np.ndarray:
    """Huffman code length of every entry of many tables at once.

    Entry e has count counts[e] > 0 in table table[e]; a table's entries
    are contiguous and in symbol order, and it merges its two least
    subtrees by (weight, smallest symbol) until one is left, so a lone
    entry gets length 0. Each round sorts the int64 keys table base +
    (weight << R | rank of smallest symbol) and pairs off each table's
    least subtrees while both are below the key of its first merge.

    Raises ValueError if a count is not positive, or if (sum of counts
    + number of tables) << R exceeds 2^63, R being the bits of the
    largest rank: a table of 2^17 symbols must weigh less than 2^46.
    """
    table = np.asarray(table, np.int64)
    try:
        counts = np.asarray(counts, np.int64)
    except OverflowError:
        raise ValueError(_RANGE) from None
    n = len(counts)
    if not n:
        return counts
    if counts.min() <= 0:
        raise ValueError("frequencies must be positive")
    cum = np.cumsum(counts)
    starts = np.flatnonzero(np.r_[True, table[1:] != table[:-1]])
    sizes = np.diff(starts, append=n)
    rbits = int(sizes.max() - 1).bit_length()
    # A wrapped int64 sum of positive counts shows as a negative prefix.
    if cum.min() < 0 or (int(cum[-1]) + len(starts)) << rbits > 1 << 63:
        raise ValueError(_RANGE)
    rmask = (1 << rbits) - 1
    base = np.repeat((cum[starts] - counts[starts]
                      + np.arange(len(starts))) << rbits, sizes)
    key = base + (counts << rbits) + np.arange(n) - np.repeat(starts, sizes)

    def merge(a, b, base):
        # Key of the union of subtrees a < b of one table.
        return b + (a - base - np.maximum(a & rmask, b & rmask))

    node, fresh, kids = np.arange(n), n, []
    while True:
        # Two sorted runs after the first round: survivors, merges.
        order = np.argsort(key, kind="stable")
        key, node, base = key[order], node[order], base[order]
        # Drop the tables down to one subtree.
        edge = np.diff(base, prepend=-1, append=-1) != 0
        keep = ~(edge[:-1] & edge[1:])
        key, node, base, head = (key[keep], node[keep], base[keep],
                                 edge[:-1][keep])
        if not len(key):
            break
        start = np.flatnonzero(head)
        seg = np.cumsum(head) - 1
        pos = np.arange(len(key)) - start[seg]
        first = merge(key[start], key[start + 1], base[start])
        below = (pos & 1 == 1) & (key < first[seg])
        paired = pos < 2 * np.bincount(seg[below], minlength=len(start))[seg]
        a, b = np.flatnonzero(paired).reshape(-1, 2).T
        kids.append(node[paired])
        key = np.concatenate([key[~paired], merge(key[a], key[b], base[a])])
        base = np.concatenate([base[~paired], base[a]])
        node = np.concatenate([node[~paired], fresh + np.arange(len(a))])
        fresh += len(a)
    # Merged subtrees are numbered n, n + 1, ... in merge order.
    depth = np.zeros(fresh, np.int64)
    for pair in reversed(kids):
        fresh -= len(pair) // 2
        depth[pair] = np.repeat(depth[fresh:fresh + len(pair) // 2], 2) + 1
    return depth[:n]


def build_code_table(freqs) -> CodeTable:
    """Huffman code for a map of symbol -> positive count (one table)."""
    items = sorted((int(s), int(w)) for s, w in freqs.items())
    if not items:
        raise ValueError("frequency map is empty")
    if items[0][0] < 0:
        raise ValueError("symbols must be non-negative")
    lengths = code_lengths(np.zeros(len(items), np.int64),
                           [w for _, w in items])
    return CodeTable(dict(zip([s for s, _ in items], lengths.tolist())))
