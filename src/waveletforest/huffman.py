"""Canonical Huffman codes with deterministic tie-breaking.

Code shape is fixed by two rules: the merge heap orders subtrees by
(total weight, smallest contained symbol), and the finished lengths are
reassigned canonically, shortest first, symbols ascending within a
length, each code being (previous + 1) shifted left by the length
difference. Two builds over equal frequency maps therefore produce
byte-identical tables, regardless of dict iteration order.

build_code_table owns the lengths; canonical_codes is the one place
that turns lengths into codes, for CodeTable and for the tree shapes.

A single-symbol alphabet gets the empty code (length 0).
"""

from __future__ import annotations

import heapq
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


def build_code_table(freqs) -> CodeTable:
    """Huffman code for a map of symbol -> positive count."""
    items = sorted((int(s), int(w)) for s, w in freqs.items())
    if not items:
        raise ValueError("frequency map is empty")
    for sym, w in items:
        if sym < 0:
            raise ValueError("symbols must be non-negative")
        if w <= 0:
            raise ValueError("frequencies must be positive")
    if len(items) == 1:
        sym = items[0][0]
        return CodeTable({sym: 0})

    k = len(items)
    # Leaves are ids 0..k-1 (symbol order); merges append new ids, so a
    # parent id always exceeds both children.
    parent = [0] * (2 * k - 1)
    heap = [(w, sym, i) for i, (sym, w) in enumerate(items)]
    heapq.heapify(heap)
    nxt = k
    while len(heap) > 1:
        w1, m1, a = heapq.heappop(heap)
        w2, m2, b = heapq.heappop(heap)
        parent[a] = parent[b] = nxt
        heapq.heappush(heap, (w1 + w2, min(m1, m2), nxt))
        nxt += 1

    root = nxt - 1
    depth = [0] * (2 * k - 1)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return CodeTable({sym: depth[i] for i, (sym, _) in enumerate(items)})
