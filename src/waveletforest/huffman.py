"""Canonical Huffman codes with deterministic tie-breaking.

Code shape is fixed by two rules: the merge heap orders subtrees by
(total weight, smallest contained symbol), and the finished lengths are
reassigned canonically, shortest first, symbols ascending within a
length, each code being (previous + 1) shifted left by the length
difference. Two builds over equal frequency maps therefore produce
byte-identical tables, regardless of dict iteration order.

A single-symbol alphabet gets the empty code (length 0).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field


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


@dataclass
class CodeTable:
    """Symbol -> (length, canonical code value, MSB first)."""

    lengths: dict[int, int]
    codes: dict[int, int] = field(repr=False)

    @classmethod
    def from_lengths(cls, lengths: dict[int, int]) -> "CodeTable":
        return cls(dict(lengths), _canonical_codes(lengths))

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
        return CodeTable({sym: 0}, {sym: 0})

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
    lengths = {sym: depth[i] for i, (sym, _) in enumerate(items)}
    return CodeTable(lengths, _canonical_codes(lengths))


def _canonical_codes(lengths: dict[int, int]) -> dict[int, int]:
    codes = {}
    code = 0
    prev = None
    for sym, ln in sorted(lengths.items(), key=lambda kv: (kv[1], kv[0])):
        if prev is not None:
            code = (code + 1) << (ln - prev)
        codes[sym] = code
        prev = ln
    return codes
