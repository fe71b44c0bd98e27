"""Slow reference implementations the test suite checks against.

Everything here favors obviousness over speed: plain Python loops and
numpy one-liners whose correctness can be read off directly.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


class NaiveBits:
    """Linear-scan rank/select over a plain list of bits."""

    def __init__(self, bits):
        self.bits = [int(b) for b in bits]
        self.prefix = [0]
        for b in self.bits:
            self.prefix.append(self.prefix[-1] + b)

    def __len__(self):
        return len(self.bits)

    def access(self, i):
        return self.bits[i - 1]

    def rank1(self, i):
        return self.prefix[i]

    def rank0(self, i):
        return i - self.prefix[i]

    def select(self, bit, j):
        seen = 0
        for pos, b in enumerate(self.bits, start=1):
            if b == bit:
                seen += 1
                if seen == j:
                    return pos
        raise ValueError("not enough occurrences")


def naive_rank(text, symbol, i):
    return int(np.count_nonzero(np.asarray(text[:i]) == symbol))


def naive_select(text, symbol, j):
    hits = np.flatnonzero(np.asarray(text) == symbol)
    if j < 1 or j > len(hits):
        raise ValueError("not enough occurrences")
    return int(hits[j - 1]) + 1


def entropy_bits(freqs):
    n = sum(freqs.values())
    h = 0.0
    for f in freqs.values():
        if f:
            h += (f / n) * math.log2(n / f)
    return h


def heap_code_lengths(freqs):
    """Symbol -> Huffman code length, by a heap of (weight, smallest
    symbol) keys: pop the two least subtrees, push their union, until
    one is left. A lone symbol gets length 0."""
    items = sorted((int(s), int(w)) for s, w in freqs.items())
    if len(items) == 1:
        return {items[0][0]: 0}
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
    depth = [0] * (2 * k - 1)
    for node in range(nxt - 2, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return {sym: depth[i] for i, (sym, _) in enumerate(items)}


def min_weighted_kraft_cost(freqs):
    """Minimum of sum(freq * length) over prefix-free length assignments.

    Exhaustive search over length tuples satisfying Kraft's inequality,
    feasible only for tiny alphabets. Used as an optimality oracle for
    the Huffman builder.
    """
    weights = sorted(freqs.values(), reverse=True)
    k = len(weights)
    if k == 1:
        return 0
    best = [math.inf]
    max_len = k - 1

    def rec(idx, lengths):
        if idx == k:
            if sum(2 ** -l for l in lengths) <= 1.0 + 1e-12:
                cost = sum(w * l for w, l in zip(weights, lengths))
                if cost < best[0]:
                    best[0] = cost
            return
        # Heavier weights never get longer codes in an optimal solution,
        # so lengths may be forced non-decreasing down the sorted weights.
        lo = lengths[-1] if lengths else 1
        for l in range(lo, max_len + 1):
            rec(idx + 1, lengths + [l])

    rec(0, [])
    return best[0]


def naive_bwt(text, sentinel):
    """Sort all rotations of text + [sentinel]; last column and the row
    holding the original string."""
    s = list(text) + [sentinel]
    n = len(s)

    def key(r):
        # Sentinel sorts before every text symbol.
        return [(-1 if s[(r + k) % n] == sentinel else s[(r + k) % n])
                for k in range(n)]

    rows = sorted(range(n), key=key)
    last = [s[(r - 1) % n] for r in rows]
    primary = rows.index(0)
    return last, primary


def naive_count(text, pattern):
    text = list(text)
    pattern = list(pattern)
    m = len(pattern)
    if m == 0 or m > len(text):
        return 0
    return sum(1 for i in range(len(text) - m + 1)
               if text[i:i + m] == pattern)
