"""Benchmark harness and deterministic locality profiling.

Every query is a method taking its arguments and a `trace` list, so
one timer and one tracer serve them all. run_bench times passes of
structure.<query_kind>(*a) over a list of argument tuples, each pass
inside one monotonic-clock read pair, and folds every answer into a
checksum (sum mod 2^64), so the work can't be optimized away and equal
checksums across structures double as an equivalence check.
profile(query, *args) returns a query's answer and the byte offsets of
the word-sized reads it made against the structure's serialized layout,
in order; summarize_locality and aggregate_locality reduce those to
distinct-regions-touched and span statistics at a given granularity.
Both run the same query code, so profiles are exact, not sampled
approximations.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import astuple, dataclass, fields

from .fmindex import FmIndex
from .textgen import gen_query_positions, splitmix64_words
from .wforest import WaveletForest

_MASK = (1 << 64) - 1

DEFAULT_GRANULARITIES = (64, 4096)


@dataclass
class BenchResult:
    structure: str
    alphabet_bits: int
    block_bytes: int
    n_symbols: int
    query_kind: str
    queries: int
    repeat: int
    total_ns: int
    ns_per_query: float
    struct_bytes: int
    checksum: int


@dataclass
class LocalityProfile:
    granularity: int
    distinct_regions: int
    span_bytes: int


@dataclass
class LocalitySummary:
    structure: str
    alphabet_bits: int
    block_bytes: int
    granularity: int
    mean_distinct_regions: float
    mean_span_bytes: float
    queries: int


BENCH_COLUMNS = tuple(f.name for f in fields(BenchResult))
LOCALITY_COLUMNS = tuple(f.name for f in fields(LocalitySummary))


def _meta(structure, block_bytes):
    """Kind, alphabet bits, block bytes (0 for a tree; derived when None),
    symbols and size; an FM-index has its backend's kind and blocks."""
    fm = isinstance(structure, FmIndex)
    trees = structure.backend if fm else structure
    forest = isinstance(trees, WaveletForest)
    if block_bytes is None:
        block_bytes = trees.block_len * trees.alphabet_bits // 8 if forest else 0
    return ("forest" if forest else "tree", structure.alphabet_bits,
            block_bytes, structure.n if fm else len(structure),
            structure.size_bytes())


def run_bench(structure, query_kind: str, args, repeats: int = 1,
              block_bytes: int | None = None) -> list[BenchResult]:
    """Time `repeats` passes of structure.<query_kind>(*a) over the
    argument tuples in args, summing the answers."""
    query = getattr(structure, query_kind)
    kind, bits, bb, n, size = _meta(structure, block_bytes)
    out = []
    for rep in range(1, repeats + 1):
        acc = 0
        t0 = time.perf_counter_ns()
        for a in args:
            acc += query(*a)
        total_ns = time.perf_counter_ns() - t0
        out.append(BenchResult(
            kind, bits, bb, n, query_kind, len(args), rep, total_ns,
            total_ns / len(args) if args else 0.0, size, acc & _MASK))
    return out


# -- deterministic query generation ------------------------------------

def gen_rank_queries(seed: int, count: int, n: int, sigma: int):
    """(symbol, position) pairs: positions are the seed's first `count`
    position draws, symbols come from the following `count` outputs."""
    positions = gen_query_positions(seed, count, n)
    words = splitmix64_words(seed, count, count)
    return [((int(u) * sigma) >> 64, p) for u, p in zip(words, positions)]


def gen_text_patterns(fm: FmIndex, seed: int, count: int, length: int):
    """count patterns of length symbols cut from the FM-index's text, by
    walking length LF steps back from rows drawn from the seed; a walk
    that meets the sentinel starts again from the next row."""
    if not 1 <= length <= fm.n:
        raise ValueError(f"pattern length must be in 1..{fm.n}")
    # The LF step from the symbol already read: C[c] + rank_c(row + 1) - 1.
    c_array, backend = fm.c_array.tolist(), fm.backend
    patterns = []
    for row in gen_query_positions(seed, count, fm.n + 1):
        pattern, r = [], row - 1
        while len(pattern) < length:
            c = fm.bwt_symbol(r)
            if c == fm.sentinel:
                row = row % (fm.n + 1) + 1
                pattern, r = [], row - 1
            else:
                pattern.append(c)
                r = c_array[c] + backend.rank(c, r + 1) - 1
        patterns.append(pattern[::-1])
    return patterns


# -- locality profiling -------------------------------------------------

def profile(query, *args) -> tuple[int, list[int]]:
    """query(*args) and the byte offsets of the word reads it made, in
    order."""
    trace = []
    return query(*args, trace=trace), trace


def summarize_locality(trace: list[int], granularity: int) -> LocalityProfile:
    """Distinct granularity-sized regions touched, and the byte span."""
    if granularity < 1:
        raise ValueError("granularity must be positive")
    if not trace:
        return LocalityProfile(granularity, 0, 0)
    regions = {off // granularity for off in trace}
    return LocalityProfile(granularity, len(regions), max(trace) - min(trace))


def aggregate_locality(structure, traces, granularity: int,
                       block_bytes: int | None = None) -> LocalitySummary:
    """Mean locality statistics over a batch of traces."""
    kind, bits, bb, _, _ = _meta(structure, block_bytes)
    profiles = [summarize_locality(t, granularity) for t in traces]
    q = len(profiles)
    return LocalitySummary(
        structure=kind, alphabet_bits=bits, block_bytes=bb,
        granularity=granularity,
        mean_distinct_regions=sum(p.distinct_regions
                                  for p in profiles) / max(q, 1),
        mean_span_bytes=sum(p.span_bytes for p in profiles) / max(q, 1),
        queries=q)


# -- CSV emission -------------------------------------------------------

def emit_csv(rows, dest: str) -> None:
    """Append rows (all BenchResult or all LocalitySummary) to a CSV
    file, writing the header only when the file is new or empty. Rows
    are buffered and written in one call, so a crash can't leave a
    partial row behind."""
    rows = list(rows)
    if not rows:
        return
    if not isinstance(rows[0], (BenchResult, LocalitySummary)):
        raise ValueError(f"cannot serialize {type(rows[0]).__name__} rows")
    if not all(isinstance(r, type(rows[0])) for r in rows):
        raise ValueError("mixed row types in one CSV")
    need_header = not os.path.exists(dest) or os.path.getsize(dest) == 0
    with open(dest, "a", newline="") as fh:
        writer = csv.writer(fh)
        if need_header:
            writer.writerow(f.name for f in fields(rows[0]))
        writer.writerows(astuple(r) for r in rows)
