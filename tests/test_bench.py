import csv

import numpy as np
import pytest

from waveletforest.bench import (BENCH_COLUMNS, LOCALITY_COLUMNS, BenchResult,
                                 LocalitySummary, aggregate_locality, emit_csv,
                                 gen_rank_queries, gen_text_patterns, profile,
                                 run_bench, summarize_locality)
from waveletforest.fmindex import FmIndex
from waveletforest.textgen import gen_query_positions
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree


@pytest.fixture(scope="module")
def text():
    return np.random.default_rng(100).integers(0, 256, 30_000).astype(np.uint8)


@pytest.fixture(scope="module")
def tree(text):
    return WaveletTree.build(text, 8)


@pytest.fixture(scope="module")
def forest(text):
    return WaveletForest.build(text, 4000, 8)


def test_summarize_locality_examples():
    p = summarize_locality([0, 8, 16], 64)
    assert (p.distinct_regions, p.span_bytes) == (1, 16)
    p = summarize_locality([0, 70], 64)
    assert (p.distinct_regions, p.span_bytes) == (2, 70)
    p = summarize_locality([], 64)
    assert (p.distinct_regions, p.span_bytes) == (0, 0)
    p = summarize_locality([4096, 0], 4096)
    assert (p.distinct_regions, p.span_bytes) == (2, 4096)
    p = summarize_locality([5000], 4096)
    assert (p.distinct_regions, p.span_bytes) == (1, 0)
    with pytest.raises(ValueError):
        summarize_locality([1], 0)


def test_access_bench_rows_and_checksum(text, tree):
    positions = gen_query_positions(5, 200, len(tree))
    rows = run_bench(tree, "access", [(p,) for p in positions], repeats=3)
    assert len(rows) == 3
    expected = sum(int(text[p - 1]) for p in positions) & ((1 << 64) - 1)
    for rep, r in enumerate(rows, start=1):
        assert r.repeat == rep
        assert r.structure == "tree"
        assert r.alphabet_bits == 8
        assert r.block_bytes == 0
        assert r.n_symbols == len(text)
        assert r.query_kind == "access"
        assert r.queries == 200
        assert r.checksum == expected
        assert r.total_ns > 0
        assert r.ns_per_query == r.total_ns / 200
        assert r.struct_bytes == tree.size_bytes()


def test_zero_queries_row(tree):
    rows = run_bench(tree, "access", [], repeats=2)
    assert len(rows) == 2
    for r in rows:
        assert r.queries == 0
        assert r.checksum == 0
        assert r.ns_per_query == 0.0


def test_tree_forest_checksums_agree(tree, forest):
    positions = gen_query_positions(9, 300, len(tree))
    t = run_bench(tree, "access", [(p,) for p in positions])[0]
    f = run_bench(forest, "access", [(p,) for p in positions])[0]
    assert t.checksum == f.checksum
    assert f.structure == "forest"
    assert f.block_bytes == 4000
    queries = gen_rank_queries(9, 300, len(tree), 256)
    tr = run_bench(tree, "rank", queries)[0]
    fr = run_bench(forest, "rank", queries)[0]
    assert tr.checksum == fr.checksum
    assert tr.query_kind == "rank"


def test_rank_query_generation_layout():
    qs = gen_rank_queries(3, 50, 1000, 16)
    assert [p for _, p in qs] == gen_query_positions(3, 50, 1000)
    assert all(0 <= c < 16 and 1 <= p <= 1000 for c, p in qs)
    assert gen_rank_queries(3, 50, 1000, 16) == qs


def test_count_pattern_generation(text):
    fm = FmIndex.build(text[:3000], 8)
    pats = gen_text_patterns(fm, 7, 40, 5)
    assert len(pats) == 40
    assert all(len(p) == 5 for p in pats)
    assert all(0 <= c < 256 for p in pats for c in p)
    assert gen_text_patterns(fm, 7, 40, 5) == pats
    # Cut from the text, every pattern occurs in it.
    assert all(fm.count(p) >= 1 for p in pats)
    with pytest.raises(ValueError):
        gen_text_patterns(fm, 7, 4, 0)


def test_count_bench(text):
    fm = FmIndex.build(text[:3000], 8, backend="forest", block_len=500)
    pats = gen_text_patterns(fm, 2, 30, 2)
    rows = run_bench(fm, "count", [(p,) for p in pats], repeats=2)
    assert len(rows) == 2
    assert rows[0].structure == "forest"
    assert rows[0].alphabet_bits == 8
    assert rows[0].n_symbols == 3000
    assert rows[0].query_kind == "count"
    expected = sum(fm.count(p) for p in pats) & ((1 << 64) - 1)
    assert rows[0].checksum == expected
    assert rows[1].checksum == expected


def test_profiles_return_plain_answers(text, tree, forest):
    rng = np.random.default_rng(1)
    for i in rng.integers(1, len(text) + 1, 25).tolist():
        a, tr = profile(tree.access, i)
        assert a == tree.access(i)
        assert isinstance(tr, list) and tr
        a, tr = profile(forest.access, i)
        assert a == forest.access(i)
    c, i = 17, 20_000
    a, tr = profile(forest.rank, c, i)
    assert a == forest.rank(c, i)
    a, tr = profile(tree.select, c, 1)
    assert a == tree.select(c, 1)
    fm = FmIndex.build(text[:2000], 8)
    a, tr = profile(fm.count, [int(text[0]), int(text[1])])
    assert a == fm.count([int(text[0]), int(text[1])])
    assert tr


def test_rank_at_zero_has_empty_trace(tree, forest):
    for s in (tree, forest):
        _, tr = profile(s.rank, 3, 0)
        assert tr == []


def test_uniform_16_symbol_access_touches_exactly_4_nodes():
    # Perfectly uniform 16-symbol data: the Huffman shape is the full
    # balanced 4-level tree, so every access resolves one bitvector per
    # level.
    reps = 2048
    text = np.repeat(np.arange(16, dtype=np.uint8), reps)
    np.random.default_rng(0).shuffle(text)
    wt = WaveletTree.build(text, 4)
    assert set(wt.code_table.lengths.values()) == {4}
    starts = [wt.node_offset(k) for k in range(wt.node_count)]
    ends = [s + wt.node(k).size_bytes() for k, s in enumerate(starts)]
    for i in (1, 5000, 32000, len(text)):
        _, tr = profile(wt.access, i)
        nodes_hit = {k for off in tr
                     for k in range(len(starts)) if starts[k] <= off < ends[k]}
        assert len(nodes_hit) == 4


def test_forest_access_span_bounded_by_block_section(forest):
    positions = gen_query_positions(11, 200, len(forest))
    traces = [profile(forest.access, p)[1] for p in positions]
    agg = aggregate_locality(forest, traces, 64)
    assert agg.queries == 200
    assert agg.mean_span_bytes <= forest.max_block_section_bytes()
    assert agg.mean_distinct_regions >= 1.0
    assert agg.structure == "forest"
    assert agg.granularity == 64


def test_aggregate_locality_means():
    t1 = [0, 64]    # 2 regions at g=64, span 64
    t2 = [0]        # 1 region, span 0
    class Fake:
        alphabet_bits = 8
        def __len__(self):
            return 1
        def size_bytes(self):
            return 8
    agg = aggregate_locality(Fake(), [t1, t2], 64, block_bytes=0)
    assert agg.mean_distinct_regions == pytest.approx(1.5)
    assert agg.mean_span_bytes == pytest.approx(32.0)
    assert agg.queries == 2
    empty = aggregate_locality(Fake(), [], 64, block_bytes=0)
    assert empty.queries == 0
    assert empty.mean_span_bytes == 0.0


def test_emit_csv_header_and_append(tmp_path):
    dest = str(tmp_path / "out.csv")
    row = BenchResult("tree", 8, 0, 10, "access", 5, 1, 1000, 200.0, 64, 7)
    emit_csv([row], dest)
    emit_csv([row], dest)
    with open(dest) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == ",".join(BENCH_COLUMNS)
    assert len(lines) == 3
    assert lines[1] == lines[2] == "tree,8,0,10,access,5,1,1000,200.0,64,7"


def test_emit_csv_locality_schema(tmp_path):
    dest = str(tmp_path / "loc.csv")
    row = LocalitySummary("forest", 4, 1000, 64, 1.5, 32.0, 2)
    emit_csv([row], dest)
    with open(dest) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(LOCALITY_COLUMNS)
        got = next(reader)
    assert got["structure"] == "forest"
    assert float(got["mean_distinct_regions"]) == 1.5
    assert int(got["queries"]) == 2


def test_emit_csv_rejects_mixed_rows(tmp_path):
    dest = str(tmp_path / "bad.csv")
    b = BenchResult("tree", 8, 0, 10, "access", 5, 1, 1000, 200.0, 64, 7)
    l = LocalitySummary("tree", 8, 0, 64, 1.0, 0.0, 1)
    with pytest.raises(ValueError):
        emit_csv([b, l], dest)
    emit_csv([], dest)  # no rows, no file
    import os
    assert not os.path.exists(dest)


def test_bench_determinism(tree):
    positions = gen_query_positions(21, 100, len(tree))
    a = run_bench(tree, "access", [(p,) for p in positions])[0]
    b = run_bench(tree, "access", [(p,) for p in positions])[0]
    assert a.checksum == b.checksum
