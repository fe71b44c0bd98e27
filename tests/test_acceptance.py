"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a PASS line with the
measured numbers (run with -s to see them). Naive oracles live either
here or in oracles.py and never share code with the library's query
paths.
"""

import csv
import os
import time

import numpy as np
import pytest

from waveletforest.bench import (aggregate_locality, gen_rank_queries,
                                 profile, run_bench)
from waveletforest.cli import main as cli_main
from waveletforest.fmindex import FmIndex, build_bwt
from waveletforest.huffman import build_code_table, zeroth_order_entropy
from waveletforest.textgen import gen_bytes, gen_query_positions
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree

from oracles import naive_bwt

MASK = (1 << 64) - 1

TEXT_SIZES = (0, 1, 10, 1000, 100_000)
ALPHABETS = (1, 2, 3, 4, 8)
SEEDS = tuple(range(8))
SAMPLED_PER_KIND = 500


def block_lengths_for(n):
    out = []
    for b in (1, 3, 64, n, 2 * n):
        if b >= 1 and b not in out:
            out.append(b)
    return out


def make_text(bits, n, seed):
    rng = np.random.default_rng(900_000 + bits * 1000 + seed * 7 + n % 97)
    return rng.integers(0, 1 << bits, n).astype(np.uint8)


def check_one(query, want, tree_got, forests, run):
    """File a criterion-1 entry per oracle mismatch, criterion-2 per
    tree/forest disagreement."""
    if tree_got != want:
        run["c1_bad"].append((query, "tree", tree_got, want))
    for name, got in forests:
        if got != want:
            run["c1_bad"].append((query, name, got, want))
        if got != tree_got:
            run["c2_bad"].append((query, name, got, tree_got))
    run["answers"] += 1 + len(forests)


def check_text_small(text, bits, structures, run):
    """Exhaustive access/rank/select against prefix-sum oracles."""
    n = len(text)
    sigma = 1 << bits
    onehot = np.zeros((n + 1, sigma), dtype=np.int32)
    if n:
        onehot[np.arange(1, n + 1), text] = 1
    prefix = np.cumsum(onehot, axis=0)

    tree, forests = structures[0], structures[1:]
    for i in range(1, n + 1):
        want = int(text[i - 1])
        check_one(("access", bits, n, i), want, tree.access(i),
                  [(f.block_len, f.access(i)) for f in forests], run)
    for c in range(sigma):
        col = prefix[:, c]
        for i in range(n + 1):
            check_one(("rank", bits, n, c, i), int(col[i]), tree.rank(c, i),
                      [(f.block_len, f.rank(c, i)) for f in forests], run)
        hits = np.flatnonzero(text == c) + 1
        for j, pos in enumerate(hits.tolist(), start=1):
            check_one(("select", bits, n, c, j), int(pos), tree.select(c, j),
                      [(f.block_len, f.select(c, j)) for f in forests], run)
        for s in structures:
            with pytest.raises(ValueError):
                s.select(c, len(hits) + 1)


def check_text_sampled(text, bits, structures, seed, run):
    """Sampled queries against direct numpy scans."""
    n = len(text)
    sigma = 1 << bits
    rng = np.random.default_rng(31_337 + seed)
    tree, forests = structures[0], structures[1:]
    for i in rng.integers(1, n + 1, SAMPLED_PER_KIND).tolist():
        check_one(("access", bits, n, i), int(text[i - 1]), tree.access(i),
                  [(f.block_len, f.access(i)) for f in forests], run)
    sel_cache = {}
    for _ in range(SAMPLED_PER_KIND):
        c = int(rng.integers(0, sigma))
        i = int(rng.integers(0, n + 1))
        want = int(np.count_nonzero(text[:i] == c))
        check_one(("rank", bits, n, c, i), want, tree.rank(c, i),
                  [(f.block_len, f.rank(c, i)) for f in forests], run)
        if c not in sel_cache:
            sel_cache[c] = np.flatnonzero(text == c) + 1
        hits = sel_cache[c]
        if len(hits):
            j = int(rng.integers(1, len(hits) + 1))
            check_one(("select", bits, n, c, j), int(hits[j - 1]),
                      tree.select(c, j),
                      [(f.block_len, f.select(c, j)) for f in forests], run)


_ORACLE_RUN = None


def oracle_run():
    """One shared pass over all 200 texts; both criteria read from it."""
    global _ORACLE_RUN
    if _ORACLE_RUN is not None:
        return _ORACLE_RUN
    run = {"c1_bad": [], "c2_bad": [], "answers": 0, "texts": 0, "forests": 0}
    t0 = time.monotonic()
    for bits in ALPHABETS:
        for n in TEXT_SIZES:
            for seed in SEEDS:
                text = make_text(bits, n, seed)
                structures = [WaveletTree.build(text, bits)]
                for bl in block_lengths_for(n):
                    structures.append(WaveletForest.build(text, bl, bits))
                run["forests"] += len(structures) - 1
                if n <= 1000:
                    check_text_small(text, bits, structures, run)
                else:
                    check_text_sampled(text, bits, structures, seed, run)
                run["texts"] += 1
    run["elapsed"] = time.monotonic() - t0
    _ORACLE_RUN = run
    return run


def test_criterion_1_oracle_equivalence():
    run = oracle_run()
    assert run["texts"] == 200
    assert not run["c1_bad"], run["c1_bad"][:20]
    assert run["elapsed"] < 300, f"took {run['elapsed']:.0f}s, budget 300s"
    print(f"\n[acceptance] criterion 1 (oracle equivalence, {run['texts']} "
          f"texts, {run['answers']} answers, {run['elapsed']:.1f}s): PASS")


def test_criterion_2_tree_forest_equivalence():
    run = oracle_run()
    assert not run["c2_bad"], run["c2_bad"][:20]
    print(f"\n[acceptance] criterion 2 (tree/forest equivalence, "
          f"{run['forests']} forests, query-for-query): PASS")


def test_criterion_3_huffman_bound_and_size_identity():
    rng = np.random.default_rng(777)
    worst_gap = 0.0
    for trial in range(1000):
        sigma_eff = int(rng.integers(1, 257))
        symbols = rng.choice(256, size=sigma_eff, replace=False)
        freqs = {int(s): int(rng.integers(1, 50)) for s in symbols}
        table = build_code_table(freqs)
        h0 = zeroth_order_entropy(freqs)
        mean = table.mean_length(freqs)
        assert h0 - 1e-9 <= mean < h0 + 1, (trial, h0, mean)
        worst_gap = max(worst_gap, mean - h0)
        # Exact size identity on the realized text.
        text = np.repeat(np.fromiter(freqs.keys(), np.uint8),
                         np.fromiter(freqs.values(), np.int64))
        rng.shuffle(text)
        tree = WaveletTree.build(text, 8)
        expected_bits = sum(f * table.lengths[s] for s, f in freqs.items())
        assert tree.total_data_bits() == expected_bits
    print(f"\n[acceptance] criterion 3 (Huffman bound on 1000 maps, "
          f"worst mean-H0 gap {worst_gap:.4f} < 1): PASS")


def kgram_counts(text, m, sigma):
    n = len(text)
    if n < m:
        return np.zeros(sigma ** m, dtype=np.int64)
    codes = np.zeros(n - m + 1, dtype=np.int64)
    for j in range(m):
        codes = codes * sigma + text[j:n - m + 1 + j]
    return np.bincount(codes, minlength=sigma ** m)


def decode_pattern(code, m, sigma):
    out = []
    for _ in range(m):
        out.append(code % sigma)
        code //= sigma
    return out[::-1]


def naive_window_count(text, pat):
    m = len(pat)
    if m > len(text):
        return 0
    windows = np.lib.stride_tricks.sliding_window_view(text, m)
    return int((windows == np.asarray(pat, dtype=text.dtype)).all(axis=1).sum())


def test_criterion_4_fm_index_vs_naive():
    rng = np.random.default_rng(4242)
    patterns_checked = 0
    for bits, n in [(1, 300), (2, 300), (4, 1000), (8, 1000), (2, 10_000),
                    (8, 10_000)]:
        sigma = 1 << bits
        text = rng.integers(0, sigma, n).astype(np.uint8)
        fm_t = FmIndex.build(text, bits, backend="tree")
        fm_f = FmIndex.build(text, bits, backend="forest",
                             block_len=max(1, n // 16))
        # All short patterns; for byte alphabets a seeded sample of the
        # 2^24 possible 3-grams stands in for full enumeration.
        for m in (1, 2, 3):
            table = kgram_counts(text, m, sigma)
            if sigma ** m <= 4096:
                codes = range(sigma ** m)
            else:
                present = np.flatnonzero(table)
                absent = rng.integers(0, sigma ** m, 1200)
                chosen = np.concatenate([
                    present[rng.integers(0, len(present), 800)], absent])
                codes = np.unique(chosen).tolist()
            for code in codes:
                pat = decode_pattern(int(code), m, sigma)
                want = int(table[code])
                got = fm_t.count(pat)
                assert got == want, (bits, n, pat, got, want)
                assert fm_f.count(pat) == got
                patterns_checked += 1
        for _ in range(500):
            m = int(rng.integers(1, 11))
            pat = rng.integers(0, sigma, m).tolist()
            want = naive_window_count(text, pat)
            got = fm_t.count(pat)
            assert got == want, (bits, n, pat, got, want)
            assert fm_f.count(pat) == got
            patterns_checked += 1

    # BWT of "abracadabra" round-trips through inverse LF iteration.
    abra = np.frombuffer(b"abracadabra", dtype=np.uint8)
    bwt = build_bwt(abra, 8)
    expected_last, expected_primary = naive_bwt(abra.tolist(), sentinel=256)
    assert bwt.transformed.tolist() == expected_last
    assert bwt.primary_index == expected_primary == 3
    fm = FmIndex.from_bwt(bwt)
    row, out = 0, []
    for _ in range(len(abra)):
        out.append(fm.bwt_symbol(row))
        row = fm.lf_step(row)
    assert bytes(out[::-1]) == b"abracadabra"
    assert fm.lf_step(row) == 0  # full cycle returns to the start row
    print(f"\n[acceptance] criterion 4 (FM-index vs naive counting, "
          f"{patterns_checked} patterns, both backends, BWT round-trip): PASS")


def test_criterion_5_locality_properties():
    t0 = time.monotonic()
    n = 1 << 24
    bits = 8
    text = np.random.default_rng(52).integers(0, 256, n).astype(np.uint8)
    positions = gen_query_positions(5151, 1000, n)

    tree = WaveletTree.build(text, bits)
    tree_traces = [profile(tree.access, p)[1] for p in positions]
    tree_agg = aggregate_locality(tree, tree_traces, 64)
    tree_data = tree.data_section_bytes()
    # (c) tree reads range across its level bitmaps.
    assert tree_agg.mean_span_bytes > tree_data / 2, (
        tree_agg.mean_span_bytes, tree_data)

    block_bytes_grid = (50_000, 100_000, 500_000, 1_000_000)
    forest_stats = []
    for bb in block_bytes_grid:
        forest = WaveletForest.build(text, bb * 8 // bits, bits)
        bounds = [(forest.block_section_offset(k),
                   forest.block_section_offset(k) + forest.block_section_bytes(k))
                  for k in range(forest.block_count)]
        traces = []
        for p in positions:
            answer, tr = profile(forest.access, p)
            assert answer == tree.access(p)
            # (a) all data reads inside exactly one block section.
            homes = set()
            for off in tr:
                k = forest_block_of(bounds, off)
                assert k is not None, f"offset {off} outside any block section"
                homes.add(k)
            assert len(homes) == 1
            traces.append(tr)
        agg = aggregate_locality(forest, traces, 64)
        # (b) forest touches no more distinct cache lines than the tree.
        assert agg.mean_distinct_regions <= tree_agg.mean_distinct_regions, (
            bb, agg.mean_distinct_regions, tree_agg.mean_distinct_regions)
        # (c) forest spans stay within one block section plus the header.
        limit = forest.max_block_section_bytes() + forest.header_bytes()
        assert agg.mean_span_bytes <= limit
        forest_stats.append((bb, agg.mean_distinct_regions, agg.mean_span_bytes))
        del forest

    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"locality suite took {elapsed:.0f}s, budget 600s"
    stats = ", ".join(f"{bb // 1000}kB: {r:.1f} regions" for bb, r, _ in forest_stats)
    print(f"\n[acceptance] criterion 5 (locality at n=2^24: tree "
          f"{tree_agg.mean_distinct_regions:.1f} regions, span "
          f"{tree_agg.mean_span_bytes / 1e6:.1f} MB > half of "
          f"{tree_data / 1e6:.1f} MB data; forests {stats}; "
          f"{elapsed:.0f}s): PASS")


def forest_block_of(bounds, off):
    for k, (lo, hi) in enumerate(bounds):
        if lo <= off < hi:
            return k
    return None


SWEEP_ALPHABETS = "1,2,3,4,8"
SWEEP_BLOCKS = "50000,100000,500000,1000000,5000000,10000000"


def test_criterion_6_sweep_grid_and_checksums(tmp_path):
    t0 = time.monotonic()
    sweep_bytes = int(os.environ.get("WFOREST_SWEEP_BYTES", 64_000_000))
    data = str(tmp_path / "sweep_data.bin")
    csv_path = str(tmp_path / "sweep.csv")
    assert cli_main(["gen", "--seed", "2024", "--bytes", str(sweep_bytes),
                     "--out", data]) == 0
    assert cli_main(["sweep", "--input", data,
                     "--alphabet-bits-list", SWEEP_ALPHABETS,
                     "--block-bytes-list", SWEEP_BLOCKS,
                     "--queries", "10000", "--repeats", "1",
                     "--seed", "91", "--csv", csv_path]) == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))

    block_grid = [0] + [int(b) for b in SWEEP_BLOCKS.split(",")]
    ratios = {}
    for bits_s in SWEEP_ALPHABETS.split(","):
        sub = [r for r in rows if r["alphabet_bits"] == bits_s]
        # Complete grid: the tree plus every block size, once per repeat.
        assert sorted(int(r["block_bytes"]) for r in sub) == sorted(block_grid)
        assert {r["query_kind"] for r in sub} == {"access"}
        assert {r["queries"] for r in sub} == {"10000"}
        # Checksum equality across structures proves they answered alike.
        assert len({r["checksum"] for r in sub}) == 1
        tree_ns = [float(r["ns_per_query"]) for r in sub
                   if r["structure"] == "tree"]
        forest_ns = [float(r["ns_per_query"]) for r in sub
                     if r["structure"] == "forest"]
        assert len(tree_ns) == 1 and len(forest_ns) == len(block_grid) - 1
        assert all(v > 0 for v in tree_ns + forest_ns)
        ratios[bits_s] = tree_ns[0] / min(forest_ns)
    elapsed = time.monotonic() - t0
    pretty = ", ".join(f"{b}b: {r:.2f}x" for b, r in ratios.items())
    print(f"\n[acceptance] criterion 6 (sweep grid over "
          f"{sweep_bytes / 1e6:.0f} MB, {len(rows)} rows, best tree/forest "
          f"ratios {pretty}, {elapsed:.0f}s): PASS")


def test_criterion_7_determinism_and_roundtrips(tmp_path):
    # Byte-identical generation across two CLI runs.
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    for path in (a, b):
        assert cli_main(["gen", "--seed", "31", "--bytes", "1000003",
                         "--out", path]) == 0
    blob_a, blob_b = open(a, "rb").read(), open(b, "rb").read()
    assert blob_a == blob_b
    assert blob_a == gen_bytes(31, 1000003).raw

    assert (gen_query_positions(8, 5000, 12345)
            == gen_query_positions(8, 5000, 12345))

    # Serialized structures round-trip bit-exactly.
    rng = np.random.default_rng(64)
    text = rng.integers(0, 256, 40_000).astype(np.uint8)
    roundtripped = 0
    for build in (
            lambda: WaveletTree.build(text, 8),
            lambda: WaveletForest.build(text, 1000, 8),
            lambda: WaveletTree.build(text[:500] % 2, 1),
            lambda: FmIndex.build(text[:5000], 8, backend="tree"),
            lambda: FmIndex.build(text[:5000], 8, backend="forest",
                                  block_len=512),
    ):
        structure = build()
        blob = structure.to_bytes()
        copy = type(structure).from_bytes(blob)
        assert copy.to_bytes() == blob
        assert build().to_bytes() == blob  # a fresh build is identical too
        roundtripped += 1

    # Benchmark checksums are reproducible as well.
    tree = WaveletTree.build(text, 8)
    forest = WaveletForest.build(text, 1000, 8)
    pos = gen_query_positions(3, 500, len(tree))
    r1 = run_bench(tree, "access", [(p,) for p in pos])[0].checksum
    r2 = run_bench(forest, "access", [(p,) for p in pos])[0].checksum
    assert r1 == r2 == (sum(int(text[p - 1]) for p in pos) & MASK)
    rq = gen_rank_queries(3, 500, len(tree), 256)
    assert (run_bench(tree, "rank", rq)[0].checksum
            == run_bench(forest, "rank", rq)[0].checksum)
    print(f"\n[acceptance] criterion 7 (determinism: byte-identical gen, "
          f"{roundtripped} structures round-tripped bit-exactly): PASS")
