import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletforest.fmindex import build_bwt
from waveletforest.huffman import zeroth_order_entropy
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree

from oracles import naive_rank, naive_select


def text_of(s):
    return np.frombuffer(s.encode(), dtype=np.uint8)


ABRA = text_of("abracadabra")


def test_abracadabra_basics():
    wt = WaveletTree.build(ABRA, 8)
    assert len(wt) == 11
    assert wt.code_table.sigma_effective == 5
    # Root holds one bit per text position.
    assert len(wt.node(0)) == 11
    assert wt.access(1) == ord("a")
    assert wt.access(5) == ord("c")
    assert wt.access(11) == ord("a")
    assert wt.rank(ord("a"), 11) == 5
    assert wt.rank(ord("a"), 4) == 2
    assert wt.rank(ord("z"), 11) == 0
    assert wt.select(ord("a"), 3) == 6
    assert wt.select(ord("r"), 2) == 10
    assert wt.select(ord("d"), 1) == 7


def test_abracadabra_full_equivalence():
    wt = WaveletTree.build(ABRA, 8)
    for i in range(1, 12):
        assert wt.access(i) == int(ABRA[i - 1])
    for c in (ord("a"), ord("b"), ord("c"), ord("d"), ord("r"), 0, 255):
        for i in range(0, 12):
            assert wt.rank(c, i) == naive_rank(ABRA, c, i)
        total = int(np.count_nonzero(ABRA == c))
        for j in range(1, total + 1):
            assert wt.select(c, j) == naive_select(ABRA, c, j)
        with pytest.raises(ValueError):
            wt.select(c, total + 1)


def test_empty_text():
    wt = WaveletTree.build([], 8)
    assert len(wt) == 0
    assert wt.node_count == 0
    assert wt.rank(0, 0) == 0
    with pytest.raises(IndexError):
        wt.access(1)
    with pytest.raises(ValueError):
        wt.select(0, 1)
    copy = WaveletTree.from_bytes(wt.to_bytes())
    assert len(copy) == 0 and copy.rank(5, 0) == 0


def test_single_distinct_symbol():
    wt = WaveletTree.build([7] * 4, 8)
    assert wt.node_count == 0
    assert wt.code_table.lengths == {7: 0}
    assert [wt.access(i) for i in range(1, 5)] == [7, 7, 7, 7]
    assert wt.rank(7, 3) == 3
    assert wt.rank(6, 3) == 0
    assert wt.select(7, 4) == 4
    with pytest.raises(ValueError):
        wt.select(7, 5)


def test_errors():
    wt = WaveletTree.build(ABRA, 8)
    with pytest.raises(IndexError):
        wt.access(0)
    with pytest.raises(IndexError):
        wt.access(12)
    with pytest.raises(IndexError):
        wt.rank(ord("a"), 12)
    with pytest.raises(ValueError):
        wt.rank(256, 5)
    with pytest.raises(ValueError):
        wt.rank(-1, 5)
    with pytest.raises(ValueError):
        wt.select(ord("z"), 1)
    with pytest.raises(ValueError):
        WaveletTree.build([4], 2)  # symbol out of alphabet range
    with pytest.raises(ValueError):
        WaveletTree.build([0], 0)


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 17, 300, 1000])
def test_exhaustive_oracle_equivalence(bits, n):
    rng = np.random.default_rng(bits * 1000 + n)
    sigma = 1 << bits
    text = rng.integers(0, sigma, n).astype(np.uint8)
    wt = WaveletTree.build(text, bits)
    for i in range(1, n + 1):
        assert wt.access(i) == int(text[i - 1])
    counts = np.zeros(sigma, dtype=int)
    for i in range(0, n + 1):
        if i:
            counts[text[i - 1]] += 1
        for c in range(sigma):
            assert wt.rank(c, i) == counts[c]
    for c in range(sigma):
        hits = np.flatnonzero(text == c) + 1
        for j, pos in enumerate(hits.tolist(), start=1):
            assert wt.select(c, j) == pos


def test_sampled_large_oracle_equivalence():
    n = 100_000
    rng = np.random.default_rng(5)
    text = rng.integers(0, 256, n).astype(np.uint8)
    wt = WaveletTree.build(text, 8)
    for i in rng.integers(1, n + 1, 400).tolist():
        assert wt.access(i) == int(text[i - 1])
    for _ in range(400):
        c = int(rng.integers(0, 256))
        i = int(rng.integers(0, n + 1))
        assert wt.rank(c, i) == naive_rank(text, c, i)
    for _ in range(200):
        c = int(rng.integers(0, 256))
        total = int(np.count_nonzero(text == c))
        if total:
            j = int(rng.integers(1, total + 1))
            assert wt.select(c, j) == naive_select(text, c, j)


def test_rank_select_inversion_and_telescoping():
    rng = np.random.default_rng(11)
    text = rng.integers(0, 16, 5000).astype(np.uint8)
    wt = WaveletTree.build(text, 4)
    n = len(text)
    for c in range(16):
        total = wt.rank(c, n)
        assert total == int(wt.histogram[c])
        for j in range(1, total + 1, 37):
            assert wt.rank(c, wt.select(c, j)) == j
    for i in (0, 1, 999, n):
        assert sum(wt.rank(c, i) for c in range(16)) == i


def test_skewed_distribution():
    text = np.array([0] * 5000 + [1] * 30 + [2] * 3 + [3] * 1, dtype=np.uint8)
    rng = np.random.default_rng(2)
    rng.shuffle(text)
    wt = WaveletTree.build(text, 2)
    assert wt.rank(0, len(text)) == 5000
    assert wt.rank(3, len(text)) == 1
    freqs = {c: int(f) for c, f in enumerate(wt.histogram) if f}
    mean = wt.code_table.mean_length(freqs)
    assert zeroth_order_entropy(freqs) <= mean < zeroth_order_entropy(freqs) + 1
    # Rare symbols sit deeper than the dominant one.
    assert wt.code_table.lengths[0] < wt.code_table.lengths[3]


def test_total_data_bits_identity():
    rng = np.random.default_rng(4)
    text = rng.integers(0, 64, 20_000).astype(np.uint8)
    wt = WaveletTree.build(text, 8)
    expected = sum(int(wt.histogram[c]) * l
                   for c, l in wt.code_table.lengths.items())
    assert wt.total_data_bits() == expected


def test_uniform_byte_data_bits():
    # Near-uniform 8-bit data: every code is 8 bits, so data bits = 8n.
    n = 1 << 20
    text = reinterp_uniform(n)
    wt = WaveletTree.build(text, 8)
    assert set(wt.code_table.lengths.values()) == {8}
    assert wt.total_data_bits() == 8 * n
    assert wt.node_count == 255


def reinterp_uniform(n):
    # Every byte value exactly n/256 times, shuffled: perfectly uniform.
    reps = n // 256
    text = np.repeat(np.arange(256, dtype=np.uint8), reps)
    np.random.default_rng(0).shuffle(text)
    return text


def test_serialization_roundtrip_and_layout():
    rng = np.random.default_rng(13)
    text = rng.integers(0, 256, 3000).astype(np.uint8)
    wt = WaveletTree.build(text, 8)
    blob = wt.to_bytes()
    assert len(blob) == wt.size_bytes()
    assert blob[:4] == b"WFWT"
    assert blob[4] == 1 and blob[5] == 8
    (n,) = struct.unpack_from("<Q", blob, 8)
    assert n == 3000
    copy, end = WaveletTree.from_buffer(blob)
    assert end == len(blob)
    assert copy.to_bytes() == blob
    assert copy.histogram.tolist() == wt.histogram.tolist()
    for i in rng.integers(1, 3001, 100).tolist():
        assert copy.access(i) == wt.access(i)
    for c in rng.integers(0, 256, 100).tolist():
        assert copy.rank(int(c), 1500) == wt.rank(int(c), 1500)
    # Node offsets point at bitvector magics, with the packed words
    # (16 bytes into the bitvector section) cache-line aligned.
    (count,) = struct.unpack_from("<Q", blob, 16 + 8 + 16 * copy.code_table.sigma_effective)
    offs_at = 16 + 8 + 16 * copy.code_table.sigma_effective + 8
    for k in range(count):
        (off,) = struct.unpack_from("<Q", blob, offs_at + 8 * k)
        assert blob[off:off + 4] == b"WFBV"
        assert (off + 16) % 64 == 0


def test_build_determinism():
    rng = np.random.default_rng(21)
    text = rng.integers(0, 32, 4000).astype(np.uint8)
    assert (WaveletTree.build(text, 8).to_bytes()
            == WaveletTree.build(text, 8).to_bytes())


def test_accepts_lists_and_wider_alphabets():
    wt = WaveletTree.build([0, 511, 300, 0, 511], 9)
    assert wt.access(2) == 511
    assert wt.rank(300, 5) == 1
    assert wt.select(511, 2) == 5
    copy = WaveletTree.from_bytes(wt.to_bytes())
    assert copy.access(3) == 300


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=0, max_size=300))
def test_property_matches_naive(text):
    arr = np.array(text, dtype=np.uint8)
    wt = WaveletTree.build(arr, 4)
    n = len(text)
    for i in range(1, n + 1):
        assert wt.access(i) == text[i - 1]
    for c in set(text) | {0, 15}:
        assert wt.rank(c, n) == text.count(c)
        for j in range(1, text.count(c) + 1):
            assert text[wt.select(c, j) - 1] == c
            assert wt.rank(c, wt.select(c, j)) == j


def test_trace_instrumentation_agrees_with_plain():
    rng = np.random.default_rng(17)
    text = rng.integers(0, 256, 20_000).astype(np.uint8)
    wt = WaveletTree.build(text, 8)
    size = wt.size_bytes()
    for i in rng.integers(1, 20_001, 50).tolist():
        t = []
        assert wt.access(i, trace=t) == wt.access(i)
        assert t and all(o % 8 == 0 and 0 <= o < size for o in t)
    for _ in range(50):
        c, i = int(rng.integers(0, 256)), int(rng.integers(0, 20_001))
        t = []
        assert wt.rank(c, i, trace=t) == wt.rank(c, i)
    t = []
    wt.rank(int(text[0]), 0, trace=t)
    assert t == []


def test_out_of_range_symbols_are_rejected_before_the_cast():
    # Cast first, 300 and -1 would wrap to 44 and 255 in a byte alphabet.
    for bad in ([300, 5], [-1, 5], [70_000, 5]):
        arr = np.array(bad)
        with pytest.raises(ValueError):
            WaveletTree.build(arr, 8)
        with pytest.raises(ValueError):
            WaveletForest.build(arr, 4, 8)
        with pytest.raises(ValueError):
            build_bwt(arr, 8)
    with pytest.raises(ValueError):
        WaveletTree.build(np.array([-1, 3], np.int16), 16)


def test_load_rejects_node_lengths_that_disagree_with_the_parents_counts():
    text = np.random.default_rng(3).integers(0, 16, 3000)
    wt = WaveletTree.build(text, 4)
    blob = wt.to_bytes()
    assert wt.node_count == 15
    # Node 0 is the root, whose length must be the tree's symbol count.
    for idx in range(wt.node_count):
        bad = bytearray(blob)
        at = wt.node_offset(idx) + 8  # the node's length in bits
        (length,) = struct.unpack_from("<Q", bad, at)
        struct.pack_into("<Q", bad, at, length - 1)
        with pytest.raises(ValueError):
            WaveletTree.from_bytes(bytes(bad))


def test_sixteen_bit_tree_reads_the_edges_of_its_entry_table():
    rng = np.random.default_rng(16)
    text = rng.integers(0, 1 << 16, 5000)
    text[0], text[-1], text[2500] = 0, (1 << 16) - 1, 0
    absent = sorted(set(range(1 << 16)) - set(text.tolist()))[::9000]
    built = WaveletTree.build(text, 16)
    loaded = WaveletTree.from_bytes(built.to_bytes())
    n = len(text)
    for wt in (built, loaded):
        assert [wt.access(i) for i in range(1, n + 1, 7)] == text[::7].tolist()
        for c in [0, (1 << 16) - 1, int(text[1234])] + absent:
            for i in (0, 1, 2500, 2501, n - 1, n):
                assert wt.rank(c, i) == int((text[:i] == c).sum())
        assert wt.select(0, 1) == 1 and wt.select(0, 2) == 2501
        assert wt.select((1 << 16) - 1, int((text == (1 << 16) - 1).sum())) == n
        with pytest.raises(ValueError):
            wt.select(absent[0], 1)
