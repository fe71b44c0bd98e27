import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletforest import wtree
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


def fibonacci_text(depth, rng):
    """Symbols 0..depth with weights 1, 1, 1, 2, 3, 5, ..., shuffled: the
    Huffman code of that histogram is depth bits deep."""
    weights, a, b = [1], 1, 1
    for _ in range(depth):
        weights.append(a)
        a, b = b, a + b
    text = np.repeat(np.arange(depth + 1, dtype=np.uint8), weights)
    rng.shuffle(text)
    return text


# sha256 of to_bytes() for the tree of fibonacci_text(depth) and the
# forest of width_boundary_text(depth); the deepest codes straddle the
# 8-, 16- and 32-bit word widths a build may route its positions in.
WIDTH_DIGESTS = {
    7: ("51b284000f4ddc30b9e3f08b2ea4c95d4bb411bbb8f4572e526c46b4d1fc7270",
        "40cb661318a87263c6926c8e73489b6f6593383eb66cd6e54ef52e793a67bd20"),
    8: ("0e62ad83b34614172c05d1a49a1cfa77fe0a7b01147df9b4453f22e3d3ef36b6",
        "50ca9278830af806ab6703c600cfde33a1d1524a04ae65b025ceda52288a59fc"),
    15: ("5e18090b491655a0fcb8c05164c5e74a837fe77b99115e9496d4340024a4a27e",
         "086a0202befc22729142b7950baceaea5a3804f2478d6bff51a034f459449270"),
    16: ("f11a8f6c819f823f783a866d7f5d06e800083d25673f6e1ee982894cd23c7465",
         "c31e8c0a6f6d5cc57a9f4d5d25a150589f0b52f12a201476a4016f49006510c5"),
    31: ("2f4a07dacb0cf57aa47308399f2873598142ac96d95f1e9cb161dc0f78f9e5d3",
         "3d44d4e9acd321afd453b1260215998922d8fb03efb1d261de539416c7aca008"),
    32: ("616f81668fd6c91a752cc1862a8963e504be514b6391c76bf5ae8ea1437cc34f",
         "0003cfb746e080b00ee42c686c77b0b3df8cfcabf531820b0f61cee5b15209b0"),
}


def width_boundary_text(depth, rng):
    """A lone-symbol block, a fibonacci_text block, a two-symbol block
    and a short four-symbol last block, in blocks of the deep one's
    length. Below 2^16 symbols a block shares its build chunk with the
    others."""
    deep = fibonacci_text(depth, rng)
    block_len = len(deep)
    return np.concatenate([
        np.full(block_len, depth, np.uint8), deep,
        rng.integers(3, 5, block_len).astype(np.uint8),
        rng.integers(0, 4, block_len // 3).astype(np.uint8)]), block_len


@pytest.mark.parametrize("depth", sorted(WIDTH_DIGESTS))
def test_codes_deep_enough_to_cross_each_word_width(depth):
    bits = depth.bit_length()
    rng = np.random.default_rng(900 + depth)
    tree_text = fibonacci_text(depth, rng)
    forest_text, block_len = width_boundary_text(depth, rng)
    wt = WaveletTree.build(tree_text, bits)
    wf = WaveletForest.build(forest_text, block_len, bits)
    assert wt.code_table.max_length == depth
    for (text, ws), want in zip(((tree_text, wt), (forest_text, wf)),
                                WIDTH_DIGESTS[depth]):
        assert hashlib.sha256(ws.to_bytes()).hexdigest() == want
        n = len(text)
        for i in rng.integers(1, n + 1, 200).tolist():
            assert ws.access(i) == int(text[i - 1])
        for c in {0, depth, 1, 3, int(rng.integers(0, depth + 1))}:
            hits = np.flatnonzero(text == c) + 1
            for i in [0, n] + rng.integers(0, n + 1, 20).tolist():
                assert ws.rank(c, i) == int(np.searchsorted(hits, i, "right"))
            for j in [1, len(hits)] + rng.integers(1, len(hits) + 1, 20).tolist():
                assert ws.select(c, j) == int(hits[j - 1])


@pytest.mark.parametrize("depth", [63, 64])
def test_build_routes_63_bit_codes_and_rejects_64_bit_ones(monkeypatch, depth):
    # Lengths 1, 2, ..., depth, depth form a complete code depth bits
    # deep; a Huffman code that deep needs a block of about F(depth + 2)
    # symbols, so the lengths are imposed instead.
    monkeypatch.setattr(wtree, "code_lengths",
                        lambda ek, ef: np.minimum(np.arange(len(ek)) + 1, depth))
    rng = np.random.default_rng(depth)
    text = rng.permutation(np.repeat(np.arange(depth + 1, dtype=np.uint8), 3))
    if depth == 64:
        with pytest.raises(ValueError, match="64-bit code"):
            WaveletTree.build(text, 7)
        return
    built = WaveletTree.build(text, 7)
    assert built.code_table.max_length == depth
    for wt in (built, WaveletTree.from_bytes(built.to_bytes())):
        assert [wt.access(i) for i in range(1, len(text) + 1)] == text.tolist()
        for c in (0, 1, depth - 1, depth):
            hits = (np.flatnonzero(text == c) + 1).tolist()
            assert [wt.rank(c, i) for i in hits] == [1, 2, 3]
            assert [wt.select(c, j) for j in (1, 2, 3)] == hits


def test_load_rejects_a_leaf_that_holds_no_symbols():
    # Two symbols, so the root's set bits are the right leaf's count:
    # clearing them all leaves symbol 1 with a code and no occurrences.
    wt = WaveletTree.build(np.array([0, 1] * 50), 1)
    bad = bytearray(wt.to_bytes())
    words = wt.node_offset(0) + 16
    bad[words:words + 16] = bytes(16)
    with pytest.raises(ValueError):
        WaveletTree.from_bytes(bytes(bad))


def test_a_tree_keeps_a_node_section_placed_past_the_others():
    # The offset table locates every node section: move a copy of the
    # root's past the tree's last section, at the same alignment, and
    # point the root's offset word at it. The tree must keep the copy
    # and answer every query as before.
    text = np.random.default_rng(31).integers(0, 16, 3000).astype(np.uint8)
    wt = WaveletTree.build(text, 4)
    blob = wt.to_bytes()
    root, size = wt.node_offset(0), wt.node(0).size_bytes()
    moved = len(blob) + (root - len(blob)) % 64
    bad = bytearray(blob.ljust(moved, b"\0") + blob[root:root + size])
    offsets_at = 8 * (4 + 2 * wt.code_table.sigma_effective)
    struct.pack_into("<Q", bad, offsets_at, moved)
    copy = WaveletTree.from_bytes(bytes(bad))
    assert copy.node_offset(0) == moved
    assert [copy.access(i) for i in range(1, 3001)] == text.tolist()
    assert copy.size_bytes() == len(bad)
    for c in range(16):
        at = (np.flatnonzero(text == c) + 1).tolist()
        assert [copy.rank(c, i) for i in at] == list(range(1, len(at) + 1))
        assert [copy.select(c, j) for j in range(1, len(at) + 1)] == at


def test_load_rejects_a_set_padding_bit_in_a_node():
    # The root holds 100 bits; bit 105 is padding in its last word.
    wt = WaveletTree.build(np.array([0, 1] * 50), 1)
    bad = bytearray(wt.to_bytes())
    bad[wt.node_offset(0) + 8 * (2 + 1) + 5] |= 1
    with pytest.raises(ValueError, match="padding"):
        WaveletTree.from_bytes(bytes(bad))


def test_shape_rejects_codes_over_63_bits():
    # Lengths 1, 2, ..., 64, 64: a complete prefix code 64 bits deep,
    # whose deepest codes leave no room for a marker bit in a u64.
    for depth in (63, 64):
        el = np.minimum(np.arange(depth + 1) + 1, depth)
        args = np.zeros(depth + 1, np.int64), el, np.array([depth + 1])
        if depth == 63:
            assert wtree._shape(*args)[1].shape == (1, 64)
        else:
            with pytest.raises(ValueError, match="64-bit code"):
                wtree._shape(*args)


@pytest.mark.parametrize("depth, width", [(7, 1), (8, 2), (15, 2), (16, 4)])
def test_code_table_width_follows_the_deepest_code(depth, width):
    # One (block, symbol) item holds a code behind its marker bit.
    text = fibonacci_text(depth, np.random.default_rng(depth))
    wt = WaveletTree.build(text, 5)
    assert wt._code.itemsize == width
    assert wt._code.nbytes == 32 * width


@pytest.mark.parametrize("chunk, own", [(64, 16), (48, 5), (8, 8)])
def test_chunks_cover_the_text_in_bounded_pieces(monkeypatch, chunk, own):
    monkeypatch.setattr(wtree, "_CHUNK", chunk)
    monkeypatch.setattr(wtree, "_OWN_CHUNK", own)
    for n in (0, 1, 7, 63, 64, 65, 200, 333):
        for block_len in (1, 3, 4, 5, 16, 17, 64, 100, 400):
            for sigma in (2, 4, 16, 256):
                chunks = list(wtree._chunks(n, block_len, sigma))
                # Every position once, in order.
                assert [x for lo, hi, _, _ in chunks
                        for x in range(lo, hi)] == list(range(n))
                seen = {}
                for lo, hi, k0, k1 in chunks:
                    assert lo < hi <= lo + chunk
                    assert (k0, k1) == (lo // block_len,
                                        (hi - 1) // block_len + 1)
                    assert k1 - k0 == 1 or (k1 - k0) * sigma <= chunk
                    for k in range(k0, k1):
                        seen[k] = seen.get(k, 0) + 1
                # Only a block of own or more symbols is split.
                assert all(block_len >= own for c in seen.values() if c > 1)
