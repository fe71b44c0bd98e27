import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletforest._bits import TracedWords, select_in_word, word_view
from waveletforest.bitvec import BitVector

from oracles import NaiveBits


def rng_bits(n, density, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(n) < density).astype(np.uint8)


def test_packing_order():
    bv = BitVector.from_bits([1, 0, 1, 1, 0])
    assert int(bv._words[0]) == 0b01101
    assert len(bv) == 5
    assert bv.num_ones == 3


def test_rank_directory_boundaries():
    bv = BitVector.from_bits([1] * 600)
    # One complete 512-bit superblock.
    assert bv._dir.tolist() == [512]
    assert bv.rank1(512) == 512
    assert bv.rank1(513) == 513
    assert bv.rank1(600) == 600


def test_empty_vector():
    bv = BitVector.from_bits([])
    assert len(bv) == 0
    assert bv.rank1(0) == 0
    assert bv.rank0(0) == 0
    with pytest.raises(IndexError):
        bv.access(1)
    with pytest.raises(ValueError):
        bv.select1(1)
    with pytest.raises(ValueError):
        bv.select0(1)
    rebuilt, end = BitVector.from_buffer(bv.to_bytes())
    assert end == bv.size_bytes()
    assert len(rebuilt) == 0


def test_out_of_range_errors():
    bv = BitVector.from_bits([1, 0, 1])
    with pytest.raises(IndexError):
        bv.access(0)
    with pytest.raises(IndexError):
        bv.access(4)
    with pytest.raises(IndexError):
        bv.rank1(-1)
    with pytest.raises(IndexError):
        bv.rank1(4)
    with pytest.raises(ValueError):
        bv.select1(3)
    with pytest.raises(ValueError):
        bv.select0(2)
    with pytest.raises(ValueError):
        bv.select1(0)


def test_all_ones_and_all_zeros():
    ones = BitVector.from_bits([1] * 1000)
    zeros = BitVector.from_bits([0] * 1000)
    for i in (1, 500, 1000):
        assert ones.rank1(i) == i
        assert ones.select1(i) == i
        assert zeros.rank0(i) == i
        assert zeros.select0(i) == i
    assert zeros.num_ones == 0
    with pytest.raises(ValueError):
        zeros.select1(1)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 511, 512, 513, 600])
@pytest.mark.parametrize("density", [0.0, 0.02, 0.5, 0.98, 1.0])
def test_exhaustive_against_oracle(n, density):
    bits = rng_bits(n, density, seed=n * 7 + int(density * 100))
    bv = BitVector.from_bits(bits)
    ref = NaiveBits(bits)
    for i in range(1, n + 1):
        assert bv.access(i) == ref.access(i)
    for i in range(0, n + 1):
        assert bv.rank1(i) == ref.rank1(i)
        assert bv.rank0(i) == ref.rank0(i)
    for j in range(1, bv.num_ones + 1):
        assert bv.select1(j) == ref.select(1, j)
    for j in range(1, bv.num_zeros + 1):
        assert bv.select0(j) == ref.select(0, j)


@pytest.mark.parametrize("density", [0.01, 0.5, 0.99])
def test_sampled_large_against_oracle(density):
    # Big enough to cross several select samples (8192 apart).
    n = 100_000
    bits = rng_bits(n, density, seed=42)
    bv = BitVector.from_bits(bits)
    prefix = np.concatenate([[0], np.cumsum(bits)])
    ones_at = np.flatnonzero(bits) + 1
    zeros_at = np.flatnonzero(bits == 0) + 1

    rng = np.random.default_rng(7)
    for i in rng.integers(0, n + 1, 300).tolist():
        assert bv.rank1(i) == int(prefix[i])
    for i in rng.integers(1, n + 1, 300).tolist():
        assert bv.access(i) == int(bits[i - 1])
    if len(ones_at):
        for j in rng.integers(1, len(ones_at) + 1, 300).tolist():
            assert bv.select1(j) == int(ones_at[j - 1])
    if len(zeros_at):
        for j in rng.integers(1, len(zeros_at) + 1, 300).tolist():
            assert bv.select0(j) == int(zeros_at[j - 1])
    # Exactly at and around the sample ordinals.
    for j in (8191, 8192, 8193, 16384):
        if j <= len(ones_at):
            assert bv.select1(j) == int(ones_at[j - 1])
        if j <= len(zeros_at):
            assert bv.select0(j) == int(zeros_at[j - 1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=700))
def test_rank_select_roundtrip_property(bits):
    bv = BitVector.from_bits(bits)
    for j in range(1, bv.num_ones + 1):
        pos = bv.select1(j)
        assert bv.rank1(pos) == j
        assert bv.access(pos) == 1
    for i in range(0, len(bits) + 1):
        assert bv.rank1(i) + bv.rank0(i) == i


def test_golden_serialized_bytes():
    # 10110 -> one word 0x0d, no directory, no samples. Layout derived
    # by hand from the documented offsets.
    bv = BitVector.from_bits([1, 0, 1, 1, 0])
    expected = (b"WFBV\0\0\0\0"
                + struct.pack("<Q", 5)
                + struct.pack("<Q", 0b01101)
                + struct.pack("<Q", 0)
                + struct.pack("<Q", 0))
    assert bv.to_bytes() == expected
    assert bv.size_bytes() == len(expected) == 40


def test_serialization_roundtrip():
    for n, density in [(0, 0.5), (5, 0.4), (1000, 0.5), (20_000, 0.03)]:
        bits = rng_bits(n, density, seed=n + 1)
        bv = BitVector.from_bits(bits)
        blob = bv.to_bytes()
        assert len(blob) == bv.size_bytes()
        assert len(blob) % 8 == 0
        copy, end = BitVector.from_buffer(blob)
        assert end == len(blob)
        assert copy.to_bytes() == blob
        assert copy.num_ones == bv.num_ones
        for i in range(0, min(n, 200) + 1):
            assert copy.rank1(i) == bv.rank1(i)


def test_from_buffer_at_offset_and_bad_magic():
    bv = BitVector.from_bits([1, 1, 0])
    blob = b"\0" * 16 + bv.to_bytes()
    copy, end = BitVector.from_buffer(blob, 16)
    assert end == len(blob)
    assert copy.rank1(3) == 2
    with pytest.raises(ValueError):
        BitVector.from_buffer(blob, 8)


def test_select_sample_sections_present():
    n = 70_000
    bits = rng_bits(n, 0.5, seed=3)
    bv = BitVector.from_bits(bits)
    ones, zeros = bv.num_ones, bv.num_zeros
    blob = bv.to_bytes()
    nwords = (n + 63) // 64
    ndir = n // 512
    pos = 16 + 8 * nwords + 8 * ndir
    (n1,) = struct.unpack_from("<Q", blob, pos)
    assert n1 == ones // 8192
    pos += 8 + 8 * n1
    (n0,) = struct.unpack_from("<Q", blob, pos)
    assert n0 == zeros // 8192
    # Directory entries really are 512-bit cumulative popcounts.
    prefix = np.cumsum(bits)
    dirs = np.frombuffer(blob, "<u8", ndir, 16 + 8 * nwords)
    assert dirs.tolist() == [int(prefix[512 * (k + 1) - 1])
                             for k in range(ndir)]


def test_trace_offsets_word_sized_and_in_range():
    bits = rng_bits(3000, 0.5, seed=9)
    bv = BitVector.from_bits(bits)
    size = bv.size_bytes()
    for q in (1, 700, 1500, 3000):
        trace = []
        bv.rank1(q, trace=trace)
        assert trace, "rank reads at least one word"
        assert all(off % 8 == 0 and 0 <= off < size for off in trace)
        assert len(trace) <= 9  # at most a directory entry plus 8 words
    trace = []
    bv.rank1(0, trace=trace)
    assert trace == []
    trace = []
    bv.access(1, trace=trace)
    assert trace == [16]
    # Instrumented and plain paths agree.
    for j in range(1, bv.num_ones + 1, 97):
        t = []
        assert bv.select1(j, trace=t) == bv.select1(j)
        assert all(off % 8 == 0 and 0 <= off < size for off in t)


def test_trace_base_offset_shifts_everything():
    bits = rng_bits(600, 0.5, seed=11)
    bv = BitVector.from_bits(bits)
    t0, t1 = [], []
    bv.rank1(599, trace=t0)
    bv.rank1(599, trace=t1, base=1024)
    assert [x + 1024 for x in t0] == t1


def test_select_traces_include_the_sample_count_words():
    # The 1-sample count sits right after the rank directory, at word
    # d + length // 512; the 0-sample count follows the 1-samples.
    n = 70_000
    bv = BitVector.from_bits(rng_bits(n, 0.5, seed=5))
    ones_at = 8 * (2 + (n + 63) // 64 + n // 512)
    zeros_at = ones_at + 8 * (1 + bv.num_ones // 8192)
    for j in (1, 8192, 20_000, bv.num_ones):
        t = []
        assert bv.select1(j, trace=t) == bv.select1(j)
        assert ones_at in t and zeros_at not in t
    for j in (1, 8192, bv.num_zeros):
        t = []
        assert bv.select0(j, trace=t) == bv.select0(j)
        assert ones_at in t and zeros_at in t


def test_load_rejects_a_wrong_sample_count():
    n = 70_000
    bv = BitVector.from_bits(rng_bits(n, 0.5, seed=5))
    ones_at = 8 * (2 + (n + 63) // 64 + n // 512)
    zeros_at = ones_at + 8 * (1 + bv.num_ones // 8192)
    for at in (ones_at, zeros_at):
        blob = bytearray(bv.to_bytes())
        blob[at] ^= 1
        with pytest.raises(ValueError):
            BitVector.from_bytes(bytes(blob))


def test_load_rejects_a_set_padding_bit():
    # 100 bits: bits 101..128 of the second word are padding.
    bv = BitVector.from_bits([0, 1] * 50)
    blob = bytearray(bv.to_bytes())
    blob[8 * (2 + 1) + 5] |= 1  # bit 105
    with pytest.raises(ValueError, match="padding"):
        BitVector.from_bytes(bytes(blob))
    # A full last word has no padding.
    assert BitVector.from_bits([1] * 128).num_ones == 128


@pytest.mark.parametrize("words, length", [([1, 2**64 - 1], 70),
                                           ([2**64 - 1], 10)])
def test_from_words_rejects_set_padding_bits(words, length):
    with pytest.raises(ValueError, match="padding"):
        BitVector.from_words(np.array(words, np.uint64), length)


def test_select_in_word_matches_a_bit_scan():
    rng = np.random.default_rng(41)
    words = [(1 << 64) - 1, 1, 1 << 63]
    for density in (0.03, 0.5, 0.97):
        for _ in range(50):
            bits = rng.random(64) < density
            words.append(sum(1 << b for b in np.flatnonzero(bits).tolist()))
    for word in words:
        ones = [b for b in range(64) if word >> b & 1]
        for j, offset in enumerate(ones, start=1):
            assert select_in_word(word, j) == offset
        with pytest.raises(ValueError):
            select_in_word(word, len(ones) + 1)


def test_traced_words_record_every_word_of_a_slice_in_order():
    words = np.arange(10, dtype=np.uint64)
    t = []
    view = TracedWords(word_view(words), t, 100)
    assert list(view[2:5]) == [2, 3, 4] and view[7] == 7
    assert t == [116, 124, 132, 156]


def test_traced_rank1_reads_the_directory_entry_then_every_word_to_i():
    n = 3000
    bits = rng_bits(n, 0.5, seed=3)
    bv = BitVector.from_bits(bits)
    d = 2 + (n + 63) // 64  # the rank directory's first word
    for i in (1, 63, 64, 65, 511, 512, 513, 1000, 1536, 1537, 2999, 3000):
        s = (i - 1) // 512
        want = [8 * (d + s - 1)] if s else []
        want += [8 * (2 + k) for k in range(8 * s, (i + 63) // 64)]
        t = []
        assert bv.rank1(i, trace=t) == int(bits[:i].sum())
        assert t == want
