import numpy as np
import pytest

from waveletforest.huffman import zeroth_order_entropy
from waveletforest.textgen import (Dataset, gen_bytes, gen_query_positions,
                                   iter_gen_chunks, reinterpret,
                                   splitmix64_stream, splitmix64_words)

MASK = (1 << 64) - 1


def reference_splitmix(seed, count):
    # Deliberately separate from the library code path.
    out = []
    state = seed & MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix_seed_zero_first_output():
    stream = splitmix64_stream(0)
    assert next(stream) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 42, MASK, 2**63])
def test_stream_matches_reference(seed):
    ref = reference_splitmix(seed, 50)
    stream = splitmix64_stream(seed)
    assert [next(stream) for _ in range(50)] == ref
    assert splitmix64_words(seed, 0, 50).tolist() == ref
    assert splitmix64_words(seed, 10, 5).tolist() == ref[10:15]


def test_gen_bytes_little_endian_words():
    ref = reference_splitmix(9, 3)
    expected = b"".join(w.to_bytes(8, "little") for w in ref)
    ds = gen_bytes(9, 24)
    assert ds.raw == expected
    assert ds.n_bytes == 24 and ds.seed == 9
    # Truncation keeps the word prefix.
    assert gen_bytes(9, 21).raw == expected[:21]
    assert gen_bytes(9, 0).raw == b""


def test_gen_bytes_chunking_is_seamless():
    whole = gen_bytes(5, 40_000_000 // 1000).raw  # modest size
    joined = b"".join(iter_gen_chunks(5, len(whole)))
    assert joined == whole
    # Crossing the internal chunk boundary exactly.
    big = 1 << 21
    a = gen_bytes(3, big * 8 + 5).raw
    assert a[: big * 8] == gen_bytes(3, big * 8).raw
    assert len(a) == big * 8 + 5


def test_determinism_across_calls():
    assert gen_bytes(1234, 10_000).raw == gen_bytes(1234, 10_000).raw
    assert gen_query_positions(7, 20, 999) == gen_query_positions(7, 20, 999)


def test_reinterpret_width_4():
    seq = reinterpret(bytes([0xB5]), 4)
    assert seq.symbols.tolist() == [0x5, 0xB]
    assert seq.alphabet_bits == 4


def test_reinterpret_width_3_lsb_first_groups():
    # Bitstream of B5 01, LSB-first: 1,0,1,0,1,1,0,1, 1,0,0,0,0,0,0,0.
    # Groups of 3 (first bit = LSB): 101->5, 011->6, 010->6? no:
    # bits (1,0,1)->1+0+4=5, (0,1,1)->0+2+4=6, (0,1,1)? walk it:
    # stream = [1,0,1,0,1,1,0,1,1,0,0,0,0,0,0,0]
    # g0=(1,0,1)=5  g1=(0,1,1)=6  g2=(0,1,1)=6  g3=(0,0,0)=0  g4=(0,0,0)=0
    # sixteenth bit is dropped (trailing partial group).
    seq = reinterpret(bytes([0xB5, 0x01]), 3)
    assert seq.symbols.tolist() == [5, 6, 6, 0, 0]


def test_reinterpret_all_widths_against_bitstream_oracle():
    rng = np.random.default_rng(0)
    raw = bytes(rng.integers(0, 256, 257, dtype=np.uint8).tolist())
    stream = []
    for byte in raw:
        for k in range(8):
            stream.append((byte >> k) & 1)
    for bits in range(1, 9):
        expected = []
        for lo in range(0, len(stream) - bits + 1, bits):
            expected.append(sum(stream[lo + k] << k for k in range(bits)))
        seq = reinterpret(raw, bits)
        assert seq.symbols.tolist() == expected, f"width {bits}"
        assert len(seq) == (8 * len(raw)) // bits


def test_reinterpret_repack_roundtrip():
    raw = gen_bytes(77, 4096).raw
    for bits in (1, 2, 4, 8):
        seq = reinterpret(raw, bits)
        per_byte = 8 // bits
        vals = seq.symbols.reshape(-1, per_byte).astype(np.uint64)
        shifts = (np.arange(per_byte) * bits).astype(np.uint64)
        repacked = (vals << shifts).sum(axis=1).astype(np.uint8)
        assert bytes(repacked.tolist()) == raw


def test_reinterpret_validates_width():
    with pytest.raises(ValueError):
        reinterpret(b"ab", 0)
    with pytest.raises(ValueError):
        reinterpret(b"ab", 9)


def test_reinterpret_accepts_dataset():
    ds = gen_bytes(3, 100)
    assert reinterpret(ds, 8).symbols.tolist() == list(ds.raw)


def test_generated_data_is_nearly_incompressible():
    seq = reinterpret(gen_bytes(2024, 1 << 20), 8)
    counts = np.bincount(seq.symbols, minlength=256)
    freqs = {s: int(c) for s, c in enumerate(counts) if c}
    assert zeroth_order_entropy(freqs) > 7.99


def test_query_positions_in_range_and_exact():
    pos = gen_query_positions(123, 1000, 50)
    assert all(1 <= p <= 50 for p in pos)
    ref = reference_splitmix(123, 1000)
    assert pos == [(u * 50 >> 64) + 1 for u in ref]
    assert gen_query_positions(1, 5, 1) == [1] * 5
    assert gen_query_positions(1, 0, 0) == []
    with pytest.raises(ValueError):
        gen_query_positions(1, 5, 0)


@pytest.mark.parametrize("seed, count, n", [
    (0, 1, 1), (7, 100, 2), (123, 1000, 50), (MASK, 300, 2**40),
    (2**63, 50, MASK)])
def test_query_positions_follow_the_stream(seed, count, n):
    # Position k is the k-th output u of the seed's stream scaled to
    # 1..n: (u * n >> 64) + 1.
    stream = splitmix64_stream(seed)
    want = [(next(stream) * n >> 64) + 1 for _ in range(count)]
    assert gen_query_positions(seed, count, n) == want


def test_dataset_fields():
    ds = Dataset(seed=1, n_bytes=3, raw=b"abc")
    assert ds.raw == b"abc"
