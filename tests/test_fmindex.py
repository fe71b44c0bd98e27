import tracemalloc

import numpy as np
import pytest

from waveletforest.fmindex import Bwt, FmIndex, _packed_keys, build_bwt
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree

from oracles import naive_bwt, naive_count


def text_of(s):
    return np.frombuffer(s.encode(), dtype=np.uint8)


def pat_of(s):
    return list(s.encode())


ABRA = text_of("abracadabra")


def test_abracadabra_bwt():
    bwt = build_bwt(ABRA, 8)
    assert bwt.sentinel == 256
    expected = [ord(c) if c != "$" else 256 for c in "ard$rcaaaabb"]
    assert bwt.transformed.tolist() == expected
    assert bwt.primary_index == 3
    assert bwt.transformed.dtype == np.uint16


def test_bwt_matches_naive_rotation_sort():
    rng = np.random.default_rng(0)
    cases = [(bits, rng.integers(0, 1 << bits, n))
             for bits, n in [(1, 1), (1, 2), (2, 50), (4, 200), (8, 400),
                             (15, 300)]]
    # Periodic texts stay tied long after the packed first sort (39
    # symbols at 1 bit, 7 at 8, 4 at 15), so 5 to 7 doubling rounds follow.
    cases += [(bits, np.resize(rng.integers(0, 1 << bits, period), n))
              for bits, period, n in [(1, 1, 700), (2, 2, 600), (8, 3, 500),
                                      (8, 37, 900), (15, 37, 500)]]
    for bits, text in cases:
        text = text.astype(np.uint16 if bits > 8 else np.uint8)
        bwt = build_bwt(text, bits)
        last, primary = naive_bwt(text.tolist(), sentinel=1 << bits)
        assert bwt.transformed.tolist() == [
            1 << bits if c == 1 << bits else c for c in last]
        assert bwt.primary_index == primary


@pytest.mark.parametrize("kind", ["uniform8", "repeated8", "unary1"])
def test_build_bwt_traced_peak_is_at_most_48_bytes_per_symbol(kind):
    n = 1 << 18
    rng = np.random.default_rng(5)
    if kind == "uniform8":
        text, bits = rng.integers(0, 256, n).astype(np.uint8), 8
    elif kind == "repeated8":  # as bwt-count makes its text
        text = np.resize(rng.integers(0, 256, 5000).astype(np.uint8), n)
        hit = rng.random(n) < 0.01
        text[hit] = rng.integers(0, 256, int(hit.sum()))
        bits = 8
    else:
        text, bits = np.zeros(n, np.uint8), 1
    tracemalloc.start()
    try:
        build_bwt(text, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * n


def test_bwt_of_repetitive_text():
    text = np.zeros(500, dtype=np.uint8)
    bwt = build_bwt(text, 1)
    # All rotations but the sentinel-led one end in 0.
    assert int(np.count_nonzero(bwt.transformed == 2)) == 1
    assert bwt.transformed.tolist()[0] == 0
    fm = FmIndex.from_bwt(bwt)
    assert fm.count([0] * 500) == 1
    assert fm.count([0] * 17) == 484
    assert fm.count([1]) == 0


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        build_bwt([], 8)


def test_lf_step_single_cycle_aa():
    fm = FmIndex.build(text_of("aa"), 8)
    seen = [0]
    row = 0
    for _ in range(fm.n):
        row = fm.lf_step(row)
        seen.append(row)
    assert sorted(seen) == [0, 1, 2]
    assert fm.lf_step(seen[-1]) == 0


def test_lf_decode_recovers_text():
    rng = np.random.default_rng(4)
    for bits, n in [(2, 73), (8, 311)]:
        text = rng.integers(0, 1 << bits, n).astype(np.uint8)
        fm = FmIndex.build(text, bits)
        row = 0
        out = []
        for _ in range(n):
            out.append(fm.bwt_symbol(row))
            row = fm.lf_step(row)
        assert out[::-1] == text.tolist()


def test_lf_step_is_permutation():
    text = text_of("mississippi")
    fm = FmIndex.build(text, 8)
    images = {fm.lf_step(r) for r in range(fm.n + 1)}
    assert images == set(range(fm.n + 1))
    with pytest.raises(IndexError):
        fm.lf_step(fm.n + 1)
    with pytest.raises(IndexError):
        fm.lf_step(-1)


def test_c_array_invariants():
    fm = FmIndex.build(ABRA, 8)
    c = fm.c_array
    assert len(c) == 257
    assert c[0] == 1
    assert int(c[-1]) == fm.n + 1
    assert all(int(c[i]) <= int(c[i + 1]) for i in range(256))
    # a < b < c < d < r with counts 5,2,1,1,2.
    assert int(c[ord("a")]) == 1
    assert int(c[ord("b")]) == 6
    assert int(c[ord("c")]) == 8
    assert int(c[ord("d")]) == 9
    assert int(c[ord("r")]) == 10


def test_count_known_patterns():
    fm = FmIndex.build(ABRA, 8)
    assert fm.count(pat_of("abra")) == 2
    assert fm.count(pat_of("a")) == 5
    assert fm.count(pat_of("bra")) == 2
    assert fm.count(pat_of("cad")) == 1
    assert fm.count(pat_of("abracadabra")) == 1
    assert fm.count(pat_of("abracadabrax")) == 0
    assert fm.count(pat_of("zzz")) == 0
    assert fm.count([999]) == 0
    with pytest.raises(ValueError):
        fm.count([])


@pytest.mark.parametrize("backend,block_len", [("tree", None), ("forest", 64)])
def test_count_matches_naive_oracle(backend, block_len):
    rng = np.random.default_rng(7)
    for bits, n in [(2, 300), (4, 500), (8, 600)]:
        text = rng.integers(0, 1 << bits, n).astype(np.uint8)
        fm = FmIndex.build(text, bits, backend=backend, block_len=block_len)
        tl = text.tolist()
        for m in (1, 2, 3, 5):
            for _ in range(25):
                at = int(rng.integers(0, n - m + 1))
                pat = tl[at:at + m]  # present pattern
                assert fm.count(pat) == naive_count(tl, pat)
            for _ in range(10):
                pat = rng.integers(0, 1 << bits, m).tolist()
                assert fm.count(pat) == naive_count(tl, pat)


def test_tree_and_forest_backends_agree():
    rng = np.random.default_rng(9)
    text = rng.integers(0, 256, 700).astype(np.uint8)
    fm_t = FmIndex.build(text, 8, backend="tree")
    fm_f = FmIndex.build(text, 8, backend="forest", block_len=100)
    assert isinstance(fm_f.backend, WaveletForest)
    assert fm_t.backend_kind == "tree" and fm_f.backend_kind == "forest"
    for m in (1, 3, 6):
        for _ in range(40):
            pat = rng.integers(0, 256, m).tolist()
            assert fm_t.count(pat) == fm_f.count(pat)
    for r in range(0, fm_t.n + 1, 13):
        assert fm_t.lf_step(r) == fm_f.lf_step(r)


def test_forest_backend_requires_block_len():
    with pytest.raises(ValueError):
        FmIndex.build(ABRA, 8, backend="forest")
    with pytest.raises(ValueError):
        FmIndex.build(ABRA, 8, backend="btree")


class CountingBackend:
    """Wraps a backend and counts rank calls."""

    def __init__(self, inner):
        self.inner = inner
        self.rank_calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def rank(self, *args, **kwargs):
        self.rank_calls += 1
        return self.inner.rank(*args, **kwargs)


def test_count_uses_two_ranks_per_symbol():
    fm = FmIndex.build(ABRA, 8)
    counting = CountingBackend(fm.backend)
    fm._backend = counting
    fm.count(pat_of("abra"))
    assert counting.rank_calls == 8
    counting.rank_calls = 0
    fm.count(pat_of("zbra"))  # empties at the final (leftmost) symbol
    assert counting.rank_calls == 8
    counting.rank_calls = 0
    fm.count(pat_of("az"))  # empties immediately, one symbol in
    assert counting.rank_calls == 2


def test_serialization_roundtrip_both_backends():
    rng = np.random.default_rng(11)
    text = rng.integers(0, 16, 400).astype(np.uint8)
    for backend, bl in (("tree", None), ("forest", 64)):
        fm = FmIndex.build(text, 4, backend=backend, block_len=bl)
        blob = fm.to_bytes()
        assert len(blob) == fm.size_bytes()
        assert blob[:4] == b"WFFM"
        assert blob[4] == 4
        copy, end = FmIndex.from_buffer(blob)
        assert end == len(blob)
        assert copy.to_bytes() == blob
        assert copy.backend_kind == backend
        assert copy.primary_index == fm.primary_index
        for m in (1, 2, 4):
            for _ in range(20):
                pat = rng.integers(0, 16, m).tolist()
                assert copy.count(pat) == fm.count(pat)


def test_count_trace_instrumentation():
    rng = np.random.default_rng(13)
    text = rng.integers(0, 256, 2000).astype(np.uint8)
    fm = FmIndex.build(text, 8, backend="forest", block_len=256)
    size = fm.size_bytes()
    for m in (1, 4, 8):
        pat = rng.integers(0, 256, m).tolist()
        t = []
        assert fm.count(pat, trace=t) == fm.count(pat)
        assert all(o % 8 == 0 and 0 <= o < size for o in t)


def test_bwt_dataclass_fields():
    bwt = Bwt(alphabet_bits=2, primary_index=0,
              transformed=np.array([4], dtype=np.uint8))
    assert bwt.sentinel == 4


def test_sixteen_bit_alphabet_is_rejected():
    with pytest.raises(ValueError, match="alphabet_bits"):
        FmIndex.build(np.array([1, 2, 3], np.uint16), 16)
    with pytest.raises(ValueError, match="alphabet_bits"):
        build_bwt(np.array([1, 2, 3], np.uint16), 16)


def test_fifteen_bit_alphabet_counts_correctly():
    rng = np.random.default_rng(31)
    text = rng.choice([0, 7, 4096, 32767], 1500).astype(np.uint16)
    for backend, bl in (("tree", None), ("forest", 256)):
        fm = FmIndex.build(text, 15, backend=backend, block_len=bl)
        assert fm.sentinel == 32768
        for m in (1, 2, 3, 5):
            for _ in range(10):
                start = int(rng.integers(0, len(text) - m + 1))
                pat = text[start:start + m].tolist()
                assert fm.count(pat) == naive_count(text.tolist(), pat)
        assert fm.count([1]) == 0


@pytest.mark.parametrize("kind", ["tree", "forest", "fm"])
def test_every_truncated_load_raises_value_error(kind):
    text = np.random.default_rng(37).integers(0, 16, 3000).astype(np.uint8)
    cls, structure = {
        "tree": (WaveletTree, lambda: WaveletTree.build(text, 4)),
        "forest": (WaveletForest, lambda: WaveletForest.build(text, 500, 4)),
        "fm": (FmIndex, lambda: FmIndex.build(text, 4, backend="forest",
                                              block_len=500)),
    }[kind]
    blob = structure().to_bytes()
    for end in range(0, len(blob), 8):
        with pytest.raises(ValueError):
            cls.from_bytes(blob[:end])


def test_load_rejects_a_header_that_disagrees_with_the_backend():
    fm = FmIndex.build(ABRA, 8, backend="forest", block_len=4)
    for word in (1, 2, 3, 3 + ord("b"), 3 + 256):  # n, primary, C entries
        blob = bytearray(fm.to_bytes())
        blob[8 * word] ^= 0x10
        with pytest.raises(ValueError):
            FmIndex.from_bytes(bytes(blob))


def test_a_text_too_long_for_int64_sort_keys_is_rejected():
    from waveletforest import fmindex
    limit = fmindex._MAX_TEXT
    assert (limit + 2) ** 2 <= np.iinfo(np.int64).max < (limit + 3) ** 2
    # A zero-stride view: limit + 1 symbols without the memory.
    text = np.broadcast_to(np.uint8(0), (limit + 1,))
    with pytest.raises(ValueError, match="too long"):
        build_bwt(text, 1)


def test_a_backend_section_must_be_a_tree_or_forest():
    fm = FmIndex.build(ABRA, 8)
    inner = FmIndex.build(ABRA, 8).to_bytes()
    back_at = len(fm.to_bytes()) - fm.backend.size_bytes()
    blob = fm.to_bytes()[:back_at] + inner
    with pytest.raises(ValueError, match="unrecognized FM-index backend"):
        FmIndex.from_bytes(blob)


@pytest.mark.parametrize("bits", [1, 8, 15])
@pytest.mark.parametrize("n", [0, 1, 3, 38, 39, 40, 300])
def test_packed_keys_equal_digit_by_digit_packing(bits, n):
    # Digits are symbol + 1, then 0 at the sentinel and past it; q is
    # the first sort's depth at each width (39, 7 and 4 symbols).
    base = (1 << bits) + 1
    q = {1: 39, 8: 7, 15: 4}[bits]
    dtype = np.uint16 if bits > 8 else np.uint8
    symbols = np.random.default_rng(n).integers(0, 1 << bits, n).astype(dtype)
    digits = symbols.astype(np.int64).tolist() + [-1] * (q + 1)
    want = [sum((digits[p + j] + 1) * base ** (q - 1 - j) for j in range(q))
            for p in range(n + 1)]
    assert _packed_keys(symbols, base, q).tolist() == want
