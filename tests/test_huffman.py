import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletforest.huffman import (CodeTable, build_code_table, code_lengths,
                                   zeroth_order_entropy)

from oracles import entropy_bits, heap_code_lengths, min_weighted_kraft_cost


def test_known_skewed_lengths():
    table = build_code_table({ord("a"): 5, ord("b"): 2, ord("c"): 1, ord("d"): 1})
    by_sym = {chr(s): l for s, l in table.lengths.items()}
    assert by_sym == {"a": 1, "b": 2, "c": 3, "d": 3}


def test_single_symbol_zero_length():
    table = build_code_table({ord("a"): 7})
    assert table.lengths == {ord("a"): 0}
    assert table.codes == {ord("a"): 0}
    assert table.max_length == 0


def test_two_symbols():
    table = build_code_table({ord("a"): 1, ord("b"): 1})
    assert table.lengths == {ord("a"): 1, ord("b"): 1}
    assert table.codes[ord("a")] == 0
    assert table.codes[ord("b")] == 1


def test_uniform_power_of_two_is_fixed_width():
    for bits in (1, 2, 3, 4):
        table = build_code_table({s: 10 for s in range(1 << bits)})
        assert set(table.lengths.values()) == {bits}


def test_invalid_inputs():
    with pytest.raises(ValueError):
        build_code_table({})
    with pytest.raises(ValueError):
        build_code_table({3: 0})
    with pytest.raises(ValueError):
        build_code_table({3: -2})
    with pytest.raises(ValueError):
        build_code_table({-1: 5})


def test_determinism_independent_of_dict_order():
    freqs = {s: (s * 37) % 11 + 1 for s in range(40)}
    shuffled = list(freqs.items())
    random.Random(0).shuffle(shuffled)
    a = build_code_table(freqs)
    b = build_code_table(dict(shuffled))
    assert a.lengths == b.lengths
    assert a.codes == b.codes


def test_ties_broken_by_smallest_symbol():
    # All weights equal: every merge order is cost-equal, so the result
    # is pinned purely by the (weight, min symbol) heap order.
    a = build_code_table({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1})
    b = build_code_table({5: 1, 4: 1, 3: 1, 2: 1, 1: 1, 0: 1})
    assert a.lengths == b.lengths
    assert a.codes == b.codes


def kraft_sum(table):
    return sum(Fraction(1, 2 ** l) for l in table.lengths.values())


def codes_prefix_free(table):
    words = [format(table.codes[s], f"0{l}b") if l else ""
             for s, l in table.lengths.items()]
    for i, w in enumerate(words):
        for j, v in enumerate(words):
            if i != j and v.startswith(w):
                return False
    return True


@pytest.mark.parametrize("seed", range(8))
def test_optimality_against_exhaustive_oracle(seed):
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    freqs = {s: rng.randint(1, 40) for s in rng.sample(range(100), k)}
    table = build_code_table(freqs)
    cost = sum(freqs[s] * l for s, l in table.lengths.items())
    assert cost == min_weighted_kraft_cost(freqs)
    assert kraft_sum(table) == 1
    assert codes_prefix_free(table)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.integers(0, 300), st.integers(1, 10_000),
                       min_size=2, max_size=40))
def test_kraft_equality_and_prefix_freedom(freqs):
    table = build_code_table(freqs)
    assert kraft_sum(table) == 1
    assert codes_prefix_free(table)
    # Canonical codes ascend with (length, symbol) order.
    entries = table.sorted_entries()
    for (s1, l1), (s2, l2) in zip(entries, entries[1:]):
        c1, c2 = table.codes[s1], table.codes[s2]
        assert c1 << (l2 - l1) < c2


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 255), st.integers(1, 5000),
                       min_size=2, max_size=64))
def test_mean_length_within_entropy_bound(freqs):
    table = build_code_table(freqs)
    h0 = zeroth_order_entropy(freqs)
    mean = table.mean_length(freqs)
    assert h0 - 1e-9 <= mean < h0 + 1


def test_entropy_known_values():
    assert zeroth_order_entropy({ord("a"): 4}) == 0.0
    assert zeroth_order_entropy({ord("a"): 1, ord("b"): 1}) == pytest.approx(1.0)
    assert zeroth_order_entropy({ord("a"): 3, ord("b"): 1}) == pytest.approx(
        0.811278, abs=1e-6)
    assert zeroth_order_entropy({}) == 0.0
    with pytest.raises(ValueError):
        zeroth_order_entropy({1: -3})


def test_canonical_reconstruction_from_lengths_alone():
    freqs = {s: (s % 7) * 13 + 1 for s in range(50)}
    table = build_code_table(freqs)
    rebuilt = CodeTable.from_lengths(table.lengths)
    assert rebuilt.codes == table.codes


def test_codes_longer_than_64_bits_are_rejected():
    fib = [1, 1]
    while len(fib) < 66:
        fib.append(fib[-1] + fib[-2])
    table = build_code_table(dict(enumerate(fib)))
    assert table.max_length == 65
    with pytest.raises(ValueError, match="64 bits"):
        table.codes


def fibonacci(terms):
    fib = [1, 1]
    while len(fib) < terms:
        fib.append(fib[-1] + fib[-2])
    return fib[:terms]


def mixed_tables():
    """Weight lists of 1 to 300 symbols: random, all equal, tie-heavy
    small counts, shuffled Fibonacci runs (66 terms among them), and one
    table of 65 536 symbols."""
    rng = random.Random(7)
    tables = [[5], [1, 1], fibonacci(66)]
    for k in list(range(1, 301)) + [rng.randint(1, 300) for _ in range(300)]:
        kind = k % 4
        if kind == 0:
            tables.append([rng.randint(1, 10**6) for _ in range(k)])
        elif kind == 1:
            tables.append([rng.choice((1, 9, 1000))] * k)
        elif kind == 2:
            tables.append([rng.randint(1, 3) for _ in range(k)])
        else:
            w = fibonacci(min(k, 40))
            rng.shuffle(w)
            tables.append(w)
    tables.append([rng.randint(1, 64) for _ in range(1 << 16)])
    return tables


def test_one_call_over_many_tables_matches_the_heap_oracle():
    tables = mixed_tables()
    table = np.repeat(np.arange(len(tables)), [len(w) for w in tables])
    got = code_lengths(table, np.concatenate(tables)).tolist()
    want = [ln for w in tables
            for ln in heap_code_lengths(dict(enumerate(w))).values()]
    assert got == want
    # The one-table case agrees as well.
    for w in tables[:40] + [fibonacci(66)[::-1]]:
        assert build_code_table(dict(enumerate(w))).lengths == \
            heap_code_lengths(dict(enumerate(w)))


def test_counts_too_large_for_the_merge_keys_are_rejected():
    # Two symbols take one bit of rank, so the total plus one (table)
    # must stay within 2^62.
    assert build_code_table({0: 2**62 - 2, 1: 1}).lengths == {0: 1, 1: 1}
    for freqs in ({0: 2**62 - 1, 1: 1}, {0: 2**63, 1: 1}, {0: 2**70}):
        with pytest.raises(ValueError, match="63-bit"):
            build_code_table(freqs)
    # 2^17 symbols take 17 bits of rank, so the total must stay below
    # 2^46.
    counts = np.ones(1 << 17, np.int64)
    counts[0] = 2**46 - (1 << 17) + 1
    with pytest.raises(ValueError, match="63-bit"):
        code_lengths(np.zeros(1 << 17, np.int64), counts)
    # A sum that wraps int64 on the way is caught, though it ends at 0.
    with pytest.raises(ValueError, match="63-bit"):
        code_lengths(np.zeros(4, np.int64), [2**62] * 4)
    # Every table adds one to the sum of the counts.
    with pytest.raises(ValueError, match="63-bit"):
        code_lengths(np.arange(8) // 2, [2**60 - 1, 1] * 4)
    assert code_lengths(np.arange(8) // 2,
                        [2**60 - 2, 1] * 4).tolist() == [1] * 8
