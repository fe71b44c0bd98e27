import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveletforest.huffman import CodeTable, build_code_table, zeroth_order_entropy

from oracles import entropy_bits, min_weighted_kraft_cost


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
