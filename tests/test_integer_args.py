"""Every public query takes any integer type for its integer arguments.

A numpy integer must answer exactly as the Python int of the same value
does: same value, same type. Arguments are kept inside the smallest
type's range (int8, up to 127), so each structure is small enough that
such positions still reach several forest blocks, rank-row word offsets
past 255 and FM-index rows across the whole text.
"""

import numpy as np
import pytest

from waveletforest.bitvec import BitVector
from waveletforest.fmindex import FmIndex
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree

INT_TYPES = (int, np.int8, np.int16, np.int32, np.int64,
             np.uint8, np.uint16, np.uint32, np.uint64)

N = 127  # the largest position every type above can hold
TEXT = np.random.default_rng(11).integers(0, 4, N).astype(np.uint8)


def _same(calls, as_type):
    """Each (query, args) answers the same with args cast to as_type."""
    for query, args in calls:
        want = query(*args)
        got = query(*map(as_type, args))
        assert (got, type(got)) == (want, type(want)), (query, args)


def _trees_calls(s):
    calls = [(s.access, (i,)) for i in range(1, N + 1)]
    calls += [(s.rank, (c, i)) for c in range(4) for i in range(0, N + 1, 3)]
    hist = np.bincount(TEXT, minlength=4)
    calls += [(s.select, (c, j)) for c in range(4)
              for j in range(1, hist[c] + 1)]
    return calls


@pytest.mark.parametrize("as_type", INT_TYPES, ids=lambda t: t.__name__)
def test_numpy_integer_arguments(as_type):
    tree = WaveletTree.build(TEXT, 2)
    forest = WaveletForest.build(TEXT, 4, 2)
    # Block 31's rank row starts past word 255, where a uint8 symbol
    # added to the row's offset would wrap.
    assert forest.block_count == 32
    assert forest.block_section_offset(31) // 8 > 255
    _same(_trees_calls(tree) + _trees_calls(forest), as_type)

    fm = FmIndex.build(TEXT, 2, backend="forest", block_len=8)
    calls = [(q, (r,)) for q in (fm.bwt_symbol, fm.lf_step)
             for r in range(N + 1)]
    _same(calls, as_type)
    for lo in range(0, N - 3, 5):
        pattern = TEXT[lo:lo + 3].tolist()
        want = fm.count(pattern)
        assert fm.count([as_type(c) for c in pattern]) == want
        assert fm.count(np.array(pattern, np.int8)) == want

    bits = np.random.default_rng(12).integers(0, 2, N)
    bv = BitVector.from_bits(bits)
    calls = [(bv.access, (i,)) for i in range(1, N + 1)]
    calls += [(q, (i,)) for q in (bv.rank1, bv.rank0) for i in range(N + 1)]
    calls += [(bv.select1, (j,)) for j in range(1, bv.num_ones + 1)]
    calls += [(bv.select0, (j,)) for j in range(1, bv.num_zeros + 1)]
    _same(calls, as_type)


def test_float_position_raises_type_error():
    tree = WaveletTree.build(TEXT, 2)
    forest = WaveletForest.build(TEXT, 4, 2)
    fm = FmIndex.build(TEXT, 2)
    bv = BitVector.from_bits(TEXT & 1)
    for query, args in [(tree.access, (2.0,)), (forest.access, (2.0,)),
                        (tree.rank, (1, 2.0)), (forest.select, (1, 1.0)),
                        (fm.bwt_symbol, (2.0,)), (fm.lf_step, (2.0,)),
                        (bv.access, (2.0,)), (bv.rank1, (2.0,)),
                        (bv.select1, (1.0,))]:
        with pytest.raises(TypeError):
            query(*args)
