"""Huffman-shaped wavelet trees, built and queried as flat arrays.

A tree's shape is the canonical Huffman code of its symbol histogram:
a symbol with code length L sits at depth L, code bit 0 meaning left.
Each internal node stores one bitvector holding, for every symbol routed
through it, the code bit consumed there. access descends resolving bits,
rank descends along the query symbol's code, select ascends it. With
one distinct symbol the tree is a bare leaf and stores no nodes.

The serialized layout is the in-memory structure: a tree is one array of
u64 words in the layout below, and a wavelet forest is one array holding
a tree section per block. _Trees indexes any number of tree sections in
such an array, and answers access, rank and select on them: a block,
then a descent in its tree. A WaveletTree is the one-block case
(block_len max(n, 1)), and a forest differs only in _before, its rank
row read. build_trees constructs all tree sections of a text level by
level, as a wavelet matrix is built: each position carries its symbol's
code as one narrow word, left-aligned and followed by a marker bit, and
every level stably partitions the words by their top bit and shifts it
out.

The index is a set of flat numpy tables, read by the queries item by
item through memoryviews: per node its word offsets, length and
children, per tree its root, a dense table from
(block << alphabet_bits) + symbol to the symbol's code in that block
behind a 1 marker bit, (1 << length) | code, 0 where the block lacks it,
and per-symbol tables over the (block, symbol) entries ordered by
(symbol, block): where each symbol's run starts, the symbol's count
through each block that holds it, and that block's number. rank and
select read one item of the dense table for the whole code; select
finds its block by one bisect of its symbol's run of counts, so it reads
no other block's words. These tables are read out of band: a query's
trace holds only the serialized words it reads. Each table is held in
the narrowest integer type that the bounds loading already knows allow
(_bits.table): the buffer's length for word offsets, block_len for node
lengths, the node count and alphabet for children and roots, the
deepest code for the dense table, n for the counts. The dense table
then takes one byte per (block, symbol) where every code is at most 7
bits and two up to 15 bits, an eighth or a quarter of a forest's u64
rank rows. Loading derives every table and checks the sections against
each other: headers, block symbol counts against n and block_len,
canonical code tables forming complete prefix codes, node counts,
offsets and bitvector sections inside the buffer and sharing no word,
and each node's length against its parent's zero or one count, or for a
root its block's symbol count, with every leaf holding a symbol.

Positions are 1-based throughout, matching the bitvectors underneath.
Public queries take any integer type and convert it with operator.index,
so the word arithmetic runs on Python ints; a numpy int would overflow.
"""

from __future__ import annotations

import operator
from bisect import bisect_left

import numpy as np

from . import bitvec
from ._bits import (_U64, WordBuffer, _ceil8, header_fields, header_word,
                    narrowest, ranges, read_words, table, truncated,
                    word_view)
from .huffman import CodeTable, canonical_codes, code_lengths
# Unused here: perfbench's traced run wraps wtree.build_code_table by name.
from .huffman import build_code_table  # noqa: F401

MAGIC = b"WFWT"
VERSION = 1

# Serialized layout, offsets relative to the section start:
#   0  magic "WFWT", version u8, alphabet_bits u8, 2 zero bytes
#   8  n, u64
#   16 code table (count u64, then (symbol u64, length u64) pairs
#      ordered by (length, symbol))
#      node count u64
#      node byte offsets, u64 each, relative to the section start
#      node bitvector sections in preorder (a node, its left subtree,
#      then its right subtree), zero-padded so each section's
#      packed-words array starts on a 64-byte boundary (a rank's
#      superblock scan then never splits a cache line); the offsets
#      above are in BFS node order, and locate every section
# In words: a node section starts at this word offset mod 8.
_NODE_ALIGN = -bitvec.WORDS_AT % 8

# Text positions routed per array pass while building; bounds the
# scratch memory of a build independently of the text length.
_CHUNK = 1 << 21
# Blocks at least this long get chunks of their own: a chunk's routing
# keys are then the symbols themselves, with no per-position block
# offsets built, and the per-chunk Python work stays small beside it.
_OWN_CHUNK = 1 << 16


def _shape(ek, el, ncodes):
    """Shapes of the canonical-Huffman-shaped trees of a code table.

    ek and el hold the tree and code length of every entry, entries of a
    tree contiguous and ordered by (length, symbol); ncodes counts the
    entries per tree. In a canonical code the nodes at each depth, in
    prefix order, are that depth's leaves followed by its internal
    nodes, so a tree's shape follows from its leaf count per depth, and
    the internal nodes at depth d hold the prefixes 2^d - inner .. 2^d - 1.
    Nodes are numbered in BFS order, tree after tree; their sections
    are placed in preorder (_node_layout). A code and a marker bit must
    fit a u64 word; a 64-bit code takes about F(66) symbols.

    Returns the entries' u64 code values, the internal node count
    per (tree, depth), the index of each (tree, depth)'s first node, the
    depth of every node, and its left and right child: a child >= 0 is a
    node, a child < 0 the leaf of entry -child - 1.
    """
    m = len(ncodes)
    estart = np.cumsum(ncodes) - ncodes
    if ((el == 0) != (ncodes[ek] == 1)).any() or (el < 0).any():
        raise ValueError("code lengths do not form a prefix code")
    if (el > 63).any():
        raise ValueError("a 64-bit code leaves no room for its marker bit")
    codes = canonical_codes(el, estart[ek])

    depth = int(el.max()) + 1 if el.size else 1
    leaves = np.bincount(ek * depth + el, minlength=m * depth).reshape(m, depth)
    inner = np.zeros((m, depth), np.int64)
    inner[:, 0] = ncodes >= 2
    for d in range(depth - 1):
        inner[:, d + 1] = 2 * inner[:, d] - leaves[:, d + 1]
    if (inner < 0).any() or inner[:, -1].any():
        raise ValueError("code lengths do not form a complete prefix code")
    per_tree = inner.sum(axis=1)
    first = ((np.cumsum(per_tree) - per_tree)[:, None]
             + np.cumsum(inner, axis=1) - inner)
    leaf_first = estart[:, None] + np.cumsum(leaves, axis=1) - leaves

    # inner[:, -1] is zero, so a node's children sit one depth down: in
    # the flat (tree, depth) cells, the cell after its own.
    cells = inner.ravel()
    cell = np.repeat(np.arange(cells.size), cells)
    nd = cell % depth
    below = cell + 1
    nleaf = leaves.ravel()[below]
    slot = (2 * ranges(np.zeros(cells.size, np.int64), cells)
            + np.arange(2)[:, None])
    children = np.where(slot < nleaf, -(leaf_first.ravel()[below] + slot) - 1,
                        first.ravel()[below] - nleaf + slot)
    return codes, inner, first, nd, children[0], children[1]


def _select_tables(ek, es, freq, sigma: int, n: int, m: int):
    """The symbols' histogram, and select's tables over the entries
    (block ek, symbol es, freq symbols), which arrive in block order, one
    per (block, symbol): taken in (symbol, block) order, where each
    symbol's run starts, its count through each block of the run, and
    that block. The histogram is each run's last count."""
    order = np.argsort(es.astype(narrowest(sigma - 1)), kind="stable")
    per = np.bincount(es, minlength=sigma)
    start = np.zeros(sigma + 1, np.int64)
    np.cumsum(per, out=start[1:])
    cum = np.zeros(len(es) + 1, narrowest(n))
    np.cumsum(freq[order], dtype=cum.dtype, out=cum[1:])
    below = cum[start]  # below[c]: occurrences of the symbols below c
    counts = cum[1:]
    counts -= np.repeat(below[:-1], per)
    return (np.diff(below).astype(np.int64), table(start, len(es)),
            table(counts, n), table(ek[order], m))


class _Trees(WordBuffer):
    """Flat index over the tree sections of one u64 word buffer."""

    __slots__ = ("_n", "_block_len", "_alphabet_bits", "_hist", "_tree_end",
                 "_data_words", "_root", "_code", "_nw", "_nd", "_nlen",
                 "_left", "_right", "_sel_start", "_sel_cum", "_sel_block")

    def _index(self, buf: np.ndarray, tree_at: np.ndarray, alphabet_bits: int,
               min_end: int = 0) -> None:
        """Derive the query tables from the tree sections at word offsets
        tree_at of buf, one per block of the _n symbols in blocks of
        _block_len, and keep buf up to the furthest section's end (at
        least min_end words). Built and loaded structures both come here."""
        sigma = 1 << alphabet_bits
        m = len(tree_at)
        ncodes = read_words(buf, tree_at + 2)
        # Block k holds min(block_len, n - k * block_len) symbols (word 1
        # of its tree section), and has a code table if it holds any.
        k, bl, held = np.arange(m, dtype=_U64), self._block_len, buf[tree_at + 1]
        if ((held != np.minimum(bl, self._n - bl * k))
                | ((held > 0) != (ncodes > 0))).any():
            raise ValueError("blocks disagree with n, block_len or code tables")
        for word in np.unique(buf[tree_at]).tolist():
            if header_fields(word, MAGIC, "wavelet tree", VERSION) != alphabet_bits:
                raise ValueError("tree alphabet differs from the structure's")
        count_at = tree_at + 3 + 2 * ncodes
        nnodes = read_words(buf, count_at)
        if (nnodes != np.maximum(ncodes - 1, 0)).any():
            raise ValueError("node count does not match code table")
        estart = np.cumsum(ncodes) - ncodes
        pairs = buf[ranges(tree_at + 3, 2 * ncodes)].astype(np.int64)
        es, el = pairs[0::2], pairs[1::2]
        if ((es < 0) | (es >= sigma)).any():
            raise ValueError("code table symbol outside the alphabet")
        ek = np.repeat(np.arange(m), ncodes)
        codes, inner, first, _, left, right = _shape(ek, el, ncodes)
        deepest = inner.shape[1] - 1

        nk = np.repeat(np.arange(m), nnodes)
        starts = tree_at[nk] + read_words(buf, ranges(count_at + 1, nnodes),
                                          8 * len(buf)) // 8
        lengths, ones, sizes = bitvec.read_sections(buf, starts)
        # A tree ends at the furthest end of its offset table and node
        # sections, wherever the offsets put them; nodes group by tree.
        tree_end = count_at + 1
        has = nnodes > 0
        tree_end[has] = np.maximum(tree_end[has], np.maximum.reduceat(
            starts + sizes, first[has, 0]))

        # A root holds its whole block (word 1 of its tree section), a
        # child its parent's zeros (left) or ones (right), and a leaf at
        # least one symbol; so no node holds more than block_len symbols
        # and no block more than block_len entries.
        child = np.concatenate([left, right, first[has, 0]])
        count = np.concatenate([lengths - ones, ones,
                                buf[tree_at[has] + 1].astype(np.int64)])
        node = child >= 0
        if (lengths[child[node]] != count[node]).any():
            raise ValueError("node lengths do not match their parents' bit counts")
        if (count[~node] < 1).any():
            raise ValueError("a leaf of the code holds no symbols")
        # Each entry's count: a leaf holds its parent's zeros or ones; a
        # lone symbol holds its whole block.
        lone = ncodes == 1
        leaf = -child[~node] - 1
        freq = np.empty(len(es), narrowest(self._block_len))
        freq[leaf] = count[~node]
        freq[estart[lone]] = buf[tree_at[lone] + 1]
        child[~node] = -es[leaf] - 1  # the query tables' leaf encoding

        root = first[:, 0].copy()
        root[lone] = -es[estart[lone]] - 1
        root[ncodes == 0] = -1
        # (block << alphabet_bits) + symbol -> the symbol's code in its
        # block behind a 1 marker bit, 0 where the block lacks it.
        code = np.zeros(m << alphabet_bits, narrowest((2 << deepest) - 1))
        code[(ek << alphabet_bits) + es] = codes | 1 << el.astype(_U64)
        # Canonical tables, as built and as canonical_codes assumes:
        # (length, symbol) strictly increasing, no symbol in two entries.
        if ((np.diff((ek * 65 + el) * sigma + es) <= 0).any()
                or np.count_nonzero(code) != len(es)):
            raise ValueError("code table not canonical")
        nw, nd = bitvec.section_offsets(starts, lengths)

        nodes = len(lengths)
        self._buf = buf[:max(int(tree_end.max(initial=0)), min_end)]
        self._mv = word_view(self._buf)
        self._alphabet_bits = alphabet_bits
        self._hist, self._sel_start, self._sel_cum, self._sel_block = (
            _select_tables(ek, es, freq, sigma, self._n, m))
        self._tree_end = tree_end
        self._data_words = int(sizes.sum())
        self._root = table(root, nodes, -sigma)
        self._code = memoryview(code)
        self._nw = table(nw, len(buf))
        self._nd = table(nd, len(buf))
        self._nlen = table(lengths, self._block_len)
        self._left = table(child[:len(left)], nodes, -sigma)
        self._right = table(child[len(left):2 * len(left)], nodes, -sigma)

    def index_bytes(self) -> int:
        """Bytes of the query tables that loading derives and keeps
        beside the serialized words."""
        return sum(t.nbytes for t in (
            self._hist, self._tree_end, self._root, self._code, self._nw,
            self._nd, self._nlen, self._left, self._right, self._sel_start,
            self._sel_cum, self._sel_block))

    # -- queries: block k = (i - 1) // block_len, then inside its tree --

    def _before(self, mv, k: int, c: int) -> int:
        """Occurrences of c before block k; a lone tree has none."""
        return 0

    def access(self, i: int, trace=None, base: int = 0) -> int:
        """Symbol at position i; resolved inside block (i-1)//block_len."""
        i = operator.index(i)
        if i < 1 or i > self._n:
            raise IndexError(f"position {i} out of range 1..{self._n}")
        k = (i - 1) // self._block_len
        return self._access_in(self._reader(trace, base), k,
                               i - k * self._block_len)

    def rank(self, c: int, i: int, trace=None, base: int = 0) -> int:
        """Occurrences of c in positions 1..i: before i's block, then in it."""
        c, i = self._symbol(c), operator.index(i)
        if i < 0 or i > self._n:
            raise IndexError(f"position {i} out of range 0..{self._n}")
        if i == 0:
            return 0
        k = (i - 1) // self._block_len
        mv = self._reader(trace, base)
        return self._before(mv, k, c) + self._rank_in(
            mv, k, c, i - k * self._block_len)

    def select(self, c: int, j: int, trace=None, base: int = 0) -> int:
        """Position of the j-th occurrence of c: in the first block whose
        count of c through it reaches j, found by one search of c's run
        of the per-symbol tables, then inside that block's tree."""
        c, j = self._symbol(c), operator.index(j)
        total = int(self._hist[c])
        if j < 1 or j > total:
            raise ValueError(f"symbol {c} occurs {total} times, ordinal {j}")
        lo = self._sel_start[c]
        at = bisect_left(self._sel_cum, j, lo, self._sel_start[c + 1])
        k = self._sel_block[at]
        before = self._sel_cum[at - 1] if at > lo else 0
        return k * self._block_len + self._select_in(
            self._reader(trace, base), k, c, j - before)

    # -- queries inside one tree, reading words through mv ------------

    def _access_in(self, mv, k: int, i: int) -> int:
        nw, nd = self._nw, self._nd
        node = self._root[k]
        while node >= 0:
            w = nw[node]
            bit = (mv[w + ((i - 1) >> 6)] >> ((i - 1) & 63)) & 1
            ones = bitvec.rank1(mv, w, nd[node], i)
            if bit:
                i, node = ones, self._right[node]
            else:
                i, node = i - ones, self._left[node]
        return -node - 1

    def _rank_in(self, mv, k: int, c: int, i: int) -> int:
        code = self._code[(k << self._alphabet_bits) + c]
        if not code:
            return 0
        nw, nd = self._nw, self._nd
        node = self._root[k]
        for shift in range(code.bit_length() - 2, -1, -1):
            ones = bitvec.rank1(mv, nw[node], nd[node], i)
            if (code >> shift) & 1:
                i, node = ones, self._right[node]
            else:
                i, node = i - ones, self._left[node]
        return i

    def _select_in(self, mv, k: int, c: int, j: int) -> int:
        """j-th occurrence of c in tree k; the caller checks 1 <= j <= count."""
        code = self._code[(k << self._alphabet_bits) + c]
        path = []
        node = self._root[k]
        for shift in range(code.bit_length() - 2, -1, -1):
            bit = (code >> shift) & 1
            path.append((node, bit))
            node = self._right[node] if bit else self._left[node]
        for node, bit in reversed(path):
            j = bitvec.select(mv, self._nw[node], self._nd[node],
                              self._nlen[node], j, bit)
        return j

    def _symbol(self, c) -> int:
        c = operator.index(c)
        if c < 0 or c >= (1 << self._alphabet_bits):
            raise ValueError(
                f"symbol {c} outside alphabet 0..{(1 << self._alphabet_bits) - 1}")
        return c

    # -- common accessors ----------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def alphabet_bits(self) -> int:
        return self._alphabet_bits

    @property
    def histogram(self) -> np.ndarray:
        return self._hist


def _chunks(n: int, block_len: int, sigma: int):
    """(lo, hi, k0, k1): position ranges of at most _CHUNK symbols, each
    either whole blocks k0..k1-1 or a piece of the one block k0, with
    (k1 - k0) * sigma bounded by _CHUNK as well. Blocks of _OWN_CHUNK
    symbols or more never share a chunk."""
    m = -(-n // block_len)
    step = (1 if block_len >= _OWN_CHUNK
            else max(1, min(_CHUNK // block_len, _CHUNK // sigma)))
    for k0 in range(0, m, step):
        k1 = min(k0 + step, m)
        end = min(k1 * block_len, n)
        for lo in range(k0 * block_len, end, _CHUNK):
            yield lo, min(lo + _CHUNK, end), k0, k1


def _chunk_keys(symbols, lo, hi, k0, k1, block_len, sigma):
    """(block - k0) * sigma + symbol for the positions lo..hi-1."""
    if k1 - k0 == 1:
        return symbols[lo:hi]
    key = np.repeat(np.arange(k1 - k0) * sigma, block_len)[:hi - lo]
    key += symbols[lo:hi]
    return key


def _block_histograms(symbols, chunks, block_len, m, sigma):
    """(m, sigma) symbol counts of every block: a bincount over
    (block - k0) * sigma + symbol per chunk."""
    counts = np.zeros((m, sigma), np.int64) if len(chunks) != 1 else None
    for lo, hi, k0, k1 in chunks:
        key = _chunk_keys(symbols, lo, hi, k0, k1, block_len, sigma)
        part = np.bincount(key, minlength=(k1 - k0) * sigma).reshape(-1, sigma)
        if counts is None:
            counts = part
        else:
            counts[k0:k1] += part
    return counts


def _node_layout(freq, nd, left, right, depth):
    """Length, set bits and section words of every node's bitvector, from
    the entries' counts freq (in the order _shape's leaves refer to), and
    each section's word offset from its root's. Sections go in preorder
    at 8-word strides, so a descent's lower levels read neighbouring
    sections: a left child starts where its parent's section ends, a
    right child after its left sibling's subtree."""
    # Slots 0..n-1 are the nodes, slot n + e the leaf of entry e: a
    # leaf holds freq[e] symbols, no set bits of its own and no sections.
    n = len(nd)
    levels = []
    for d in range(depth):
        at = np.flatnonzero(nd == d)
        levels.append((at, *(np.where(c < 0, n - 1 - c, c)
                             for c in (left[at], right[at]))))
    nlen = np.concatenate([np.zeros(n, np.int64), freq])
    nones = np.zeros(n, np.int64)
    sizes = np.zeros(n, np.int64)
    subtree = np.zeros(len(nlen), np.int64)  # strides summed over it
    for at, lo, hi in reversed(levels):
        ones = nones[at] = nlen[hi]
        length = nlen[at] = nlen[lo] + ones
        words = sizes[at] = bitvec.section_words(length, ones)
        subtree[at] = _ceil8(words) + subtree[lo] + subtree[hi]
    rel = np.zeros(len(nlen), np.int64)
    for at, lo, hi in levels:
        rel[lo] = rel[at] + _ceil8(sizes[at])
        rel[hi] = rel[lo] + subtree[lo]
    return nlen[:n], nones, sizes, rel[:n]


def build_trees(symbols, block_len: int, m: int, alphabet_bits: int, place):
    """Build the tree sections of the m blocks of block_len symbols.

    place(tree_words, counts) gets every tree section's size in words
    and the (m, 2^bits) block histograms; it allocates the zeroed u64
    buffer, writes whatever surrounds the trees, and returns the buffer
    and each tree section's word offset (a multiple of 8). This fills
    in the tree sections and returns the buffer.

    Raises ValueError (in _shape) if a block's Huffman code is 64 bits
    deep: a position's routing word would have no marker bit left.
    """
    n = int(symbols.size)
    sigma = 1 << alphabet_bits
    chunks = list(_chunks(n, block_len, sigma))
    counts = _block_histograms(symbols, chunks, block_len, m, sigma)
    # Entries: the (block, symbol) pairs that occur, in block order.
    ek, es = np.nonzero(counts)
    ef = counts[ek, es]
    ncodes = np.bincount(ek, minlength=m)
    rank = np.arange(len(ek)) - (np.cumsum(ncodes) - ncodes)[ek]
    el = code_lengths(ek, ef)

    # Canonical entry order (tree, length, symbol) and the tree shapes.
    # Entries arrive in (block, symbol) order, so a stable sort by
    # (block, length) orders them by (block, length, symbol).
    order = np.argsort(ek * 65 + el, kind="stable")
    codes_c, inner, first, nd, left, right = _shape(ek[order], el[order],
                                                    ncodes)
    codes = np.empty_like(codes_c)
    codes[order] = codes_c
    depth = inner.shape[1] - 1
    nlen, nones, sizes, rel = _node_layout(ef[order], nd, left, right,
                                           depth)

    # Section layout, in words from each tree section's start: header,
    # code table, node offsets, then node sections in preorder at 8-word
    # strides so each one's packed words start on a cache line.
    nnodes = np.maximum(ncodes - 1, 0)
    nk = np.repeat(np.arange(m), nnodes)
    head = 4 + 2 * ncodes + nnodes
    rel += (head + (_NODE_ALIGN - head) % 8)[nk]
    # In a canonical shape the last node in BFS order, the all-ones one
    # above the deepest leaves, is also the last in preorder.
    tree_words = head.copy()
    has = nnodes > 0
    last = first[has, 0] + nnodes[has] - 1
    tree_words[has] = rel[last] + sizes[last]

    buf, tree_at = place(tree_words, counts)
    del counts
    tree_at = np.asarray(tree_at, np.int64)
    buf[tree_at] = header_word(MAGIC, VERSION, alphabet_bits)
    buf[tree_at + 1] = np.minimum(block_len, n - block_len * np.arange(m))
    buf[tree_at + 2] = ncodes
    # Both entry orders group entries by block, so an entry's block and
    # rank within it are the same in either.
    ent_at = tree_at[ek] + 3 + 2 * rank
    buf[ent_at] = es[order]
    buf[ent_at + 1] = el[order]
    count_at = tree_at + 3 + 2 * ncodes
    buf[count_at] = nnodes
    buf[count_at[nk] + 1 + np.arange(len(nk)) - first[nk, 0]] = 8 * rel
    starts = tree_at[nk] + rel
    words_at = bitvec.section_offsets(starts, nlen)[0]

    # Route every position down its block's tree, one depth at a time,
    # as in wavelet matrix construction. A position carries one word:
    # its entry's code, left-aligned, then a 1 marker, in the narrowest
    # unsigned type that holds the deepest code and the marker. Its code
    # bit at each depth is word >= top, and shifting the word left after
    # each depth leaves exactly top once its code has ended, at a leaf.
    # The positions still descending are stably partitioned by their
    # code bit, which keeps every node's positions in one run, in text
    # order. Runs then follow their parents' order, left children first.
    entry_at = np.append(np.cumsum(ncodes) - ncodes, len(ek))
    word_type = next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                     if np.iinfo(t).bits > depth)
    width = np.iinfo(word_type).bits
    top = word_type(1 << (width - 1))
    marked = ((codes << np.uint64(1) | np.uint64(1))
              << (width - 1 - el).astype(np.uint64)).astype(word_type)
    filled = np.zeros(len(nk), np.int64)  # bits already routed per node
    for lo, hi, k0, k1 in chunks:
        if not (ncodes[k0:k1] > 1).any():
            continue
        # x: each position's marked code, through a dense (block, symbol)
        # table.
        e_lo, e_hi = entry_at[k0], entry_at[k1]
        table = np.zeros((k1 - k0) * sigma, word_type)
        table[(ek[e_lo:e_hi] - k0) * sigma + es[e_lo:e_hi]] = marked[e_lo:e_hi]
        x = table[_chunk_keys(symbols, lo, hi, k0, k1, block_len, sigma)]
        del table
        # Depth 0: one run per block that has a root, its whole share of
        # the chunk. A lone symbol's empty code reads top already.
        blocks = np.arange(k0, k1)
        run_len = (np.minimum(hi, (blocks + 1) * block_len)
                   - np.maximum(lo, blocks * block_len))
        if (ncodes[k0:k1] == 1).any():
            x = np.compress(x != top, x)
            run_len = run_len[ncodes[k0:k1] > 1]
            blocks = blocks[ncodes[k0:k1] > 1]
        run_node = first[blocks, 0]
        for d in range(depth):
            bit = x >= top
            run_start = np.cumsum(run_len) - run_len
            _copy_runs(buf, np.packbits(bit, bitorder="little"), run_start,
                       run_len, 64 * words_at[run_node] + filled[run_node])
            filled[run_node] += run_len
            if d + 1 == depth:
                break
            # Runs hold at most _CHUNK positions.
            ones = np.add.reduceat(bit, run_start, dtype=np.int32)
            x <<= 1
            on = x != top
            x = np.concatenate([np.compress(on & ~bit, x),
                                np.compress(on & bit, x)])
            child = np.concatenate([left[run_node], right[run_node]])
            count = np.concatenate([run_len - ones, ones])
            keep = (child >= 0) & (count > 0)
            run_node, run_len = child[keep], count[keep]
            if not len(x):
                break

    bitvec.write_sections(buf, starts, nlen, nones)
    return buf


def _copy_runs(buf, packed, src_start, length, dst_bit) -> None:
    """OR run r of the packed bit string (bits src_start[r] onwards,
    length[r] of them) into buf at bit address dst_bit[r]; runs must not
    share destination words. Works a destination word at a time."""
    src = np.zeros(2 + -(-len(packed) // 8), _U64)
    src.view(np.uint8)[8:8 + len(packed)] = packed  # one zero word first
    last = (dst_bit + length - 1) >> 6
    nwords = last - (dst_bit >> 6) + 1
    word = ranges(dst_bit >> 6, nwords)
    run = np.repeat(np.arange(len(length)), nwords)
    pos = src_start[run] + 64 * word - dst_bit[run] + 64  # >= 1
    q, sh = pos >> 6, (pos & 63).astype(np.uint64)
    val = (src[q] >> sh) | np.where(sh > 0, src[q + 1] << (np.uint64(64) - sh)
                                    % np.uint64(64), np.uint64(0))
    full = ~np.uint64(0)
    lead = np.where(word == dst_bit[run] >> 6, dst_bit[run] & 63, 0)
    val &= full << lead.astype(np.uint64)
    end = (dst_bit + length) & 63
    trail = np.where((word == last[run]) & (end[run] > 0), 64 - end[run], 0)
    val &= full >> trail.astype(np.uint64)
    buf[word] |= val


class WaveletTree(_Trees):
    __slots__ = ()

    def __init__(self, buf: np.ndarray):
        """Wrap the u64 words of a serialized tree section."""
        if len(buf) < 3:
            raise truncated()
        self._n = int(buf[1])
        self._block_len = max(self._n, 1)
        self._index(buf, np.zeros(1, np.int64),
                    header_fields(buf[0], MAGIC, "wavelet tree", VERSION))

    # -- construction ------------------------------------------------

    @classmethod
    def build(cls, symbols, alphabet_bits: int) -> "WaveletTree":
        symbols = _as_symbol_array(symbols, alphabet_bits)
        return cls(build_trees(
            symbols, max(int(symbols.size), 1), 1, alphabet_bits,
            lambda words, _: (np.zeros(int(words[0]), _U64), [0])))

    # -- shape -------------------------------------------------------

    @property
    def code_table(self) -> CodeTable:
        pairs = self._buf[3:3 + 2 * int(self._buf[2])].tolist()
        return CodeTable.from_lengths(dict(zip(pairs[0::2], pairs[1::2])))

    @property
    def node_count(self) -> int:
        return len(self._nw)

    def node_offset(self, idx: int) -> int:
        """Byte offset of node idx's bitvector section: nodes are
        numbered in BFS order, their sections placed in preorder."""
        return 8 * (self._nw[idx] - bitvec.WORDS_AT)

    def node(self, idx: int) -> bitvec.BitVector:
        """Node idx's bitvector, a view of its section in this tree."""
        return bitvec.BitVector(self._buf[self._nw[idx] - bitvec.WORDS_AT:])

    # -- sizes and serialization --------------------------------------

    def total_data_bits(self) -> int:
        """Bits stored across node bitvectors (directories excluded)."""
        return int(np.asarray(self._nlen).sum())

    def data_section_bytes(self) -> int:
        """Serialized bytes of the node sections alone."""
        return 8 * self._data_words


def _as_symbol_array(symbols, alphabet_bits):
    if hasattr(symbols, "symbols"):  # SymbolSequence
        symbols = symbols.symbols
    if alphabet_bits < 1 or alphabet_bits > 16:
        raise ValueError("alphabet_bits must be in 1..16")
    arr = np.asarray(symbols)
    if arr.ndim != 1:
        raise ValueError("symbols must be one-dimensional")
    # Checked before the cast, which would wrap them into range.
    if arr.size and (arr.min() < 0 or arr.max() >= (1 << alphabet_bits)):
        raise ValueError(f"symbol out of range for {alphabet_bits}-bit alphabet")
    return arr.astype(np.uint8 if alphabet_bits <= 8 else np.uint16, copy=False)
