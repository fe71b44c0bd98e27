"""The benchmark's three workloads: inputs, structures and query streams.

Every input comes from the run's seed through the library's textgen
splitmix64 streams; the library gets only the generated arrays. Each
workload names one tree and one forest, labelled "tree" and "forest",
whose queries give the end-to-end metrics, and an FM-index pair,
"fm.tree" and "fm.forest", whose counts give the count metrics. Other
structures are built, loaded, queried and checked the same way and are
reported under their own labels.

Sub-streams of one seed are told apart by sub(seed, k). Constructor
arguments are the sizes the self-test shrinks; everything else that
defines a workload is a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from waveletforest import fmindex, textgen
from waveletforest.fmindex import FmIndex
from waveletforest.wforest import WaveletForest
from waveletforest.wtree import WaveletTree

from .oracle import bwt_inverts_to

PATTERN_LEN = 8  # symbols per count pattern
SUBSTITUTE = 0.01  # share of bwt-count's symbols replaced at random
SMALL_BLOCK_BYTES = 32  # smallblock-build's block size at every alphabet
SMALL_ALPHABETS = (8, 4, 2, 1)  # smallblock-build's bits per symbol


def sub(seed: int, k: int) -> int:
    return seed * 64 + k


@dataclass
class Stream:
    """One seeded query stream, run per_round queries per round.

    label "tree" or "forest" feeds the end-to-end metrics; target names
    the structure it runs on (see Workload.targets). Streams of one kind
    that share args are also checked against each other."""
    label: str
    kind: str
    target: str
    args: list
    per_round: int
    expected: list | None = None


@dataclass
class Inputs:
    texts: dict
    streams: list = field(default_factory=list)


def query_streams(seed, seq, n_pos, targets, per_round, chunks,
                  kinds=("access", "rank", "select")):
    """Streams of the given kinds over positions 1..n_pos, each shared
    by every (label, target). A rank asks for the symbol at its own
    position, as an LF-mapping step does, so the symbol is present in
    the forest's block (a random symbol is absent from most small or
    BWT blocks, which splits the times into two clusters around the
    median). Where n_pos passes the end of seq (the n + 1 rows of a
    BWT of seq), the caller replaces the rank symbols once it has the
    BWT. A select asks for a symbol read off seq at a seeded position
    and an ordinal drawn below that symbol's count."""
    seq = np.asarray(seq)

    def positions(k, count, n):
        return textgen.gen_query_positions(sub(seed, k), count, n)

    def access(count):
        return [(p,) for p in positions(10, count, n_pos)]

    def rank(count):
        at = positions(12, count, n_pos)
        return list(zip(seq[np.minimum(at, len(seq)) - 1].tolist(), at))

    def select(count):
        c = seq[np.asarray(positions(13, count, len(seq))) - 1]
        hist = np.bincount(seq)[c].tolist()
        draws = textgen.splitmix64_words(sub(seed, 14), 0, count).tolist()
        return [(s, (u * h >> 64) + 1) for s, u, h in zip(c.tolist(), draws, hist)]

    streams = []
    for kind, make in (("access", access), ("rank", rank), ("select", select)):
        if kind in kinds:
            args = make(per_round[kind] * chunks)
            streams += [Stream(label, kind, target, args, per_round[kind])
                        for label, target in targets]
    return streams


def count_streams(seed, text, per_round, chunks):
    """Patterns of PATTERN_LEN symbols cut from text at seeded offsets,
    so each occurs and every backward search runs its full length."""
    m = PATTERN_LEN
    starts = textgen.gen_query_positions(sub(seed, 20), per_round * chunks,
                                         len(text) - m + 1)
    args = [(text[s - 1:s - 1 + m].tolist(),) for s in starts]
    return [Stream(label, "count", f"fm.{label}", args, per_round)
            for label in ("tree", "forest")]


def fm_pair(text, bits, block_len):
    """FM-indexes on a tree and on a forest backend over one BWT."""
    bwt = fmindex.build_bwt(text, bits)
    return {"fm.tree": FmIndex.from_bwt(bwt, "tree"),
            "fm.forest": FmIndex.from_bwt(bwt, "forest", block_len=block_len),
            "bwt": bwt}


class Workload:
    name = ""
    sized = ("tree", "forest")  # structures whose sizes are the pair's

    def setup(self, seed: int) -> Inputs:
        raise NotImplementedError

    def build(self, inputs: Inputs) -> dict:
        """Every structure of the workload; entries without to_bytes
        (a Bwt) are kept for references() and not serialized."""
        raise NotImplementedError

    def targets(self, loaded: dict) -> dict:
        """Query objects by name."""
        return dict(loaded)

    def references(self, inputs: Inputs, built: dict, check) -> dict:
        """The sequence each access/rank/select target answers over."""
        return {name: inputs.texts["text"] for name in built
                if not name.startswith("fm.") and name != "bwt"}

    def text_bytes(self, inputs: Inputs) -> int:
        """Packed size of the 8-bit text the tree and forest index."""
        return len(inputs.texts["text"])


class Uniform8Query(Workload):
    """The paper's main case, a text that is not a BWT: 4 MB of uniform
    8-bit symbols, a tree and forests of 50 000- and 1 000 000-byte
    blocks. Access, rank and select streams take most of the time, in
    8-level descents over nodes large enough that rank1 reads the rank
    directory and up to 7 words."""

    name = "uniform8-query"

    def __init__(self, n=4_000_000, block_bytes=(50_000, 1_000_000),
                 fm_n=1 << 16, fm_block=4096, chunks=4, per_round=None):
        self.n, self.block_bytes = n, block_bytes
        self.fm_n, self.fm_block, self.chunks = fm_n, fm_block, chunks
        self.per_round = per_round or {"access": 8000, "rank": 8000,
                                       "select": 2000, "count": 500}

    def _forest_name(self, bb):
        return "forest" if bb == self.block_bytes[0] else f"forest.{bb}B"

    def setup(self, seed):
        text = textgen.reinterpret(textgen.gen_bytes(sub(seed, 0), self.n),
                                   8).symbols
        inputs = Inputs({"text": text, "fm": text[:self.fm_n]})
        names = ["tree"] + [self._forest_name(bb) for bb in self.block_bytes]
        inputs.streams = (
            query_streams(seed, text, len(text), [(x, x) for x in names],
                          self.per_round, self.chunks)
            + count_streams(seed, inputs.texts["fm"],
                            self.per_round["count"], self.chunks))
        return inputs

    def build(self, inputs):
        text = inputs.texts["text"]
        built = {"tree": WaveletTree.build(text, 8)}
        for bb in self.block_bytes:  # 8-bit symbols: block_len == bytes
            built[self._forest_name(bb)] = WaveletForest.build(text, bb, 8)
        built.update(fm_pair(inputs.texts["fm"], 8, self.fm_block))
        return built


class BwtCount(Workload):
    """The Kärkkäinen-Puglisi case: FM-indexes on a tree and on a forest
    backend (4096-row blocks) over the BWT of a repetitive text, a
    random 5000-byte base repeated to 500 000 bytes with 1% of the
    symbols substituted. build_bwt dominates the build; BWT runs make
    the forest's block trees shallow."""

    name = "bwt-count"
    sized = ("fm.tree", "fm.forest")

    def __init__(self, n=500_000, base=5000, block_len=4096, chunks=4,
                 per_round=None):
        self.n, self.base = n, base
        self.block_len, self.chunks = block_len, chunks
        self.per_round = per_round or {"access": 2000, "rank": 2000,
                                       "select": 500, "count": 1000}

    def setup(self, seed):
        n, base = self.n, self.base
        draws = textgen.splitmix64_words(sub(seed, 0), 0, base + 2 * n)
        text = np.resize((draws[:base] & np.uint64(255)).astype(np.uint8), n)
        hit = draws[base:base + n] < np.uint64(int(SUBSTITUTE * 2.0 ** 64))
        text[hit] = (draws[base + n:][hit] >> np.uint64(56)).astype(np.uint8)
        inputs = Inputs({"text": text, "fm": text})
        inputs.streams = (
            query_streams(seed, text, n + 1,
                          [("tree", "tree"), ("forest", "forest")],
                          self.per_round, self.chunks)
            + count_streams(seed, text, self.per_round["count"], self.chunks))
        return inputs

    def build(self, inputs):
        return fm_pair(inputs.texts["text"], 8, self.block_len)

    def targets(self, loaded):
        return {"tree": loaded["fm.tree"].backend,
                "forest": loaded["fm.forest"].backend, **loaded}

    def references(self, inputs, built, check):
        bwt = built["bwt"]
        seq = bwt.transformed
        check("BWT inverts to the text",
              bwt_inverts_to(seq, inputs.texts["text"], bwt.sentinel))
        # The rank streams were drawn before the BWT existed: read each
        # one's symbol off the BWT at its row.
        for s in inputs.streams:
            if s.kind == "rank":
                s.args[:] = [(int(seq[i - 1]), i) for _, i in s.args]
        return {"tree": seq, "forest": seq}


class SmallblockBuild(Workload):
    """Forests of 8192 blocks of 32 bytes over 256 KiB read as 1-, 2-, 4-
    and 8-bit symbols: one Huffman table per distinct block histogram
    and the m x 2^bits rank rows dominate build, size and load. Forest
    nodes hold at most 256 bits, so rank1 reads no rank directory."""

    name = "smallblock-build"

    def __init__(self, n_bytes=256 * 1024, fm_n=1 << 16, fm_block=4096,
                 chunks=4, per_round=None):
        self.n_bytes = n_bytes
        self.fm_n, self.fm_block, self.chunks = fm_n, fm_block, chunks
        self.per_round = per_round or {"access": 1000, "rank": 1000,
                                       "select": 300, "count": 200}

    def setup(self, seed):
        raw = textgen.gen_bytes(sub(seed, 0), self.n_bytes)
        texts = {f"text.{b}bit": textgen.reinterpret(raw, b).symbols
                 for b in SMALL_ALPHABETS}
        texts["text"] = texts["text.8bit"]
        texts["fm"] = texts["text"][:self.fm_n]
        inputs = Inputs(texts)
        inputs.streams = (
            query_streams(seed, texts["text"], len(texts["text"]),
                          [("tree", "tree"), ("forest", "forest")],
                          self.per_round, self.chunks)
            + count_streams(seed, texts["fm"], self.per_round["count"],
                            self.chunks))
        for k, b in enumerate(SMALL_ALPHABETS[1:]):
            seq = texts[f"text.{b}bit"]
            label = f"forest.{b}bit"
            inputs.streams += query_streams(
                sub(seed, 30 + k), seq, len(seq), [(label, label)],
                self.per_round, self.chunks, kinds=("access",))
        return inputs

    def build(self, inputs):
        built = {"tree": WaveletTree.build(inputs.texts["text"], 8)}
        for b in SMALL_ALPHABETS:
            name = "forest" if b == 8 else f"forest.{b}bit"
            built[name] = WaveletForest.build(inputs.texts[f"text.{b}bit"],
                                              8 * SMALL_BLOCK_BYTES // b, b)
        built.update(fm_pair(inputs.texts["fm"], 8, self.fm_block))
        return built

    def references(self, inputs, built, check):
        refs = {"tree": inputs.texts["text"], "forest": inputs.texts["text"]}
        for b in SMALL_ALPHABETS[1:]:
            refs[f"forest.{b}bit"] = inputs.texts[f"text.{b}bit"]
        return refs


WORKLOADS = {w.name: w for w in (Uniform8Query, BwtCount, SmallblockBuild)}
