"""Runs one workload and reduces it to the declared metrics.

A run has these phases, in order:

  warm-up   generate the inputs once, untimed; build every structure
            once, serialize it, compute the oracle answers, load the
            bytes (the loaded structures answer every query from then
            on; from_bytes wraps the bytes without copying, so their
            to_bytes() equals the blob unless the length read back
            differs), check forest rank rows against numpy, trace the
            locality pass (pages_per_access, per-layer locality counts,
            every forest access inside its own block), and run chunk 0
            of every query stream
  rounds    until `seconds` have passed since the rounds began, and at
            least `min_rounds`: one timed set-up, whose texts must equal
            the warm-up's, one timed build of every structure, whose
            to_bytes() must equal the warm-up's bytes, timed loads of
            every structure for load_seconds, and chunk r mod chunks of
            every query stream, run in SLICES turns that visit every
            stream, each query timed alone with perf_counter_ns. Every
            timing is thus sampled across the whole run, which evens out
            a machine whose speed drifts within seconds.

setup_s, build_s and load_ms are medians over passes, query times
medians over all samples of a stream. A traced run does one round with
one load pass, with the layers' functions wrapped (tracing.py),
and reports the per-layer metrics; its untraced warm-up round's query
times are kept beside the traced ones, as the tracing overhead. An
untraced run reports the end-to-end metrics. The garbage collector is
off throughout and runs between passes.
"""

from __future__ import annotations

import gc
import resource
import statistics
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

import numpy as np

from waveletforest.fmindex import FmIndex
from waveletforest.wforest import WaveletForest

from .oracle import SymbolIndex, cumulative_block_counts, window_counts
from .tracing import Tracer, layer_functions

PAIR = ("tree", "forest")
QUERY_KINDS = ("access", "rank", "select")
QUERY_SPANS = tuple(f"{m}.{k}" for m in ("wtree", "wforest") for k in QUERY_KINDS)
LOCALITY_UNITS = {"words": 8, "lines": 64, "pages": 4096}


SLICES = 10  # turns per round over the query streams


@dataclass
class Passes:
    min_rounds: int = 3
    load_seconds: float = 0.2
    locality: int = 1000  # traced queries per kind on the tree and the forest
    block_checks: int = 256  # traced accesses per forest checked for locality


class Checker:
    """Counts operations attempted and failed; a failure is a wrong
    answer, an exception, or a property that does not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def answers(self, what: str, got: list, expected: list) -> None:
        bad = sum(g != e for g, e in zip(got, expected))
        bad += abs(len(got) - len(expected))
        self.attempted += len(expected)
        self._fail(what, bad, [g for g in got if isinstance(g, Exception)])

    def property(self, what: str, ok: bool) -> None:
        self.attempted += 1
        self._fail(what, int(not ok), [])

    def _fail(self, what, bad, errors) -> None:
        if bad:
            self.failed += bad
            first = f", first error {errors[0]!r}" if errors else ""
            self.notes.append(f"{what}: {bad} failed{first}")


def attempt(call, *args, **kwargs):
    """call's answer, or the exception it raised."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation
        return exc


def timed(call, args: list, samples: list) -> list:
    """Answers of call(*a) for every a, each timed alone into samples;
    an exception becomes the answer."""
    clock = perf_counter_ns
    out = []
    for a in args:
        t0 = clock()
        try:
            r = call(*a)
        except Exception as exc:  # counted as a failed operation
            r = exc
        samples.append(clock() - t0)
        out.append(r)
    return out


def locality(trace: list) -> dict:
    """Distinct words, lines and pages a query read, and its byte span."""
    out = {unit: len({o // size for o in trace})
           for unit, size in LOCALITY_UNITS.items()}
    out["span_bytes"] = max(trace) - min(trace) if trace else 0
    return out


def _expected(stream, refs, indexes, count_text):
    if stream.kind == "count":
        return window_counts(count_text, [a[0] for a in stream.args])
    seq = refs[stream.target]
    if id(seq) not in indexes:
        indexes[id(seq)] = SymbolIndex(seq)
    return getattr(indexes[id(seq)], stream.kind)(stream.args)


def _forests(targets: dict):
    """(name, forest) for every forest among the targets and backends."""
    seen = set()
    for name, obj in targets.items():
        if isinstance(obj, FmIndex):
            obj, name = obj.backend, f"{name}.backend"
        if isinstance(obj, WaveletForest) and id(obj) not in seen:
            seen.add(id(obj))
            yield name, obj


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 passes: Passes = Passes()):
        self.w, self.seed, self.seconds, self.passes = workload, seed, seconds, passes
        self.tracer = Tracer() if trace else None
        self.check = Checker()
        self.times = {"setup": [], "build": [], "load": []}
        self.samples: dict[tuple[str, str], array] = {}
        self.warmup: dict[tuple[str, str], array] = {}
        self.local: dict[tuple[str, str], list] = {}
        self.row_reads = [0, 0]  # forest rank-row reads, forest rank+select queries
        self.rounds = 0

    @contextmanager
    def traced(self, tag: str):
        """Wrap the layers for the block, with spans tagged tag."""
        if self.tracer is None:
            yield
            return
        self.tracer.set_tag(tag)
        self.tracer.install(layer_functions())
        try:
            with self.tracer.span(tag):
                yield
        finally:
            self.tracer.restore()

    def _timed_pass(self, phase: str, fn):
        with self.traced(phase):
            t0 = perf_counter()
            out = fn()
            self.times[phase].append(perf_counter() - t0)
        return out

    def run(self) -> dict:
        gc.disable()
        try:
            return self._run()
        finally:
            gc.enable()

    def _run(self) -> dict:
        w, check = self.w, self.check
        inputs = w.setup(self.seed)  # the rounds time set-up
        built = w.build(inputs)
        refs = w.references(inputs, built, check.property)
        blobs = {name: (type(obj), obj.to_bytes()) for name, obj in built.items()
                 if hasattr(obj, "to_bytes")}
        self.sizes = {name: obj.size_bytes() for name, obj in built.items()
                      if hasattr(obj, "size_bytes")}
        del built
        gc.collect()
        indexes = {}
        for stream in inputs.streams:
            stream.expected = _expected(stream, refs, indexes, inputs.texts["fm"])
        del indexes
        gc.collect()

        loaded = {name: cls.from_bytes(blob) for name, (cls, blob) in blobs.items()}
        for name, (_, blob) in blobs.items():
            check.property(f"{name} from_bytes/to_bytes round trip",
                           loaded[name].to_bytes() == blob)
        targets = w.targets(loaded)
        self._check_forests(targets, refs)
        self._locality_pass(inputs.streams, targets)
        self.rank_table_bytes = (8 * targets["forest"].block_count
                                 << targets["forest"].alphabet_bits)
        self._queries(inputs.streams, targets, 0,
                      self.warmup if self.tracer is not None else {})

        start = perf_counter()
        while self._more_rounds(start):
            self._round(inputs, blobs, targets, self.rounds + 1)
            if self.rounds == 1:
                # Later rounds repeat the same work; their allocator
                # growth follows how many rounds fit, not the program.
                self.peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        self.inputs = inputs
        return self.metrics()

    # -- checks ------------------------------------------------------

    def _check_forests(self, targets, refs) -> None:
        """Rank rows against numpy's cumulative block histograms, and
        every traced forest access inside its own block's section."""
        for name, forest in _forests(targets):
            if name in refs:
                want = cumulative_block_counts(refs[name], forest.block_len,
                                               1 << forest.alphabet_bits)
                self.check.property(f"{name} rank rows", np.array_equal(
                    attempt(lambda: forest.rank_table), want))
            n = len(forest)
            step = max(1, n // self.passes.block_checks)
            for i in range(1, n + 1, step):
                trace = []
                answer = attempt(forest.access, i, trace=trace)
                k = (i - 1) // forest.block_len
                lo = forest.block_section_offset(k)
                hi = lo + forest.block_section_bytes(k)
                self.check.property(
                    f"{name} access {i} stays in block {k}",
                    not isinstance(answer, Exception)
                    and all(lo <= o < hi for o in trace))

    def _locality_pass(self, streams, targets) -> None:
        """Trace the first queries of the tree's and forest's streams."""
        forest = targets["forest"]
        sigma = 1 << forest.alphabet_bits
        starts = np.array([forest.block_section_offset(k)
                           for k in range(forest.block_count)])
        for s in streams:
            if s.label not in PAIR or s.kind == "count":
                continue
            obj = targets[s.target]
            call = getattr(obj, s.kind)
            args = s.args[:self.passes.locality]
            got, stats = [], []
            for a in args:
                trace = []
                got.append(attempt(call, *a, trace=trace))
                stats.append(locality(trace))
                if obj is forest and s.kind != "access":
                    offs = np.array(trace)
                    k = np.searchsorted(starts, offs, "right") - 1
                    self.row_reads[0] += int((offs - starts[k] < 8 * sigma).sum())
                    self.row_reads[1] += 1
            self.check.answers(f"traced {s.label} {s.kind}", got,
                               s.expected[:len(args)])
            self.local[s.label, s.kind] = stats

    # -- timed rounds --------------------------------------------------

    def _more_rounds(self, start: float) -> bool:
        if self.tracer is not None:
            return self.rounds < 1
        return (self.rounds < self.passes.min_rounds
                or perf_counter() - start < self.seconds)

    def _round(self, inputs, blobs, targets, r: int) -> None:
        """One timed set-up and one timed build, checked to give the
        warm-up's texts and bytes, timed loads for at least load_seconds
        (one when traced), and chunk r of every query stream."""
        again = self._timed_pass("setup", lambda: self.w.setup(self.seed))
        self.check.property("set-up repeats exactly", all(
            np.array_equal(again.texts[t], inputs.texts[t]) for t in inputs.texts))
        del again
        gc.collect()
        rebuilt = self._timed_pass("build", lambda: self.w.build(inputs))
        for name, (_, blob) in blobs.items():
            self.check.property(f"{name} rebuilds to the same bytes",
                                attempt(rebuilt[name].to_bytes) == blob)
        del rebuilt
        gc.collect()
        until = perf_counter() + self.passes.load_seconds
        while True:
            self._timed_pass("load", lambda: [cls.from_bytes(blob) for cls, blob
                                              in blobs.values()])
            if self.tracer is not None or perf_counter() >= until:
                break
        gc.collect()
        with self.traced("queries"):
            self._queries(inputs.streams, targets, r, self.samples)
        self.rounds += 1

    def _queries(self, streams, targets, r: int, into: dict) -> None:
        """Chunk r of every stream, in SLICES turns that visit every
        stream, so that each stream's samples span the whole phase."""
        got = {id(s): [] for s in streams}
        n = SLICES
        for j in range(n):
            for s in streams:
                base = (r % (len(s.args) // s.per_round)) * s.per_round
                lo, hi = (base + j * s.per_round // n,
                          base + (j + 1) * s.per_round // n)
                samples = into.setdefault((s.label, s.kind), array("q"))
                if self.tracer is not None:
                    self.tracer.set_tag(f"{s.kind}:{s.label}")
                got[id(s)] += timed(getattr(targets[s.target], s.kind),
                                    s.args[lo:hi], samples)
        first = {}
        for s in streams:
            base = (r % (len(s.args) // s.per_round)) * s.per_round
            answers = got[id(s)]
            self.check.answers(f"{s.label} {s.kind}", answers,
                               s.expected[base:base + s.per_round])
            other = first.setdefault((s.kind, id(s.args)), answers)
            if other is not answers:
                self.check.property(f"{s.label} {s.kind} agrees across structures",
                                    other == answers)
        gc.collect()

    # -- metrics -----------------------------------------------------

    def metrics(self) -> dict:
        if self.tracer is not None:
            return self.layer_metrics()
        t = self.times
        m = {"setup_s": (statistics.median(t["setup"]), "s"),
             "build_s": (statistics.median(t["build"]), "s"),
             "load_ms": (1e3 * statistics.median(t["load"]), "ms")}
        for label in PAIR:
            for kind in QUERY_KINDS:
                m[f"{label}.{kind}_ns"] = (float(np.median(self.samples[label, kind])), "ns")
            m[f"{label}.count_us"] = (float(np.median(self.samples[label, "count"])) / 1e3, "us")
        text_bytes = self.w.text_bytes(self.inputs)
        for label, name in zip(PAIR, self.w.sized):
            m[f"{label}.bytes_per_text_byte"] = (self.sizes[name] / text_bytes, "ratio")
        for label in PAIR:
            pages = [q["pages"] for q in self.local[label, "access"]]
            m[f"{label}.pages_per_access"] = (sum(pages) / len(pages), "pages")
        m["peak_rss_mb"] = (self.peak_rss_mb, "MB")
        return m

    def layer_metrics(self) -> dict:
        s = self.tracer.spans()
        ms = 1e-6
        qtags = [f"{k}:{label}" for label in PAIR for k in QUERY_KINDS]
        ctags = [f"count:{label}" for label in PAIR]
        query = s.mask(QUERY_SPANS, qtags, parents=("queries",))
        nq, qtime = int(query.sum()), s.dur[query].sum()
        build = s.dur[s.mask("build", ["build"])].sum()
        m = {"textgen.gen_ms": (s.dur[s.mask("textgen.", ["setup"], outer=True)].sum() * ms, "ms")}
        code = s.mask("huffman.build_code_table", ["build"])
        m["huffman.build_code_table.calls"] = (int(code.sum()), "count")
        m["huffman.build_code_table.ms"] = (s.dur[code].sum() * ms, "ms")
        m["huffman.build_code_table.share_of_build"] = (s.dur[code].sum() / build, "ratio")
        m["bitvec.write_sections.ms"] = (s.dur[s.mask("bitvec.write_sections", ["build"])].sum() * ms, "ms")
        for fn in ("rank1", "select"):
            calls = s.mask(f"bitvec.{fn}", qtags)
            m[f"bitvec.{fn}.calls_per_query"] = (int(calls.sum()) / nq, "count")
            m[f"bitvec.{fn}.ns_per_call"] = (float(s.dur[calls].mean()), "ns")
            m[f"bitvec.{fn}.share_of_query"] = (s.dur[calls].sum() / qtime, "ratio")
        m["wtree.build_trees.self_ms"] = (s.self_ns[s.mask("wtree.build_trees", ["build"])].sum() * ms, "ms")
        m["wforest.place_blocks.ms"] = (s.dur[s.mask("wforest.place_blocks", ["build"])].sum() * ms, "ms")
        for mod in ("wtree", "wforest"):
            m[f"{mod}.from_bytes.ms"] = (s.dur[s.mask(f"{mod}.from_bytes", ["load"])].sum() * ms, "ms")
        m["wtree.descent.self_ns"] = (s.self_ns[s.mask("wtree.descent", qtags)].sum() / nq, "ns")
        m["wforest.rank_table_bytes"] = (self.rank_table_bytes, "bytes")
        m["wforest.row_reads_per_query"] = (self.row_reads[0] / self.row_reads[1], "count")
        for fn in ("build_bwt", "from_bwt"):
            m[f"fmindex.{fn}.ms"] = (s.dur[s.mask(f"fmindex.{fn}", ["build"])].sum() * ms, "ms")
        count = s.mask("fmindex.count", ctags)
        ranks = s.mask(("wtree.rank", "wforest.rank"), ctags, parents=("fmindex.count",))
        m["fmindex.count.rank_calls_per_pattern"] = (int(ranks.sum()) / int(count.sum()), "count")
        m["fmindex.count.self_ns"] = (s.self_ns[count].sum() / int(count.sum()), "ns")
        for label in PAIR:
            for kind in QUERY_KINDS:
                stats = self.local[label, kind]
                for unit in (*LOCALITY_UNITS, "span_bytes"):
                    if (unit, kind) == ("pages", "access"):
                        continue  # the end-to-end pages_per_access
                    value = sum(q[unit] for q in stats) / len(stats)
                    m[f"{label}.{unit}_per_{kind}"] = (value, "bytes" if unit == "span_bytes" else unit)
        return m

    def details(self) -> dict:
        """Per-stream medians, p99s and sample counts, and pass times."""
        out = {"rounds": self.rounds, "times_s": self.times, "sizes_bytes": self.sizes,
               "streams": {}}
        for (label, kind), ns in sorted(self.samples.items()):
            ns = np.sort(np.asarray(ns))
            row = {"median_ns": float(np.median(ns)), "samples": len(ns)}
            if len(ns) >= 1000:
                row["p99_ns"] = float(ns[int(0.99 * len(ns))])
            if (label, kind) in self.warmup:
                row["untraced_warmup_median_ns"] = float(
                    np.median(self.warmup[label, kind]))
            out["streams"][f"{label}.{kind}"] = row
        return out
