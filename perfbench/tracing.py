"""Spans recorded around calls into the library's layers.

A Tracer swaps functions and methods of the waveletforest modules for
wrappers that record one span per call: its id, name, tag, parent span,
start and end (perf_counter_ns). The benchmark sets the tag to the phase
or query stream it is running, so a metric can sum the spans of one
stream. Spans are kept in a typed array in memory and written out by
save() when the run ends.

Where a module imported a function by name, the wrapper goes where the
caller looks it up: wtree.build_code_table, wforest.build_trees. The
package itself is not changed; restore() puts every original back.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

_FIELDS = 6  # id, name, tag, parent, start, end


def layer_functions():
    """(owner, attribute, span name) of every call the traced run wraps."""
    from waveletforest import bitvec, fmindex, textgen, wforest, wtree
    tree, forest, trees = wtree.WaveletTree, wforest.WaveletForest, wtree._Trees
    wraps = [
        (textgen, "gen_bytes", "textgen.gen_bytes"),
        (textgen, "reinterpret", "textgen.reinterpret"),
        (textgen, "splitmix64_words", "textgen.splitmix64_words"),
        (textgen, "gen_query_positions", "textgen.gen_query_positions"),
        (wtree, "build_code_table", "huffman.build_code_table"),
        (bitvec, "rank1", "bitvec.rank1"),
        (bitvec, "select", "bitvec.select"),
        (bitvec, "write_sections", "bitvec.write_sections"),
        (wtree, "build_trees", "wtree.build_trees"),
        (wforest, "build_trees", "wtree.build_trees"),
        (wforest, "_place_blocks", "wforest.place_blocks"),
        (trees, "_access_in", "wtree.descent"),
        (trees, "_rank_in", "wtree.descent"),
        (trees, "_select_in", "wtree.descent"),
        (tree, "from_buffer", "wtree.from_bytes"),
        (forest, "from_buffer", "wforest.from_bytes"),
        (fmindex, "build_bwt", "fmindex.build_bwt"),
        (fmindex.FmIndex, "from_bwt", "fmindex.from_bwt"),
        (fmindex.FmIndex, "count", "fmindex.count"),
    ]
    for cls, prefix in ((tree, "wtree"), (forest, "wforest")):
        for method in ("access", "rank", "select"):
            wraps.append((cls, method, f"{prefix}.{method}"))
    return wraps


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.tag = self._id("tag", "")
        self._rec = array.array("q")
        self._stack = [-1]
        self._next = 0
        self._undo = []

    def _id(self, kind: str, label: str) -> int:
        key = (kind, label)
        if key not in self._ids:
            table = self.names if kind == "name" else self.tags
            self._ids[key] = len(table)
            table.append(label)
        return self._ids[key]

    def set_tag(self, label: str) -> None:
        self.tag = self._id("tag", label)

    # -- recording ---------------------------------------------------

    def _open(self, name: int) -> tuple:
        sid = self._next
        self._next = sid + 1
        head = (sid, name, self.tag, self._stack[-1])
        self._stack.append(sid)
        return head

    def _close(self, head: tuple, start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self._rec.extend((*head, start, end))

    def _wrapper(self, fn, name: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            head = self._open(name)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(head, start)
        return traced

    @contextmanager
    def span(self, label: str):
        """A span around a block of the benchmark's own code."""
        head = self._open(self._id("name", label))
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(head, start)

    def install(self, wraps) -> None:
        """Wrap owner.attribute for every (owner, attribute, name)."""
        for owner, attr, label in wraps:
            raw = inspect.getattr_static(owner, attr)
            own = attr in vars(owner)
            self._undo.append((owner, attr, raw, own))
            name = self._id("name", label)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrapper(raw.__func__, name)))
            else:
                setattr(owner, attr, self._wrapper(raw, name))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw, own = self._undo.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reading -----------------------------------------------------

    def spans(self) -> "Spans":
        return Spans(np.frombuffer(self._rec, np.int64).reshape(-1, _FIELDS),
                     self.names, self.tags)

    def save(self, path) -> None:
        """Write every span, with the name and tag tables, as .npz."""
        s = self.spans()
        np.savez(path, span_id=s.sid, name=s.name, tag=s.tag,
                 parent=s.parent, start_ns=s.start, end_ns=s.end,
                 names=json.dumps(self.names), tags=json.dumps(self.tags))


class Spans:
    """Recorded spans ordered by id, with each one's self time: its
    duration minus the durations of the spans it directly wraps."""

    def __init__(self, rows, names, tags):
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        self.sid, self.name, self.tag, self.parent, self.start, self.end = rows.T
        self.names, self.tags = names, tags
        self.dur = self.end - self.start
        inner = self.parent >= 0
        at = np.searchsorted(self.sid, self.parent[inner])
        self.self_ns = self.dur - np.bincount(at, weights=self.dur[inner],
                                              minlength=len(self.sid))
        self.parent_name = np.full(len(self.sid), -1)
        self.parent_name[inner] = self.name[at]

    def _ids(self, table, wanted):
        return [i for i, label in enumerate(table) if wanted(label)]

    def _named(self, name):
        """Ids of the span names equal to name, one of a tuple of names,
        or, for a name ending in a dot, starting with it."""
        if isinstance(name, tuple):
            return self._ids(self.names, lambda n: n in name)
        return self._ids(self.names, lambda n: n == name or
                         (name.endswith(".") and n.startswith(name)))

    def mask(self, name, tags=None, parents=None, outer=False) -> np.ndarray:
        """Spans named name (see _named); optionally only those under
        the given tags, only those directly under spans named in
        parents, or, with outer, only those not directly under a span
        that name matches too."""
        ids = self._named(name)
        m = np.isin(self.name, ids)
        if tags is not None:
            m &= np.isin(self.tag, self._ids(self.tags, lambda t: t in tags))
        if parents is not None:
            m &= np.isin(self.parent_name, self._named(tuple(parents)))
        if outer:
            m &= ~np.isin(self.parent_name, ids)
        return m
