"""Traced run: the per-layer metrics, measured from outside the engine.

The benchmark wraps each layer's public entry points (module functions and
class methods, restored afterwards), so the real `prepare` and cursors call
the wrapped versions. Each wrapper records a span (name, start, end, parent)
into flat in-memory arrays; the spans are written out when the run ends, and
a layer's self time is its spans' duration minus their child spans'. Counts
come from the wrappers and from `PreparedQuery.counters`. Bytes per result
come from a separate tracemalloc pass, because tracemalloc slows the cursor
several-fold and would distort the span timings.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
import tracemalloc
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import rankjoin as rj
import rankjoin.preprocess as rj_preprocess

from measure import Tally, open_cursor, read_conf, trial

MIN_PASSES = 2
# Results pulled in the tracemalloc pass (fewer if the output is smaller).
MEMORY_PASS_RESULTS = 20_000

# Per-layer metric -> unit; every traced run reports all of them.
UNITS = {
    "data.load_csv_s": "s",
    "data.build_s": "s",
    "data.rows_loaded": "count",
    "decomposition.plan_s": "s",
    "preprocess.materialize_s": "s",
    "preprocess.reduce_s": "s",
    "preprocess.init_queues_s": "s",
    "preprocess.bag_rows_in": "count",
    "preprocess.bag_rows_out": "count",
    "preprocess.cells_initial": "count",
    "ranking.node_score_calls_setup": "count",
    "ranking.node_score_calls_per_result": "count/result",
    "ranking.node_score_s": "s",
    "cursor.next_s": "s",
    "cursor.self_s": "s",
    "cursor.inserts_per_result": "count/result",
    "cursor.pops_per_result": "count/result",
    "cursor.comparisons_per_result": "count/result",
    "cursor.insert_useful_frac": "ratio",
    "cursor.max_cells_per_result": "count",
    "cursor.bytes_per_result": "bytes/result",
    "union.self_s": "s",
    "union.dup_frac": "ratio",
    "result.format_s": "s",
    "trace.overhead_s": "s",
}
TIMES = [name for name, unit in UNITS.items() if unit == "s"]


class Spans:
    """Spans in flat arrays: name id, start, end, parent index (-1: none)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.sizes: Dict[str, List[int]] = {}
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, label: str, fn: Callable,
             size: Optional[Callable[[object], int]] = None) -> Callable:
        nid = len(self.names)
        self.names.append(label)
        names, start, end, parent, stack = (
            self.name, self.start, self.end, self.parent, self._stack)
        pc = time.perf_counter
        sizes = self.sizes.setdefault(label, [])

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(pc())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = pc()
                stack.pop()
            if size is not None:
                sizes.append(size(result))
            return result

        return wrapper

    def summary(self, lo: int = 0, hi: Optional[int] = None) -> "Summary":
        return Summary(self, lo, len(self) if hi is None else hi)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}"
                         f"\t{self.end[i]!r}\t{self.parent[i]}\n")


class Summary:
    """Per-name span count, duration, and duration of child spans, over the
    spans with index in [lo, hi)."""

    def __init__(self, spans: Spans, lo: int, hi: int) -> None:
        self.names = spans.names
        k = len(spans.names)
        self._count, self._dur, self._child = [0] * k, [0.0] * k, [0.0] * k
        name, start, end, parent = spans.name, spans.start, spans.end, spans.parent
        for i in range(lo, hi):
            dur = end[i] - start[i]
            n = name[i]
            self._count[n] += 1
            self._dur[n] += dur
            if parent[i] >= 0:
                self._child[name[parent[i]]] += dur

    def _ids(self, labels) -> List[int]:
        return [i for i, n in enumerate(self.names) if n in labels]

    def count(self, *labels: str) -> int:
        return sum(self._count[i] for i in self._ids(labels))

    def total(self, *labels: str) -> float:
        return sum(self._dur[i] for i in self._ids(labels))

    def self_total(self, *labels: str) -> float:
        """Duration of the labelled spans minus the time their children cover."""
        return sum(self._dur[i] - self._child[i] for i in self._ids(labels))

    def table(self) -> List[str]:
        return [f"span {n}: {c} calls, {d:.6f} s total, {d - ch:.6f} s self"
                for n, c, d, ch in zip(self.names, self._count, self._dur, self._child)
                if c]


@contextlib.contextmanager
def _patched(patches: List[Tuple[object, str, object]]) -> Iterator[None]:
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in saved:
            setattr(obj, attr, old)


def instrumented(spans: Spans):
    """Wrap every layer entry point on the query path."""
    def rows(rels) -> int:
        return sum(len(r.rows) for r in rels.values())

    build = rj.Database.__dict__["build"].__func__
    w = spans.wrap
    return _patched([
        (rj, "parse_query", w("query.parse_query", rj.parse_query)),
        (rj, "load_csv", w("data.load_csv", rj.load_csv, lambda t: len(t.rows))),
        (rj.Database, "build", classmethod(w("data.build", build))),
        (rj_preprocess, "gyo_join_tree",
         w("decomposition.gyo_join_tree", rj_preprocess.gyo_join_tree)),
        (rj_preprocess, "materialize_bags",
         w("preprocess.materialize_bags", rj_preprocess.materialize_bags, rows)),
        (rj_preprocess, "full_reducer",
         w("preprocess.full_reducer", rj_preprocess.full_reducer, rows)),
        (rj_preprocess, "initialize_queues",
         w("preprocess.initialize_queues", rj_preprocess.initialize_queues)),
        (rj.ScoreModel, "node_score",
         w("ranking.node_score", rj.ScoreModel.node_score)),
        (rj.RankedCursor, "next", w("cursor.next", rj.RankedCursor.next)),
        (rj.RankedCursor, "_insert", w("cursor.insert", rj.RankedCursor._insert)),
        (rj.UnionCursor, "next", w("union.next", rj.UnionCursor.next)),
        (rj, "format_record", w("result.format_record", rj.format_record)),
    ])


def _sub_cursors(cursor) -> List[rj.RankedCursor]:
    return list(cursor.cursors) if isinstance(cursor, rj.UnionCursor) else [cursor]


def _counters(subs) -> Tuple[int, int, int, int]:
    snaps = [c.prepared.counters.snapshot() for c in subs]
    return tuple(sum(s[i] for s in snaps) for i in range(4))


def traced_pass(conf: Dict[str, str], k: Optional[int], spans: Spans):
    """Set up and enumerate with every layer wrapped; return (wall seconds,
    output lines, layer figures)."""
    pc = time.perf_counter
    gc.collect()
    with instrumented(spans):
        t0 = pc()
        rf, db, cursor = open_cursor(conf)
        mark = len(spans)
        subs = _sub_cursors(cursor)
        before = _counters(subs)
        fmt = rj.format_record
        lines: List[str] = []
        max_cells = 0
        while k is None or len(lines) < k:
            cells = _counters(subs)[3]
            out = cursor.next()
            if out is None:
                break
            max_cells = max(max_cells, _counters(subs)[3] - cells)
            lines.append(fmt(rf, db, out))
        wall = pc() - t0
    after = _counters(subs)
    n = max(1, len(lines))
    inserts, pops, comparisons, cells = (a - b for a, b in zip(after, before))
    setup, enum = spans.summary(0, mark), spans.summary(mark)
    insert_calls = enum.count("cursor.insert")
    sub_emitted = sum(c.emitted_count for c in subs)
    figures = {
        "data.load_csv_s": setup.total("data.load_csv"),
        "data.build_s": setup.total("data.build"),
        "data.rows_loaded": sum(spans.sizes["data.load_csv"]),
        "decomposition.plan_s": setup.total(
            "query.parse_query", "decomposition.gyo_join_tree"),
        "preprocess.materialize_s": setup.total("preprocess.materialize_bags"),
        "preprocess.reduce_s": setup.total("preprocess.full_reducer"),
        "preprocess.init_queues_s": setup.total("preprocess.initialize_queues"),
        "preprocess.bag_rows_in": sum(spans.sizes["preprocess.materialize_bags"]),
        "preprocess.bag_rows_out": sum(spans.sizes["preprocess.full_reducer"]),
        "preprocess.cells_initial": sum(c.prepared.initial_cells for c in subs),
        "ranking.node_score_calls_setup": setup.count("ranking.node_score"),
        "ranking.node_score_calls_per_result": enum.count("ranking.node_score") / n,
        "ranking.node_score_s": enum.total("ranking.node_score"),
        "cursor.next_s": enum.total("cursor.next"),
        "cursor.self_s": enum.self_total("cursor.next", "cursor.insert"),
        "cursor.inserts_per_result": inserts / n,
        "cursor.pops_per_result": pops / n,
        "cursor.comparisons_per_result": comparisons / n,
        "cursor.insert_useful_frac": cells / insert_calls if insert_calls else 1.0,
        "cursor.max_cells_per_result": max_cells,
        "union.self_s": enum.self_total("union.next"),
        "union.dup_frac": 1 - len(lines) / sub_emitted if sub_emitted else 0.0,
        "result.format_s": enum.total("result.format_record"),
    }
    return wall, lines, figures


def memory_pass(conf: Dict[str, str], expected: List[str]) -> Tuple[float, int, int]:
    """Traced bytes retained per result over the first results; outputs are
    checked as they stream and not kept, so only the engine's memory counts.
    Returns (bytes per result, results pulled, mismatches)."""
    limit = min(MEMORY_PASS_RESULTS, len(expected))
    rf, db, cursor = open_cursor(conf)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bad = pulled = 0
        while pulled < limit:
            out = cursor.next()
            if out is None:
                break
            bad += rj.format_record(rf, db, out) != expected[pulled]
            pulled += 1
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return grown / max(1, pulled), pulled, bad + (limit - pulled)


def traced_run(conf_path: str, k: Optional[int], expected: List[str],
               seconds: float, spans_path: str):
    conf = read_conf(conf_path)
    tally = Tally()
    notes: List[str] = []
    untraced: List[float] = []
    traced: List[float] = []
    passes: List[Dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    # Stop when the next pair of passes would mostly run past the deadline.
    while len(passes) < MIN_PASSES or time.perf_counter() + last / 2 < deadline:
        pair_start = time.perf_counter()
        t = trial(conf, k)
        tally.check("untraced trial", t.lines, expected)
        untraced.append(t.setup_s + t.end - t.stamps[0])
        spans = Spans()
        wall, lines, figures = traced_pass(conf, k, spans)
        tally.check(f"traced pass {len(passes)}", lines, expected)
        traced.append(wall)
        passes.append(figures)
        last = time.perf_counter() - pair_start
    notes += spans.summary().table()
    spans.write(spans_path)

    exact = [m for m in passes[0] if m not in TIMES]
    for p in passes[1:]:
        differ = [m for m in exact if p[m] != passes[0][m]]
        if differ:
            notes.append(f"counts differ between traced passes: {differ}")
    bytes_per, pulled, bad = memory_pass(conf, expected)
    tally.attempted += pulled
    tally.failed += bad
    metrics = {}
    for name, unit in UNITS.items():
        if name == "cursor.bytes_per_result":
            value = bytes_per
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif name in TIMES:
            value = statistics.median(p[name] for p in passes)
        else:
            value = passes[0][name]
        metrics[name] = (value, unit, len(passes))
    notes.append(f"{len(passes)} traced passes; bytes_per_result over the first "
                 f"{pulled} results; spans of the last pass in {spans_path}")
    return metrics, tally, notes + tally.notes
