"""Pull-based ranked enumeration over a PreparedQuery.

Each pull emits the root queue's top, then walks top-down through the entries
that produced it: every visited node pops its consumed entry, inserts one
sibling per child at or after the entry's pivot by replacing that child's
entry with its successor, and (except at the root) memoizes its successor in
the node's `succ` dict under the entry's tie, which no other entry of the node
shares. Memoized entries short-circuit on later visits — that is what keeps
per-pull work proportional to the tree size rather than the subtree result
size.

The pivot rule is Lawler's partition (Lawler, "A procedure for computing the
K best solutions to discrete optimization problems and its application to the
shortest path problem", Management Science, 1972): the sibling made by
advancing child i gets pivot i, so every combination of child entries has
exactly one parent entry and is generated exactly once. Every accepted ranking
is monotone in each child's (score, tie), so an entry never ranks before its
parent, and each queue's top is still its best combination not yet consumed.

Queue entries are flat tuples led by (score, tie) (preprocess.py). The tie is
the subtree valuation, unique within a node, so `heapq` orders entries in C by
(score, tie) and never compares further. A cursor built with stats=True uses
`counted_heap` instead, which makes the same comparisons and counts them, and
records per-pull counter deltas in `pull_stats`.

Under `tuple_max`/`vertex_max` the cursor buffers equal-score outputs and sorts
them by value before emitting them (`buffers_ties`). A group is the outputs
that share their score and their values of the longest head prefix that the
root bag holds (`tie_lead`), not the whole score run. One fill pulls whole
groups until it holds `TIE_BATCH` (8) outputs or more (fewer before the
cursor has emitted that many), and sorts them by score and values, so a
fill takes at most 7 outputs more than its largest group. Every engine pull of
such a cursor runs inside a fill (`_fill`), and a fill runs with the cyclic GC
paused (`data._GcPause`), as set-up does: what it makes forms no cycle, so
a collection during it would free nothing, and on the way out it moves every
tracked object, the caller's young ones too, to the oldest generation. Each
cursor keeps its own `_GcPause`: once a fill has found objects the caller
froze, later fills skip the walk over them that reading their count costs,
and promote nothing. A cursor that does not buffer pulls one output per
`next()` with the GC as the caller left it, so its drains still run young
collections.
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from .data import _GcPause
from .decomposition import TreeDecomposition
from .errors import EngineInvariantError
from .preprocess import Counters, Entry, PreparedQuery, new_cell
from .ranking import RankingFunction
from .result import OutputTuple

UNSET = object()  # a tie missing from `NodeState.succ`, unlike a None successor
# The fewest outputs one tie-buffer fill pulls, in whole groups, once the
# cursor has emitted that many; until then a fill needs only as many as were
# emitted, so the first fill is one group. A fill holds at most TIE_BATCH - 1
# outputs more than its largest group. On union_ties (seed 1) a fill at 8
# holds 9 outputs at the median (15 at p90, 26 at most) and about one union
# pull in eight runs one; at 32 it held 34 (39, 49), which made the slowest
# pulls about twice as slow for no better median delay. Filling one group at
# a time made a pull in about one result in six run a fill, which raised the
# median delay.
TIE_BATCH = 8


def counted_heap(counters: Counters) -> Tuple[Callable, Callable]:
    """A heappush/heappop pair that follows CPython's `heapq` sift algorithm
    and adds each `<` it makes to `counters.comparisons`."""

    def sift_down(heap, pos):
        # Move heap[pos] toward the root past every larger parent.
        item = heap[pos]
        while pos:
            parent_pos = (pos - 1) >> 1
            parent = heap[parent_pos]
            counters.comparisons += 1
            if not item < parent:
                break
            heap[pos] = parent
            pos = parent_pos
        heap[pos] = item

    def push(heap, item):
        heap.append(item)
        sift_down(heap, len(heap) - 1)

    def pop(heap):
        last = heap.pop()
        if not heap:
            return last
        top = heap[0]
        # Move the smaller child up until a leaf, put `last` there, then
        # sift it back toward the root.
        end = len(heap)
        pos, child = 0, 1
        while child < end:
            right = child + 1
            if right < end:
                counters.comparisons += 1
                if not heap[child] < heap[right]:
                    child = right
            heap[pos] = heap[child]
            pos, child = child, 2 * child + 1
        heap[pos] = last
        sift_down(heap, pos)
        return top

    return push, pop


def buffers_ties(rf: RankingFunction) -> bool:
    """Whether a cursor under `rf` buffers equal-score outputs and sorts each
    group of them (see `tie_lead`) before emitting the first, so its delay
    grows with the largest group.

    Under max, a strict score gap between two subtree valuations can collapse
    to a tie higher up, so no per-queue tie order alone can deliver
    equal-score outputs sorted by value. Scores still arrive nondecreasing, so
    sorting each equal-score group restores the total order. Sum/product keep
    strict gaps strict and lex/bounded carry their ties consistently, so they
    skip the buffer."""
    return rf.op == "max" and rf.kind in ("tuple", "vertex")


def tie_lead(d: TreeDecomposition) -> int:
    """How many leading head values the outputs of one buffered group share
    besides their score: the length of the longest head prefix whose
    variables the root bag holds. At 0 the group is the whole equal-score run.

    A root entry's siblings keep its bag valuation, and a root entry's tie is
    its output in head order. So an output pulled later in a score run can
    sort before one pulled earlier only if both share their root-bag values,
    and with them every head value of that prefix. As (score, prefix values)
    leads the sort key, the groups stay contiguous once sorted."""
    bag = d.nodes[d.root].bag
    lead = 0
    for v in d.query.head:
        if v not in bag:
            break
        lead += 1
    return lead


class Cursor:
    """The drain helpers of every cursor; subclasses define `next()`."""

    def drain_topk(self, k: int) -> List[OutputTuple]:
        return list(islice(iter(self.next, None), k))

    def drain(self) -> List[OutputTuple]:
        return list(iter(self.next, None))


class RankedCursor(Cursor):
    def __init__(self, prepared: PreparedQuery, stats: bool = False):
        prepared.claim()
        self.prepared = prepared
        self.emitted_count = 0
        # With stats=True: per-pull deltas of (inserts, pops, comparisons,
        # cells). Without, it stays empty and comparisons are not counted.
        self.stats = stats
        self.pull_stats: List[Tuple[int, int, int, int]] = []
        if stats:
            self._push, self._pop = counted_heap(prepared.counters)
        else:
            self._push, self._pop = heapq.heappush, heapq.heappop
        self._buffered = buffers_ties(prepared.model.rf)
        self._lead = tie_lead(prepared.decomposition)
        # The buffered groups, sorted by score and values, emitted from the tail.
        self._buffer: List[OutputTuple] = []
        self._gc_pause = _GcPause()
        # Read once here rather than on every visit of the walk: per node id,
        # its state, its children's ids and whether it is the root. The root
        # queue list is never replaced, only pushed to and popped from.
        d = prepared.decomposition
        self._nodes = {
            nid: (prepared.states[nid], node.children, nid == d.root)
            for nid, node in d.nodes.items()
        }
        self._root = d.root
        self._root_heap = prepared.root_state.queues.get(())
        self._counters = prepared.counters
        self._model = prepared.model

    def next(self) -> Optional[OutputTuple]:
        if not self._buffered:
            out = self._engine_next()
            if out is not None:
                self.emitted_count += 1
            return out
        if not self._buffer:
            if not self._root_heap:
                return None
            self._buffer = self._gc_pause.run(self._fill)
        self.emitted_count += 1
        return self._buffer.pop()

    def _fill(self) -> List[OutputTuple]:
        """Pull whole groups, from a root queue that is not empty, until they
        hold at least `TIE_BATCH` outputs (fewer before the cursor has emitted
        that many), and return them sorted by score and values, last first.
        `next` runs it with the GC paused."""
        first = self._engine_next()
        buffer = [first]
        lead = self._lead
        score, prefix = first[1], first[0][:lead]
        least = min(TIE_BATCH, self.emitted_count)
        heap = self._root_heap
        while heap:
            top = heap[0]
            if top[0] != score or top[1][:lead] != prefix:
                # The group is complete: no later pull can join it.
                if len(buffer) >= least:
                    break
                score, prefix = top[0], top[1][:lead]
            buffer.append(self._engine_next())
        buffer.sort(key=itemgetter(1, 0))  # by score, then values
        buffer.reverse()  # emit by popping from the tail
        return buffer

    def _engine_next(self) -> Optional[OutputTuple]:
        heap = self._root_heap
        if not heap:
            return None
        entry = heap[0]
        if self.stats:
            counters = self._counters
            before = counters.snapshot()
            self._topdown(self._root, entry)
            after = counters.snapshot()
            self.pull_stats.append(tuple(a - b for a, b in zip(after, before)))
        else:
            self._topdown(self._root, entry)
        # `tuple.__new__` skips the named tuple's Python-level `__new__`.
        return tuple.__new__(OutputTuple, (entry[1], entry[0]))

    def _topdown(self, nid: int, entry: Entry) -> Optional[Entry]:
        _, tie, valuation, node_score, child_entries, pivot = entry
        state, children, is_root = self._nodes[nid]
        succ = state.succ.get(tie, UNSET)
        if succ is not UNSET:
            return succ
        heap = state.queues.get(state.key(valuation))
        if not heap or heap[0] is not entry:
            raise EngineInvariantError(
                f"node {nid}: consumed entry is not the top of its queue"
            )
        self._pop(heap)
        self._counters.pops += 1
        # Children below the pivot hold entries that this entry's Lawler
        # ancestors already consumed, so their successors are memoized.
        for i in range(pivot, len(children)):
            succ = self._topdown(children[i], child_entries[i])
            if succ is not None:
                sibling = child_entries[:i] + (succ,) + child_entries[i + 1 :]
                self._insert(state, heap, valuation, node_score, sibling, i)
        if is_root:
            # Root entries are never memoized; consumed ones are simply dropped.
            return None
        succ = state.succ[tie] = heap[0] if heap else None
        return succ

    def _insert(self, state, heap, valuation, node_score, child_entries, pivot) -> None:
        """Make the entry for `valuation` over `child_entries` and push it
        onto `heap`, the node queue that its consumed sibling topped."""
        entry = new_cell(state, self._model, valuation, node_score, child_entries, pivot)
        self._push(heap, entry)
        self._counters.inserts += 1
