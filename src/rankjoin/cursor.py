"""Pull-based ranked enumeration over a PreparedQuery.

Each pull emits the root queue's top, then walks top-down through the entries
that produced it: every visited node pops its consumed entry, inserts one
sibling per child at or after the entry's pivot by replacing that child's
entry with its successor, and (except at the root) memoizes its successor in
the node's `succ` dict under the entry's tie, which no other entry of the node
shares. Memoized entries short-circuit on later visits — that is what keeps
per-pull work proportional to the tree size rather than the subtree result
size.

The walk is compiled once, when the cursor is built (`_compile_walk`): one
step function per node, made bottom-up, binds what a visit would otherwise
look up: the node's memo, its queue lookup and key getter, its child steps,
the heap pop, the counters and the class's `_insert`. A step takes the cursor
as its first argument and holds no reference to it, so a cursor forms no
reference cycle. The root step pops the root queue directly, with no memo
lookup, as root entries are never memoized. Every insert still goes through
`RankedCursor._insert`, but as the class defined it when the cursor was
built: patching `_insert` afterwards does not reach that cursor's walk. Steps
call their child steps, so the walk still recurses once per tree level.

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

Under `tuple_max`/`vertex_max`, and `bounded(…)` over either, the cursor
buffers equal-score outputs and sorts them by value before emitting them
(`buffers_ties`). A group is the outputs that share their score and their
values of the longest head prefix that the root bag holds (`tie_lead`), not
the whole score run. One fill pulls whole groups until it holds
`TIE_BATCH` (8) outputs or more (fewer before the
cursor has emitted that many), so it takes at most 7 outputs more than its
largest group. It sorts the consumed root entries themselves, in C: a root
entry's tie is its output in head order, so (score, tie) is the output order,
and it builds the outputs once they are sorted. Every engine pull of
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
from operator import sub
from typing import Callable, List, Optional, Tuple

from .data import _GcPause
from .decomposition import TreeDecomposition
from .errors import EngineInvariantError
from .preprocess import Counters, PreparedQuery, new_cell
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
    strict gaps strict and lex carries its ties consistently, so they skip the
    buffer. A bounded ranking is its inner fold over fewer terms, so
    `bounded(*_max; …)` buffers as `*_max` does."""
    return rf.op == "max"


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
        counters = prepared.counters
        if stats:
            self._push, pop = counted_heap(counters)
        else:
            self._push, pop = heapq.heappush, heapq.heappop
        self._buffered = buffers_ties(prepared.model.rf)
        self._lead = tie_lead(prepared.decomposition)
        # The buffered groups, sorted by score and values, emitted from the tail.
        self._buffer: List[OutputTuple] = []
        self._gc_pause = _GcPause()
        # The root queue list is never replaced, only pushed to and popped from.
        self._root_heap = prepared.root_state.queues.get(())
        self._counters = counters
        self._model = prepared.model
        step = _compile_walk(prepared, pop, type(self)._insert)
        if stats:
            step = _recorded(step, counters, self.pull_stats)
        self._root_step = step

    def next(self) -> Optional[OutputTuple]:
        if self._buffered:
            if not self._buffer:
                if not self._root_heap:
                    return None
                self._buffer = self._gc_pause.run(self._fill)
            self.emitted_count += 1
            return self._buffer.pop()
        if not self._root_heap:
            return None
        entry = self._root_step(self)
        self.emitted_count += 1
        # `tuple.__new__` skips the named tuple's Python-level `__new__`.
        return tuple.__new__(OutputTuple, (entry[1], entry[0]))

    def _fill(self) -> List[OutputTuple]:
        """Pull whole groups, from a root queue that is not empty, until they
        hold at least `TIE_BATCH` outputs (fewer before the cursor has emitted
        that many), and return them sorted by score and values, last first.
        `next` runs it with the GC paused."""
        step, heap, lead = self._root_step, self._root_heap, self._lead
        first = step(self)
        consumed = [first]
        score, prefix = first[0], first[1][:lead]
        least = min(TIE_BATCH, self.emitted_count)
        while heap:
            top = heap[0]
            if top[0] != score or top[1][:lead] != prefix:
                # The group is complete: no later pull can join it.
                if len(consumed) >= least:
                    break
                score, prefix = top[0], top[1][:lead]
            consumed.append(step(self))
        # Root entries order by (score, output values), as their tie is the
        # output in head order and no two share it; emit by popping the tail.
        consumed.sort(reverse=True)
        new = tuple.__new__
        return [new(OutputTuple, (e[1], e[0])) for e in consumed]

    def _insert(self, state, heap, valuation, node_score, child_entries, pivot) -> None:
        """Make the entry for `valuation` over `child_entries` and push it
        onto `heap`, the node queue that its consumed sibling topped."""
        entry = new_cell(state, self._model, valuation, node_score, child_entries, pivot)
        self._push(heap, entry)
        self._counters.inserts += 1


def _compile_walk(prepared: PreparedQuery, pop: Callable, insert: Callable) -> Callable:
    """The root step of `prepared`'s walk, built bottom-up from one step per
    node. A step takes the cursor, which it passes on to `insert` and to its
    child steps, and holds no reference to it."""
    d, counters = prepared.decomposition, prepared.counters
    steps = {}
    for nid in d.post_order():
        state = prepared.states[nid]
        child_steps = tuple(steps[c] for c in d.nodes[nid].children)
        if nid == d.root:
            steps[nid] = _make_root_step(state, child_steps, pop, insert, counters)
        else:
            steps[nid] = _make_node_step(nid, state, child_steps, pop, insert, counters)
    return steps[d.root]


def _make_root_step(state, child_steps, pop, insert, counters) -> Callable:
    """`(cursor) -> entry`: consume the top of the root queue, which must not
    be empty, insert one sibling per child at or after its pivot, and return
    it. Root entries are never memoized; consumed ones are simply dropped."""
    heap, n = state.queues.get(()), len(child_steps)

    def root_step(cur):
        entry = pop(heap)
        counters.pops += 1
        child_entries = entry[4]
        for i in range(entry[5], n):
            succ = child_steps[i](cur, child_entries[i])
            if succ is not None:
                sibling = child_entries[:i] + (succ,) + child_entries[i + 1 :]
                insert(cur, state, heap, entry[2], entry[3], sibling, i)
        return entry

    return root_step


def _make_node_step(nid, state, child_steps, pop, insert, counters) -> Callable:
    """`(cursor, entry) -> successor`: the memoized successor of `entry` at
    node `nid`, or else consume `entry`, which must top its queue, insert one
    sibling per child at or after its pivot, and memoize the queue's new top
    (None when it is empty)."""
    memo, memo_get = state.succ, state.succ.get
    queue_of, key, n = state.queues.get, state.key, len(child_steps)

    def step(cur, entry):
        tie = entry[1]
        succ = memo_get(tie, UNSET)
        if succ is not UNSET:
            return succ
        valuation = entry[2]
        heap = queue_of(key(valuation))
        if not heap or heap[0] is not entry:
            raise EngineInvariantError(
                f"node {nid}: consumed entry is not the top of its queue"
            )
        pop(heap)
        counters.pops += 1
        # Children below the pivot hold entries that this entry's Lawler
        # ancestors already consumed, so their successors are memoized.
        child_entries = entry[4]
        for i in range(entry[5], n):
            succ = child_steps[i](cur, child_entries[i])
            if succ is not None:
                sibling = child_entries[:i] + (succ,) + child_entries[i + 1 :]
                insert(cur, state, heap, valuation, entry[3], sibling, i)
        succ = memo[tie] = heap[0] if heap else None
        return succ

    return step


def _recorded(root_step: Callable, counters: Counters, pull_stats: List) -> Callable:
    """`root_step`, appending each call's counter deltas to `pull_stats`."""
    snapshot, record = counters.snapshot, pull_stats.append

    def recorded_step(cur):
        before = snapshot()
        entry = root_step(cur)
        record(tuple(map(sub, snapshot(), before)))
        return entry

    return recorded_step
