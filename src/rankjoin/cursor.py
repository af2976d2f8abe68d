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
"""

from __future__ import annotations

import heapq
from itertools import islice
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

from .errors import EngineInvariantError
from .preprocess import Counters, Entry, PreparedQuery, new_cell
from .ranking import RankingFunction
from .result import OutputTuple

UNSET = object()  # a tie missing from `NodeState.succ`, unlike a None successor


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
    """Whether a cursor under `rf` buffers each run of equal-score outputs and
    sorts it before emitting the first, so its delay grows with the run.

    Under max, a strict score gap between two subtree valuations can collapse
    to a tie higher up, so no per-queue tie order alone can deliver
    equal-score outputs sorted by value. Scores still arrive nondecreasing, so
    sorting each equal-score run restores the total order. Sum/product keep
    strict gaps strict and lex/bounded carry their ties consistently, so they
    skip the buffer."""
    return rf.op == "max" and rf.kind in ("tuple", "vertex")


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
        self._run_sorted = buffers_ties(prepared.model.rf)
        self._run: List[OutputTuple] = []

    def next(self) -> Optional[OutputTuple]:
        if not self._run_sorted:
            out = self._engine_next()
            if out is not None:
                self.emitted_count += 1
            return out
        if not self._run:
            first = self._engine_next()
            if first is None:
                return None
            run = [first]
            score = first[1]
            heap = self.prepared.root_state.queues.get(())
            while heap and heap[0][0] == score:
                run.append(self._engine_next())
            run.sort(key=itemgetter(0))  # by values
            run.reverse()  # emit by popping from the tail
            self._run = run
        self.emitted_count += 1
        return self._run.pop()

    def _engine_next(self) -> Optional[OutputTuple]:
        p = self.prepared
        root = p.decomposition.root
        heap = p.states[root].queues.get(())
        if not heap:
            return None
        entry = heap[0]
        if self.stats:
            before = p.counters.snapshot()
            self._topdown(root, entry)
            after = p.counters.snapshot()
            self.pull_stats.append(tuple(a - b for a, b in zip(after, before)))
        else:
            self._topdown(root, entry)
        return OutputTuple(entry[1], entry[0])

    def _topdown(self, nid: int, entry: Entry) -> Optional[Entry]:
        _, tie, valuation, node_score, child_entries, pivot = entry
        p = self.prepared
        state = p.states[nid]
        succ = state.succ.get(tie, UNSET)
        if succ is not UNSET:
            return succ
        key = state.key(valuation)
        heap = state.queues.get(key)
        if not heap or heap[0] is not entry:
            raise EngineInvariantError(
                f"node {nid}: consumed entry is not the top of its queue"
            )
        self._pop(heap)
        p.counters.pops += 1
        children = p.decomposition.nodes[nid].children
        # Children below the pivot hold entries that this entry's Lawler
        # ancestors already consumed, so their successors are memoized.
        for i in range(pivot, len(children)):
            succ = self._topdown(children[i], child_entries[i])
            if succ is not None:
                sibling = child_entries[:i] + (succ,) + child_entries[i + 1 :]
                self._insert(nid, key, valuation, node_score, sibling, i)
        if nid == p.decomposition.root:
            # Root entries are never memoized; consumed ones are simply dropped.
            return None
        succ = state.succ[tie] = heap[0] if heap else None
        return succ

    def _insert(self, nid, key, valuation, node_score, child_entries, pivot) -> None:
        p = self.prepared
        state = p.states[nid]
        entry = new_cell(state, p.model, valuation, node_score, child_entries, pivot)
        self._push(state.queues[key], entry)
        p.counters.inserts += 1
