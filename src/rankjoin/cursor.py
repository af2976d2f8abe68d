"""Pull-based ranked enumeration over a PreparedQuery.

Each pull emits the root queue's top, then walks top-down through the cells
that produced it: every visited node pops its consumed cell, inserts one
sibling per child at or after the cell's pivot by replacing that child's cell
with its successor, and (except at the root) memoizes its successor in the
cell's `next` slot. Memoized nodes short-circuit on later visits — that is
what keeps per-pull work proportional to the tree size rather than the
subtree result size.

The pivot rule is Lawler's partition (Lawler, "A procedure for computing the
K best solutions to discrete optimization problems and its application to the
shortest path problem", Management Science, 1972): the sibling made by
advancing child i gets pivot i, so every combination of child cells has
exactly one parent cell and is generated exactly once. Every accepted ranking
is monotone in each child's (score, tie), so a cell never ranks before its
parent, and each queue's top is still its best combination not yet consumed.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .errors import EngineInvariantError
from .preprocess import UNSET, Cell, PreparedQuery, new_cell
from .result import OutputTuple


class RankedCursor:
    def __init__(self, prepared: PreparedQuery):
        prepared.claim()
        self.prepared = prepared
        self.emitted_count = 0
        # Per-pull deltas of (inserts, pops, comparisons, cells).
        self.pull_stats: List[Tuple[int, int, int, int]] = []
        # Under max, a strict score gap between two subtree valuations can
        # collapse to a tie higher up, so no per-queue tie order alone can
        # deliver equal-score outputs sorted by value. Scores still arrive
        # nondecreasing, so sorting each equal-score run restores the total
        # order. Sum/product keep strict gaps strict and lex/bounded carry
        # their ties consistently, so they skip the buffer.
        self._run_sorted = prepared.model.rf.op == "max" and (
            prepared.model.rf.kind in ("tuple", "vertex")
        )
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
            while True:
                state = self.prepared.root_state
                heap = state.queues.get(())
                if not heap or heap[0].score != first.score:
                    break
                run.append(self._engine_next())
            run.sort(key=lambda t: t.values)
            run.reverse()  # emit by popping from the tail
            self._run = run
        self.emitted_count += 1
        return self._run.pop()

    def _engine_next(self) -> Optional[OutputTuple]:
        p = self.prepared
        root = p.decomposition.root
        state = p.states[root]
        heap = state.queues.get(())
        if not heap:
            return None
        before = p.counters.snapshot()
        cell = heap[0]
        out = OutputTuple(values=cell.tie, score=cell.score)
        self._topdown(root, cell)
        after = p.counters.snapshot()
        self.pull_stats.append(tuple(a - b for a, b in zip(after, before)))
        return out

    def _topdown(self, nid: int, cell: Cell):
        p = self.prepared
        state = p.states[nid]
        if cell.next is not UNSET:
            return cell.next
        key = state.key(cell.valuation)
        heap = state.queues.get(key)
        if not heap or heap[0] is not cell:
            raise EngineInvariantError(
                f"node {nid}: consumed cell is not the top of its queue"
            )
        heapq.heappop(heap)
        p.counters.pops += 1
        children = p.decomposition.nodes[nid].children
        # Children below the pivot hold cells that this cell's Lawler
        # ancestors already consumed, so their successors are memoized.
        for i in range(cell.pivot, len(children)):
            succ = self._topdown(children[i], cell.child_cells[i])
            if succ is not None:
                sibling = cell.child_cells[:i] + (succ,) + cell.child_cells[i + 1 :]
                self._insert(nid, key, cell.valuation, cell.node_score, sibling, i)
        if nid == p.decomposition.root:
            # Root cells are never chained; consumed ones are simply dropped.
            return None
        cell.next = heap[0] if heap else None
        return cell.next

    def _insert(self, nid, key, valuation, node_score, child_cells, pivot) -> None:
        p = self.prepared
        state = p.states[nid]
        cell = new_cell(
            state, p.model, p.counters, valuation, node_score, child_cells, pivot
        )
        heapq.heappush(state.queues[key], cell)
        p.counters.inserts += 1

    def drain_topk(self, k: int) -> List[OutputTuple]:
        out = []
        while len(out) < k:
            item = self.next()
            if item is None:
                break
            out.append(item)
        return out

    def drain(self) -> List[OutputTuple]:
        out = []
        while True:
            item = self.next()
            if item is None:
                return out
            out.append(item)
