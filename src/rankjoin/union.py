"""Duplicate-free ranked merge of per-disjunct cursors.

Each sub-cursor already emits in (score, output values) order, so a merge heap
holding at most one pending tuple per disjunct yields the union in the same
order; duplicates surface consecutively and are drained on the spot. The merge
asserts strict monotonicity of every sub-stream defensively — a violation
would mean an engine bug, not bad input.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from .cursor import Cursor, RankedCursor
from .errors import EngineInvariantError
from .result import OutputTuple


def compare_key(t: OutputTuple):
    """Order by score, ties broken by the values in head-variable order."""
    return (t.score, t.values)


class UnionCursor(Cursor):
    def __init__(self, cursors: List[RankedCursor]):
        if not cursors:
            raise EngineInvariantError("union of zero disjuncts")
        heads = {c.prepared.query.head for c in cursors}
        if len(heads) != 1:
            raise EngineInvariantError(f"disjunct heads differ: {heads}")
        self.cursors = cursors
        self._last: List[Optional[Tuple]] = [None] * len(cursors)
        self._heap: List[Tuple[object, Tuple[int, ...], int, OutputTuple]] = []
        self.emitted_count = 0
        for i in range(len(cursors)):
            self._refill(i)

    def _refill(self, idx: int) -> None:
        item = self.cursors[idx].next()
        if item is None:
            return
        key = compare_key(item)
        if self._last[idx] is not None and key <= self._last[idx]:
            raise EngineInvariantError(
                f"disjunct {idx} emitted out of order: {key} after {self._last[idx]}"
            )
        self._last[idx] = key
        heapq.heappush(self._heap, (item.score, item.values, idx, item))

    def next(self) -> Optional[OutputTuple]:
        if not self._heap:
            return None
        _, values, idx, item = heapq.heappop(self._heap)
        self._refill(idx)
        # Drain duplicates of the emitted tuple from the other disjuncts.
        while self._heap and self._heap[0][1] == values:
            _, _, dup_idx, dup = heapq.heappop(self._heap)
            if dup.score != item.score:
                raise EngineInvariantError(
                    f"duplicate {values} with diverging scores "
                    f"{item.score} vs {dup.score}"
                )
            self._refill(dup_idx)
        self.emitted_count += 1
        return item
