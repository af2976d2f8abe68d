"""Duplicate-free ranked merge of per-disjunct cursors.

Each sub-cursor already emits in (score, output values) order, so a merge heap
holding at most one pending tuple per disjunct yields the union in the same
order. An output found by several disjuncts ranks by its best derivation, the
lowest of their scores, which is the first occurrence the merge meets. Under
tuple weights (`tuple_*`, `bounded(tuple_*; …)`) its other derivations can
score higher and surface much later, so the merge keeps the set of values it
has emitted and skips later occurrences: O(k) space after k results, for every
ranking. The merge also asserts strict monotonicity of every sub-stream
defensively.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from .cursor import Cursor, RankedCursor
from .errors import EngineInvariantError
from .result import OutputTuple


def compare_key(t: OutputTuple):
    """Order by score, ties broken by the values in head-variable order."""
    return (t[1], t[0])


class UnionCursor(Cursor):
    def __init__(self, cursors: List[RankedCursor]):
        if not cursors:
            raise EngineInvariantError("union of zero disjuncts")
        heads = {c.prepared.query.head for c in cursors}
        if len(heads) != 1:
            raise EngineInvariantError(f"disjunct heads differ: {heads}")
        self.cursors = cursors
        # One pending (score, values, disjunct, output) per live disjunct,
        # led by its `compare_key`.
        self._heap: List[Tuple[object, Tuple[int, ...], int, OutputTuple]] = []
        self.emitted_count = 0
        self._emitted: Set[Tuple[int, ...]] = set()
        for idx, c in enumerate(cursors):
            item = c.next()
            if item is not None:
                heapq.heappush(self._heap, (*compare_key(item), idx, item))

    def next(self) -> Optional[OutputTuple]:
        heap, emitted = self._heap, self._emitted
        while heap:
            top = heap[0]
            idx, item = top[2], top[3]
            # Replace the top by its disjunct's next output, which must rank
            # after it: the top is that disjunct's last output.
            following = self.cursors[idx].next()
            if following is None:
                heapq.heappop(heap)
            else:
                entry = (following[1], following[0], idx, following)
                if entry <= top:
                    raise EngineInvariantError(
                        f"disjunct {idx} emitted out of order: {entry[:2]} "
                        f"after {top[:2]}"
                    )
                heapq.heapreplace(heap, entry)
            seen = len(emitted)
            emitted.add(top[1])
            if len(emitted) != seen:
                self.emitted_count += 1
                return item
        return None
