"""Duplicate-free ranked merge of per-disjunct cursors.

Each sub-cursor already emits in (score, output values) order, so a merge heap
holding at most one pending tuple per disjunct yields the union in the same
order. An output found by several disjuncts ranks by its best derivation, the
lowest of their scores, which is the first occurrence the merge meets. The
disjuncts must share their head, ranking and database, or their scores and
constant ids would not compare.

Under rankings that read only the output values (`vertex_*`, `lex(…)`,
`bounded(vertex_*; …)`), every derivation of an output has the same score, so
its occurrences reach the top of the merge one after another, and the merge
skips an output equal to the last one it emitted: it keeps no per-output
state. Under tuple weights (`tuple_*`, `bounded(tuple_*; …)`) an output's
other derivations can score higher and surface much later, so the merge keeps
the set of values it has emitted and skips later occurrences: O(k) space
after k results. The merge also asserts strict monotonicity of every
sub-stream defensively.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from .cursor import Cursor, RankedCursor
from .errors import EngineInvariantError
from .ranking import RankingFunction
from .result import OutputTuple


def compare_key(t: OutputTuple):
    """Order by score, ties broken by the values in head-variable order."""
    return (t[1], t[0])


def scores_by_values(rf: RankingFunction) -> bool:
    """Whether `rf` scores an output by its values alone, so every disjunct
    that derives it gives it the same score."""
    return rf.kind != "tuple"


class UnionCursor(Cursor):
    def __init__(self, cursors: List[RankedCursor]):
        if not cursors:
            raise EngineInvariantError("union of zero disjuncts")
        first = cursors[0].prepared
        for idx, c in enumerate(cursors[1:], 1):
            p = c.prepared
            if p.query.head != first.query.head:
                raise EngineInvariantError(
                    f"disjunct heads differ: disjunct 0 has {first.query.head}, "
                    f"disjunct {idx} has {p.query.head}"
                )
            if p.model.rf != first.model.rf:
                raise EngineInvariantError(
                    f"disjunct rankings differ: disjunct 0 is prepared under "
                    f"{first.model.rf.spec()}, disjunct {idx} under {p.model.rf.spec()}"
                )
            if p.db is not first.db:
                raise EngineInvariantError(
                    f"disjunct databases differ: disjuncts 0 and {idx} are "
                    f"prepared over different Database objects"
                )
        self.cursors = cursors
        # One pending (score, values, disjunct, output) per live disjunct,
        # led by its `compare_key`.
        self._heap: List[Tuple[object, Tuple[int, ...], int, OutputTuple]] = []
        self.emitted_count = 0
        # Under tuple weights, the values of every output emitted; otherwise
        # None, and `_last` holds the values of the last output emitted.
        self._emitted: Optional[Set[Tuple[int, ...]]] = (
            None if scores_by_values(first.model.rf) else set()
        )
        self._last: Optional[Tuple[int, ...]] = None
        for idx, c in enumerate(cursors):
            item = c.next()
            if item is not None:
                heapq.heappush(self._heap, (*compare_key(item), idx, item))

    def next(self) -> Optional[OutputTuple]:
        heap, emitted = self._heap, self._emitted
        while heap:
            top = heap[0]
            idx, values, item = top[2], top[1], top[3]
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
            if emitted is None:
                if values == self._last:
                    continue
                self._last = values
            else:
                seen = len(emitted)
                emitted.add(values)
                if len(emitted) == seen:
                    continue
            self.emitted_count += 1
            return item
        return None
