"""The two cursor modes: the default one, whose queues compare entries in C
and which records nothing per pull, and stats=True, which counts comparisons
through `counted_heap` and keeps `pull_stats`."""

import heapq

import pytest
from hypothesis import given, strategies as st

from rankjoin import RankedCursor, format_record, prepare
from rankjoin.cursor import counted_heap
from rankjoin.preprocess import Cell, Counters

from helpers import RANK_SPECS, SHAPES, oracle_lines, random_instance, rank_for

CASES = [
    (shape, ridx) for shape in sorted(SHAPES) for ridx in range(len(RANK_SPECS[shape]))
]


@pytest.mark.parametrize("shape,ridx", CASES)
def test_modes_agree_with_each_other_and_the_oracle(shape, ridx):
    rf = rank_for(shape, ridx)
    for seed in range(3):
        db, uq, d = random_instance(shape, seed)
        runs = {}
        for stats in (False, True):
            p = prepare(db, uq.disjuncts[0], rf, d)
            cursor = RankedCursor(p, stats=stats)
            lines = [format_record(rf, db, r) for r in cursor.drain()]
            c = p.counters
            runs[stats] = (lines, (c.inserts, c.pops, c.cells), cursor.pull_stats)
        plain, counted = runs[False], runs[True]
        assert plain[0] == counted[0] == oracle_lines(db, uq, rf)
        assert plain[1] == counted[1]
        assert plain[2] == []
        assert len(counted[2]) == len(counted[0])


class Counted:
    """An item ordered by `value` alone that tallies every `<`; `serial`
    tells equal values apart."""

    __slots__ = ("value", "serial", "tally")

    def __init__(self, value, serial, tally):
        self.value, self.serial, self.tally = value, serial, tally

    def __lt__(self, other):
        self.tally[0] += 1
        return self.value < other.value


# A push of a small integer (duplicates are likely), or a pop (None).
OPS = st.lists(st.one_of(st.integers(0, 15), st.none()), max_size=300)


@given(OPS)
def test_counted_heap_matches_c_heapq(ops):
    counters = Counters()
    push, pop = counted_heap(counters)
    mine, ref = [], []
    mine_tally, ref_tally = [0], [0]
    popped_mine, popped_ref = [], []
    for serial, op in enumerate(ops):
        if op is None:
            if ref:
                popped_mine.append(pop(mine).serial)
                popped_ref.append(heapq.heappop(ref).serial)
        else:
            push(mine, Counted(op, serial, mine_tally))
            heapq.heappush(ref, Counted(op, serial, ref_tally))
    assert popped_mine == popped_ref
    assert [x.serial for x in mine] == [x.serial for x in ref]
    assert counters.comparisons == mine_tally[0] == ref_tally[0]


def test_duplicate_tie_is_not_ordered_silently():
    heap = [(1, (0, 0), Cell((0, 0), 1, (), 0))]
    with pytest.raises(TypeError):
        heapq.heappush(heap, (1, (0, 0), Cell((0, 0), 1, (), 0)))
