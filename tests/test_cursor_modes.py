"""The two cursor modes: the default one, whose queues compare entries in C
and which records nothing per pull, and stats=True, which counts comparisons
through `counted_heap` and keeps `pull_stats`."""

import heapq

import pytest
from hypothesis import given, strategies as st

from rankjoin import (
    RankedCursor,
    brute_force_ranked,
    format_record,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.cursor import counted_heap
from rankjoin.preprocess import Counters

from helpers import (
    RANK_SPECS,
    RUNNING_QUERY,
    SHAPES,
    oracle_lines,
    random_instance,
    rank_for,
    running_example,
)

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


def _memo_cases():
    db, _ = running_example()
    yield db, parse_query(RUNNING_QUERY), None, parse_ranking("tuple_sum")
    for shape, ridx in CASES:
        for seed in range(3):
            db, uq, d = random_instance(shape, seed)
            yield db, uq, d, rank_for(shape, ridx)


@pytest.mark.parametrize("stats", [False, True])
def test_each_consumed_tie_gets_its_own_memo_slot(stats):
    """Ties are unique per node: after a full drain every queue is empty and
    each non-root pop left one key in its node's `succ` memo. A repeated tie
    would collide in the memo and leave its duplicate entry queued."""
    for db, uq, d, rf in _memo_cases():
        expected = len(brute_force_ranked(db, uq, rf))
        p = prepare(db, uq.disjuncts[0], rf, d)
        # Bounded, so a fault that emits too many results fails here instead
        # of running long.
        results = RankedCursor(p, stats=stats).drain_topk(expected + 1)
        assert len(results) == expected
        assert not any(
            heap for state in p.states.values() for heap in state.queues.values()
        )
        root = p.decomposition.root
        memo_keys = sum(len(s.succ) for nid, s in p.states.items() if nid != root)
        assert memo_keys == p.counters.pops - len(results)
