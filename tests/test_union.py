import random

import pytest

from rankjoin import (
    Database,
    EngineInvariantError,
    RankedCursor,
    Table,
    UnionCursor,
    brute_force_ranked,
    format_record,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.union import compare_key


def _random_union_instance(seed, identical=False):
    rng = random.Random(seed)
    dom = [str(i) for i in range(4)]

    def rows():
        return sorted({(rng.choice(dom), rng.choice(dom)) for _ in range(10)})

    tabs = [Table.from_rows("R", ("x", "y"), rows())]
    s_rows = rows()
    tabs.append(Table.from_rows("S", ("y", "z"), s_rows))
    tabs.append(Table.from_rows("T", ("y", "z"), s_rows if identical else rows()))
    vw = {v: rng.randint(-6, 6) for v in dom}
    return Database.build(tabs, vw)


UNION_TEXT = "Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)"


def _union_cursor(db, uq, rf):
    return UnionCursor(
        [RankedCursor(prepare(db, cq, rf)) for cq in uq.disjuncts]
    )


class TestUnion:
    @pytest.mark.parametrize("spec", ["vertex_sum", "vertex_max", "tuple_max"])
    def test_matches_oracle(self, spec):
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking(spec)
        for seed in range(10):
            db = _random_union_instance(seed)
            got = [format_record(rf, db, r) for r in _union_cursor(db, uq, rf).drain()]
            want = [format_record(rf, db, r) for r in brute_force_ranked(db, uq, rf)]
            assert got == want

    def test_duplicate_free_strictly_increasing(self):
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking("vertex_sum")
        db = _random_union_instance(3)
        results = _union_cursor(db, uq, rf).drain()
        keys = [compare_key(r) for r in results]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_identical_disjuncts_single_length(self):
        uq = parse_query("Q(x,y) :- R(x,y) | R(x,y)")
        rf = parse_ranking("vertex_sum")
        db = _random_union_instance(1)
        union_out = _union_cursor(db, uq, rf).drain()
        single = RankedCursor(prepare(db, uq.disjuncts[0], rf)).drain()
        assert [r.values for r in union_out] == [r.values for r in single]

    def test_s_equals_t_dedups_everything(self):
        # with identical S and T the two disjuncts produce the same set
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking("tuple_sum")  # safe: no weights, all scores 0
        db = _random_union_instance(4, identical=True)
        union_out = _union_cursor(db, uq, rf).drain()
        single = RankedCursor(prepare(db, uq.disjuncts[0], rf)).drain()
        assert sorted(r.values for r in union_out) == sorted(
            r.values for r in single
        )

    def test_disjoint_streams_merge(self):
        tabs = [
            Table.from_rows("R", ("x", "y"), [("0", "1"), ("0", "2")]),
            Table.from_rows("S", ("y", "z"), [("1", "5")]),
            Table.from_rows("T", ("y", "z"), [("2", "6")]),
        ]
        db = Database.build(tabs, {v: int(v) for v in "0 1 2 5 6".split()})
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking("vertex_sum")
        out = _union_cursor(db, uq, rf).drain()
        assert len(out) == 2  # sum of the two singleton streams

    def test_mismatched_heads_rejected(self):
        db = _random_union_instance(0)
        rf = parse_ranking("vertex_sum")
        a = RankedCursor(prepare(db, parse_query("Q(x,y) :- R(x,y)").disjuncts[0], rf))
        b = RankedCursor(
            prepare(db, parse_query("Q(y,z) :- S(y,z)").disjuncts[0], rf)
        )
        with pytest.raises(EngineInvariantError):
            UnionCursor([a, b])

    def test_disjunct_out_of_order_is_an_engine_fault(self):
        """A disjunct whose next output does not rank after its last one, a
        repeat included, stops the merge and names both keys."""
        from rankjoin import OutputTuple

        uq = parse_query(UNION_TEXT)
        rf = parse_ranking("vertex_sum")
        db = _random_union_instance(0)
        union = _union_cursor(db, uq, rf)
        first = union.next()
        stale = OutputTuple(first.values, first.score)
        for c in union.cursors:
            c.next = lambda: stale
        with pytest.raises(EngineInvariantError,
                           match=r"disjunct \d emitted out of order: \("):
            union.drain()

    def test_compare_key_semantics(self):
        from rankjoin import OutputTuple

        low = OutputTuple((1, 2), 3)
        high = OutputTuple((9, 9), 5)
        tie = OutputTuple((1, 3), 3)
        assert compare_key(low) < compare_key(high)  # score dominates
        assert compare_key(low) < compare_key(tie)  # value tie-break


def _diverging_union_db(other=7):
    """Output (1,2,3) scores 10 through S and 5 through T; (4,5,6) scores
    `other` through S alone."""
    return Database.build([
        Table.from_rows("R", ("x", "y"), [("1", "2"), ("4", "5")], weights=[0, 0]),
        Table.from_rows("S", ("y", "z"), [("2", "3"), ("5", "6")], weights=[10, other]),
        Table.from_rows("T", ("y", "z"), [("2", "3")], weights=[5]),
    ])


class TestTupleWeightUnion:
    """Under tuple weights one output can score differently in each disjunct;
    it ranks by its best derivation and is emitted once."""

    @pytest.mark.parametrize("spec", ["tuple_sum", "bounded(tuple_sum; y,z)"])
    def test_output_ranks_by_its_best_derivation(self, spec):
        db = _diverging_union_db()
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking(spec)
        got = [format_record(rf, db, r) for r in _union_cursor(db, uq, rf).drain()]
        assert got == ["5\t1,2,3", "7\t4,5,6"]
        assert got == [format_record(rf, db, r) for r in brute_force_ranked(db, uq, rf)]

    def test_adjacent_duplicates_with_diverging_scores(self):
        # No other output falls between the two scores of (1,2,3), so its
        # second occurrence is next in the merge heap: a valid input, not an
        # engine fault.
        db = _diverging_union_db(other=12)
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking("tuple_sum")
        got = [format_record(rf, db, r) for r in _union_cursor(db, uq, rf).drain()]
        assert got == ["5\t1,2,3", "12\t4,5,6"]
