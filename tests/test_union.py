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


def _random_union_instance(seed, identical=False, weighted=False):
    rng = random.Random(seed)
    dom = [str(i) for i in range(4)]

    def rows():
        return sorted({(rng.choice(dom), rng.choice(dom)) for _ in range(10)})

    tabs = [("R", ("x", "y"), rows())]
    s_rows = rows()
    tabs.append(("S", ("y", "z"), s_rows))
    tabs.append(("T", ("y", "z"), s_rows if identical else rows()))
    vw = {v: rng.randint(-6, 6) for v in dom}
    if weighted:
        # R's weights are drawn once, so the disjuncts share them.
        weights = {name: [rng.randint(-9, 9) for _ in rows] for name, _, rows in tabs}
        tabs = [Table.from_rows(name, cols, rows, weights[name])
                for name, cols, rows in tabs]
    else:
        tabs = [Table.from_rows(*t) for t in tabs]
    return Database.build(tabs, vw)


def _three_way_instance(seed):
    """R, S and T as above, with U sharing about half of R's rows (and their
    weights), so the three disjuncts of `THREE_WAY_TEXT` overlap pairwise."""
    rng = random.Random(seed)
    dom = [str(i) for i in range(5)]
    pairs = [(a, b) for a in dom for b in dom]

    def table(name, cols, rows):
        rows = sorted(rows)
        return name, cols, rows, {r: rng.randint(-9, 9) for r in rows}

    r = table("R", ("x", "y"), rng.sample(pairs, 12))
    s = table("S", ("y", "z"), rng.sample(pairs, 12))
    t = table("T", ("y", "z"), rng.sample(s[2], 6) + rng.sample(pairs, 6))
    shared = rng.sample(r[2], 6)
    u = table("U", ("x", "y"), set(shared + rng.sample(pairs, 6)))
    u[3].update((row, r[3][row]) for row in shared)
    vw = {v: rng.randint(-6, 6) for v in dom}
    return Database.build(
        [Table.from_rows(name, cols, rows, [w[row] for row in rows])
         for name, cols, rows, w in (r, s, t, u)],
        vw,
    )


UNION_TEXT = "Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)"
THREE_WAY_TEXT = (
    "Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z) | U(x,y), S(y,z)"
)
# Rankings that score an output by its values alone, and the others.
VALUE_ONLY_SPECS = ["vertex_sum", "vertex_max", "lex(z,x,y)", "bounded(vertex_max; y)"]
TUPLE_SPECS = ["tuple_sum", "tuple_max", "bounded(tuple_sum; y,z)"]


def _union_cursor(db, uq, rf):
    return UnionCursor(
        [RankedCursor(prepare(db, cq, rf)) for cq in uq.disjuncts]
    )


def _matches_oracle(db, uq, rf):
    got = [format_record(rf, db, r) for r in _union_cursor(db, uq, rf).drain()]
    want = [format_record(rf, db, r) for r in brute_force_ranked(db, uq, rf)]
    assert got == want
    return got


class TestUnion:
    @pytest.mark.parametrize("spec", VALUE_ONLY_SPECS + TUPLE_SPECS)
    def test_matches_oracle(self, spec):
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking(spec)
        for seed in range(10):
            _matches_oracle(_random_union_instance(seed), uq, rf)
            _matches_oracle(_random_union_instance(seed, weighted=True), uq, rf)

    @pytest.mark.parametrize("spec", VALUE_ONLY_SPECS + TUPLE_SPECS)
    def test_three_overlapping_disjuncts_match_oracle(self, spec):
        uq = parse_query(THREE_WAY_TEXT)
        rf = parse_ranking(spec)
        overlaps = 0
        for seed in range(10):
            db = _three_way_instance(seed)
            got = _matches_oracle(db, uq, rf)
            derived = sum(
                len(RankedCursor(prepare(db, cq, rf)).drain()) for cq in uq.disjuncts
            )
            overlaps += derived - len(got)
        assert overlaps > 20

    @pytest.mark.parametrize("spec", VALUE_ONLY_SPECS)
    def test_value_only_drain_keeps_no_per_output_state(self, spec):
        """Under a ranking that reads only the output values, duplicates
        meet at the top of the merge, so the union holds no container with
        more than one item per disjunct, however many results it emitted."""
        uq = parse_query(THREE_WAY_TEXT)
        rf = parse_ranking(spec)
        db = _three_way_instance(0)
        union = _union_cursor(db, uq, rf)
        assert len(union.drain()) > 10 * len(union.cursors)
        held = {name: len(value) for name, value in vars(union).items()
                if isinstance(value, (list, set, dict))}
        assert held and max(held.values()) <= len(union.cursors), held

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

    def test_mixed_rankings_rejected(self):
        # Scores of different rankings do not compare: a `vertex_sum` score
        # and a `vertex_max` one would merge as if on one scale.
        db = _random_union_instance(0)
        uq = parse_query(UNION_TEXT)
        a, b = (
            RankedCursor(prepare(db, cq, parse_ranking(spec)))
            for cq, spec in zip(uq.disjuncts, ("vertex_sum", "vertex_max"))
        )
        with pytest.raises(EngineInvariantError,
                           match=r"disjunct 0 .* vertex_sum, disjunct 1 .* vertex_max"):
            UnionCursor([a, b])

    def test_mixed_databases_rejected(self):
        # Constant ids are per database, so outputs of two databases do not
        # compare even when their contents are equal.
        uq = parse_query(UNION_TEXT)
        rf = parse_ranking("vertex_sum")
        a, b = (
            RankedCursor(prepare(_random_union_instance(0), cq, rf))
            for cq in uq.disjuncts
        )
        with pytest.raises(EngineInvariantError,
                           match=r"disjuncts 0 and 1 .* different Database"):
            UnionCursor([a, b])

    def test_equal_rankings_parsed_apart_are_accepted(self):
        db = _random_union_instance(2)
        uq = parse_query(UNION_TEXT)
        cursors = [
            RankedCursor(prepare(db, cq, parse_ranking("bounded(vertex_max; y)")))
            for cq in uq.disjuncts
        ]
        rf = parse_ranking("bounded(vertex_max; y)")
        got = [format_record(rf, db, r) for r in UnionCursor(cursors).drain()]
        assert got == [format_record(rf, db, r) for r in brute_force_ranked(db, uq, rf)]

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
