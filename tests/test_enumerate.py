import heapq

import pytest

from rankjoin import (
    Database,
    DecompositionError,
    RankedCursor,
    Table,
    UnionQuery,
    brute_force_ranked,
    parse_decomposition,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin import cursor as cursor_module
from rankjoin import preprocess
from rankjoin.errors import EngineInvariantError

from helpers import (
    RANK_SPECS,
    SHAPES,
    encode,
    engine_lines,
    long_path,
    oracle_lines,
    random_instance,
    rank_for,
    running_example,
)


def _cursor(rf_spec="tuple_sum", stats=False):
    db, q = running_example()
    p = prepare(db, q, parse_ranking(rf_spec))
    return db, q, RankedCursor(p, stats=stats)


class TestRunningExample:
    def test_first_pull(self):
        db, _, cur = _cursor()
        out = cur.next()
        assert out.score == 4
        assert out.decoded(db) == ("1", "1", "1", "1", "1")

    def test_second_pull(self):
        _, _, cur = _cursor()
        cur.next()
        assert cur.next().score == 5

    def test_full_sequence(self):
        _, _, cur = _cursor()
        results = cur.drain()
        assert [r.score for r in results] == [4, 5, 7, 8, 8, 9, 11, 12]
        assert cur.next() is None

    def test_chain_at_middle_node(self):
        """After a full drain the middle node's next-chain is the ranked
        materialization of its subtree: scores 3, 6, 7, 10."""
        db, _, cur = _cursor()
        entry = cur.prepared.states[1].queues[encode(db, "1")][0]
        cur.drain()
        scores = []
        while entry is not None:
            scores.append(entry[0])
            entry = cur.prepared.states[1].succ.get(entry[1])
        assert scores == [3, 6, 7, 10]

    def test_memoized_leaf_visit_costs_nothing(self):
        # second pull reuses the middle node's chain instead of walking down
        _, _, cur = _cursor(stats=True)
        cur.next()
        pops_first = cur.pull_stats[0][1]
        cur.next()
        pops_second = cur.pull_stats[1][1]
        assert pops_first == 4  # every node popped once
        assert pops_second == 1  # only the root

    def test_topk(self):
        _, _, cur = _cursor()
        assert [r.score for r in cur.drain_topk(2)] == [4, 5]
        _, _, cur = _cursor()
        assert cur.drain_topk(0) == []
        _, _, cur = _cursor()
        assert len(cur.drain_topk(100)) == 8


class TestInvariants:
    def test_scores_nondecreasing_and_no_duplicates(self):
        for shape in ("2path", "4path", "triangle"):
            for seed in (0, 1):
                db, uq, d = random_instance(shape, seed)
                rf = rank_for(shape, 0)
                p = prepare(db, uq.disjuncts[0], rf, d)
                results = RankedCursor(p).drain()
                scores = [r.score for r in results]
                assert scores == sorted(scores)
                assert len({r.values for r in results}) == len(results)

    def test_matches_oracle_multiset(self):
        db, uq, d = random_instance("3path", 5)
        rf = rank_for("3path", 2)
        got, _ = engine_lines(db, uq.disjuncts[0], rf, d)
        assert got == oracle_lines(db, uq, rf)

    def test_per_pull_operation_bounds(self):
        db, uq, d = random_instance("star", 3)
        rf = rank_for("star", 0)
        p = prepare(db, uq.disjuncts[0], rf, d)
        nodes = p.decomposition.nodes
        max_pops = len(nodes)
        max_inserts = sum(len(n.children) for n in nodes.values()) + 1
        cur = RankedCursor(p, stats=True)
        cur.drain()
        for inserts, pops, _, cells in cur.pull_stats:
            assert pops <= max_pops
            assert inserts <= max_inserts
            assert cells <= max_inserts

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_insert_patched_before_construction_sees_every_insert(
            self, shape, monkeypatch):
        """A cursor's compiled walk reads `RankedCursor._insert` when the
        cursor is built, so a wrapper installed before that (as a tracer
        does) sees exactly the entries the drain makes, under every
        ranking."""
        calls = []
        insert = RankedCursor._insert

        def counted(self, *args):
            calls.append(self)
            return insert(self, *args)

        monkeypatch.setattr(RankedCursor, "_insert", counted)
        for spec in RANK_SPECS[shape]:
            for seed in range(3):
                calls.clear()
                db, uq, d = random_instance(shape, seed)
                p = prepare(db, uq.disjuncts[0], parse_ranking(spec), d)
                cursor = RankedCursor(p)
                cursor.drain()
                assert len(calls) == p.counters.inserts - p.initial_cells
                assert all(c is cursor for c in calls)

    def test_each_child_combination_generated_once(self, monkeypatch):
        """Lawler's pivot rule: every sibling insert creates a cell (none is
        discarded as a duplicate) and no node holds a combination twice."""
        calls = []
        insert = RankedCursor._insert

        def counted(self, *args):
            calls.append(args)
            return insert(self, *args)

        # Every entry made is kept alive here, so no two share an id();
        # entries are grouped by node through their node's state.
        made_at = {}
        make = preprocess.new_cell

        def recorded(state, *args):
            entry = make(state, *args)
            made_at.setdefault(id(state), []).append(entry)
            return entry

        monkeypatch.setattr(RankedCursor, "_insert", counted)
        monkeypatch.setattr(preprocess, "new_cell", recorded)
        monkeypatch.setattr(cursor_module, "new_cell", recorded)
        db, q = running_example()  # node 1 has two children
        cases = [(db, q, None, parse_ranking("tuple_sum"))]
        for seed in range(3):
            db, uq, d = random_instance("star", seed)
            cases += [(db, uq.disjuncts[0], d, parse_ranking(spec))
                      for spec in RANK_SPECS["star"]]
        for db, cq, d, rf in cases:
            calls.clear()
            made_at.clear()
            p = prepare(db, cq, rf, d)
            RankedCursor(p).drain()
            assert len(calls) == p.counters.cells - p.initial_cells
            for entries in made_at.values():
                made = [
                    (valuation, tuple(map(id, child_entries)))
                    for _, _, valuation, _, child_entries, _ in entries
                ]
                assert len(made) == len(set(made))

    @pytest.mark.parametrize("depth", [1, 2])
    def test_consumed_cell_must_top_its_queue(self, depth):
        """A pull whose cell below the root is no longer its queue's top is an
        engine fault, not a silent skip. Popping that top leaves the root's
        child queue empty (depth 1) and the grandchild queue with one other
        cell on top (depth 2)."""
        db, q = running_example()
        p = prepare(db, q, parse_ranking("tuple_sum"))
        nid = p.decomposition.root
        entry = p.states[nid].queues[()][0]
        for _ in range(depth):
            nid = p.decomposition.nodes[nid].children[0]
            entry = entry[4][0]
        state = p.states[nid]
        heap = state.queues[state.key(entry[2])]
        heapq.heappop(heap)
        assert len(heap) == depth - 1
        with pytest.raises(EngineInvariantError):
            RankedCursor(p).next()

    def test_determinism_across_fresh_preparations(self):
        db, uq, d = random_instance("4path", 9)
        rf = rank_for("4path", 1)
        first, _ = engine_lines(db, uq.disjuncts[0], rf, d)
        second, _ = engine_lines(db, uq.disjuncts[0], rf, d)
        assert first == second

    def test_empty_result(self):
        db, q = running_example()
        from rankjoin import Database, Table

        db2 = Database.build(
            [
                Table.from_rows("R1", ("x", "y"), [], weights=[]),
                Table.from_rows("R2", ("y", "z"), [("1", "1")], weights=[1]),
                Table.from_rows("R3", ("z", "w"), [("1", "1")], weights=[1]),
                Table.from_rows("R4", ("z", "u"), [("1", "1")], weights=[1]),
            ]
        )
        p = prepare(db2, q, parse_ranking("tuple_sum"))
        assert RankedCursor(p).next() is None


class TestDeepPath:
    """The cursor walks the join tree recursively, one frame per level, so
    `prepare` rejects a tree deeper than that walk can go."""

    @staticmethod
    def _path(n):
        query, decomp = long_path(n)
        uq = parse_query(query)
        cq = uq.disjuncts[0]
        # Only the last atom's row ("1", "2") joins, so there are two outputs.
        rows = [("1", "1"), ("1", "2")]
        db = Database.build(
            [
                Table.from_rows(f"R{i}", (f"v{i}", f"v{i + 1}"), rows, weights=[1, 2])
                for i in range(n)
            ]
        )
        return db, uq, parse_decomposition(decomp, cq)

    def test_too_deep_path_is_a_decomposition_error(self):
        db, uq, d = self._path(1200)
        assert d.depth() == 1199
        with pytest.raises(DecompositionError, match="depth 1199"):
            prepare(db, uq.disjuncts[0], parse_ranking("tuple_sum"), d)

    def test_300_node_path_enumerates(self):
        db, uq, d = self._path(300)
        rf = parse_ranking("tuple_sum")
        lines, _ = engine_lines(db, uq.disjuncts[0], rf, d)
        assert len(lines) == 2
        assert lines == oracle_lines(db, uq, rf)
