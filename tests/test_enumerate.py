from rankjoin import RankedCursor, UnionQuery, brute_force_ranked, parse_ranking, prepare
from rankjoin.preprocess import UNSET

from helpers import engine_lines, oracle_lines, random_instance, rank_for, running_example


def _cursor(rf_spec="tuple_sum"):
    db, q = running_example()
    p = prepare(db, q, parse_ranking(rf_spec))
    return db, q, RankedCursor(p)


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
        _, _, cur = _cursor()
        cur.drain()
        state = cur.prepared.states[1]
        scores = []
        handle = 0  # the first cell created at the node
        while handle is not None:
            cell = state.cells[handle]
            scores.append(cell.score)
            handle = None if cell.next is UNSET else cell.next
        assert scores == [3, 6, 7, 10]

    def test_memoized_leaf_visit_costs_nothing(self):
        # second pull reuses the middle node's chain instead of walking down
        _, _, cur = _cursor()
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
        cur = RankedCursor(p)
        cur.drain()
        for inserts, pops, _, cells in cur.pull_stats:
            assert pops <= max_pops
            assert inserts <= max_inserts
            assert cells <= max_inserts

    def test_each_child_combination_generated_once(self, monkeypatch):
        """Lawler's pivot rule: every sibling insert creates a cell (none is
        discarded as a duplicate) and no node holds a combination twice."""
        calls = []
        insert = RankedCursor._insert

        def counted(self, *args):
            calls.append(args)
            return insert(self, *args)

        monkeypatch.setattr(RankedCursor, "_insert", counted)
        db, q = running_example()  # node 1 has two children
        cases = [(db, q, None, parse_ranking("tuple_sum"))]
        for seed in range(3):
            db, uq, d = random_instance("star", seed)
            cases += [(db, uq.disjuncts[0], d, rank_for("star", i)) for i in range(4)]
        for db, cq, d, rf in cases:
            calls.clear()
            p = prepare(db, cq, rf, d)
            RankedCursor(p).drain()
            assert len(calls) == p.counters.cells - p.initial_cells
            for state in p.states.values():
                made = [(c.valuation, c.child_handles) for c in state.cells]
                assert len(made) == len(set(made))

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
