import itertools

import pytest

from rankjoin import (
    EngineInvariantError,
    RankedCursor,
    Table,
    Database,
    gyo_join_tree,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.preprocess import full_reducer, materialize_bags
from rankjoin.query import ConjunctiveQuery

from helpers import (
    RUNNING_QUERY, encode, queue_key, random_instance, rank_for,
    running_example, star,
)


def _queue_scores(prepared, nid, key_raw):
    state = prepared.states[nid]
    key = queue_key(encode(prepared.db, v) for v in key_raw)
    return sorted(entry[0] for entry in state.queues.get(key, []))


class TestRunningExampleQueues:
    """Queue states after preprocessing on the worked four-relation instance."""

    def test_queue_scores(self):
        db, q = running_example()
        p = prepare(db, q, parse_ranking("tuple_sum"))
        assert _queue_scores(p, 2, ("1",)) == [1, 4]
        assert _queue_scores(p, 3, ("1",)) == [1, 5]
        assert _queue_scores(p, 1, ("1",))[0] == 3
        assert _queue_scores(p, 0, ()) == [4, 5]

    def test_initial_insert_counts(self):
        db, q = running_example()
        p = prepare(db, q, parse_ranking("tuple_sum"))
        total_bag_tuples = sum(
            len(heap) for st in p.states.values() for heap in st.queues.values()
        )
        assert p.counters.inserts == total_bag_tuples
        assert p.counters.pops == 0
        assert p.initial_cells == total_bag_tuples


class TestMaterialize:
    def test_running_example_bags_are_inputs(self):
        db, q = running_example()
        d = gyo_join_tree(q)
        bags = materialize_bags(db, d)
        for nid, atom in zip(range(4), q.atoms):
            rel = db.relation(atom.relation)
            node = d.nodes[nid]
            pos = [atom.variables.index(v) for v in node.var_order]
            expect = sorted(tuple(r[p] for p in pos) for r in rel.rows)
            assert sorted(bags[nid].rows) == expect

    def test_width_two_bag_respects_uncovered_atom(self):
        # one bag {x,y,z} covered by R,S; the T atom must still filter it
        cq = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)").disjuncts[0]
        tabs = [
            Table.from_rows("R", ("x", "y"), [("1", "2"), ("1", "3")]),
            Table.from_rows("S", ("y", "z"), [("2", "4"), ("3", "5")]),
            Table.from_rows("T", ("z", "x"), [("4", "1")]),
        ]
        db = Database.build(tabs)
        from rankjoin import parse_decomposition

        d = parse_decomposition("node 0: {x,y,z} cover R,S\nroot 0\n", cq)
        bags = materialize_bags(db, d)
        rows = {tuple(db.decode(c) for c in r) for r in bags[0].rows}
        assert rows == {("1", "2", "4")}  # ("1","3","5") fails T

    def test_empty_relation_empty_bag(self):
        cq = parse_query("Q(x,y) :- R(x,y)").disjuncts[0]
        db = Database.build([Table.from_rows("R", ("x", "y"), [])])
        bags = materialize_bags(db, gyo_join_tree(cq))
        assert bags[0].rows == ()


class TestFullReducer:
    def test_removes_dangling_tuple(self):
        db, q = running_example()
        d = gyo_join_tree(q)
        reduced = full_reducer(materialize_bags(db, d), d)
        rows = {tuple(db.decode(c) for c in r) for r in reduced[1].rows}
        assert rows == {("1", "1")}  # (y=3,z=1) is gone

    def test_idempotent(self):
        db, q = running_example()
        d = gyo_join_tree(q)
        once = full_reducer(materialize_bags(db, d), d)
        twice = full_reducer(once, d)
        assert {n: r.rows for n, r in once.items()} == {
            n: r.rows for n, r in twice.items()
        }

    def test_empty_bag_propagates(self):
        cq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]
        db = Database.build(
            [
                Table.from_rows("R", ("x", "y"), [("1", "2")]),
                Table.from_rows("S", ("y", "z"), []),
            ]
        )
        d = gyo_join_tree(cq)
        reduced = full_reducer(materialize_bags(db, d), d)
        assert all(r.rows == () for r in reduced.values())


class TestQueueTopMinimal:
    """After initialization each queue top is the minimum-score subtree
    valuation agreeing with its key (brute-forced on small instances)."""

    @pytest.mark.parametrize("shape", ["2path", "3path", "star", "triangle"])
    def test_top_is_subtree_minimum(self, shape):
        db, uq, d = random_instance(shape, 11)
        cq = uq.disjuncts[0]
        rf = rank_for(shape, 0)  # tuple_sum
        p = prepare(db, cq, rf, d)

        def valuations_at(nid):
            return [
                entry[2] for heap in p.states[nid].queues.values() for entry in heap
            ]

        def subtree_min(nid, key):
            state = p.states[nid]
            node = p.decomposition.nodes[nid]
            best = None
            for valuation in valuations_at(nid):
                k = state.key(valuation)
                if k != key:
                    continue
                score = _subtree_score(p, nid, valuation)
                best = score if best is None else min(best, score)
            return best

        def _subtree_score(p, nid, valuation):
            node = p.decomposition.nodes[nid]
            score = p.model.node_score(nid, valuation)
            for c in node.children:
                # exhaustive: minimum over all joinable child subtree choices
                child_state = p.states[c]
                child_key_vars = p.decomposition.nodes[c].key_vars
                order = {v: i for i, v in enumerate(node.var_order)}
                ck = queue_key(valuation[order[v]] for v in child_key_vars)
                options = [
                    _subtree_score(p, c, cv)
                    for cv in valuations_at(c)
                    if child_state.key(cv) == ck
                ]
                score = p.model.combine(score, min(options))
            return score

        for nid, state in p.states.items():
            for key, heap in state.queues.items():
                assert heap[0][0] == subtree_min(nid, key)

    def test_shared_prepared_rejected(self):
        db, q = running_example()
        p = prepare(db, q, parse_ranking("tuple_sum"))
        RankedCursor(p)
        with pytest.raises(EngineInvariantError):
            RankedCursor(p)


class _Walked(tuple):
    """A tuple that counts how often it is walked from the start."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


@pytest.mark.parametrize("spec", ["tuple_sum", "vertex_max"])
def test_set_up_walks_the_query_a_fixed_number_of_times(spec):
    """`prepare` on a star walks the query's atoms and head as often with 40
    arms as with 10: the variable set and the head index are built once per
    query, not once per node, which made set-up quadratic in the atom count."""

    def walks(arms):
        cq = parse_query(star(arms)).disjuncts[0]
        atoms, head = _Walked(cq.atoms), _Walked(cq.head)
        db = Database.build([
            Table.from_rows(a.relation, a.variables, [("1", "2")], weights=[1])
            for a in cq.atoms
        ])
        p = prepare(db, ConjunctiveQuery(cq.name, head, atoms), parse_ranking(spec))
        assert len(RankedCursor(p).drain()) == 1
        return atoms.walks, head.walks

    assert walks(10) == walks(40)
