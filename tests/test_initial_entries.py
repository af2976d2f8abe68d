"""The queues `prepare` builds in bulk hold exactly the entries `new_cell`
makes one at a time: for every node, key and bag row, the entry over the
child queues' tops with pivot 0."""

from collections import Counter

import pytest

from rankjoin import (
    Database,
    EngineInvariantError,
    Relation,
    Table,
    gyo_join_tree,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.preprocess import (
    Counters,
    full_reducer,
    initialize_queues,
    materialize_bags,
    new_cell,
)
from rankjoin.ranking import ScoreModel

from helpers import RANK_SPECS, SHAPES, random_instance

CASES = [
    (shape, spec, seed)
    for shape in SHAPES
    for spec in RANK_SPECS[shape] + ["tuple_product", "bounded(tuple_sum; x,y)"]
    for seed in range(3)
]


def _positive(db):
    """The same database with every tuple weight made positive, so product
    rankings apply."""
    relations = {
        name: Relation(
            name, rel.schema, rel.rows, tuple(abs(w) + 1 for w in rel.weights)
        )
        for name, rel in db.relations.items()
    }
    return Database(relations, db.constants, db.vertex_weights)


@pytest.mark.parametrize("shape,spec,seed", CASES)
def test_initial_entries_match_new_cell(shape, spec, seed):
    db, uq, d = random_instance(shape, seed)
    cq = uq.disjuncts[0]
    rf = parse_ranking(spec)
    if rf.op == "product":
        db = _positive(db)
    p = prepare(db, cq, rf, d)
    reduced = full_reducer(materialize_bags(db, d), d)
    model = p.model
    for nid, state in p.states.items():
        children = d.nodes[nid].children

        def expected(row):
            heads = tuple(
                p.states[c].queues[child_key(row)][0]
                for c, child_key in zip(children, state.child_keys)
            )
            return new_cell(state, model, row, model.node_score(nid, row), heads, 0)

        want = {}
        for row in reduced[nid].rows:
            want.setdefault(state.key(row), Counter())[expected(row)] += 1
        got = {key: Counter(heap) for key, heap in state.queues.items()}
        assert got == want, (nid, spec)
        for heap in state.queues.values():
            assert all(entry == expected(entry[2]) for entry in heap)
    total = sum(len(r.rows) for r in reduced.values())
    assert p.initial_cells == p.counters.inserts == total


def test_missing_child_key_is_an_engine_fault():
    """Queues built over unreduced bags meet a bag row with no partner at its
    child: an engine invariant, named with the row and the child."""
    db = Database.build([
        Table.from_rows("R", ("x", "y"), [("1", "1"), ("2", "9")], weights=[1, 2]),
        Table.from_rows("S", ("y", "z"), [("1", "1"), ("8", "3")], weights=[1, 2]),
    ])
    cq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]
    d = gyo_join_tree(cq)
    rf = parse_ranking("tuple_sum")
    model = ScoreModel(rf, db, cq, d)
    with pytest.raises(EngineInvariantError, match="has no matching cell at child"):
        initialize_queues(materialize_bags(db, d), d, model, Counters())
