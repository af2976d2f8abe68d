"""Tuple weights as a column aligned with a relation's rows: a pass-through
bag is scored by position, other bags through the relation's by-row map, and
both agree with the oracle's definition-level scores."""

import random

import pytest

from rankjoin import (
    Database,
    RankedCursor,
    Relation,
    Table,
    WeightError,
    gyo_join_tree,
    materialize_bags,
    parse_query,
    parse_ranking,
    prepare,
)

from rankjoin.query import Atom, ConjunctiveQuery

from helpers import engine_lines, oracle_lines, random_instance


def test_pass_through_path_builds_no_weight_map(monkeypatch):
    """Set-up and a full drain of a 3-path whose every bag passes its
    relation through read each bag's weight column by position; no
    relation builds its by-row map."""
    db, uq, d = random_instance("3path", 4)
    cq = uq.disjuncts[0]
    assert d.pass_through() == {nid: nid for nid in d.nodes}
    built = _spy_on_weight_maps(monkeypatch)
    rf = parse_ranking("tuple_sum")
    results = RankedCursor(prepare(db, cq, rf, d)).drain()
    assert results and built == []
    monkeypatch.undo()
    assert [(r.values, r.score) for r in results] == [
        (r.values, r.score) for r in RankedCursor(prepare(db, cq, rf, d)).drain()
    ]


def _spy_on_weight_maps(monkeypatch):
    """The names of the relations whose by-row map gets built."""
    built = []
    real = Relation.weight_map.func

    def spy(rel):
        built.append(rel.name)
        return real(rel)

    monkeypatch.setattr(Relation, "weight_map", property(spy))
    return built


def test_reordered_atom_passes_through_by_position(monkeypatch):
    """`R(y,x)` under the bag order (x,y) is R's rows, each reordered, in
    R's order, with R's weight column; scoring builds no by-row map."""
    db = Database.build([
        Table.from_rows("R", ("a", "b"), [(2, 1), (1, 3), (3, 3)], [5, 6, 7]),
        Table.from_rows("S", ("a", "b"), [(1, 9), (3, 9)], [1, 2]),
    ])
    uq = parse_query("Q(x,y,z) :- R(y,x), S(y,z)")
    cq = uq.disjuncts[0]
    d = gyo_join_tree(cq)
    nid = next(n for n, node in d.nodes.items() if node.cover == (0,))
    assert d.nodes[nid].var_order == ("x", "y")
    assert d.pass_through()[nid] == 0
    r = db.relation("R")
    bag = materialize_bags(db, d)[nid]
    assert bag.rows == tuple((b, a) for a, b in r.rows)
    assert bag.weights is r.weights
    built = _spy_on_weight_maps(monkeypatch)
    rf = parse_ranking("tuple_sum")
    got, _ = engine_lines(db, cq, rf, d)
    assert built == []
    monkeypatch.undo()
    assert got == oracle_lines(db, uq, rf)


def test_repeated_variable_atom_is_not_passed_through():
    """`R(x,x)` under the bag {x} would keep only R's rows with equal
    values, so its bag is not R's rows reordered. The parser rejects the
    atom, so the query is built directly."""
    cq = ConjunctiveQuery(
        "Q", ("x", "z"), (Atom("R", ("x", "x")), Atom("S", ("x", "z"))))
    d = gyo_join_tree(cq)
    (nid,) = [n for n, node in d.nodes.items() if node.cover == (0,)]
    assert d.nodes[nid].var_order == ("x",)
    assert nid not in d.pass_through()


QUERIES = {
    # The bag {x,y} passes R through with each row reordered.
    "reordered": "Q(x,y,z) :- R(y,x), S(y,z)",
    "self_join": "Q(x,y,z) :- R(x,y), R(y,z)",
    "path": "Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)",
}
SPECS = ["tuple_product", "bounded(tuple_sum; x)", "bounded(tuple_sum; x,y)"]


def _positive_instance(query: str, seed: int):
    """Random tables with weights in 1..9 for every relation of `query`."""
    rng = random.Random(seed)
    cq = parse_query(query).disjuncts[0]
    domain = [str(v) for v in range(rng.randint(2, 5))]
    tables = []
    for name in sorted({a.relation for a in cq.atoms}):
        rows = sorted({(rng.choice(domain), rng.choice(domain))
                       for _ in range(rng.randint(1, 16))})
        weights = [rng.randint(1, 9) for _ in rows]
        tables.append(Table.from_rows(name, ("a", "b"), rows, weights))
    return Database.build(tables)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("shape", sorted(QUERIES))
@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_oracle(shape, spec, seed):
    uq = parse_query(QUERIES[shape])
    db = _positive_instance(QUERIES[shape], seed)
    rf = parse_ranking(spec)
    got, _ = engine_lines(db, uq.disjuncts[0], rf)
    assert got == oracle_lines(db, uq, rf)


def _r_s(r_weights, s_weights=None):
    return Database.build([
        Table.from_rows("R", ("x", "y"), [("1", "1"), ("2", "1"), ("3", "1")],
                        r_weights),
        Table.from_rows("S", ("y", "z"), [("1", "1"), ("1", "2")], s_weights),
    ], {"1": 2, "2": -3, "3": 0})


def _product_error(db, spec):
    cq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]
    with pytest.raises(WeightError) as err:
        prepare(db, cq, parse_ranking(spec))
    return str(err.value)


def test_product_names_the_first_non_positive_tuple_weight():
    db = _r_s([3, -2, 0], [1, 1])
    assert _product_error(db, "tuple_product") == (
        "product ranking needs strictly positive weights; "
        "relation R row ('2', '1') has weight -2"
    )
    assert _product_error(_r_s(None, [1, 1]), "bounded(tuple_product; x,y)") == (
        "product ranking needs weights on relation R"
    )


def test_product_names_a_non_positive_vertex_weight():
    """Of the constants in use with a weight below 1, the first in value
    order is named."""
    assert _product_error(_r_s([1, 1, 1], [1, 1]), "vertex_product") == (
        "product ranking needs strictly positive vertex weights; "
        "constant '2' has weight -3"
    )


def _r_s_25(r_weights, s_weights, vertex_weights):
    """R rows `1,2` and `3,2`; S one row `2,5`."""
    return Database.build([
        Table.from_rows("R", ("x", "y"), [("1", "2"), ("3", "2")], r_weights),
        Table.from_rows("S", ("y", "z"), [("2", "5")], s_weights),
    ], vertex_weights)


@pytest.mark.parametrize(
    "spec, s_weights, vertex_weights",
    [
        ("bounded(tuple_product; x,y)", [0], None),
        ("bounded(tuple_product; x,y)", None, None),
        ("bounded(vertex_product; x,y)", None, {"1": 2, "2": 3, "3": 4, "5": 0}),
    ],
)
def test_product_checks_only_the_weights_a_score_reads(spec, s_weights,
                                                       vertex_weights):
    """Under `bounded(*_product; x,y)` no score reads S's weights, nor the
    weight of a constant that only z takes, so a zero or missing one there
    is accepted, and the engine matches the oracle."""
    db = _r_s_25([3, 4], s_weights, vertex_weights)
    uq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
    rf = parse_ranking(spec)
    got, _ = engine_lines(db, uq.disjuncts[0], rf)
    assert len(got) == 2
    assert got == oracle_lines(db, uq, rf)


def test_bounded_product_refuses_a_weight_a_score_reads():
    assert _product_error(
        _r_s_25([3, 0], [1], None), "bounded(tuple_product; x,y)"
    ) == (
        "product ranking needs strictly positive weights; "
        "relation R row ('3', '2') has weight 0"
    )
    assert _product_error(
        _r_s_25([3, 4], [1], {"1": 2, "2": 0, "3": 4, "5": 1}),
        "bounded(vertex_product; x,y)",
    ) == (
        "product ranking needs strictly positive vertex weights; "
        "constant '2' has weight 0"
    )
