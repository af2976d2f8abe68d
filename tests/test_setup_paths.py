"""Differential coverage of the set-up path: bag materialization, the full
reducer and queue initialization, on queries whose row projections are not
the identity (atom columns out of bag order, unary atoms, an atom that only
filters a bag) and whose node keys have widths 0, 1 and 2."""

import random

import pytest

from rankjoin import (
    Database,
    RankedCursor,
    Table,
    WeightError,
    brute_force_ranked,
    full_reducer,
    gyo_join_tree,
    materialize_bags,
    parse_decomposition,
    parse_query,
    parse_ranking,
    prepare,
)

from helpers import engine_lines, oracle_lines

QUERIES = {
    "columns_out_of_order": ("Q(x,y,z) :- R(y,x), S(z,y)", None),
    "unary_leaf": ("Q(x,y,z) :- R(x,y), U(y), S(z,y)", None),
    "unary_filter_child": ("Q(x,y) :- R(y,x), U(x)", None),
    "key_width_two": ("Q(x,y,z,u) :- R(x,y,z), S(u,y,x)", None),
    "cross_product": ("Q(x,y,z) :- R(x,y), S(z)", None),
    "triangle_filtered": (
        "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
        "node 0: {x,y,z} cover R,S\nroot 0\n",
    ),
}


def _rankings(head):
    lex = "lex(" + ",".join(reversed(head)) + ")"
    return ["tuple_sum", "tuple_product", "vertex_max", lex,
            "bounded(tuple_sum; x,y)", "bounded(vertex_sum; x,y)",
            "bounded(vertex_max; x)"]


CASES = [
    (name, spec, seed)
    for name, (text, _) in QUERIES.items()
    for spec in _rankings(parse_query(text).head)
    for seed in range(3)
]


def _instance(name, seed):
    """Random positive weights (so product rankings apply); the domain is
    numeric or mixed with text, which switches the constant order."""
    text, decomp_text = QUERIES[name]
    uq = parse_query(text)
    cq = uq.disjuncts[0]
    rng = random.Random(f"{name}/{seed}")
    domain = [str(v) for v in range(rng.randint(2, 4))]
    if seed == 2:
        domain += ["a", "é"]
    tables = []
    for atom in cq.atoms:
        rows = sorted({
            tuple(rng.choice(domain) for _ in atom.variables)
            for _ in range(rng.randint(1, 12))
        })
        weights = [rng.randint(1, 9) for _ in rows]
        tables.append(Table.from_rows(atom.relation, atom.variables, rows, weights))
    db = Database.build(tables, {v: rng.randint(1, 9) for v in domain})
    d = parse_decomposition(decomp_text, cq) if decomp_text else gyo_join_tree(cq)
    return db, uq, d


def test_corpus_covers_every_key_width():
    widths = set()
    for name in QUERIES:
        _, _, d = _instance(name, 0)
        widths |= {len(node.key_vars) for node in d.nodes.values()}
    assert widths >= {0, 1, 2}


@pytest.mark.parametrize("name,spec,seed", CASES)
def test_setup_matches_oracle(name, spec, seed):
    db, uq, d = _instance(name, seed)
    cq = uq.disjuncts[0]
    rf = parse_ranking(spec)
    # Every reduced bag holds exactly the bag's projections of the outputs,
    # computed from the oracle alone.
    outputs = [t.values for t in brute_force_ranked(db, uq, rf)]
    reduced = full_reducer(materialize_bags(db, d), d)
    for nid, node in d.nodes.items():
        positions = [cq.head.index(v) for v in node.var_order]
        want = {tuple(values[p] for p in positions) for values in outputs}
        rows = reduced[nid].rows
        assert len(rows) == len(set(rows))
        assert set(rows) == want, (nid, node.var_order)
    got, _ = engine_lines(db, cq, rf, d)
    assert got == oracle_lines(db, uq, rf)


def _two_path(r_rows, s_rows):
    db = Database.build([
        Table.from_rows("R", ("x", "y"), [r for r, _ in r_rows],
                        weights=[w for _, w in r_rows]),
        Table.from_rows("S", ("y", "z"), [s for s, _ in s_rows],
                        weights=[w for _, w in s_rows]),
    ])
    return db, parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]


def test_product_overflow_in_setup():
    db, cq = _two_path([(("1", "1"), 2**62)], [(("1", "1"), 4)])
    with pytest.raises(WeightError, match="overflow"):
        prepare(db, cq, parse_ranking("tuple_product"))


def test_product_overflow_in_enumeration():
    """Each queue's best product fits, so set-up succeeds; the product of the
    two large weights is only formed by a sibling insert."""
    db, cq = _two_path(
        [(("1", "1"), 1), (("2", "1"), 2**62)],
        [(("1", "1"), 1), (("1", "2"), 4)],
    )
    cursor = RankedCursor(prepare(db, cq, parse_ranking("tuple_product")))
    with pytest.raises(WeightError, match="overflow"):
        cursor.drain()
