"""Join keys of every width against the oracle.

A join key of one variable is the bare constant id; wider keys are tuples and
the empty key is `()` (`data.key_getter`). These cases put each width on the
paths that project keys: the full reducer's semijoins, `_hash_join` over a
bag's cover atoms, queue grouping and child heads in `initialize_queues`, and
the cursor's queue lookups."""

import random

import pytest

from rankjoin import (
    Database, Table, gyo_join_tree, parse_decomposition, parse_query,
    parse_ranking, prepare,
)

from helpers import engine_lines, oracle_lines

# name -> (query, decomposition text or None for the GYO join tree)
CASES = {
    # The child's key is {x,y}.
    "two_var_key": ("Q(x,y,z,w) :- R(x,y,z), S(x,y,w)", None),
    # Two components under the synthetic root: both children have key ().
    "empty_key": ("Q(x,y) :- U(x), V(y)", None),
    # Unary atoms are leaves keyed by their one variable.
    "unary": ("Q(x,y,z) :- A(x), R(x,y), S(y,z), B(z)", None),
    "unary_only": ("Q(x) :- A(x), B(x)", None),
    # Bags joined from several cover atoms, on a key of one, two and no
    # variables; T filters the first bag.
    "cover_one_var": (
        "Q(x,y,z,u) :- R(x,y), S(y,z), T(z,x), W(z,u)",
        "node 0: {x,y,z} cover R,S\nnode 1: {z,u} cover W\nroot 0\nedge 0 1\n",
    ),
    "cover_two_var": (
        "Q(x,y,z,w,u) :- R(x,y,z), S(x,y,w), W(w,u)",
        "node 0: {x,y,z,w} cover R,S\nnode 1: {w,u} cover W\nroot 0\nedge 0 1\n",
    ),
    "cover_no_var": (
        "Q(x,y) :- U(x), V(y)",
        "node 0: {x,y} cover U,V\nroot 0\n",
    ),
}
SPECS = ["tuple_sum", "tuple_max", "vertex_sum", "lex"]
SEEDS = range(8)


def _instance(name: str, seed: int):
    query_text, decomp_text = CASES[name]
    uq = parse_query(query_text)
    cq = uq.disjuncts[0]
    rng = random.Random(sorted(CASES).index(name) * 1_009 + seed)
    domain = [str(v) for v in range(rng.randint(1, 5))]
    tables = []
    for atom in cq.atoms:
        rows = sorted({
            tuple(rng.choice(domain) for _ in atom.variables)
            for _ in range(rng.randint(1, 20))
        })
        weights = [rng.randint(-9, 9) for _ in rows]
        tables.append(Table.from_rows(atom.relation, atom.variables, rows, weights))
    db = Database.build(tables, {v: rng.randint(-5, 5) for v in domain})
    decomp = (
        parse_decomposition(decomp_text, cq) if decomp_text else gyo_join_tree(cq)
    )
    return db, uq, decomp


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_oracle(name, spec):
    for seed in SEEDS:
        db, uq, decomp = _instance(name, seed)
        cq = uq.disjuncts[0]
        rf = parse_ranking(
            f"lex({','.join(reversed(cq.head))})" if spec == "lex" else spec
        )
        got, _ = engine_lines(db, cq, rf, decomp)
        assert got == oracle_lines(db, uq, rf), (name, seed)


@pytest.mark.parametrize(
    "name, width",
    [("unary", 1), ("cover_one_var", 1), ("two_var_key", 2), ("empty_key", 0)],
)
def test_queue_key_form(name, width):
    """Queues below the root are keyed by a bare id for one key variable and
    by a tuple of the key's width otherwise; the root's key is ()."""
    checked = 0
    for seed in SEEDS:
        db, uq, decomp = _instance(name, seed)
        p = prepare(db, uq.disjuncts[0], parse_ranking("tuple_sum"), decomp)
        if not p.root_state.queues:
            continue  # no output: the queues are never built
        assert list(p.root_state.queues) == [()]
        for nid, state in p.states.items():
            if nid == decomp.root:
                continue
            for key in state.queues:
                if width == 1:
                    assert type(key) is int
                else:
                    assert type(key) is tuple and len(key) == width
        checked += 1
    assert checked
