"""Bounded rankings against the oracle on every corpus shape, on the GYO tree
and on that tree re-rooted at each node.

`bounded(inner; S)` is a monoid fold over a subset of the inner ranking's
terms, so it runs on any decomposition, with S in no bag in particular. Each
instance draws a nonempty random S and one of two weight domains: wide, or
tie-heavy (0/1, or 1/2 under product), where under `*_max` most outputs tie."""

import random

import pytest

from rankjoin import (
    Database,
    Table,
    gyo_join_tree,
    parse_decomposition,
    parse_query,
    parse_ranking,
    prepare,
)

from helpers import SHAPES, engine_lines, oracle_lines, rerooted

INNER = ["tuple_sum", "tuple_max", "tuple_product",
         "vertex_sum", "vertex_max", "vertex_product"]
SEEDS = range(6)
ACYCLIC = sorted(name for name, (_, decomp) in SHAPES.items() if decomp is None)


def _weight(rng, domain, positive):
    """A weight of `domain`; strictly positive for product rankings, and
    small enough there that a product of five fits in 64 bits."""
    if domain == "wide":
        return rng.randint(1, 1000) if positive else rng.randint(-10**6, 10**6)
    return rng.randint(1, 2) if positive else rng.randint(0, 1)


def _instance(shape, inner, domain, seed):
    """Random tables for `shape`, the ranking over a random nonempty S, and
    every tree the instance runs on."""
    text, decomp_text = SHAPES[shape]
    uq = parse_query(text)
    cq = uq.disjuncts[0]
    rng = random.Random(f"{shape}/{inner}/{domain}/{seed}")
    positive = inner.endswith("product")
    values = [str(v) for v in range(rng.randint(2, 4))]
    tables = []
    for atom in cq.atoms:
        rows = sorted({
            tuple(rng.choice(values) for _ in atom.variables)
            for _ in range(rng.randint(1, 12))
        })
        weights = [_weight(rng, domain, positive) for _ in rows]
        tables.append(Table.from_rows(atom.relation, atom.variables, rows, weights))
    db = Database.build(
        tables, {v: _weight(rng, domain, positive) for v in values}
    )
    bound = rng.sample(cq.head, rng.randint(1, len(cq.head)))
    rf = parse_ranking(f"bounded({inner}; {','.join(bound)})")
    tree = (parse_decomposition(decomp_text, cq) if decomp_text
            else gyo_join_tree(cq))
    return db, uq, rf, rerooted(tree)


@pytest.mark.parametrize("domain", ["wide", "ties"])
@pytest.mark.parametrize("inner", INNER)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_bounded_matches_oracle_on_every_rooting(shape, inner, domain):
    for seed in SEEDS:
        db, uq, rf, trees = _instance(shape, inner, domain, seed)
        cq = uq.disjuncts[0]
        want = oracle_lines(db, uq, rf)
        for d in trees:
            got, _ = engine_lines(db, cq, rf, d)
            assert got == want, (seed, rf.spec(), d.root)


@pytest.mark.parametrize("shape", ACYCLIC)
def test_bounded_runs_on_the_plain_join_tree(shape):
    """Without a decomposition, a bounded ranking runs on the tree the inner
    ranking would: no bag gains the bound variables."""
    db, uq, rf, _ = _instance(shape, "tuple_sum", "wide", 0)
    cq = uq.disjuncts[0]
    plain = gyo_join_tree(cq)
    d = prepare(db, cq, rf).decomposition
    assert {nid: n.bag for nid, n in d.nodes.items()} == {
        nid: n.bag for nid, n in plain.nodes.items()
    }
    assert d.width == 1
