"""Equal-score outputs under `tuple_max`/`vertex_max` are buffered and sorted
in whole groups: outputs that share their score and their values of the
longest head prefix that the root bag holds (`tie_lead`). The first result of
an all-ties input then costs cells in proportion to one group, not to the
whole output, and the engine still agrees with the oracle line for line,
whether a fill holds one group, `TIE_BATCH` outputs or 32."""

import random
from collections import Counter

import pytest

from rankjoin import cursor
from rankjoin import (
    Database,
    RankedCursor,
    Table,
    UnionCursor,
    brute_force_ranked,
    format_record,
    gen_threepath,
    gyo_join_tree,
    parse_decomposition,
    parse_query,
    parse_ranking,
    prepare,
)

# name -> (query, decomposition text or None for the GYO tree, how many
# leading head variables the root bag holds)
QUERIES = {
    "first_head_var_off_root": ("Q(z,y,x) :- R(x,y), S(y,z)", None, 0),
    "2path": ("Q(x,y,z) :- R(x,y), S(y,z)", None, 2),
    "2path_prefix_stops_at_z": ("Q(x,z,y) :- R(x,y), S(y,z)", None, 1),
    "3path": ("Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)", None, 2),
    "3path_permuted_head": ("Q(u,z,y,x) :- R(x,y), S(y,z), T(z,u)", None, 0),
    "3path_rooted_at_T": (
        "Q(z,u,x,y) :- R(x,y), S(y,z), T(z,u)",
        "node 0: {x,y} cover R\nnode 1: {y,z} cover S\nnode 2: {z,u} cover T\n"
        "root 2\nedge 2 1\nedge 1 0\n",
        2,
    ),
    "star": ("Q(x,y,z,u) :- R(x,y), S(x,z), T(x,u)", None, 2),
    "star_permuted_head": ("Q(y,x,z,u) :- R(x,y), S(x,z), T(x,u)", None, 2),
    "union": ("Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)", None, 2),
    "disconnected": ("Q(x,y,z,u) :- R(x,y), S(z,u)", None, 0),
}
RANKINGS = ("vertex_max", "tuple_max")
# "ties": every weight is 0, so every output ties; "small": weights 0-2.
WEIGHTS = ("ties", "small")
SEEDS = 12


def instance(name: str, weights: str, seed: int):
    query_text, decomp_text, _ = QUERIES[name]
    uq = parse_query(query_text)
    rng = random.Random(f"{name}/{weights}/{seed}")
    weight = (lambda: 0) if weights == "ties" else (lambda: rng.randint(0, 2))
    domain = [str(v) for v in range(rng.randint(2, 5))]
    atoms = {a.relation: a for cq in uq.disjuncts for a in cq.atoms}
    tables = []
    for relation, atom in sorted(atoms.items()):
        rows = sorted({tuple(rng.choice(domain) for _ in atom.variables)
                       for _ in range(rng.randint(1, 25))})
        tables.append(Table.from_rows(relation, atom.variables, rows,
                                      [weight() for _ in rows]))
    db = Database.build(tables, {v: weight() for v in domain})
    return db, uq, decomp_text


def engine_lines(db, uq, rf, decomp_text):
    cursors = []
    for cq in uq.disjuncts:
        decomp = parse_decomposition(decomp_text, cq) if decomp_text else None
        cursors.append(RankedCursor(prepare(db, cq, rf, decomp)))
    cursor = cursors[0] if len(cursors) == 1 else UnionCursor(cursors)
    return [format_record(rf, db, out) for out in cursor.drain()]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_fixture_roots(name):
    # Every grouping is covered: the whole run (lead 0), a score and a value
    # of x (lead 1), and a score and values of two head variables (lead 2).
    query_text, decomp_text, lead = QUERIES[name]
    for cq in parse_query(query_text).disjuncts:
        d = parse_decomposition(decomp_text, cq) if decomp_text else gyo_join_tree(cq)
        assert cursor.tie_lead(d) == lead


# One group per fill checks the group boundaries on small outputs; the
# default checks fills of several groups, and 32 fills of more groups still.
@pytest.mark.parametrize("batch", (1, cursor.TIE_BATCH, 32))
@pytest.mark.parametrize("weights", WEIGHTS)
@pytest.mark.parametrize("spec", RANKINGS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_engine_matches_oracle(name, spec, weights, batch, monkeypatch):
    monkeypatch.setattr(cursor, "TIE_BATCH", batch)
    rf = parse_ranking(spec)
    for seed in range(SEEDS):
        db, uq, decomp_text = instance(name, weights, seed)
        oracle = [format_record(rf, db, out) for out in brute_force_ranked(db, uq, rf)]
        assert engine_lines(db, uq, rf, decomp_text) == oracle, seed


def test_all_ties_first_result_costs_one_group():
    # With no vertex weights, every output of the n^2-output 3-path scores 0.
    n = 300
    inst = gen_threepath(n)
    db = Database.build(inst.tables)
    uq = parse_query(inst.query_text)
    rf = parse_ranking("vertex_max")
    p = prepare(db, uq.disjuncts[0], rf)
    first = RankedCursor(p).next()
    assert p.counters.cells - p.initial_cells <= 2 * n
    assert first == brute_force_ranked(db, uq, rf)[0]


def test_all_ties_first_result_costs_one_root_valuation():
    # x = 1 joins m values of y, each with m values of z, and every output
    # scores 0. The root bag {x,y} holds the head prefix x,y, so the first
    # group is the m outputs of one y; grouping by x alone would pull m^2.
    m = 30
    ys = [f"y{i:02}" for i in range(m)]
    r_rows = [("1", y) for y in ys]
    s_rows = [(y, f"z{j:02}") for y in ys for j in range(m)]
    db = Database.build([
        Table.from_rows("R", ("x", "y"), r_rows, [0] * len(r_rows)),
        Table.from_rows("S", ("y", "z"), s_rows, [0] * len(s_rows)),
    ])
    uq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
    rf = parse_ranking("tuple_max")
    p = prepare(db, uq.disjuncts[0], rf)
    first = RankedCursor(p).next()
    assert p.counters.cells - p.initial_cells <= 2 * m
    assert first == brute_force_ranked(db, uq, rf)[0]


def test_fills_grow_to_tie_batch():
    # Ties one output per value of x, so each group is one output. A fill
    # pulls as many groups as results were emitted, up to TIE_BATCH: the first
    # result pulls one output, not the whole run, fills double until they
    # reach TIE_BATCH, and then each pulls TIE_BATCH.
    batch = cursor.TIE_BATCH
    assert batch & (batch - 1) == 0  # a power of two, for the doubling below
    rows = [(f"{v:03}", "0") for v in range(4 * batch)]
    db = Database.build([Table.from_rows("R", ("x", "y"), rows, [0] * len(rows))])
    uq = parse_query("Q(x,y) :- R(x,y)")
    p = prepare(db, uq.disjuncts[0], parse_ranking("tuple_max"))
    ranked = RankedCursor(p)
    pops = []
    for _ in range(3 * batch):
        ranked.next()
        pops.append(p.counters.pops)
    assert pops[:batch] == [1 << i.bit_length() for i in range(batch)]
    assert pops[batch - 1 : batch + 2] == [batch, 2 * batch, 2 * batch]
    assert pops[2 * batch - 1 : 2 * batch + 2] == [2 * batch, 3 * batch, 3 * batch]


@pytest.mark.parametrize("name", ["2path", "2path_prefix_stops_at_z", "union"])
def test_fills_hold_whole_groups_and_at_most_batch_more(name, monkeypatch):
    # Vertex weights 0-2 over 30 constants: three scores, so each group is
    # the outputs of one score and root-bag prefix, several outputs long.
    # Every fill takes whole groups and stops at the first group boundary
    # at or past TIE_BATCH outputs, so it holds at most TIE_BATCH - 1 more
    # than its largest group.
    query_text, _, lead = QUERIES[name]
    uq = parse_query(query_text)
    rng = random.Random(name)
    domain = [str(v) for v in range(30)]
    pairs = [(a, b) for a in domain for b in domain]
    atoms = {a.relation: a for cq in uq.disjuncts for a in cq.atoms}
    db = Database.build(
        [Table.from_rows(r, atom.variables, sorted(rng.sample(pairs, 200)))
         for r, atom in sorted(atoms.items())],
        {v: rng.randint(0, 2) for v in domain},
    )
    rf = parse_ranking("vertex_max")
    fills = []
    fill = cursor.RankedCursor._fill

    def recorded(self):
        out = fill(self)
        fills.append(list(out))  # `next` pops from `out`
        return out

    monkeypatch.setattr(cursor.RankedCursor, "_fill", recorded)
    group = lambda out: (out.score, out.values[:lead])
    sizes = {}
    for cq in uq.disjuncts:
        fills.clear()
        outputs = RankedCursor(prepare(db, cq, rf)).drain()
        assert len(outputs) > 20 * cursor.TIE_BATCH
        totals = Counter(map(group, outputs))
        for out in fills:
            held = Counter(map(group, out))
            assert all(held[g] == totals[g] for g in held)
            assert len(out) <= cursor.TIE_BATCH + max(held.values()) - 1
        sizes[cq] = [len(out) for out in fills]
    assert any(max(s) > cursor.TIE_BATCH for s in sizes.values())
