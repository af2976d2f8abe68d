"""Acceptance gate: nine criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned in the assertions below; the randomized corpus is
seeded, so every run checks the same `CORPUS_SIZE` (750) instances.
"""

import functools
import math
import random
import time

import pytest

from rankjoin import (
    Database,
    RankedCursor,
    Table,
    UnionCursor,
    UnionQuery,
    brute_force_ranked,
    check_coordinate_dichotomy,
    check_edge_dichotomy,
    diameter,
    direct_score,
    format_record,
    gen_threepath,
    parse_query,
    parse_ranking,
    prepare,
    probe_decomposable,
)
from rankjoin.preprocess import full_reducer, materialize_bags
from rankjoin.ranking import MONOIDS
from rankjoin.union import compare_key

from helpers import (
    RANK_SPECS,
    SHAPES,
    encode,
    engine_lines,
    oracle_lines,
    queue_key,
    random_instance,
    running_example,
)

SEEDS_PER_CELL = 25
# Every shape under every one of its rankings: 5 shapes x 6 rankings x 25 seeds.
CORPUS_SIZE = SEEDS_PER_CELL * sum(len(RANK_SPECS[s]) for s in SHAPES)


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nCRITERION {number} FAIL: {title}")
                raise
            print(f"\nCRITERION {number} PASS: {title}")

        return wrapper

    return deco


@functools.lru_cache(maxsize=1)
def corpus():
    """Engine-vs-oracle outcomes plus per-pull counters for all
    `CORPUS_SIZE` corpus instances; shared by criteria 2 and 3."""
    records = []
    t0 = time.perf_counter()
    for shape in sorted(SHAPES):
        for spec in RANK_SPECS[shape]:
            for seed in range(SEEDS_PER_CELL):
                db, uq, d = random_instance(shape, seed)
                rf = parse_ranking(spec)
                cq = uq.disjuncts[0]
                prepared = prepare(db, cq, rf, d)
                nodes = prepared.decomposition.nodes
                pops_cap = len(nodes)
                inserts_cap = sum(len(n.children) for n in nodes.values()) + 1
                cursor = RankedCursor(prepared, stats=True)
                got = [format_record(rf, db, r) for r in cursor.drain()]
                want = oracle_lines(db, uq, rf)
                bounds_ok = all(
                    pops <= pops_cap and inserts <= inserts_cap
                    for inserts, pops, _, _ in cursor.pull_stats
                )
                records.append(
                    {
                        "shape": shape,
                        "rank": spec,
                        "seed": seed,
                        "match": got == want,
                        "bounds_ok": bounds_ok,
                    }
                )
    return records, time.perf_counter() - t0


@criterion(1, "worked-example reproduction (queues, first pulls, chain, drain)")
def test_criterion_1_running_example():
    t0 = time.perf_counter()
    db, q = running_example()
    rf = parse_ranking("tuple_sum")
    p = prepare(db, q, rf)

    def queue_scores(nid, key_raw):
        state = p.states[nid]
        key = queue_key(encode(db, v) for v in key_raw)
        return sorted(entry[0] for entry in state.queues.get(key, []))

    assert queue_scores(2, ("1",)) == [1, 4]
    assert queue_scores(3, ("1",)) == [1, 5]
    assert queue_scores(1, ("1",))[0] == 3
    assert queue_scores(0, ()) == [4, 5]

    entry = p.states[1].queues[encode(db, "1")][0]
    cursor = RankedCursor(p)
    results = cursor.drain()
    assert [r.score for r in results[:2]] == [4, 5]
    assert [r.score for r in results] == [4, 5, 7, 8, 8, 9, 11, 12]

    chain_scores = []
    while entry is not None:
        chain_scores.append(entry[0])
        entry = p.states[1].succ.get(entry[1])
    assert chain_scores == [3, 6, 7, 10]
    assert time.perf_counter() - t0 < 1.0


@criterion(2, f"oracle equivalence on {CORPUS_SIZE} randomized instances, zero tolerance")
def test_criterion_2_oracle_equivalence():
    records, elapsed = corpus()
    assert len(records) == CORPUS_SIZE == 750
    mismatches = [r for r in records if not r["match"]]
    assert mismatches == []
    assert elapsed < 120.0


@criterion(3, "delay: per-pull heap-operation bounds and log-growth of comparisons")
def test_criterion_3_delay():
    records, _ = corpus()
    violations = [r for r in records if not r["bounds_ok"]]
    assert violations == []

    constants = []
    for n in (10**3, 10**4, 10**5):
        inst = gen_threepath(n)
        db = Database.build(inst.tables)
        cq = parse_query(inst.query_text).disjuncts[0]
        p = prepare(db, cq, parse_ranking(inst.rank_spec))
        cursor = RankedCursor(p, stats=True)
        cursor.drain_topk(200)
        max_cmp = max(s[2] for s in cursor.pull_stats)
        constants.append(max_cmp / math.log2(n))
    assert max(constants) / min(constants) <= 1.5, constants


@criterion(4, "space: cells created stay within C0 + C1*k, never the full output")
def test_criterion_4_space():
    n = 100
    inst = gen_threepath(n)
    db = Database.build(inst.tables)
    cq = parse_query(inst.query_text).disjuncts[0]
    rf = parse_ranking(inst.rank_spec)
    c1 = 3  # sum over nodes of (children + 1) on the 3-node chain
    for k in (1, n, n * n // 4):
        p = prepare(db, cq, rf)
        cursor = RankedCursor(p)
        emitted = len(cursor.drain_topk(k))
        assert emitted == k
        created = p.counters.cells - p.initial_cells
        assert created <= c1 * k
        # the full n^2 output is never materialized for k << n^2
        assert p.counters.cells <= p.initial_cells + c1 * k < n * n + p.initial_cells


@criterion(5, "full reducer: surviving bag tuples extend to output tuples")
def test_criterion_5_full_reducer():
    db, q = running_example()
    from rankjoin import gyo_join_tree

    d = gyo_join_tree(q)
    reduced = full_reducer(materialize_bags(db, d), d)
    removed = set(materialize_bags(db, d)[1].rows) - set(reduced[1].rows)
    assert {tuple(db.decode(c) for c in r) for r in removed} == {("3", "1")}

    for shape in sorted(SHAPES):
        for seed in range(0, SEEDS_PER_CELL, 5):
            db, uq, d = random_instance(shape, seed)
            cq = uq.disjuncts[0]
            reduced = full_reducer(materialize_bags(db, d), d)
            output = brute_force_ranked(db, uq, parse_ranking("tuple_sum"))
            head_pos = {v: i for i, v in enumerate(cq.head)}
            for nid, node in d.nodes.items():
                pos = [head_pos[v] for v in node.var_order]
                projected = {tuple(o.values[p] for p in pos) for o in output}
                assert set(reduced[nid].rows) == projected, (shape, seed, nid)


@criterion(6, "union: duplicate-free, strictly increasing, set-equal to the oracle")
def test_criterion_6_union():
    uq = parse_query("Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)")
    rf = parse_ranking("vertex_sum")
    rng = random.Random(2024)
    weight_rng = random.Random(2025)
    tuple_sum = parse_ranking("tuple_sum")
    diverging = 0  # outputs the two disjuncts score differently
    dom = [str(i) for i in range(4)]
    for trial in range(20):
        def rows():
            return sorted({(rng.choice(dom), rng.choice(dom)) for _ in range(12)})

        shared = rows()
        tables = [
            Table.from_rows("R", ("x", "y"), rows()),
            Table.from_rows("S", ("y", "z"), shared),
            # overlap: T shares half of S plus noise
            Table.from_rows("T", ("y", "z"), sorted(set(shared[::2]) | set(rows()))),
        ]
        db = Database.build(tables, {v: rng.randint(-6, 6) for v in dom})
        cursor = UnionCursor(
            [RankedCursor(prepare(db, cq, rf)) for cq in uq.disjuncts]
        )
        got = cursor.drain()
        want = brute_force_ranked(db, uq, rf)
        assert [(r.values, r.score) for r in got] == [
            (r.values, r.score) for r in want
        ]
        keys = [compare_key(r) for r in got]
        assert all(a < b for a, b in zip(keys, keys[1:]))

        same = parse_query("Q(x,y) :- R(x,y) | R(x,y)")
        union_out = UnionCursor(
            [RankedCursor(prepare(db, cq, rf)) for cq in same.disjuncts]
        ).drain()
        single = RankedCursor(prepare(db, same.disjuncts[0], rf)).drain()
        assert len(union_out) == len(single)

        # Tuple weights: S and T weigh their shared rows differently, so an
        # output found by both disjuncts ranks by the lower of its scores.
        weighted = Database.build([
            Table.from_rows(t.name, t.columns, t.rows,
                            [weight_rng.randint(-9, 9) for _ in t.rows])
            for t in tables
        ])
        got = UnionCursor(
            [RankedCursor(prepare(weighted, cq, tuple_sum)) for cq in uq.disjuncts]
        ).drain()
        want = brute_force_ranked(weighted, uq, tuple_sum)
        assert [(r.values, r.score) for r in got] == [
            (r.values, r.score) for r in want
        ]
        keys = [compare_key(r) for r in got]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        s_scores, t_scores = (
            {r.values: r.score for r in brute_force_ranked(
                weighted, UnionQuery((cq,)), tuple_sum)}
            for cq in uq.disjuncts
        )
        diverging += sum(s_scores[v] != t_scores[v] for v in s_scores.keys() & t_scores)
    assert diverging > 0


@criterion(7, "dichotomy checkers give the exact fixture verdicts")
def test_criterion_7_dichotomies():
    two_path = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]
    cartesian = parse_query("Q(x1,y1,x2,y2) :- R(x1,y1), S(x2,y2)").disjuncts[0]
    three_path = parse_query("Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w)").disjuncts[0]
    four_path = parse_query(
        "Q(x,y,z,w,t) :- R(x,y), S(y,z), T(z,w), U(w,t)"
    ).disjuncts[0]

    assert check_coordinate_dichotomy(two_path)[0] is True
    ok, witness = check_coordinate_dichotomy(cartesian)
    assert ok is False and witness is not None
    assert diameter(three_path) == 3
    assert check_edge_dichotomy(three_path)[0] is True
    assert diameter(four_path) == 4
    assert check_edge_dichotomy(four_path)[0] is False


@criterion(8, "decomposability probe: vertex sums pass, inner product reverses")
def test_criterion_8_probe():
    rng = random.Random(99)
    variables = ["x", "y", "z"]
    for trial in range(10):
        domains = {
            v: [str(i) for i in range(rng.randint(2, 4))] for v in variables
        }
        weights = {
            (v, c): rng.randint(-9, 9) for v in variables for c in domains[v]
        }

        def scorer(val):
            return sum(weights[(v, c)] for v, c in val.items())

        for s in ([], ["x"], ["y", "z"], variables):
            assert probe_decomposable(scorer, variables, s, domains) is None

    doms = {v: ["-1", "1"] for v in ("x1", "x2", "y1", "y2")}

    def inner_product(val):
        return int(val["x1"]) * int(val["y1"]) + int(val["x2"]) * int(val["y2"])

    witness = probe_decomposable(
        inner_product, list(doms), ["x1", "x2"], doms
    )
    assert witness is not None
    theta1, theta2, phi1, phi2 = witness
    assert inner_product({**theta1, **phi1}) < inner_product({**theta2, **phi1})
    assert inner_product({**theta1, **phi2}) > inner_product({**theta2, **phi2})


@criterion(9, "ranking laws and score folding on 10^4 randomized cases each")
def test_criterion_9_ranking_properties():
    rng = random.Random(7)
    cases = 10_000
    for name in ("sum", "max", "product"):
        m = MONOIDS[name]
        lo, hi = (1, 10**6) if name == "product" else (-(2**31), 2**31)
        for _ in range(cases):
            a, b, c = (rng.randint(lo, hi) for _ in range(3))
            assert m.combine(m.combine(a, b), c) == m.combine(a, m.combine(b, c))
            assert m.combine(a, b) == m.combine(b, a)
            assert m.combine(a, m.identity) == a
            small, large = sorted((a, b))
            assert m.combine(large, c) >= m.combine(small, c)

    # full score == fold of per-node scores == the direct definition,
    # across >= 10^4 engine outputs on dense random instances
    checked = 0
    seed = 0
    while checked < cases:
        rng2 = random.Random(seed)
        dom = [str(i) for i in range(4)]
        def dense(name, cols):
            rows = sorted(
                {(rng2.choice(dom), rng2.choice(dom)) for _ in range(60)}
            )
            return Table.from_rows(
                name, cols, rows, weights=[rng2.randint(-20, 20) for _ in rows]
            )

        tables = [dense("R", ("x", "y")), dense("S", ("y", "z"))]
        db = Database.build(tables, {v: rng2.randint(-9, 9) for v in dom})
        cq = parse_query("Q(x,y,z) :- R(x,y), S(y,z)").disjuncts[0]
        for spec in ("tuple_sum", "vertex_sum", "tuple_max"):
            rf = parse_ranking(spec)
            results = RankedCursor(prepare(db, cq, rf)).drain()
            for r in results:
                valuation = dict(zip(cq.head, r.values))
                assert r.score == direct_score(rf, db, cq, valuation)
                checked += 1
        seed += 1
    assert checked >= cases
