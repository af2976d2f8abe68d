import itertools

import pytest

import rankjoin.analysis
from rankjoin import (
    Database,
    analyze,
    check_coordinate_dichotomy,
    check_edge_dichotomy,
    component_diameters,
    diameter,
    gen_antichain_product,
    gen_diameter4_instance,
    gen_threepath,
    gyo_join_tree,
    parse_query,
)
from rankjoin.analysis import exact_diameter


def _cq(text):
    return parse_query(text).disjuncts[0]


PATH3 = _cq("Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w)")
PATH4 = _cq("Q(x,y,z,w,t) :- R(x,y), S(y,z), T(z,w), U(w,t)")
CARTESIAN = _cq("Q(x1,y1,x2,y2) :- R(x1,y1), S(x2,y2)")


class TestDiameter:
    def test_paths(self):
        assert diameter(PATH3) == 3
        assert diameter(PATH4) == 4

    def test_single_atom(self):
        assert diameter(_cq("Q(x,y) :- R(x,y)")) == 1
        assert diameter(_cq("Q(x) :- R(x)")) == 0

    def test_per_component(self):
        assert component_diameters(CARTESIAN) == [1, 1]

    def test_agrees_with_exhaustive_path_search(self):
        corpus = [
            PATH3,
            PATH4,
            CARTESIAN,
            _cq("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)"),
            _cq("Q(x,y,z,u) :- R(x,y), S(x,z), T(x,u)"),
            _cq("Q(x1,y1,z,y2,x2) :- R1(x1,y1), S1(y1,z), S2(y2,z), R2(x2,y2)"),
        ]
        for q in corpus:
            assert diameter(q) == exact_diameter(q), str(q)

    def test_symmetry_triangle_inequality(self):
        from rankjoin.analysis import _adjacency, _bfs_distances

        adj = _adjacency(PATH4)
        dist = {u: _bfs_distances(adj, u) for u in adj}
        for u, v in itertools.combinations(adj, 2):
            assert dist[u][v] == dist[v][u]
        for u, v, w in itertools.permutations(adj, 3):
            assert dist[u][v] <= dist[u][w] + dist[w][v]


class TestDichotomies:
    def test_coordinate_feasible(self):
        ok, wit = check_coordinate_dichotomy(_cq("Q(x,y,z) :- R(x,y), S(y,z)"))
        assert ok and wit is None

    def test_coordinate_infeasible_cartesian(self):
        ok, wit = check_coordinate_dichotomy(CARTESIAN)
        assert ok is False
        a, b = wit
        assert len(set(a.variables) - set(b.variables)) >= 2
        assert len(set(b.variables) - set(a.variables)) >= 2

    def test_coordinate_one_private_var_ok(self):
        ok, _ = check_coordinate_dichotomy(_cq("Q(x,y,z,w) :- R(x,y,z), S(z,w)"))
        assert ok

    def test_edge_feasible_3path(self):
        assert check_edge_dichotomy(PATH3) == (True, None)

    def test_edge_infeasible_4path(self):
        ok, wit = check_edge_dichotomy(PATH4)
        assert ok is False and wit[2] >= 4

    def test_edge_disconnected_per_component(self):
        assert check_edge_dichotomy(CARTESIAN)[0] is True

    def test_cyclic_not_applicable(self):
        tri = _cq("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        assert check_coordinate_dichotomy(tri) == (None, None)
        assert check_edge_dichotomy(tri) == (None, None)

    def test_witness_when_the_graph_has_a_cycle(self):
        # R's three variables form a triangle in the share-an-atom graph, so
        # the diameter takes one BFS per vertex; a and b both reach f in 4.
        q = _cq("Q(a,b,c,d,e,f) :- R(a,b,c), S(c,d), T(d,e), U(e,f)")
        assert check_edge_dichotomy(q) == (False, ("a", "f", 4))

    def test_analyze_report(self):
        r = analyze(PATH4)
        assert r.acyclic and r.coordinate_ok is False and r.edge_ok is False
        assert r.diameters == (4,)


def _dominates(a, b):
    return all(x >= y for x, y in zip(a, b)) and a != b


class TestGenerators:
    def test_antichain_construction(self):
        inst = gen_antichain_product(3)
        r = dict(zip(("R", "S"), inst.tables))
        assert r["R"].rows == (("a1", "a3"), ("a2", "a2"), ("a3", "a1"))

    def test_antichain_n1(self):
        inst = gen_antichain_product(1)
        assert inst.tables[0].rows == (("a1", "a1"),)

    def test_antichain_outputs_incomparable(self):
        inst = gen_antichain_product(6)
        w = inst.vertex_weights
        outputs = [
            tuple(w[c] for c in r1 + r2)
            for r1 in inst.tables[0].rows
            for r2 in inst.tables[1].rows
        ]
        for a, b in itertools.combinations(outputs, 2):
            assert not _dominates(a, b) and not _dominates(b, a)

    def test_diameter4_weights(self):
        inst = gen_diameter4_instance(2)
        named = {t.name: t for t in inst.tables}
        assert named["R1"].weights == (1, 2)
        assert named["S1"].weights == (2, 1)
        assert all(row[1] == "c" for row in named["S1"].rows)
        assert all(row[1] == "c" for row in named["S2"].rows)

    def test_diameter4_query_has_diameter_4(self):
        inst = gen_diameter4_instance(2)
        assert diameter(parse_query(inst.query_text).disjuncts[0]) == 4

    def test_diameter4_single_output_at_n1(self):
        inst = gen_diameter4_instance(1)
        db = Database.build(inst.tables)
        from rankjoin import UnionQuery, brute_force_ranked, parse_ranking

        out = brute_force_ranked(
            db, parse_query(inst.query_text), parse_ranking(inst.rank_spec)
        )
        assert len(out) == 1

    def test_diameter4_weight_vectors_incomparable(self):
        inst = gen_diameter4_instance(5)
        n = 5
        outputs = [
            (i, n - i + 1, n - j + 1, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        ]
        for a, b in itertools.combinations(outputs, 2):
            assert not _dominates(a, b) and not _dominates(b, a)

    def test_threepath_output_is_quadratic(self):
        inst = gen_threepath(7)
        db = Database.build(inst.tables)
        from rankjoin import brute_force_ranked, parse_ranking

        out = brute_force_ranked(
            db, parse_query(inst.query_text), parse_ranking(inst.rank_spec)
        )
        assert len(out) == 49

    def test_generators_deterministic(self):
        assert gen_antichain_product(4) == gen_antichain_product(4)


@pytest.mark.parametrize(
    "query", [PATH4, CARTESIAN, _cq("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")]
)
def test_analyze_builds_one_join_tree(query, monkeypatch):
    calls = []

    def counting(q):
        calls.append(q)
        return gyo_join_tree(q)

    monkeypatch.setattr(rankjoin.analysis, "gyo_join_tree", counting)
    analyze(query)
    assert calls == [query]


def _all_pairs_diameters(cq):
    """One BFS from every variable, per component in `component_diameters`'
    order (components by their smallest variable)."""
    from rankjoin.analysis import _adjacency, _bfs_distances

    adj = _adjacency(cq)
    dist = {u: _bfs_distances(adj, u) for u in adj}
    out, seen = [], set()
    for u in sorted(adj):
        if u not in seen:
            seen |= set(dist[u])
            out.append(max(max(dist[v].values()) for v in dist[u]))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_component_diameters_match_all_pairs_bfs(seed):
    """Forests of binary atoms take the two-sweep path; extra binary atoms
    and ternary atoms make cycles in the share-an-atom graph."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 12)
    names = [f"v{i}" for i in range(n)]
    atoms = [(names[i], names[rng.randrange(i)]) for i in range(1, n)
             if rng.random() < 0.85]
    if seed % 2:
        atoms += [tuple(rng.sample(names, min(n, rng.choice([2, 3]))))
                  for _ in range(rng.randint(1, 3))]
    atoms += [(v,) for v in names if not any(v in a for a in atoms)]
    body = ", ".join(f"R{i}({','.join(a)})" for i, a in enumerate(atoms))
    cq = _cq(f"Q({','.join(names)}) :- {body}")
    want = _all_pairs_diameters(cq)
    assert component_diameters(cq) == want

    # The edge witness is a pair at the first diameter past 3.
    from rankjoin.analysis import _adjacency, _bfs_distances

    ok, witness = check_edge_dichotomy(cq)
    if not analyze(cq).acyclic:
        assert (ok, witness) == (None, None)
        return
    assert ok == all(d <= 3 for d in want)
    if ok:
        assert witness is None
        return
    u, v, d = witness
    adj = _adjacency(cq)
    dist = {w: _bfs_distances(adj, w) for w in adj}
    assert u < v and dist[u][v] == d
    assert d == max(max(dist[w].values()) for w in dist[u])
    assert d == next(x for x in want if x > 3)
