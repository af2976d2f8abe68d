import random

import pytest

from rankjoin import (
    CyclicQueryError,
    DecompositionError,
    StructureError,
    augment_for_bounded,
    depth_one_decomposition,
    gyo_join_tree,
    parse_decomposition,
    parse_query,
)
from rankjoin.decomposition import min_edge_cover, validate

from helpers import long_path

RUNNING = "Q(x,y,z,w,u) :- R1(x,y), R2(y,z), R3(z,w), R4(z,u)"
TRIANGLE = "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)"


def _cq(text):
    return parse_query(text).disjuncts[0]


class TestGyo:
    def test_running_example_shape(self):
        d = gyo_join_tree(_cq(RUNNING))
        # root {x,y}, child {y,z}, grandchildren {z,w} and {z,u}
        assert d.root == 0
        assert d.nodes[0].bag == {"x", "y"}
        assert d.nodes[1].parent == 0 and d.nodes[1].bag == {"y", "z"}
        assert d.nodes[2].parent == 1 and d.nodes[2].bag == {"z", "w"}
        assert d.nodes[3].parent == 1 and d.nodes[3].bag == {"z", "u"}
        assert d.width == 1

    def test_key_val_sets(self):
        d = gyo_join_tree(_cq(RUNNING))
        assert d.nodes[0].key_vars == ()
        assert d.nodes[1].key_vars == ("y",)
        assert d.nodes[1].val_vars == ("z",)
        assert d.nodes[2].key_vars == ("z",)
        assert d.nodes[0].subtree_vars == {"x", "y", "z", "w", "u"}

    def test_single_atom(self):
        d = gyo_join_tree(_cq("Q(x,y) :- R(x,y)"))
        assert len(d.nodes) == 1

    def test_triangle_cyclic(self):
        with pytest.raises(CyclicQueryError) as e:
            gyo_join_tree(_cq(TRIANGLE))
        assert len(e.value.residue) == 3

    def test_four_cycle_cyclic(self):
        with pytest.raises(CyclicQueryError):
            gyo_join_tree(_cq("Q(x,y,z,w) :- R(x,y), S(y,z), T(z,w), U(w,x)"))

    def test_star_acyclic(self):
        d = gyo_join_tree(_cq("Q(x,y,z,u) :- R(x,y), S(x,z), T(x,u)"))
        assert len(d.nodes) == 3

    def test_disconnected_gets_synthetic_root(self):
        d = gyo_join_tree(_cq("Q(x1,y1,x2,y2) :- R(x1,y1), S(x2,y2)"))
        root = d.nodes[d.root]
        assert root.bag == frozenset()
        assert len(root.children) == 2

    def test_validation_idempotent(self):
        d = gyo_join_tree(_cq(RUNNING))
        validate(d)
        validate(d)


class TestLoadFormat:
    def test_triangle_width_two(self):
        d = parse_decomposition(
            "node 0: {x,y,z} cover R,S\nroot 0\n", _cq(TRIANGLE)
        )
        assert d.width == 2
        assert len(d.nodes) == 1

    def test_running_example_file(self):
        text = (
            "# running example\n"
            "node 1: {x,y} cover R1\n"
            "node 2: {y,z} cover R2\n"
            "node 3: {z,w} cover R3\n"
            "node 4: {z,u} cover R4\n"
            "root 1\n"
            "edge 1 2\nedge 2 3\nedge 2 4\n"
        )
        d = parse_decomposition(text, _cq(RUNNING))
        assert d.width == 1
        assert d.nodes[3].key_vars == ("z",)

    def test_coverage_violation(self):
        text = (
            "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
            "node 3: {z,w} cover R3\nroot 1\nedge 1 2\nedge 2 3\n"
        )
        with pytest.raises(DecompositionError, match="coverage"):
            parse_decomposition(text, _cq(RUNNING))

    def test_running_intersection_violation(self):
        text = (
            "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
            "node 3: {x,z,w} cover R1,R3\nnode 4: {z,u} cover R4\n"
            "root 1\nedge 1 2\nedge 2 3\nedge 2 4\n"
        )
        with pytest.raises(DecompositionError, match="running intersection"):
            parse_decomposition(text, _cq(RUNNING))

    def test_forest_rejected(self):
        text = (
            "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
            "node 3: {z,w} cover R3\nnode 4: {z,u} cover R4\n"
            "root 1\nedge 1 2\nedge 2 3\n"
        )
        with pytest.raises(DecompositionError, match="reachable|disconnected"):
            parse_decomposition(text, _cq(RUNNING))

    def test_cycle_rejected(self):
        text = (
            "node 1: {x,y} cover R1\nnode 2: {y,z} cover R2\n"
            "node 3: {z,w} cover R3\nnode 4: {z,u} cover R4\n"
            "root 1\nedge 1 2\nedge 2 3\nedge 2 4\nedge 3 2\n"
        )
        with pytest.raises(DecompositionError):
            parse_decomposition(text, _cq(RUNNING))

    def test_missing_root(self):
        with pytest.raises(DecompositionError, match="root"):
            parse_decomposition("node 1: {x,y} cover R\n", _cq("Q(x,y) :- R(x,y)"))


class TestAugment:
    def test_empty_set_identity(self):
        d = gyo_join_tree(_cq(RUNNING))
        assert augment_for_bounded(d, frozenset()) is d

    def test_running_example_w(self):
        d = augment_for_bounded(gyo_join_tree(_cq(RUNNING)), frozenset({"w"}))
        bags = {nid: n.bag for nid, n in d.nodes.items()}
        assert bags == {
            0: {"x", "y", "w"},
            1: {"y", "z", "w"},
            2: {"z", "w"},
            3: {"z", "u", "w"},
        }
        validate(d)

    def test_unknown_variable(self):
        d = gyo_join_tree(_cq(RUNNING))
        with pytest.raises(DecompositionError):
            augment_for_bounded(d, frozenset({"nope"}))


class TestDepthOne:
    def test_two_path(self):
        d = depth_one_decomposition(_cq("Q(x,y,z) :- R(x,y), S(y,z)"))
        assert d.depth() == 1
        assert d.width == 1

    def test_cartesian_fails(self):
        with pytest.raises(StructureError):
            depth_one_decomposition(_cq("Q(x1,y1,x2,y2) :- R(x1,y1), S(x2,y2)"))

    def test_single_atom(self):
        d = depth_one_decomposition(_cq("Q(x) :- R(x)"))
        assert d.depth() == 0

    def test_wide_root(self):
        d = depth_one_decomposition(_cq("Q(x,y,z,w) :- R(x,y,z), S(z,w)"))
        assert d.nodes[d.root].bag == {"x", "y", "z"}


def test_min_edge_cover_exact():
    cq = _cq(TRIANGLE)
    assert min_edge_cover(frozenset({"x", "y", "z"}), cq) == (0, 1)
    assert min_edge_cover(frozenset({"x", "y"}), cq) == (0,)
    assert min_edge_cover(frozenset(), cq) == ()


def _reference_components(q):
    comps, seen = [], set()
    for start in range(len(q.atoms)):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            a = frontier.pop()
            for b in range(len(q.atoms)):
                shares = set(q.atoms[a].variables) & set(q.atoms[b].variables)
                if b not in comp and shares:
                    comp.add(b)
                    frontier.append(b)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def _reference_gyo(q):
    """Ear removal written for clarity: each sweep visits the component's
    remaining non-root atoms in index order and removes an atom when another
    remaining atom holds every variable it shares with the rest; the
    lowest-index such atom becomes its parent. Returns (root, parents), or
    (None, residue indices) for the first component a sweep cannot reduce."""
    parents, roots = {}, []
    for comp in _reference_components(q):
        root = max(comp, key=lambda i: (len(q.atoms[i].variables), -i))
        remaining = list(comp)
        while len(remaining) > 1:
            removed = False
            for a in [i for i in remaining if i != root]:
                others = [o for o in remaining if o != a]
                rest = {v for o in others for v in q.atoms[o].variables}
                shared = set(q.atoms[a].variables) & rest
                witness = next(
                    (o for o in others if shared <= set(q.atoms[o].variables)), None
                )
                if witness is not None:
                    parents[a] = witness
                    remaining.remove(a)
                    removed = True
            if not removed:
                return None, remaining
        roots.append(root)
    if len(roots) == 1:
        parents[roots[0]] = None
        return roots[0], parents
    top = len(q.atoms)
    parents.update({r: top for r in roots})
    parents[top] = None
    return top, parents


def _random_query(rng):
    pool = [f"v{i}" for i in range(rng.randint(1, 8))]
    atoms = []
    for _ in range(rng.randint(1, 10)):
        if atoms and rng.random() < 0.6:
            # Mostly tree-like: share some variables of an earlier atom.
            base = rng.choice(atoms)
            vs = set(rng.sample(base, rng.randint(0, len(base))))
            vs |= set(rng.sample(pool, rng.randint(0, min(2, len(pool)))))
        else:
            vs = set(rng.sample(pool, rng.randint(1, min(4, len(pool)))))
        atoms.append(sorted(vs or {rng.choice(pool)}))
    head = sorted({v for a in atoms for v in a})
    rng.shuffle(head)
    body = ", ".join(f"R{i}({','.join(a)})" for i, a in enumerate(atoms))
    return _cq(f"Q({','.join(head)}) :- {body}")


def test_gyo_matches_reference_sweep_on_random_queries():
    rng = random.Random(1984)
    seen = {"acyclic": 0, "cyclic": 0, "disconnected": 0}
    for _ in range(1200):
        q = _random_query(rng)
        root, parents = _reference_gyo(q)
        if root is None:
            seen["cyclic"] += 1
            with pytest.raises(CyclicQueryError) as e:
                gyo_join_tree(q)
            assert list(e.value.residue) == [q.atoms[i] for i in parents], q
            continue
        seen["acyclic"] += 1
        seen["disconnected"] += root == len(q.atoms)
        d = gyo_join_tree(q)
        assert d.root == root, q
        assert {nid: n.parent for nid, n in d.nodes.items()} == parents, q
        covers = {i: (i,) for i in range(len(q.atoms))}
        if root == len(q.atoms):
            covers[root] = ()
        assert {nid: n.cover for nid, n in d.nodes.items()} == covers, q
        assert d.width == 1
        assert d.atom_assignment == {i: i for i in range(len(q.atoms))}
    assert min(seen.values()) >= 100, seen


class TestLongPath:
    """Building a tree is near-linear on paths, where each variable is in at
    most two atoms, so 2,000-atom paths build (and GYO keeps their path
    shape) without a recursion."""

    def test_gyo_builds_the_path(self):
        query, _ = long_path(2000)
        d = gyo_join_tree(_cq(query))
        assert d.root == 0
        assert d.depth() == 1999
        assert all(d.nodes[i].parent == i - 1 for i in range(1, 2000))

    def test_parse_builds_the_path(self):
        query, decomp = long_path(2000)
        d = parse_decomposition(decomp, _cq(query))
        assert d.root == 0
        assert d.depth() == 1999


class TestFileErrors:
    def test_edge_to_unknown_child(self):
        text = (
            "node 0: {x,y} cover R\nnode 1: {y,z} cover S\n"
            "root 0\nedge 0 1\nedge 1 7\n"
        )
        with pytest.raises(DecompositionError, match="node 7"):
            parse_decomposition(text, _cq("Q(x,y,z) :- R(x,y), S(y,z)"))

    def test_unknown_bag_variable(self):
        with pytest.raises(DecompositionError, match=r"unknown variables \['q'\]"):
            parse_decomposition(
                "node 0: {x,y,q} cover R\nroot 0\n", _cq("Q(x,y) :- R(x,y)")
            )

    def test_cover_must_cover_its_bag(self):
        with pytest.raises(
            DecompositionError,
            match=r"node 0: bag \['x', 'y', 'z'\] not covered by its atoms",
        ):
            parse_decomposition("node 0: {x,y,z} cover R\nroot 0\n", _cq(TRIANGLE))

    @pytest.mark.parametrize(
        "tail, err",
        [
            ("root zero", "line 2: cannot parse root line"),
            ("root", "line 2: cannot parse root line"),
            ("root 0\nedge 0", "line 3: cannot parse edge line"),
            ("root 0\nedge 0 x", "line 3: cannot parse edge line"),
            ("root 0\nedge 0 1 2", "line 3: cannot parse edge line"),
            ("root 0\nroot 0", r"line 3: second root line \(root is 0\)"),
            ("node 0: {x} cover R\nroot 0", "line 2: node 0 is repeated"),
        ],
    )
    def test_malformed_or_repeated_directive(self, tail, err):
        text = f"node 0: {{x,y}} cover R\n{tail}\n"
        with pytest.raises(DecompositionError, match=err):
            parse_decomposition(text, _cq("Q(x,y) :- R(x,y)"))

    def test_second_parent(self):
        text = (
            "node 0: {x,y} cover R\nnode 1: {y,z} cover S\nnode 2: {x,y} cover T\n"
            "root 0\nedge 0 1\nedge 2 1\nedge 0 2\n"
        )
        q = _cq("Q(x,y,z) :- R(x,y), S(y,z), T(y,x)")
        with pytest.raises(
            DecompositionError, match="line 6: node 1 already has parent 0"
        ):
            parse_decomposition(text, q)


def test_redundant_cover_keeps_the_minimum_width():
    """A bag's width is its minimum cover, not the cover the file lists."""
    text = (
        "node 0: {x,y} cover R,T\nnode 1: {y,z} cover S\nroot 0\nedge 0 1\n"
    )
    d = parse_decomposition(text, _cq("Q(x,y,z) :- R(x,y), S(y,z), T(x)"))
    assert d.nodes[0].cover == (0, 2)
    assert d.width == 1
