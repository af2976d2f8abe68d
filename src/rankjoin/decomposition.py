"""Rooted tree decompositions: construction (GYO), loading, validation.

Every node carries the derived sets used by the engine: key(t) = bag shared
with the parent, val(t) = the rest of the bag, subtree(t) = union of bags
below. Width is the exact minimum integral edge cover per bag, found by
exhaustive subset search (queries are constant-size).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import CyclicQueryError, DecompositionError, StructureError
from .query import ConjunctiveQuery, atom_components


@dataclass(frozen=True)
class DecompNode:
    id: int
    bag: FrozenSet[str]
    parent: Optional[int]
    children: Tuple[int, ...]
    cover: Tuple[int, ...]  # indices into the query's atom list
    key_vars: Tuple[str, ...]
    val_vars: Tuple[str, ...]
    subtree_vars: FrozenSet[str]
    var_order: Tuple[str, ...]  # bag in global (head) order


@dataclass(frozen=True)
class TreeDecomposition:
    query: ConjunctiveQuery
    nodes: Dict[int, DecompNode] = field(compare=False)
    root: int = 0
    width: int = 1
    atom_assignment: Dict[int, int] = field(default_factory=dict, compare=False)

    def post_order(self) -> List[int]:
        out: List[int] = []

        def visit(nid: int) -> None:
            for c in self.nodes[nid].children:
                visit(c)
            out.append(nid)

        visit(self.root)
        return out

    def pre_order(self) -> List[int]:
        out: List[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return out

    def depth(self) -> int:
        def d(nid: int) -> int:
            node = self.nodes[nid]
            return 0 if not node.children else 1 + max(d(c) for c in node.children)

        return d(self.root)


def min_edge_cover(bag: FrozenSet[str], q: ConjunctiveQuery) -> Tuple[int, ...]:
    """Smallest set of atoms whose variables cover `bag`; ties by query order."""
    if not bag:
        return ()
    candidates = [i for i, a in enumerate(q.atoms) if set(a.variables) & bag]
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            covered = set()
            for i in combo:
                covered.update(q.atoms[i].variables)
            if bag <= covered:
                return combo
    raise DecompositionError(f"bag {sorted(bag)} not coverable by any atom subset")


def _build(
    q: ConjunctiveQuery,
    bags: Dict[int, FrozenSet[str]],
    covers: Dict[int, Tuple[int, ...]],
    parents: Dict[int, Optional[int]],
    root: int,
) -> TreeDecomposition:
    children: Dict[int, List[int]] = {nid: [] for nid in bags}
    for nid, p in parents.items():
        if p is not None:
            if p not in bags:
                raise DecompositionError(f"node {nid}: unknown parent {p}")
            children[p].append(nid)
    for nid in children:
        children[nid].sort()

    subtree: Dict[int, FrozenSet[str]] = {}

    def fill_subtree(nid: int) -> FrozenSet[str]:
        acc = set(bags[nid])
        for c in children[nid]:
            acc.update(fill_subtree(c))
        subtree[nid] = frozenset(acc)
        return subtree[nid]

    fill_subtree(root)
    if len(subtree) != len(bags):
        unreachable = sorted(set(bags) - set(subtree))
        raise DecompositionError(f"nodes {unreachable} not reachable from the root")

    order_index = {v: i for i, v in enumerate(q.head)}
    nodes: Dict[int, DecompNode] = {}
    for nid, bag in bags.items():
        p = parents.get(nid)
        key = bag & bags[p] if p is not None else frozenset()
        ordered = tuple(sorted(bag, key=order_index.__getitem__))
        nodes[nid] = DecompNode(
            id=nid,
            bag=bag,
            parent=p,
            children=tuple(children[nid]),
            cover=covers[nid],
            key_vars=tuple(v for v in ordered if v in key),
            val_vars=tuple(v for v in ordered if v not in key),
            subtree_vars=subtree[nid],
            var_order=ordered,
        )

    width = 0
    assignment: Dict[int, int] = {}
    for nid in sorted(bags):
        width = max(width, len(min_edge_cover(bags[nid], q)))
        for ai in covers[nid]:
            # Tuple weights are charged where the atom is assigned, so the
            # bag must bind every variable of the atom.
            if set(q.atoms[ai].variables) <= bags[nid]:
                assignment.setdefault(ai, nid)
    for ai, atom in enumerate(q.atoms):
        if ai in assignment:
            continue
        for nid in sorted(bags):
            if set(atom.variables) <= bags[nid]:
                assignment[ai] = nid
                break

    d = TreeDecomposition(q, nodes, root, width, assignment)
    validate(d)
    return d


def validate(d: TreeDecomposition) -> None:
    """Re-checks all decomposition invariants; raises DecompositionError."""
    q = d.query
    if d.root not in d.nodes:
        raise DecompositionError(f"root {d.root} is not a node")
    if d.nodes[d.root].parent is not None:
        raise DecompositionError("root has a parent")
    if d.nodes[d.root].key_vars:
        raise DecompositionError("root key set is nonempty")
    seen = set()
    stack = [d.root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            raise DecompositionError(f"cycle through node {nid}")
        seen.add(nid)
        node = d.nodes[nid]
        for c in node.children:
            if d.nodes[c].parent != nid:
                raise DecompositionError(f"node {c}: parent link mismatch")
            stack.append(c)
    if seen != set(d.nodes):
        missing = sorted(set(d.nodes) - seen)
        raise DecompositionError(f"forest: nodes {missing} disconnected from root")

    for ai, atom in enumerate(q.atoms):
        if not any(set(atom.variables) <= n.bag for n in d.nodes.values()):
            raise DecompositionError(f"coverage: atom {atom} contained in no bag")
        if ai not in d.atom_assignment:
            raise DecompositionError(f"atom {atom} not assigned to any node")

    for v in q.variables:
        holders = {nid for nid, n in d.nodes.items() if v in n.bag}
        if not holders:
            raise DecompositionError(f"variable {v} in no bag")
        # Connectivity: all holders must reach the topmost holder via holders.
        top = {
            nid
            for nid in holders
            if d.nodes[nid].parent is None or d.nodes[nid].parent not in holders
        }
        if len(top) != 1:
            raise DecompositionError(
                f"running intersection: bags containing {v} are disconnected"
            )

    for node in d.nodes.values():
        covered = set()
        for ai in node.cover:
            covered.update(q.atoms[ai].variables)
        if not node.bag <= covered:
            raise DecompositionError(
                f"node {node.id}: bag {sorted(node.bag)} not covered by its atoms"
            )
        if set(node.key_vars) | set(node.val_vars) != node.bag:
            raise DecompositionError(f"node {node.id}: key/val do not partition bag")
        expect = node.bag | frozenset().union(
            *(d.nodes[c].subtree_vars for c in node.children)
        ) if node.children else node.bag
        if node.subtree_vars != expect:
            raise DecompositionError(f"node {node.id}: stale subtree variable set")
        if node.parent is not None:
            if frozenset(node.key_vars) != node.bag & d.nodes[node.parent].bag:
                raise DecompositionError(f"node {node.id}: key != bag ∩ parent bag")


def _component_root(q: ConjunctiveQuery, comp: Sequence[int]) -> int:
    return max(comp, key=lambda i: (len(q.atoms[i].variables), -i))


def gyo_join_tree(q: ConjunctiveQuery) -> TreeDecomposition:
    """GYO ear removal; every bag is one atom's variable set (width 1).

    Disconnected queries get per-component trees under a synthetic empty-bag
    root. Raises CyclicQueryError (with the irreducible residue) otherwise.
    """
    atom_vars = [set(a.variables) for a in q.atoms]
    parents: Dict[int, Optional[int]] = {}
    comp_roots: List[int] = []
    for comp in atom_components(q):
        root = _component_root(q, comp)
        remaining = set(comp)
        while len(remaining) > 1:
            progress = False
            for a in [i for i in comp if i in remaining and i != root]:
                others = remaining - {a}
                shared = atom_vars[a] & set().union(*(atom_vars[o] for o in others))
                witness = next(
                    (o for o in comp if o in others and shared <= atom_vars[o]), None
                )
                if witness is not None:
                    parents[a] = witness
                    remaining.discard(a)
                    progress = True
            if not progress:
                raise CyclicQueryError(
                    "query is not alpha-acyclic",
                    residue=[q.atoms[i] for i in sorted(remaining)],
                )
        comp_roots.append(root)

    bags = {i: frozenset(a.variables) for i, a in enumerate(q.atoms)}
    covers: Dict[int, Tuple[int, ...]] = {i: (i,) for i in range(len(q.atoms))}
    if len(comp_roots) == 1:
        root = comp_roots[0]
        parents[root] = None
    else:
        root = len(q.atoms)
        bags[root] = frozenset()
        covers[root] = ()
        parents[root] = None
        for r in comp_roots:
            parents[r] = root
    return _build(q, bags, covers, parents, root)


def depth_one_decomposition(q: ConjunctiveQuery) -> TreeDecomposition:
    """Width-1, depth-1 decomposition: largest atom at the root, rest children.

    Requires the query to be acyclic and to have no atom pair with two or more
    private variables on each side; raises StructureError otherwise.
    """
    gyo_join_tree(q)  # acyclicity gate
    for i, a in enumerate(q.atoms):
        for j in range(i + 1, len(q.atoms)):
            b = q.atoms[j]
            if (
                len(set(a.variables) - set(b.variables)) >= 2
                and len(set(b.variables) - set(a.variables)) >= 2
            ):
                raise StructureError(
                    f"atoms {a} and {b} each have two or more private variables"
                )
    root = _component_root(q, range(len(q.atoms)))
    bags = {i: frozenset(a.variables) for i, a in enumerate(q.atoms)}
    covers = {i: (i,) for i in range(len(q.atoms))}
    parents: Dict[int, Optional[int]] = {
        i: (root if i != root else None) for i in range(len(q.atoms))
    }
    return _build(q, bags, covers, parents, root)


def augment_for_bounded(d: TreeDecomposition, s: FrozenSet[str]) -> TreeDecomposition:
    """Add the variables `s` to every bag (coverage for bounded rankings)."""
    s = frozenset(s)
    if not s:
        return d
    unknown = s - d.query.variables
    if unknown:
        raise DecompositionError(f"augment: unknown variables {sorted(unknown)}")
    bags = {nid: n.bag | s for nid, n in d.nodes.items()}
    covers = {nid: min_edge_cover(bags[nid], d.query) for nid in bags}
    parents = {nid: n.parent for nid, n in d.nodes.items()}
    return _build(d.query, bags, covers, parents, d.root)


def parse_decomposition(text: str, q: ConjunctiveQuery) -> TreeDecomposition:
    """Parse the line-based decomposition format.

        node 1: {x,y} cover R1
        node 2: {y,z} cover R2,R3
        root 1
        edge 1 2
    """
    bags: Dict[int, FrozenSet[str]] = {}
    covers: Dict[int, Tuple[int, ...]] = {}
    parents: Dict[int, Optional[int]] = {}
    root: Optional[int] = None
    name_to_idx: Dict[str, int] = {}
    for i, a in enumerate(q.atoms):
        name_to_idx.setdefault(a.relation, i)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        kind = parts[0]
        if kind == "node":
            try:
                head, rest = parts[1].split(":", 1)
                nid = int(head)
                brace_open = rest.index("{")
                brace_close = rest.index("}")
                bag_text = rest[brace_open + 1 : brace_close]
                bag = frozenset(v.strip() for v in bag_text.split(",") if v.strip())
                after = rest[brace_close + 1 :].strip()
                cover: Tuple[int, ...] = ()
                if after:
                    if not after.startswith("cover"):
                        raise ValueError(after)
                    names = [n.strip() for n in after[len("cover") :].split(",")]
                    idxs = []
                    for nm in names:
                        if nm not in name_to_idx:
                            raise DecompositionError(
                                f"line {line_no}: cover names unknown atom {nm!r}"
                            )
                        idxs.append(name_to_idx[nm])
                    cover = tuple(idxs)
            except (ValueError, IndexError):
                raise DecompositionError(
                    f"line {line_no}: cannot parse node line {raw!r}"
                ) from None
            bags[nid] = bag
            covers[nid] = cover
            parents.setdefault(nid, None)
        elif kind == "root":
            root = int(parts[1])
        elif kind == "edge":
            p, c = (int(x) for x in parts[1].split())
            parents[c] = p
        else:
            raise DecompositionError(f"line {line_no}: unknown directive {kind!r}")
    if root is None:
        raise DecompositionError("missing 'root' line")
    if root not in bags:
        raise DecompositionError(f"root {root} has no node line")
    return _build(q, bags, covers, parents, root)


def load_decomposition(path: str, q: ConjunctiveQuery) -> TreeDecomposition:
    with open(path) as fh:
        return parse_decomposition(fh.read(), q)
