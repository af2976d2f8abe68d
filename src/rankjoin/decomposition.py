"""Rooted tree decompositions: construction (GYO), loading, validation.

Every node carries the derived sets used by the engine: key(t) = bag shared
with the parent, val(t) = the rest of the bag, subtree(t) = union of bags
below. Width is the exact minimum integral edge cover per bag. A nonempty
bag whose cover is one atom has width 1, as every GYO node does; other bags
take an exhaustive subset search over the atoms that meet the bag.

GYO sweeps each component's non-root atoms in index order. An atom is an ear
when another remaining atom holds every variable it shares; the lowest-index
one becomes its parent. An index from each variable to its remaining atoms
finds both, and a sweep re-checks only atoms that lost a neighbour, since no
other atom can have become an ear. That is near-linear when each variable is
in few atoms; a variable in every atom (a star) makes each ear test and each
removal walk all its holders, so stars stay quadratic.

`parse_decomposition` rejects a malformed line, a repeated `node` id, a second
`root` line and a second parent for a node, naming the line. `_build` links
each tree once and rejects unknown nodes and variables and nodes the root does
not reach (cycles included: a node has one parent); keys are bag ∩ parent bag
by construction. `validate` checks what a decomposition file can get wrong:
atom coverage, running intersection, and covers.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import CyclicQueryError, DecompositionError
from .query import Atom, ConjunctiveQuery, atom_components


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
        # The reverse of a pre-order that visits children right to left.
        out: List[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(self.nodes[nid].children)
        out.reverse()
        return out

    def pre_order(self) -> List[int]:
        out: List[int] = []
        stack = [self.root]
        while stack:
            nid = stack.pop()
            out.append(nid)
            stack.extend(reversed(self.nodes[nid].children))
        return out

    def pass_through(self) -> Dict[int, int]:
        """Node id -> atom index, for each node whose bag is that atom's
        relation with each row's values reordered: the node's one cover atom
        lists the bag's variables, each once, in `var_order` or another
        order, and no other atom is assigned to the node. A permutation
        keeps distinct rows distinct, so bag materialization passes such a
        relation's rows, reordered, and its weight column through, and tuple
        scoring reads such a bag's weights by position."""
        atoms = self.query.atoms
        # `var_order` names each bag variable once, so equal sorted lists
        # leave the atom no repeated variable.
        out = {
            nid: node.cover[0]
            for nid, node in self.nodes.items()
            if len(node.cover) == 1
            and sorted(atoms[node.cover[0]].variables) == sorted(node.var_order)
        }
        for ai, owner in self.atom_assignment.items():
            # Another atom assigned to the node filters its bag.
            if out.get(owner, ai) != ai:
                del out[owner]
        return out

    def depth(self) -> int:
        depth = {self.root: 0}
        for nid in self.pre_order():
            for c in self.nodes[nid].children:
                depth[c] = depth[nid] + 1
        return max(depth.values())


def min_edge_cover(bag: FrozenSet[str], q: ConjunctiveQuery) -> Tuple[int, ...]:
    """Smallest set of atoms whose variables cover `bag`; ties by query order."""
    if not bag:
        return ()
    candidates = sorted(set().union(*(q.occurrences.get(v, ()) for v in bag)))
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if bag <= set().union(*(q.atoms[i].variables for i in combo)):
                return combo
    raise DecompositionError(f"bag {sorted(bag)} not coverable by any atom subset")


def _build(
    q: ConjunctiveQuery,
    bags: Dict[int, FrozenSet[str]],
    covers: Dict[int, Tuple[int, ...]],
    parents: Dict[int, Optional[int]],
    root: int,
    width: Optional[int] = None,
) -> TreeDecomposition:
    """Link, check and assign the atoms of a decomposition. `width` is the
    largest minimum cover of a bag, searched for here unless the caller
    already knows it."""
    children: Dict[int, List[int]] = {nid: [] for nid in bags}
    for nid, p in parents.items():
        if nid not in bags:
            raise DecompositionError(f"edge {p} {nid}: node {nid} has no node line")
        if p is not None:
            if p not in bags:
                raise DecompositionError(f"node {nid}: unknown parent {p}")
            children[p].append(nid)
    for nid in children:
        children[nid].sort()

    if parents.get(root) is not None:
        raise DecompositionError("root has a parent")
    # Each node has one parent and the root none, so this walk visits every
    # node reachable from the root once, parents before children.
    reachable = [root]
    for nid in reachable:
        reachable.extend(children[nid])
    subtree: Dict[int, FrozenSet[str]] = {}
    for nid in reversed(reachable):
        subtree[nid] = bags[nid].union(*(subtree[c] for c in children[nid]))
    if len(subtree) != len(bags):
        unreachable = sorted(set(bags) - set(subtree))
        raise DecompositionError(f"nodes {unreachable} not reachable from the root")

    order_index = q.head_index
    nodes: Dict[int, DecompNode] = {}
    for nid, bag in bags.items():
        unknown = bag.difference(order_index)
        if unknown:
            raise DecompositionError(f"node {nid}: unknown variables {sorted(unknown)}")
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

    if width is None:
        # One atom is a minimum cover of a nonempty bag (`validate` checks
        # that it covers the bag), so only other bags need the search.
        width = max(
            1 if bags[nid] and len(covers[nid]) == 1
            else len(min_edge_cover(bags[nid], q))
            for nid in sorted(bags)
        )
    assignment: Dict[int, int] = {}
    for nid in sorted(bags):
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
    """Checks what `_build` does not construct; raises DecompositionError."""
    q, nodes = d.query, d.nodes
    for ai, atom in enumerate(q.atoms):
        owner = d.atom_assignment.get(ai)
        if owner is None or not set(atom.variables) <= nodes[owner].bag:
            raise DecompositionError(f"coverage: atom {atom} contained in no bag")
    # A variable's bags are connected iff exactly one of them lacks it in its
    # parent bag, that is, holds it in its val set.
    tops = Counter(v for node in nodes.values() for v in node.val_vars)
    for v in q.head:
        if tops[v] > 1:
            raise DecompositionError(
                f"running intersection: bags containing {v} are disconnected"
            )
    for node in nodes.values():
        covered = set().union(*(q.atoms[ai].variables for ai in node.cover))
        if not node.bag <= covered:
            raise DecompositionError(
                f"node {node.id}: bag {sorted(node.bag)} not covered by its atoms"
            )


def private_pair(q: ConjunctiveQuery) -> Optional[Tuple[Atom, Atom]]:
    """The first atom pair with two or more private variables on each side."""
    sets = [set(a.variables) for a in q.atoms]
    for i, a in enumerate(sets):
        for j in range(i + 1, len(sets)):
            shared = len(a & sets[j])
            if len(a) - shared >= 2 and len(sets[j]) - shared >= 2:
                return q.atoms[i], q.atoms[j]
    return None


def _component_root(q: ConjunctiveQuery, comp: Sequence[int]) -> int:
    return max(comp, key=lambda i: (len(q.atoms[i].variables), -i))


def gyo_join_tree(q: ConjunctiveQuery) -> TreeDecomposition:
    """GYO ear removal; every bag is one atom's variable set (width 1).

    Disconnected queries get per-component trees under a synthetic empty-bag
    root. Raises CyclicQueryError (with the irreducible residue) otherwise.
    """
    # variable -> the atoms still holding it
    holders = {v: set(atoms) for v, atoms in q.occurrences.items()}
    parents: Dict[int, Optional[int]] = {}
    comp_roots: List[int] = []
    for comp in atom_components(q):
        root = _component_root(q, comp)
        left = len(comp)
        sweep = [a for a in comp if a != root]  # a heap of atom indices
        while left > 1:
            if not sweep:
                raise CyclicQueryError(
                    "query is not alpha-acyclic",
                    residue=[q.atoms[i] for i in comp if i not in parents],
                )
            # Neighbours of a removed atom are re-checked: later in this
            # sweep when they come after it, else in the next one.
            queued, retry = {root, *sweep}, set()
            while sweep:
                a = heapq.heappop(sweep)
                # The remaining atoms stay connected, so `a` shares a variable.
                shared = [
                    holders[v] for v in q.atoms[a].variables if len(holders[v]) > 1
                ]
                witnesses = set.intersection(*sorted(shared, key=len)) - {a}
                if not witnesses:
                    continue
                parents[a] = min(witnesses)
                left -= 1
                for v in q.atoms[a].variables:
                    holders[v].discard(a)
                    for n in holders[v]:
                        if n < a:
                            retry.add(n)
                        elif n not in queued:
                            heapq.heappush(sweep, n)
                            queued.add(n)
            sweep = sorted(retry - {root})
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
        kind, *args = line.split()
        if kind == "node":
            try:
                head, rest = " ".join(args).split(":", 1)
                nid = int(head)
                brace_open = rest.index("{")
                brace_close = rest.index("}")
                if rest[:brace_open].strip():
                    raise ValueError(rest)
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
            except ValueError:
                raise DecompositionError(
                    f"line {line_no}: cannot parse node line {raw!r}"
                ) from None
            if nid in bags:
                raise DecompositionError(f"line {line_no}: node {nid} is repeated")
            bags[nid] = bag
            covers[nid] = cover
            parents.setdefault(nid, None)
        elif kind in ("root", "edge"):
            try:
                ids = [int(x) for x in args]
            except ValueError:
                ids = []
            if len(ids) != (1 if kind == "root" else 2):
                raise DecompositionError(
                    f"line {line_no}: cannot parse {kind} line {raw!r}"
                )
            if kind == "root":
                if root is not None:
                    raise DecompositionError(
                        f"line {line_no}: second root line (root is {root})"
                    )
                root = ids[0]
            else:
                p, c = ids
                if parents.get(c) is not None:
                    raise DecompositionError(
                        f"line {line_no}: node {c} already has parent {parents[c]}"
                    )
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
