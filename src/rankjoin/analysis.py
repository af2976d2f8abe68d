"""Structural feasibility checkers and adversarial instance generators.

Two structural conditions decide whether logarithmic-delay ranked enumeration
is attainable for whole families of ranking functions: the coordinate
condition (no atom pair with two or more private variables on each side) and
the edge condition (every connected component has hypergraph diameter at most
3). The search for each component's diameter also yields a vertex pair at
that distance, the edge condition's witness. The generators build the matching
worst-case instances so a user can benchmark what happens when a condition
fails.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .data import Table
from .decomposition import gyo_join_tree, private_pair
from .errors import CyclicQueryError
from .query import Atom, ConjunctiveQuery


def _adjacency(cq: ConjunctiveQuery) -> Dict[str, set]:
    adj: Dict[str, set] = {v: set() for v in cq.variables}
    for atom in cq.atoms:
        for u in atom.variables:
            for v in atom.variables:
                if u != v:
                    adj[u].add(v)
    return adj


def _bfs_distances(adj: Dict[str, set], start: str) -> Dict[str, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _diameter_pairs(cq: ConjunctiveQuery) -> List[Tuple[int, str, str]]:
    """Each variable-connected component's diameter and a vertex pair at that
    distance, smaller name first; components ordered by smallest variable.

    The diameter is the maximum over vertex pairs of the shortest alternating
    vertex-edge path length, computed as BFS distance in the share-an-atom
    graph. A component whose graph is a tree (one edge fewer than vertices)
    takes two BFS sweeps: the vertex farthest from any start is one end of a
    longest path. Other components take one BFS per vertex. Equally far
    vertices are told apart by name, so the pair does not depend on set
    order."""
    adj = _adjacency(cq)
    unseen = set(adj)
    out = []
    while unseen:
        start = min(unseen)
        dist = _bfs_distances(adj, start)
        unseen -= dist.keys()
        edges = sum(len(adj[v]) for v in dist) // 2
        ends = [_farthest(dist)] if edges == len(dist) - 1 else sorted(dist)
        best = (-1, start, start)
        for u in ends:
            from_u = _bfs_distances(adj, u)
            v = _farthest(from_u)
            if from_u[v] > best[0]:
                best = (from_u[v], *sorted((u, v)))
        out.append(best)
    return out


def _farthest(dist: Dict[str, int]) -> str:
    """The vertex farthest in `dist`; the smallest name among ties."""
    return min(dist, key=lambda v: (-dist[v], v))


def component_diameters(cq: ConjunctiveQuery) -> List[int]:
    """Diameter of each variable-connected component (see `_diameter_pairs`)."""
    return [d for d, _, _ in _diameter_pairs(cq)]


def diameter(cq: ConjunctiveQuery) -> int:
    return max(component_diameters(cq), default=0)


@dataclass(frozen=True)
class FeasibilityReport:
    query_name: str
    acyclic: bool
    coordinate_ok: Optional[bool]
    coordinate_witness: Optional[Tuple[Atom, Atom]]
    edge_ok: Optional[bool]
    edge_witness: Optional[Tuple[str, str, int]]
    diameters: Tuple[int, ...]


def check_coordinate_dichotomy(
    cq: ConjunctiveQuery,
) -> Tuple[Optional[bool], Optional[Tuple[Atom, Atom]]]:
    """Feasible iff no atom pair has two or more private variables on each
    side. Returns (None, None) for cyclic queries (condition not applicable)."""
    return _coordinate(cq) if _is_acyclic(cq) else (None, None)


def _coordinate(cq: ConjunctiveQuery) -> Tuple[bool, Optional[Tuple[Atom, Atom]]]:
    pair = private_pair(cq)
    return pair is None, pair


def check_edge_dichotomy(
    cq: ConjunctiveQuery,
) -> Tuple[Optional[bool], Optional[Tuple[str, str, int]]]:
    """Feasible iff every connected component has diameter at most 3.
    The witness is a vertex pair at the diameter of the first component
    whose diameter is 4 or more."""
    return _edge(_diameter_pairs(cq)) if _is_acyclic(cq) else (None, None)


def _edge(
    pairs: List[Tuple[int, str, str]],
) -> Tuple[bool, Optional[Tuple[str, str, int]]]:
    for d, u, v in pairs:
        if d > 3:
            return False, (u, v, d)
    return True, None


def _is_acyclic(cq: ConjunctiveQuery) -> bool:
    try:
        gyo_join_tree(cq)
        return True
    except CyclicQueryError:
        return False


def analyze(cq: ConjunctiveQuery) -> FeasibilityReport:
    acyclic = _is_acyclic(cq)
    coord_ok, coord_wit = _coordinate(cq) if acyclic else (None, None)
    pairs = _diameter_pairs(cq)
    edge_ok, edge_wit = _edge(pairs) if acyclic else (None, None)
    return FeasibilityReport(
        query_name=cq.name,
        acyclic=acyclic,
        coordinate_ok=coord_ok,
        coordinate_witness=coord_wit,
        edge_ok=edge_ok,
        edge_witness=edge_wit,
        diameters=tuple(d for d, _, _ in pairs),
    )


@dataclass(frozen=True)
class GeneratedInstance:
    tables: Tuple[Table, ...]
    query_text: str
    rank_spec: str
    weight_column: Optional[str] = None
    vertex_weights: Optional[Dict[str, int]] = None


def _const(prefix: str, i: int, n: int) -> str:
    # Zero-padded so bytewise order equals numeric order.
    return f"{prefix}{i:0{len(str(n))}d}"


def gen_antichain_product(n: int) -> GeneratedInstance:
    """Cartesian product R(x1,y1) × S(x2,y2) over the antichain
    {(a_i, a_{n-i+1})}: no output tuple coordinatewise-dominates another, so
    any monotone blackbox ranking is forced to inspect everything."""
    rows = [(_const("a", i, n), _const("a", n - i + 1, n)) for i in range(1, n + 1)]
    tables = (
        Table.from_rows("R", ("x1", "y1"), rows),
        Table.from_rows("S", ("x2", "y2"), rows),
    )
    weights = {_const("a", i, n): i for i in range(1, n + 1)}
    return GeneratedInstance(
        tables=tables,
        query_text="Q(x1,y1,x2,y2) :- R(x1,y1), S(x2,y2)",
        rank_spec="vertex_sum",
        vertex_weights=weights,
    )


def gen_diameter4_instance(n: int) -> GeneratedInstance:
    """The diameter-4 star: two weighted 2-paths sharing a central constant.
    Left arm weights i and n-i+1 cancel against the right arm, making all
    output weight vectors pairwise incomparable."""
    r1 = [(_const("a", i, n), _const("b", i, n)) for i in range(1, n + 1)]
    s1 = [(_const("b", i, n), "c") for i in range(1, n + 1)]
    s2 = [(_const("d", i, n), "c") for i in range(1, n + 1)]
    r2 = [(_const("e", i, n), _const("d", i, n)) for i in range(1, n + 1)]
    up = list(range(1, n + 1))
    down = list(range(n, 0, -1))
    tables = (
        Table.from_rows("R1", ("x1", "y1"), r1, weights=up),
        Table.from_rows("S1", ("y1", "z"), s1, weights=down),
        Table.from_rows("S2", ("y2", "z"), s2, weights=down),
        Table.from_rows("R2", ("x2", "y2"), r2, weights=up),
    )
    return GeneratedInstance(
        tables=tables,
        query_text="Q(x1,y1,z,y2,x2) :- R1(x1,y1), S1(y1,z), S2(y2,z), R2(x2,y2)",
        rank_spec="tuple_sum",
        weight_column="wt",
    )


def gen_threepath(n: int) -> GeneratedInstance:
    """Skewed 3-path with an n^2-sized output: R and T fan out of a single
    middle tuple, so per-node queues grow with n while any k-prefix of the
    output needs only O(n + k) cells."""
    r = [(_const("a", i, n), "b") for i in range(1, n + 1)]
    s = [("b", "c")]
    t = [("c", _const("d", i, n)) for i in range(1, n + 1)]
    up = list(range(1, n + 1))
    tables = (
        Table.from_rows("R", ("x", "y"), r, weights=up),
        Table.from_rows("S", ("y", "z"), s, weights=[0]),
        Table.from_rows("T", ("z", "u"), t, weights=up),
    )
    return GeneratedInstance(
        tables=tables,
        query_text="Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)",
        rank_spec="tuple_sum",
        weight_column="wt",
    )


GENERATORS = {
    "antichain": gen_antichain_product,
    "diameter4": gen_diameter4_instance,
    "threepath": gen_threepath,
}
