"""Preprocessing: materialize bags, run the full reducer, build the queues.

After this pass every node holds, per key valuation, a min-heap of cells.
A cell ⟨bag valuation, child handles, pivot, next⟩ stands for one whole
subtree valuation: its partial score is the node's own contribution combined
with the scores of the referenced child cells, and its tie key is the subtree
valuation itself (in the global variable order), which makes the heap order a
strict total order and enumeration deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .data import Database, Relation, semijoin
from .decomposition import (
    DecompNode,
    TreeDecomposition,
    augment_for_bounded,
    gyo_join_tree,
)
from .errors import EngineInvariantError, IncompatibleRankingError
from .query import ConjunctiveQuery
from .ranking import RankingFunction, ScoreModel, check_compatible

UNSET = object()  # distinguishes "next never computed" from "no successor"


@dataclass
class Counters:
    inserts: int = 0
    pops: int = 0
    comparisons: int = 0
    cells: int = 0

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (self.inserts, self.pops, self.comparisons, self.cells)


class Cell:
    # `pivot`: the lowest child index this cell may still advance (Lawler's
    # partition; the rule is described in cursor.py).
    __slots__ = ("valuation", "child_handles", "score", "tie", "pivot", "next")

    def __init__(self, valuation, child_handles, score, tie, pivot):
        self.valuation = valuation
        self.child_handles = child_handles
        self.score = score
        self.tie = tie
        self.pivot = pivot
        self.next = UNSET


class HeapEntry:
    __slots__ = ("score", "tie", "handle", "counters")

    def __init__(self, score, tie, handle, counters):
        self.score = score
        self.tie = tie
        self.handle = handle
        self.counters = counters

    def __lt__(self, other: "HeapEntry") -> bool:
        self.counters.comparisons += 1
        if self.score != other.score:
            return self.score < other.score
        return self.tie < other.tie


@dataclass
class NodeState:
    key_positions: Tuple[int, ...]
    child_key_positions: Tuple[Tuple[int, ...], ...]
    # Each slot of the subtree valuation comes either from this bag
    # ("o", bag position) or from one child's tie ("c", child index, position).
    tie_recipe: Tuple[Tuple, ...]
    cells: List[Cell] = field(default_factory=list)
    queues: Dict[Tuple[int, ...], List[HeapEntry]] = field(default_factory=dict)

    def make_tie(self, valuation, child_cells) -> Tuple[int, ...]:
        out = []
        for src in self.tie_recipe:
            if src[0] == "o":
                out.append(valuation[src[1]])
            else:
                out.append(child_cells[src[1]].tie[src[2]])
        return tuple(out)


def _node_state(d: TreeDecomposition, nid: int) -> NodeState:
    node = d.nodes[nid]
    order = {v: i for i, v in enumerate(node.var_order)}
    head_pos = {v: i for i, v in enumerate(d.query.head)}
    child_keys = []
    child_subtrees = []
    for c in node.children:
        child = d.nodes[c]
        child_keys.append(tuple(order[v] for v in child.key_vars))
        child_subtrees.append(
            tuple(sorted(child.subtree_vars, key=head_pos.__getitem__))
        )
    recipe = []
    for v in sorted(node.subtree_vars, key=head_pos.__getitem__):
        if v in order:
            recipe.append(("o", order[v]))
        else:
            for i, sub in enumerate(child_subtrees):
                if v in sub:
                    recipe.append(("c", i, sub.index(v)))
                    break
            else:
                raise EngineInvariantError(
                    f"node {nid}: variable {v} in no child subtree"
                )
    return NodeState(
        key_positions=tuple(order[v] for v in node.key_vars),
        child_key_positions=tuple(child_keys),
        tie_recipe=tuple(recipe),
    )


def _hash_join(
    schema_a: List[str],
    rows_a: Sequence[Tuple[int, ...]],
    schema_b: List[str],
    rows_b: Sequence[Tuple[int, ...]],
) -> Tuple[List[str], List[Tuple[int, ...]]]:
    shared = [v for v in schema_a if v in schema_b]
    pa = [schema_a.index(v) for v in shared]
    pb = [schema_b.index(v) for v in shared]
    rest = [i for i, v in enumerate(schema_b) if v not in schema_a]
    index: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for r in rows_b:
        index.setdefault(tuple(r[p] for p in pb), []).append(
            tuple(r[i] for i in rest)
        )
    out_schema = schema_a + [schema_b[i] for i in rest]
    out_rows = []
    for r in rows_a:
        for tail in index.get(tuple(r[p] for p in pa), ()):
            out_rows.append(r + tail)
    return out_schema, out_rows


def materialize_bags(db: Database, d: TreeDecomposition) -> Dict[int, Relation]:
    """Join each node's cover atoms, project to the bag, then filter by the
    atoms assigned to the node (they may constrain the bag beyond the cover)."""
    q = d.query
    out: Dict[int, Relation] = {}
    for nid, node in d.nodes.items():
        if not node.cover:
            # Synthetic empty bag: the nullary relation with one empty row.
            out[nid] = Relation(f"bag{nid}", (), ((),))
            continue
        schema: List[str] = []
        rows: List[Tuple[int, ...]] = []
        for ai in node.cover:
            atom = q.atoms[ai]
            rel = db.relation(atom.relation)
            if not schema:
                schema, rows = list(atom.variables), list(rel.rows)
            else:
                schema, rows = _hash_join(
                    schema, rows, list(atom.variables), list(rel.rows)
                )
        positions = [schema.index(v) for v in node.var_order]
        bag_rows = {tuple(r[p] for p in positions) for r in rows}
        order = {v: i for i, v in enumerate(node.var_order)}
        for ai, owner in d.atom_assignment.items():
            if owner != nid or ai in node.cover:
                continue
            atom = q.atoms[ai]
            keep = set(db.relation(atom.relation).rows)
            pos = [order[v] for v in atom.variables]
            bag_rows = {r for r in bag_rows if tuple(r[p] for p in pos) in keep}
        out[nid] = Relation(f"bag{nid}", node.var_order, tuple(sorted(bag_rows)))
    return out


def full_reducer(
    bags: Dict[int, Relation], d: TreeDecomposition
) -> Dict[int, Relation]:
    """Bottom-up then top-down semijoin passes; every surviving bag tuple
    extends to at least one full output tuple."""
    reduced = dict(bags)
    for nid in d.post_order():
        for c in d.nodes[nid].children:
            reduced[nid] = semijoin(reduced[nid], reduced[c], d.nodes[c].key_vars)
    for nid in d.pre_order():
        for c in d.nodes[nid].children:
            reduced[c] = semijoin(reduced[c], reduced[nid], d.nodes[c].key_vars)
    return reduced


class PreparedQuery:
    """Output of preprocessing; handed to exactly one cursor (enumeration
    mutates the queues, so concurrent cursors over one of these are unsound)."""

    def __init__(
        self,
        db: Database,
        query: ConjunctiveQuery,
        decomposition: TreeDecomposition,
        model: ScoreModel,
        states: Dict[int, NodeState],
        counters: Counters,
        initial_cells: int,
    ):
        self.db = db
        self.query = query
        self.decomposition = decomposition
        self.model = model
        self.states = states
        self.counters = counters
        self.initial_cells = initial_cells
        self._claimed = False

    def claim(self) -> None:
        if self._claimed:
            raise EngineInvariantError(
                "PreparedQuery already owned by a cursor; re-run prepare() "
                "for an independent scan"
            )
        self._claimed = True

    @property
    def root_state(self) -> NodeState:
        return self.states[self.decomposition.root]


def new_cell(
    states: Dict[int, NodeState],
    node: DecompNode,
    model: ScoreModel,
    counters: Counters,
    valuation: Tuple[int, ...],
    child_handles: Tuple[int, ...],
    pivot: int,
) -> HeapEntry:
    """Store the cell for `valuation` over the given child cells and return
    its heap entry; the caller puts the entry into the node's queue and
    counts the insert. The only place a cell's score and tie are formed."""
    state = states[node.id]
    score = model.node_score(node.id, valuation)
    child_cells = []
    for c, h in zip(node.children, child_handles):
        cc = states[c].cells[h]
        child_cells.append(cc)
        score = model.combine(score, cc.score)
    tie = state.make_tie(valuation, child_cells)
    handle = len(state.cells)
    state.cells.append(Cell(valuation, child_handles, score, tie, pivot))
    counters.cells += 1
    return HeapEntry(score, tie, handle, counters)


def initialize_queues(
    reduced: Dict[int, Relation],
    d: TreeDecomposition,
    model: ScoreModel,
    counters: Counters,
) -> Dict[int, NodeState]:
    states: Dict[int, NodeState] = {}
    for nid in d.post_order():
        node = d.nodes[nid]
        state = _node_state(d, nid)
        states[nid] = state
        per_key: Dict[Tuple[int, ...], List[HeapEntry]] = {}
        for theta in reduced[nid].rows:
            handles = []
            for i, c in enumerate(node.children):
                ckey = tuple(theta[p] for p in state.child_key_positions[i])
                heap = states[c].queues.get(ckey)
                if not heap:
                    raise EngineInvariantError(
                        f"node {nid}: reduced tuple {theta} has no matching "
                        f"cell at child {c} (full reducer should prevent this)"
                    )
                handles.append(heap[0].handle)
            key = tuple(theta[p] for p in state.key_positions)
            per_key.setdefault(key, []).append(
                new_cell(states, node, model, counters, theta, tuple(handles), 0)
            )
        for key, entries in per_key.items():
            counters.inserts += len(entries)
            heapq.heapify(entries)
            state.queues[key] = entries
    return states


def prepare(
    db: Database,
    query: ConjunctiveQuery,
    rf: RankingFunction,
    decomposition: Optional[TreeDecomposition] = None,
) -> PreparedQuery:
    """End-to-end preprocessing; builds a join tree when none is supplied."""
    d = decomposition
    if d is None:
        d = gyo_join_tree(query)
        if rf.kind == "bounded":
            d = augment_for_bounded(d, rf.bound_vars)
    report = check_compatible(rf, d)
    if not report.compatible:
        raise IncompatibleRankingError(report.reason)
    model = ScoreModel(rf, db, query, d)
    counters = Counters()
    reduced = full_reducer(materialize_bags(db, d), d)
    states = initialize_queues(reduced, d, model, counters)
    return PreparedQuery(db, query, d, model, states, counters, counters.cells)
