"""Preprocessing: materialize bags, run the full reducer, build the queues.

After this pass every node holds, per key valuation, a min-heap of queue
entries. An entry is the plain tuple
(score, tie, valuation, node_score, child_entries, pivot) and stands for one
whole subtree valuation. `valuation` is its bag valuation and `node_score` the
node's own contribution to it, computed once per bag valuation by
`ScoreModel.node_scores` and carried over to every sibling; `child_entries`
holds one entry per child node, and `pivot` is the lowest child index the
entry may still advance (Lawler's rule, cursor.py). The score
combines the node score with the child entries' scores. The tie is the
subtree valuation itself (in the global variable order). It contains the
node's key, and Lawler's rule makes each combination of child entries once,
so no two entries of one node share a tie: entries order as tuples, in C, by
(score, tie) alone, and `NodeState.succ` memoizes a consumed entry's
successor under its tie. Entries hold only numbers and tuples and form no
reference cycle, so one nothing references any more (a consumed root entry,
say) is freed by its reference count. `prepare` runs with the cyclic GC paused
(`data._gc_paused`) and leaves what it built in the oldest generation; so does
each tie-buffer fill of a `*_max` cursor, which makes the entries and outputs
of its pulls (cursor.py).

Row work is compiled per node: queue keys and child-queue keys are key
getters over the bag valuation (`data.key_getter`: a key of one variable is
the bare constant id, a wider key a tuple, and the root's key `()`), and the
tie is a row getter (`data.row_getter`) over the bag valuation followed by the
child entries' ties; a node whose subtree is its own bag uses the valuation
itself as the tie. `_hash_join` and the full reducer's semijoins key their
indexes the same way.

Set-up runs these getters over whole bags. A node covered by one atom whose
variables are its bag in order, with no other atom to filter it, takes that
relation's rows and weight column as its bag unchanged, and the full reducer
keeps the column aligned with the rows. `initialize_queues` builds each node's
initial entries column by column with C-level `map`/`zip` over the bag: child
queue heads, `ScoreModel.node_scores`, scores, ties, then the entries. The
cursor's later entries come one at a time from `new_cell`, which forms score
and tie by the same rules from the same getters.
"""

from __future__ import annotations

import heapq
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .data import (
    Database, Key, Relation, _gc_paused, key_getter, row_getter, semijoin,
)
from .decomposition import TreeDecomposition, gyo_join_tree
from .errors import DecompositionError, EngineInvariantError
from .query import ConjunctiveQuery
from .ranking import RankingFunction, Row, ScoreModel, check_ranking


@dataclass
class Counters:
    # `comparisons` grows only under a cursor built with stats=True, whose
    # heap functions count each `<`; the others are always counted.
    inserts: int = 0
    pops: int = 0
    comparisons: int = 0

    @property
    def cells(self) -> int:
        """Entries made: each one is inserted once, when it is made."""
        return self.inserts

    def snapshot(self) -> Tuple[int, int, int, int]:
        return (self.inserts, self.pops, self.comparisons, self.inserts)


# (score, tie, valuation, node_score, child_entries, pivot)
Entry = Tuple[object, Row, Row, object, Tuple, int]


@dataclass
class NodeState:
    # Compiled once per node: the queue key of a bag valuation, the key of
    # the queue it joins at each child, and the entry's tie read off the
    # valuation followed by the child entries' ties (None: the tie is the
    # valuation itself).
    key: Callable[[Row], Key]
    child_keys: Tuple[Callable[[Row], Key], ...]
    tie_of: Optional[Callable[[Row], Row]]
    queues: Dict[Key, List[Entry]] = field(default_factory=dict)
    # tie of a consumed non-root entry -> the next entry of its queue, or
    # None when there is none
    succ: Dict[Row, Optional[Entry]] = field(default_factory=dict)


def _node_state(d: TreeDecomposition, nid: int) -> NodeState:
    node = d.nodes[nid]
    order = {v: i for i, v in enumerate(node.var_order)}
    head_pos = d.query.head_index
    # Where each subtree variable first occurs in the bag valuation followed
    # by the child ties, each a child subtree valuation in head order.
    layout = list(node.var_order)
    for c in node.children:
        layout += sorted(d.nodes[c].subtree_vars, key=head_pos.__getitem__)
    first: Dict[str, int] = {}
    for i, v in enumerate(layout):
        first.setdefault(v, i)
    subtree = sorted(node.subtree_vars, key=head_pos.__getitem__)
    return NodeState(
        key=key_getter([order[v] for v in node.key_vars]),
        child_keys=tuple(
            key_getter([order[v] for v in d.nodes[c].key_vars])
            for c in node.children
        ),
        # A node whose subtree is its bag has the valuation as its tie, since
        # var_order already is the head order.
        tie_of=(
            None
            if node.subtree_vars == node.bag
            else row_getter([first[v] for v in subtree])
        ),
    )


def _hash_join(
    schema_a: List[str],
    rows_a: Sequence[Tuple[int, ...]],
    schema_b: List[str],
    rows_b: Sequence[Tuple[int, ...]],
) -> Tuple[List[str], List[Tuple[int, ...]]]:
    shared = [v for v in schema_a if v in schema_b]
    key_a = key_getter([schema_a.index(v) for v in shared])
    key_b = key_getter([schema_b.index(v) for v in shared])
    rest = [i for i, v in enumerate(schema_b) if v not in schema_a]
    tail_b = row_getter(rest)
    index: Dict[Key, List[Row]] = defaultdict(list)
    for k, tail in zip(map(key_b, rows_b), map(tail_b, rows_b)):
        index[k].append(tail)
    out_schema = schema_a + [schema_b[i] for i in rest]
    out_rows = []
    lookup = index.get
    for r, k in zip(rows_a, map(key_a, rows_a)):
        for tail in lookup(k, ()):
            out_rows.append(r + tail)
    return out_schema, out_rows


def materialize_bags(db: Database, d: TreeDecomposition) -> Dict[int, Relation]:
    """Join each node's cover atoms, project to the bag, then filter by the
    atoms assigned to the node (they may constrain the bag beyond the cover).

    A pass-through node (`TreeDecomposition.pass_through`) takes its atom's
    relation's rows, each reordered to `var_order` when the atom lists the
    variables in another order, and its weight column as it is: the rows
    are already distinct (see `data.Relation`), and stay in the relation's
    order. Other bags are sorted and carry no weights."""
    q = d.query
    passed = d.pass_through()
    filters: Dict[int, List[int]] = defaultdict(list)
    for ai, owner in d.atom_assignment.items():
        if ai not in d.nodes[owner].cover:
            filters[owner].append(ai)
    out: Dict[int, Relation] = {}
    for nid, node in d.nodes.items():
        if not node.cover:
            # Synthetic empty bag: the nullary relation with one empty row.
            out[nid] = Relation(f"bag{nid}", (), ((),))
            continue
        if nid in passed:
            atom = q.atoms[passed[nid]]
            rel = db.relation(atom.relation)
            rows = rel.rows
            if atom.variables != node.var_order:
                order = row_getter(map(atom.variables.index, node.var_order))
                rows = tuple(map(order, rows))
            out[nid] = Relation(f"bag{nid}", node.var_order, rows, rel.weights)
            continue
        atoms = [q.atoms[ai] for ai in node.cover]
        schema: List[str] = []
        rows: List[Tuple[int, ...]] = []
        for atom in atoms:
            rel = db.relation(atom.relation)
            if not schema:
                schema, rows = list(atom.variables), list(rel.rows)
            else:
                schema, rows = _hash_join(
                    schema, rows, list(atom.variables), list(rel.rows)
                )
        positions = [schema.index(v) for v in node.var_order]
        if positions == list(range(len(schema))):
            bag_rows = set(rows)
        else:
            bag_rows = set(map(row_getter(positions), rows))
        order = {v: i for i, v in enumerate(node.var_order)}
        for ai in filters[nid]:
            atom = q.atoms[ai]
            keep = set(db.relation(atom.relation).rows)
            atom_row = row_getter([order[v] for v in atom.variables])
            bag_rows = {r for r in bag_rows if atom_row(r) in keep}
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
        setup_stats: Dict[str, float],
    ):
        self.db = db
        self.query = query
        self.decomposition = decomposition
        self.model = model
        self.states = states
        self.counters = counters
        self.initial_cells = initial_cells
        # Seconds per preprocessing phase and bag rows before/after the
        # full reducer, keyed as `rankjoin bench` prints them.
        self.setup_stats = setup_stats
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
    state: NodeState,
    model: ScoreModel,
    valuation: Row,
    node_score,
    child_entries: Tuple[Entry, ...],
    pivot: int,
) -> Entry:
    """Make the queue entry for `valuation`, whose own score at its node is
    `node_score`, over the given child entries; the caller puts it into the
    node's queue and counts the insert. Every entry the cursor inserts is
    made here. `initialize_queues` forms the initial entries in bulk by the
    same rules: the node score combined with each child's score in child
    order, and the tie from `NodeState.tie_of`."""
    score = node_score
    combine = model.combine
    for child in child_entries:
        score = combine(score, child[0])
    tie = valuation
    if state.tie_of is not None:
        for child in child_entries:
            tie += child[1]
        tie = state.tie_of(tie)
    return (score, tie, valuation, node_score, child_entries, pivot)


def initialize_queues(
    reduced: Dict[int, Relation],
    d: TreeDecomposition,
    model: ScoreModel,
    counters: Counters,
) -> Dict[int, NodeState]:
    """Build every node's queues bottom-up. A bag row's initial entry joins
    the top entry of the child queue under its key at each child, and has
    pivot 0; each queue is then heapified."""
    states: Dict[int, NodeState] = {}
    combine = model.combine
    entry_score, entry_tie = itemgetter(0), itemgetter(1)
    for nid in d.post_order():
        state = _node_state(d, nid)
        states[nid] = state
        rows = reduced[nid].rows
        if not rows:
            continue
        children = d.nodes[nid].children
        heads = [
            _child_heads(nid, c, states[c].queues, child_key, rows)
            for c, child_key in zip(children, state.child_keys)
        ]
        own = list(model.node_scores(nid, reduced[nid]))
        scores = own
        for h in heads:
            scores = map(combine, scores, map(entry_score, h))
        ties = rows
        if state.tie_of is not None:
            for h in heads:
                ties = map(add, ties, map(entry_tie, h))
            ties = map(state.tie_of, ties)
        child_entries = zip(*heads) if heads else repeat((), len(rows))
        entries = list(zip(scores, ties, rows, own, child_entries, repeat(0)))
        counters.inserts += len(entries)
        if d.nodes[nid].key_vars:
            queues: Dict[Key, List[Entry]] = defaultdict(list)
            for key, entry in zip(map(state.key, rows), entries):
                queues[key].append(entry)
            state.queues = dict(queues)
        else:
            state.queues = {(): entries}
        for heap in state.queues.values():
            heapq.heapify(heap)
    return states


def _child_heads(
    nid: int,
    child: int,
    queues: Dict[Key, List[Entry]],
    child_key: Callable[[Row], Key],
    rows: Sequence[Row],
) -> List[Entry]:
    """The top entry of the child queue each of `rows` joins."""
    try:
        return list(map(itemgetter(0), map(queues.__getitem__, map(child_key, rows))))
    except KeyError:
        theta = next(r for r in rows if child_key(r) not in queues)
        raise EngineInvariantError(
            f"node {nid}: reduced tuple {theta} has no matching "
            f"cell at child {child} (full reducer should prevent this)"
        ) from None


@_gc_paused
def prepare(
    db: Database,
    query: ConjunctiveQuery,
    rf: RankingFunction,
    decomposition: Optional[TreeDecomposition] = None,
) -> PreparedQuery:
    """End-to-end preprocessing; builds a join tree when none is supplied."""
    d = decomposition
    if d is None:
        # The job check (repeated by `ScoreModel`) comes first, so that a job
        # error is reported before an error of the join tree it would build:
        # a cyclic query, or a tree too deep for the cursor.
        check_ranking(rf, query)
        d = gyo_join_tree(query)
    # The cursor's walk recurses once per tree level; half the interpreter's
    # recursion limit is left to its callers.
    depth, limit = d.depth(), sys.getrecursionlimit() // 2
    if depth > limit:
        raise DecompositionError(
            f"join tree depth {depth} exceeds the cursor's limit of {limit}"
        )
    model = ScoreModel(rf, db, query, d)
    counters = Counters()
    t0 = time.perf_counter()
    bags = materialize_bags(db, d)
    t1 = time.perf_counter()
    reduced = full_reducer(bags, d)
    t2 = time.perf_counter()
    states = initialize_queues(reduced, d, model, counters)
    t3 = time.perf_counter()
    setup_stats = {
        "materialize_seconds": t1 - t0,
        "reduce_seconds": t2 - t1,
        "init_queues_seconds": t3 - t2,
        "bag_rows_in": sum(len(b.rows) for b in bags.values()),
        "bag_rows_out": sum(len(b.rows) for b in reduced.values()),
    }
    return PreparedQuery(
        db, query, d, model, states, counters, counters.cells, setup_stats
    )
