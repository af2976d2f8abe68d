"""Ranking functions and per-node scoring.

Three built-in kinds share one contract: a commutative-monoid combine plus a
per-node partial score, so the engine can order subtree valuations by the
accumulated partial score alone. A tuple ranking folds the weights of the
atoms' tuples, a vertex ranking the weights of the output's values.
Lexicographic orders are realized as sparse position vectors (sorted tuples of
``(position, constant id)``) instead of a weighted-sum encoding, which
sidesteps overflow when picking the positional weights. A bounded ranking
`bounded(inner; S)` is its inner tuple or vertex ranking with a term mask, S:
it folds only the terms inside S, the atoms whose variables all lie in S or
the values of S. A subset of a monoid fold is still a monoid fold, so it fits
every decomposition as the other rankings do, and each node scores only its
own terms inside S.

`ScoreModel` compiles one scorer per decomposition node when it is built: a
closure over the node's weight lookups and bag positions that scores a whole
sequence of bag rows as a chain of C-level `map`s, so scoring dispatches on
nothing and runs no Python code per row. `ScoreModel.node_scores` runs it over
a node's bag; `ScoreModel.node_score` runs it over one row. A tuple-weight
term of a pass-through bag (`TreeDecomposition.pass_through`) is the bag's
weight column itself; every other one looks its rows up in the relation's
by-row map, which the relation builds when a term first reads it, not when
the scorer is compiled. `direct_score` stays a separate, definition-level path
for the oracle.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import (
    AbstractSet, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence,
    Tuple,
)

from .data import INT64_MAX, INT64_MIN, Database, Relation, row_getter
from .decomposition import TreeDecomposition
from .errors import ProbeCapError, SchemaError, WeightError
from .query import ConjunctiveQuery

MAX_IDENTITY = float("-inf")

Row = Tuple[int, ...]  # a bag valuation or a queue key: constant ids
# One score term: its value for each of some bag rows, given those rows and
# the bag's weight column (None unless the rows are a whole pass-through bag).
Term = Callable[[Sequence[Row], Optional[Sequence[int]]], Iterable]


def _combine_max(a, b):
    return a if a >= b else b


def _combine_product(a, b):
    out = a * b
    if not (INT64_MIN <= out <= INT64_MAX):
        raise WeightError(f"product overflow: {a} * {b}")
    return out


@dataclass(frozen=True)
class Monoid:
    identity: object
    combine: Callable = field(compare=False)


MONOIDS = {
    # `operator.add` runs in C; the builtin `max` parses varargs, so on two
    # arguments it is several times slower than `_combine_max`.
    "sum": Monoid(0, operator.add),
    "max": Monoid(MAX_IDENTITY, _combine_max),
    "product": Monoid(1, _combine_product),
}


@dataclass(frozen=True)
class RankingFunction:
    """kind ∈ {tuple, vertex, lex}; op names the monoid of a tuple or vertex
    ranking. `bound_vars` is the term mask of `bounded(kind_op; S)`: the
    score folds only the terms inside S. None means every term."""

    kind: str
    op: Optional[str] = None
    lex_order: Tuple[str, ...] = ()
    bound_vars: Optional[FrozenSet[str]] = None

    @property
    def monoid(self) -> Monoid:
        if self.kind == "lex":
            return Monoid((), _merge_sorted)
        return MONOIDS[self.op]

    def spec(self) -> str:
        if self.kind == "lex":
            return f"lex({','.join(self.lex_order)})"
        spec = f"{self.kind}_{self.op}"
        if self.bound_vars is None:
            return spec
        return f"bounded({spec}; {','.join(sorted(self.bound_vars))})"


def _merge_sorted(a: Tuple, b: Tuple) -> Tuple:
    return tuple(sorted(a + b))


_LEX_RE = re.compile(r"^lex\(([^()]*)\)$")
_BOUNDED_RE = re.compile(r"^bounded\(\s*(\w+)\s*;([^()]*)\)$")


def parse_ranking(text: str) -> RankingFunction:
    """Parse a rank spec: tuple_sum, vertex_max, lex(z,x,y), bounded(tuple_sum; x,y)."""
    text = text.strip()
    m = _LEX_RE.match(text)
    if m:
        order = tuple(v.strip() for v in m.group(1).split(",") if v.strip())
        if not order:
            raise SchemaError("lex ranking needs at least one variable")
        if len(set(order)) != len(order):
            raise SchemaError(f"lex order {order} repeats a variable")
        return RankingFunction(kind="lex", lex_order=order)
    m = _BOUNDED_RE.match(text)
    if m:
        inner = _parse_monoid(m.group(1))
        if inner is None:
            raise SchemaError(f"bad inner ranking {m.group(1)!r}")
        svars = frozenset(v.strip() for v in m.group(2).split(",") if v.strip())
        if not svars:
            raise SchemaError("bounded ranking needs at least one variable")
        return RankingFunction(*inner, bound_vars=svars)
    plain = _parse_monoid(text)
    if plain is None:
        raise SchemaError(f"unknown ranking spec {text!r}")
    return RankingFunction(*plain)


def _parse_monoid(text: str) -> Optional[Tuple[str, str]]:
    """`(kind, op)` of a tuple or vertex spec such as tuple_sum, else None."""
    kind, _, op = text.partition("_")
    return (kind, op) if kind in ("tuple", "vertex") and op in MONOIDS else None


def _scored_variables(rf: RankingFunction, q: ConjunctiveQuery) -> AbstractSet[str]:
    """The variables a monoid score reads: it folds the weights of the atoms
    whose variables all lie in them, or their values. Under `bounded(…; S)`
    that is S, else every variable."""
    return q.variables if rf.bound_vars is None else rf.bound_vars


def check_ranking(rf: RankingFunction, q: ConjunctiveQuery,
                  db: Optional[Database] = None) -> None:
    """Refuse a job that `rf` cannot rank over `q`: the one home of the job
    preconditions that `prepare`, `plan` and the oracle share. A lex order
    lists exactly the head, and a bounded ranking's variables are head
    variables. With `db`: each atom's relation has one column per atom
    variable, and under product every weight a score reads is strictly
    positive."""
    if rf.kind == "lex":
        extra = set(rf.lex_order) - set(q.head)
        if extra:
            raise SchemaError(f"lex order names unknown variables {sorted(extra)}")
        missing = set(q.head) - set(rf.lex_order)
        if missing:
            raise SchemaError(
                f"lex order must list every head variable; missing {sorted(missing)}"
            )
    if rf.bound_vars is not None:
        extra = rf.bound_vars - set(q.head)
        if extra:
            raise SchemaError(
                f"bounded ranking names unknown variables {sorted(extra)}"
            )
    if db is None:
        return
    relations: Dict[str, Relation] = {}
    for atom in q.atoms:
        rel = relations[atom.relation] = db.relation(atom.relation)
        if len(rel.schema) != len(atom.variables):
            raise SchemaError(
                f"relation {rel.name} needs one column per variable of atom "
                f"{atom}; it has {list(rel.schema)}"
            )
    if rf.op != "product":
        return
    # Only the weights a score reads: under bounded, those of the atoms
    # within the bound variables, or of the constants in their columns, as
    # `direct_score` reads them.
    scored = _scored_variables(rf, q)
    if rf.kind == "tuple":
        read = {a.relation for a in q.atoms if set(a.variables) <= scored}
        for rel in relations.values():
            if rel.name not in read:
                continue
            if rel.weights is None:
                raise WeightError(
                    f"product ranking needs weights on relation {rel.name}"
                )
            bad = next(
                compress(itertools.count(), map((0).__ge__, rel.weights)), None
            )
            if bad is not None:
                raise WeightError(
                    f"product ranking needs strictly positive weights; "
                    f"relation {rel.name} row "
                    f"{tuple(map(db.decode, rel.rows[bad]))} has weight "
                    f"{rel.weights[bad]}"
                )
    else:
        used = set()
        for atom in q.atoms:
            rows = relations[atom.relation].rows
            for i, v in enumerate(atom.variables):
                if v in scored:
                    used.update(map(operator.itemgetter(i), rows))
        first = min((c for c in used if db.vertex_weight(c) <= 0), default=None)
        if first is not None:
            raise WeightError(
                f"product ranking needs strictly positive vertex weights; "
                f"constant {db.decode(first)!r} has weight "
                f"{db.vertex_weight(first)}"
            )


def direct_score(rf: RankingFunction, db: Database, q: ConjunctiveQuery,
                 valuation: Dict[str, int]):
    """Score a full valuation straight from the definition (no decomposition):
    a tuple or vertex ranking folds its terms inside `_scored_variables`."""
    if rf.kind == "lex":
        return tuple((i, valuation[v]) for i, v in enumerate(rf.lex_order))
    scored = _scored_variables(rf, q)
    monoid = rf.monoid
    acc = monoid.identity
    if rf.kind == "tuple":
        for atom in q.atoms:
            if scored.issuperset(atom.variables):
                rel = db.relation(atom.relation)
                row = tuple(valuation[v] for v in atom.variables)
                acc = monoid.combine(acc, rel.weight_of(row))
    else:
        for v in q.head:
            if v in scored:
                acc = monoid.combine(acc, db.vertex_weight(valuation[v]))
    return acc


class ScoreModel:
    """Binds a ranking function to one query/decomposition/database.

    At construction it checks the job (`check_ranking`) and compiles one
    scorer per node: a closure over that node's weight lookups and bag
    positions, mapped over a sequence of bag rows. `node_scores` and
    `node_score` are the entry points that run them."""

    def __init__(
        self,
        rf: RankingFunction,
        db: Database,
        q: ConjunctiveQuery,
        d: TreeDecomposition,
    ):
        self.rf = rf
        self.db = db
        self.query = q
        self.decomposition = d
        self.identity = rf.monoid.identity
        self.combine = rf.monoid.combine
        check_ranking(rf, q, db)
        assigned: Dict[int, List[int]] = defaultdict(list)
        for ai, owner in d.atom_assignment.items():
            assigned[owner].append(ai)
        passed = d.pass_through()
        self._scorers = {
            nid: self._compile(node, assigned[nid], passed.get(nid))
            for nid, node in d.nodes.items()
        }

    def _compile(
        self, node, assigned: List[int], passed: Optional[int]
    ) -> Callable:
        """The node's own-score function over a sequence of its bag
        valuations and, for a whole pass-through bag, its weight column.
        Weight lookups, bag positions and the monoid are bound once here, so
        scoring runs no dispatch. `assigned` are the atoms assigned to the
        node, and `passed` the atom whose relation the bag passes through.
        Under `bounded(…; S)` the node keeps only its terms inside S."""
        rf, db, atoms = self.rf, self.db, self.query.atoms
        order = {v: i for i, v in enumerate(node.var_order)}
        if rf.kind == "lex":
            lex_pos = {v: i for i, v in enumerate(rf.lex_order)}
            pairs = sorted(
                (lex_pos[v], order[v]) for v in node.val_vars if v in lex_pos
            )
            ranks = tuple(lp for lp, _ in pairs)
            values = row_getter([p for _, p in pairs])
            return lambda rows, column=None: map(
                tuple, map(zip, repeat(ranks), map(values, rows))
            )
        scored = _scored_variables(rf, self.query)
        if rf.kind == "tuple":
            return self._fold([
                _weight_lookup(db, atoms[ai], order, ai == passed)
                for ai in assigned
                if scored.issuperset(atoms[ai].variables)
            ])
        return self._fold([
            _vertex_lookup(db, order[v]) for v in node.val_vars if v in scored
        ])

    def _fold(self, terms: List[Term]) -> Callable:
        """Combine the terms' values left to right, per row. The fold starts
        at the first term's value, which equals combining it into the
        identity under every monoid; with no terms every row scores the
        identity."""
        identity, combine = self.identity, self.combine

        def scores(rows, column=None):
            if not terms:
                return repeat(identity, len(rows))
            acc, *rest = [term(rows, column) for term in terms]
            for values in rest:
                acc = map(combine, acc, values)
            return acc

        return scores

    def node_scores(self, nid: int, bag: Relation) -> Iterable:
        """Node `nid`'s own contribution for each row of `bag`, its bag or a
        reduced one, in order. Lazy: the scores are computed as they are
        read."""
        return self._scorers[nid](bag.rows, bag.weights)

    def node_score(self, nid: int, valuation: Row):
        """Node `nid`'s own contribution for one of its bag valuations."""
        (score,) = self._scorers[nid]((valuation,))
        return score


def _weight_lookup(
    db: Database, atom, order: Dict[str, int], by_position: bool = False
) -> Term:
    """The bag rows' weights in `atom`'s relation (0 for tuples outside it,
    as `Relation.weight_of`). With `by_position` the bag passes that
    relation through, so a whole bag's weight column is its values as they
    are. Other rows are looked up in the relation's by-row map, which is
    read, and so built, only when the term runs."""
    rel = db.relation(atom.relation)
    getter = row_getter([order[v] for v in atom.variables])

    def values(rows, column):
        if by_position and column is not None:
            return column
        return map(rel.weight_map.get, map(getter, rows), repeat(0))

    return values


def _vertex_lookup(db: Database, position: int) -> Term:
    """The vertex weight of the constant at one bag position."""
    get, getter = db.vertex_weights.get, operator.itemgetter(position)
    return lambda rows, column: map(get, map(getter, rows), repeat(0))


def probe_decomposable(
    scorer: Callable[[Dict[str, object]], object],
    variables: Sequence[str],
    s_vars: Sequence[str],
    domains: Dict[str, Sequence[object]],
    cap: int = 10_000,
):
    """Exhaustively test whether a blackbox scorer is decomposable on `s_vars`.

    A consistent total order over S-valuations exists exactly when no pair of
    S-valuations is ranked both ways by different extensions. Returns None on
    pass, else a witness (theta1, theta2, phi1, phi2) where phi1 ranks theta1
    below theta2 and phi2 ranks it above.
    """
    s_vars = [v for v in variables if v in set(s_vars)]
    rest = [v for v in variables if v not in set(s_vars)]
    total = 1
    for v in variables:
        if v not in domains:
            raise SchemaError(f"probe: no domain given for variable {v!r}")
        total *= len(domains[v])
    if total > cap:
        raise ProbeCapError(f"{total} valuations exceed the probe cap {cap}")

    s_space = [
        dict(zip(s_vars, combo))
        for combo in itertools.product(*(domains[v] for v in s_vars))
    ] or [{}]
    ext_space = [
        dict(zip(rest, combo))
        for combo in itertools.product(*(domains[v] for v in rest))
    ] or [{}]

    scores: List[List[object]] = [
        [scorer({**theta, **phi}) for phi in ext_space] for theta in s_space
    ]
    for i, j in itertools.combinations(range(len(s_space)), 2):
        below = above = None
        for e, phi in enumerate(ext_space):
            if scores[i][e] < scores[j][e] and below is None:
                below = phi
            elif scores[i][e] > scores[j][e] and above is None:
                above = phi
            if below is not None and above is not None:
                return (s_space[i], s_space[j], below, above)
    return None
