"""Ranking functions and per-node scoring.

Four built-in families share one contract: a commutative-monoid combine plus a
per-node partial score, so the engine can order subtree valuations by the
accumulated partial score alone. Lexicographic orders are realized as sparse
position vectors (sorted tuples of ``(position, constant id)``) instead of a
weighted-sum encoding, which sidesteps overflow when picking the positional
weights. Bounded rankings charge the whole score at the root; after bag
augmentation the determining variables sit inside every key, so all non-root
partial scores are equal and any queue order there is sound.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .data import INT64_MAX, INT64_MIN, Database
from .decomposition import TreeDecomposition
from .errors import ProbeCapError, SchemaError, WeightError
from .query import ConjunctiveQuery

MAX_IDENTITY = float("-inf")


def _combine_sum(a, b):
    return a + b


def _combine_max(a, b):
    return a if a >= b else b


def _combine_product(a, b):
    out = a * b
    if not (INT64_MIN <= out <= INT64_MAX):
        raise WeightError(f"product overflow: {a} * {b}")
    return out


@dataclass(frozen=True)
class Monoid:
    name: str
    identity: object
    combine: Callable = field(compare=False)


MONOIDS = {
    "sum": Monoid("sum", 0, _combine_sum),
    "max": Monoid("max", MAX_IDENTITY, _combine_max),
    "product": Monoid("product", 1, _combine_product),
}


@dataclass(frozen=True)
class RankingFunction:
    """kind ∈ {tuple, vertex, lex, bounded}; op names the monoid for the
    monoid kinds and for the inner function of a bounded ranking."""

    kind: str
    op: Optional[str] = None
    lex_order: Tuple[str, ...] = ()
    inner_kind: Optional[str] = None
    bound_vars: FrozenSet[str] = frozenset()

    @property
    def monoid(self) -> Monoid:
        if self.kind == "lex":
            return Monoid("lex", (), _merge_sorted)
        return MONOIDS[self.op]

    def spec(self) -> str:
        if self.kind in ("tuple", "vertex"):
            return f"{self.kind}_{self.op}"
        if self.kind == "lex":
            return f"lex({','.join(self.lex_order)})"
        inner = f"{self.inner_kind}_{self.op}"
        return f"bounded({inner}; {','.join(sorted(self.bound_vars))})"


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
        inner = m.group(1)
        if "_" not in inner:
            raise SchemaError(f"bad inner ranking {inner!r}")
        ikind, _, iop = inner.partition("_")
        if ikind not in ("tuple", "vertex") or iop not in MONOIDS:
            raise SchemaError(f"bad inner ranking {inner!r}")
        svars = frozenset(v.strip() for v in m.group(2).split(",") if v.strip())
        if not svars:
            raise SchemaError("bounded ranking needs at least one variable")
        return RankingFunction(kind="bounded", op=iop, inner_kind=ikind, bound_vars=svars)
    if "_" in text:
        kind, _, op = text.partition("_")
        if kind in ("tuple", "vertex") and op in MONOIDS:
            return RankingFunction(kind=kind, op=op)
    raise SchemaError(f"unknown ranking spec {text!r}")


@dataclass(frozen=True)
class CompatibilityReport:
    compatible: bool
    reason: str = ""
    failing_nodes: Tuple[int, ...] = ()


def check_compatible(rf: RankingFunction, d: TreeDecomposition) -> CompatibilityReport:
    """Monoid and lexicographic rankings work on any decomposition; a bounded
    ranking needs its determining variables inside every bag."""
    if rf.kind in ("tuple", "vertex", "lex"):
        return CompatibilityReport(True, f"{rf.kind} rankings fit any decomposition")
    failing = tuple(
        nid for nid in sorted(d.nodes) if not rf.bound_vars <= d.nodes[nid].bag
    )
    if failing:
        return CompatibilityReport(
            False,
            f"bounded ranking variables {sorted(rf.bound_vars)} missing from bags "
            f"of nodes {list(failing)}; augment the decomposition first",
            failing,
        )
    return CompatibilityReport(True, "determining variables contained in every bag")


def direct_score(rf: RankingFunction, db: Database, q: ConjunctiveQuery,
                 valuation: Dict[str, int]):
    """Score a full valuation straight from the definition (no decomposition)."""
    if rf.kind == "tuple":
        monoid = rf.monoid
        acc = monoid.identity
        for atom in q.atoms:
            rel = db.relation(atom.relation)
            row = tuple(valuation[v] for v in atom.variables)
            acc = monoid.combine(acc, rel.weight_of(row))
        return acc
    if rf.kind == "vertex":
        monoid = rf.monoid
        acc = monoid.identity
        for v in q.head:
            acc = monoid.combine(acc, db.vertex_weight(valuation[v]))
        return acc
    if rf.kind == "lex":
        return tuple(
            (i, valuation[v]) for i, v in enumerate(rf.lex_order) if v in valuation
        )
    if rf.kind == "bounded":
        return _bounded_value(rf, db, q, valuation)
    raise SchemaError(f"unknown ranking kind {rf.kind!r}")


def _bounded_value(rf: RankingFunction, db: Database, q: ConjunctiveQuery,
                   valuation: Dict[str, int]):
    monoid = MONOIDS[rf.op]
    acc = monoid.identity
    if rf.inner_kind == "tuple":
        for atom in q.atoms:
            if set(atom.variables) <= rf.bound_vars:
                rel = db.relation(atom.relation)
                row = tuple(valuation[v] for v in atom.variables)
                acc = monoid.combine(acc, rel.weight_of(row))
    else:
        for v in sorted(rf.bound_vars):
            acc = monoid.combine(acc, db.vertex_weight(valuation[v]))
    return acc


class ScoreModel:
    """Binds a ranking function to one query/decomposition/database and
    exposes the per-node scoring recipes the engine needs."""

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
        self._validate()
        self._recipes: Dict[int, object] = {}
        for nid, node in d.nodes.items():
            self._recipes[nid] = self._build_recipe(nid, node)

    def _validate(self) -> None:
        rf, q = self.rf, self.query
        if rf.kind == "lex":
            extra = set(rf.lex_order) - set(q.head)
            if extra:
                raise SchemaError(f"lex order names unknown variables {sorted(extra)}")
            missing = set(q.head) - set(rf.lex_order)
            if missing:
                raise SchemaError(
                    f"lex order must list every head variable; missing {sorted(missing)}"
                )
        if rf.kind == "bounded":
            extra = rf.bound_vars - set(q.head)
            if extra:
                raise SchemaError(
                    f"bounded ranking names unknown variables {sorted(extra)}"
                )
        if (rf.kind in ("tuple", "vertex") or rf.kind == "bounded") and rf.op == "product":
            self._check_positive_weights()

    def _check_positive_weights(self) -> None:
        rf = self.rf
        kind = rf.kind if rf.kind != "bounded" else rf.inner_kind
        if kind == "tuple":
            for atom in self.query.atoms:
                rel = self.db.relation(atom.relation)
                if rel.weights is None:
                    raise WeightError(
                        f"product ranking needs weights on relation {rel.name}"
                    )
                bad = [r for r, w in rel.weights.items() if w <= 0]
                if bad:
                    raise WeightError(
                        f"product ranking needs strictly positive weights; "
                        f"relation {rel.name} row {bad[0]} has weight "
                        f"{rel.weights[bad[0]]}"
                    )
        else:
            used = set()
            for atom in self.query.atoms:
                for row in self.db.relation(atom.relation).rows:
                    used.update(row)
            bad = [c for c in used if self.db.vertex_weight(c) <= 0]
            if bad:
                raise WeightError(
                    f"product ranking needs strictly positive vertex weights; "
                    f"constant {self.db.decode(bad[0])!r} has weight "
                    f"{self.db.vertex_weight(bad[0])}"
                )

    def _build_recipe(self, nid: int, node) -> object:
        rf, d = self.rf, self.decomposition
        order = {v: i for i, v in enumerate(node.var_order)}
        if rf.kind == "tuple":
            atoms = []
            for ai, owner in d.atom_assignment.items():
                if owner != nid:
                    continue
                atom = self.query.atoms[ai]
                atoms.append(
                    (atom.relation, tuple(order[v] for v in atom.variables))
                )
            return ("tuple", tuple(atoms))
        if rf.kind == "vertex":
            return ("vertex", tuple(order[v] for v in node.val_vars))
        if rf.kind == "lex":
            lex_pos = {v: i for i, v in enumerate(rf.lex_order)}
            pairs = sorted(
                (lex_pos[v], order[v]) for v in node.val_vars if v in lex_pos
            )
            return ("lex", tuple(pairs))
        # bounded: full value at the root, identity elsewhere
        if nid != d.root:
            return ("identity",)
        positions = {v: order[v] for v in rf.bound_vars if v in order}
        if len(positions) != len(rf.bound_vars):
            missing = sorted(rf.bound_vars - set(positions))
            raise SchemaError(
                f"bounded ranking variables {missing} not in the root bag; "
                f"augment the decomposition first"
            )
        return ("bounded", positions)

    def node_score(self, nid: int, valuation: Tuple[int, ...]):
        recipe = self._recipes[nid]
        tag = recipe[0]
        if tag == "tuple":
            acc = self.identity
            for rel_name, positions in recipe[1]:
                rel = self.db.relations[rel_name]
                acc = self.combine(acc, rel.weight_of(tuple(valuation[p] for p in positions)))
            return acc
        if tag == "vertex":
            acc = self.identity
            for p in recipe[1]:
                acc = self.combine(acc, self.db.vertex_weight(valuation[p]))
            return acc
        if tag == "lex":
            return tuple((lp, valuation[p]) for lp, p in recipe[1])
        if tag == "identity":
            return self.identity
        # bounded at the root
        binding = {v: valuation[p] for v, p in recipe[1].items()}
        return _bounded_value(self.rf, self.db, self.query, binding)


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
