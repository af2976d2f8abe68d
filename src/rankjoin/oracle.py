"""Brute-force reference: naive join, direct scoring, sort with tie-break.

Deliberately independent of the engine — its own join fold and the ranking
definitions applied directly to whole output tuples — so tests comparing the
two exercise genuinely different code paths. Correctness over speed. Only
the job check, `check_ranking`, is shared, so both refuse the same jobs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .data import Database
from .errors import OracleCapError
from .query import ConjunctiveQuery, UnionQuery
from .ranking import RankingFunction, check_ranking, direct_score
from .result import OutputTuple

DEFAULT_CAP = 10**6


def _join_disjunct(
    db: Database, cq: ConjunctiveQuery, cap: int
) -> List[Tuple[int, ...]]:
    """All satisfying valuations as tuples in head order."""
    schema: List[str] = []
    rows: List[Tuple[int, ...]] = [()]
    for atom in cq.atoms:
        rel = db.relation(atom.relation)
        shared = [v for v in atom.variables if v in schema]
        spos_left = [schema.index(v) for v in shared]
        spos_right = [atom.variables.index(v) for v in shared]
        new_vars = [v for v in atom.variables if v not in schema]
        npos = [atom.variables.index(v) for v in new_vars]
        index: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        for r in rel.rows:
            index.setdefault(tuple(r[p] for p in spos_right), []).append(
                tuple(r[p] for p in npos)
            )
        out: List[Tuple[int, ...]] = []
        for row in rows:
            for tail in index.get(tuple(row[p] for p in spos_left), ()):
                out.append(row + tail)
                if len(out) > cap:
                    raise OracleCapError(
                        f"intermediate result exceeds the cap of {cap} tuples"
                    )
        schema = schema + new_vars
        rows = out
    pos = [schema.index(v) for v in cq.head]
    return [tuple(r[p] for p in pos) for r in rows]


def brute_force_ranked(
    db: Database,
    q: UnionQuery,
    rf: RankingFunction,
    cap: int = DEFAULT_CAP,
) -> List[OutputTuple]:
    """Exact sorted, deduplicated result under (score, output values). An
    output found by several disjuncts scores its best derivation, the lowest
    of the disjuncts' scores. Every disjunct is checked before any join."""
    for cq in q.disjuncts:
        check_ranking(rf, cq, db)
    head = q.head
    scored: Dict[Tuple[int, ...], object] = {}
    for cq in q.disjuncts:
        for values in _join_disjunct(db, cq, cap):
            score = direct_score(rf, db, cq, dict(zip(head, values)))
            if values not in scored or score < scored[values]:
                scored[values] = score
            if len(scored) > cap:
                raise OracleCapError(f"result exceeds the cap of {cap} tuples")
    ordered = sorted(scored.items(), key=lambda kv: (kv[1], kv[0]))
    return [OutputTuple(v, s) for v, s in ordered]
