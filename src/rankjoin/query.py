"""Query model: full natural-join CQs and unions thereof, parsed from text.

Grammar (one query per file, `#` starts a comment line):

    Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)

`|` separates disjuncts sharing the head. Only full projection-free
natural-join queries are accepted: the head must list exactly the body
variables, atoms may not repeat a variable, and constants are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Set, Tuple

from .errors import QueryParseError

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ATOM_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(([^()]*)\)")


@dataclass(frozen=True)
class Atom:
    relation: str
    variables: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.variables)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A full CQ; doubles as the query hypergraph (atoms are the hyperedges)."""

    name: str
    head: Tuple[str, ...]
    atoms: Tuple[Atom, ...]

    @cached_property
    def variables(self) -> FrozenSet[str]:
        """The body variables; built once per query."""
        return frozenset(v for a in self.atoms for v in a.variables)

    @cached_property
    def head_index(self) -> Dict[str, int]:
        """Each head variable's position in the head; built once per query."""
        return {v: i for i, v in enumerate(self.head)}

    @cached_property
    def occurrences(self) -> Dict[str, Tuple[int, ...]]:
        """Each variable's atom indices, ascending; built once per query."""
        out: Dict[str, List[int]] = {}
        for i, atom in enumerate(self.atoms):
            for v in atom.variables:
                out.setdefault(v, []).append(i)
        return {v: tuple(atoms) for v, atoms in out.items()}

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self.atoms)
        return f"{self.name}({','.join(self.head)}) :- {body}"


@dataclass(frozen=True)
class UnionQuery:
    disjuncts: Tuple[ConjunctiveQuery, ...]

    @property
    def head(self) -> Tuple[str, ...]:
        return self.disjuncts[0].head

    @property
    def name(self) -> str:
        return self.disjuncts[0].name

    def __str__(self) -> str:
        head = f"{self.name}({','.join(self.head)})"
        bodies = [", ".join(str(a) for a in d.atoms) for d in self.disjuncts]
        return f"{head} :- " + " | ".join(bodies)


def _parse_atoms(text: str, head_set: Set[str]) -> Tuple[Atom, ...]:
    atoms: List[Atom] = []
    rest = text
    arities: Dict[str, int] = {}
    while rest.strip():
        m = _ATOM_RE.match(rest.strip())
        if not m:
            raise QueryParseError(f"cannot parse atom near {rest.strip()[:40]!r}")
        rel = m.group(1)
        inner = m.group(2).strip()
        vars_ = tuple(v.strip() for v in inner.split(",")) if inner else ()
        if not vars_:
            raise QueryParseError(f"atom {rel} has no variables")
        for v in vars_:
            if not _NAME_RE.match(v):
                raise QueryParseError(
                    f"atom {rel}: {v!r} is not a variable (constants are not allowed)"
                )
        if len(set(vars_)) != len(vars_):
            raise QueryParseError(f"atom {rel}({','.join(vars_)}): repeated variable")
        if rel in arities and arities[rel] != len(vars_):
            raise QueryParseError(
                f"atom {rel}: arity {len(vars_)} conflicts with earlier {arities[rel]}"
            )
        arities[rel] = len(vars_)
        atoms.append(Atom(rel, vars_))
        rest = rest.strip()[m.end():].lstrip()
        if rest.startswith(","):
            rest = rest[1:]
        elif rest:
            raise QueryParseError(f"unexpected text after atom: {rest[:40]!r}")
    if not atoms:
        raise QueryParseError("empty query body")
    body_vars = {v for a in atoms for v in a.variables}
    if body_vars - head_set:
        missing = sorted(body_vars - head_set)
        raise QueryParseError(
            f"non-full head: body variables {missing} missing from the head"
        )
    if head_set - body_vars:
        unused = sorted(head_set - body_vars)
        raise QueryParseError(f"head variables {unused} appear in no atom")
    return tuple(atoms)


def parse_query(text: str) -> UnionQuery:
    lines = [ln for ln in text.splitlines() if not ln.strip().startswith("#")]
    joined = " ".join(lines).strip()
    if ":-" not in joined:
        raise QueryParseError("expected 'Head(vars) :- body'")
    head_text, body_text = joined.split(":-", 1)
    m = _ATOM_RE.match(head_text.strip())
    if not m or head_text.strip()[m.end():].strip():
        raise QueryParseError(f"cannot parse head {head_text.strip()!r}")
    name = m.group(1)
    inner = m.group(2).strip()
    head = tuple(v.strip() for v in inner.split(",")) if inner else ()
    if "" in head:
        raise QueryParseError(f"cannot parse head {head_text.strip()!r}")
    if len(set(head)) != len(head):
        raise QueryParseError("repeated variable in head")
    head_set = set(head)
    disjuncts = []
    for part in body_text.split("|"):
        atoms = _parse_atoms(part, head_set)
        disjuncts.append(ConjunctiveQuery(name, head, atoms))
    return UnionQuery(tuple(disjuncts))


def atom_components(cq: ConjunctiveQuery) -> List[List[int]]:
    """Group atom indices into maximal variable-connected components, each
    sorted, ordered by their smallest index."""
    parent = list(range(len(cq.atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for first, *rest in cq.occurrences.values():
        for i in rest:
            ri, rj = find(first), find(i)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    groups: Dict[int, List[int]] = {}
    for i in range(len(cq.atoms)):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]
