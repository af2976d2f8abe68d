"""Shared fixtures: the worked four-relation example, random instance
generation for the corpus shapes, engine/oracle comparison plumbing, and
reference implementations the library does not need (constant ids by value,
the exhaustive diameter)."""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from rankjoin import (
    Database,
    RankedCursor,
    Table,
    UnionQuery,
    brute_force_ranked,
    format_record,
    gyo_join_tree,
    parse_decomposition,
    parse_query,
    parse_ranking,
    prepare,
)
from rankjoin.decomposition import TreeDecomposition
from rankjoin.query import ConjunctiveQuery

RUNNING_QUERY = "Q(x,y,z,w,u) :- R1(x,y), R2(y,z), R3(z,w), R4(z,u)"


def running_example() -> Tuple[Database, object]:
    """The four-relation weighted instance used throughout the docs/tests."""
    tables = [
        Table.from_rows("R1", ("x", "y"), [("1", "1"), ("2", "1")], weights=[1, 2]),
        Table.from_rows("R2", ("y", "z"), [("1", "1"), ("3", "1")], weights=[1, 1]),
        Table.from_rows("R3", ("z", "w"), [("1", "1"), ("1", "2")], weights=[1, 4]),
        Table.from_rows("R4", ("z", "u"), [("1", "1"), ("1", "2")], weights=[1, 5]),
    ]
    q = parse_query(RUNNING_QUERY).disjuncts[0]
    return Database.build(tables), q


SHAPES = {
    "2path": ("Q(x,y,z) :- R(x,y), S(y,z)", None),
    "3path": ("Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)", None),
    "4path": ("Q(x,y,z,u,v) :- R(x,y), S(y,z), T(z,u), U(u,v)", None),
    "star": ("Q(x,y,z,u) :- R(x,y), S(x,z), T(x,u)", None),
    "triangle": (
        "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)",
        "node 0: {x,y,z} cover R,S\nroot 0\n",
    ),
}

RANK_SPECS = {
    "2path": ["tuple_sum", "tuple_max", "vertex_sum", "lex(z,x,y)", "vertex_max",
              "bounded(tuple_max; x,y)"],
    "3path": ["tuple_sum", "tuple_max", "vertex_sum", "lex(u,y,x,z)", "vertex_max",
              "bounded(vertex_sum; y,z)"],
    "4path": ["tuple_sum", "tuple_max", "vertex_sum", "lex(v,z,y,x,u)", "vertex_max",
              "bounded(tuple_sum; y,z,u)"],
    "star": ["tuple_sum", "tuple_max", "vertex_sum", "lex(u,x,z,y)", "vertex_max",
             "bounded(vertex_max; x,u)"],
    "triangle": ["tuple_sum", "tuple_max", "vertex_sum", "lex(y,z,x)", "vertex_max",
                 "bounded(tuple_max; y,z)"],
}


def long_path(n: int) -> Tuple[str, str]:
    """Query and decomposition text of the n-atom path R0(v0,v1), ...,
    R{n-1}(v{n-1},v{n}), decomposed as a path of depth n - 1 rooted at R0."""
    head = ",".join(f"v{i}" for i in range(n + 1))
    atoms = ", ".join(f"R{i}(v{i},v{i + 1})" for i in range(n))
    lines = [f"node {i}: {{v{i},v{i + 1}}} cover R{i}" for i in range(n)]
    lines.append("root 0")
    lines += [f"edge {i} {i + 1}" for i in range(n - 1)]
    return f"Q({head}) :- {atoms}", "\n".join(lines) + "\n"


def star(n: int) -> str:
    """Query text of the n-arm star R0(x,y0), ..., R{n-1}(x,y{n-1})."""
    head = ",".join(["x"] + [f"y{i}" for i in range(n)])
    atoms = ", ".join(f"R{i}(x,y{i})" for i in range(n))
    return f"Q({head}) :- {atoms}"


def spider(legs: int) -> str:
    """Query text of a spider: legs of length two out of a centre c,
    R{i}(c,a{i}), S{i}(a{i},b{i}). Its diameter is 4, between any two leg
    ends."""
    head = ",".join(["c"] + [f"{v}{i}" for i in range(legs) for v in "ab"])
    atoms = ", ".join(
        f"R{i}(c,a{i}), S{i}(a{i},b{i})" for i in range(legs)
    )
    return f"Q({head}) :- {atoms}"


def encode(db: Database, value: str) -> int:
    """The id of the constant `value` in `db`."""
    return db.constants.index(value)


def queue_key(ids) -> object:
    """The queue key of a node whose key variables hold `ids`: the bare id of
    one variable, else the tuple of ids (`()` for none)."""
    ids = tuple(ids)
    return ids[0] if len(ids) == 1 else ids


def exact_diameter(cq: ConjunctiveQuery) -> int:
    """Reference diameter with the distinct-vertex/distinct-edge path rule
    enforced literally (exponential; used to cross-check the BFS version on
    small queries)."""
    variables = sorted(cq.variables)
    edges = [frozenset(a.variables) for a in cq.atoms]

    def shortest(u: str, v: str) -> Optional[int]:
        best = None
        stack = [(u, frozenset([u]), frozenset(), 0)]
        while stack:
            cur, used_v, used_e, k = stack.pop()
            if cur == v:
                best = k if best is None else min(best, k)
                continue
            if best is not None and k >= best:
                continue
            for ei, edge in enumerate(edges):
                if cur not in edge or ei in used_e:
                    continue
                for nxt in edge:
                    if nxt in used_v:
                        continue
                    stack.append((nxt, used_v | {nxt}, used_e | {ei}, k + 1))
        return best

    diam = 0
    for i, u in enumerate(variables):
        for v in variables[i + 1 :]:
            d = shortest(u, v)
            if d is not None:
                diam = max(diam, d)
    return diam


def random_instance(shape: str, seed: int):
    """Random weighted tables for one corpus shape, plus query/decomposition."""
    query_text, decomp_text = SHAPES[shape]
    uq = parse_query(query_text)
    cq = uq.disjuncts[0]
    rng = random.Random(sorted(SHAPES).index(shape) * 100_003 + seed)
    domain = [str(v) for v in range(rng.randint(2, 6))]
    tables = []
    for atom in cq.atoms:
        n_rows = rng.randint(1, 30)
        rows = {
            tuple(rng.choice(domain) for _ in atom.variables) for _ in range(n_rows)
        }
        rows = sorted(rows)
        weights = [rng.randint(-20, 20) for _ in rows]
        tables.append(Table.from_rows(atom.relation, atom.variables, rows, weights))
    vertex_weights = {v: rng.randint(-10, 10) for v in domain}
    db = Database.build(tables, vertex_weights)
    decomp = (
        parse_decomposition(decomp_text, cq) if decomp_text else gyo_join_tree(cq)
    )
    return db, uq, decomp


def rerooted(d: TreeDecomposition) -> List[TreeDecomposition]:
    """`d` re-rooted at each of its nodes, in node order, each parsed from the
    decomposition file that would give it (`parse_decomposition`)."""
    q = d.query
    neighbours = {
        nid: list(n.children) + ([] if n.parent is None else [n.parent])
        for nid, n in d.nodes.items()
    }
    lines = []
    for nid, n in d.nodes.items():
        cover = ",".join(q.atoms[ai].relation for ai in n.cover)
        lines.append(f"node {nid}: {{{','.join(n.var_order)}}}"
                     + (f" cover {cover}" if cover else ""))
    trees = []
    for root in d.nodes:
        edges, stack, seen = [], [root], {root}
        while stack:
            parent = stack.pop()
            for child in neighbours[parent]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
                    edges.append(f"edge {parent} {child}")
        text = "\n".join(lines + [f"root {root}"] + edges) + "\n"
        trees.append(parse_decomposition(text, q))
    return trees


def engine_lines(db, cq, rf, decomp=None) -> Tuple[List[str], RankedCursor]:
    prepared = prepare(db, cq, rf, decomp)
    cursor = RankedCursor(prepared)
    results = cursor.drain()
    return [format_record(rf, db, r) for r in results], cursor


def oracle_lines(db, uq: UnionQuery, rf) -> List[str]:
    return [format_record(rf, db, r) for r in brute_force_ranked(db, uq, rf)]


def rank_for(shape: str, idx: int):
    return parse_ranking(RANK_SPECS[shape][idx])
