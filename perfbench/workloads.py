"""Seeded benchmark inputs and their reference outputs.

Each workload writes one `<Relation>.csv` per relation (header row, integer
weight column `wt` where the ranking reads tuple weights), an optional
headerless vertex-weights CSV, the query file and a `job.conf`, so the program
under test receives only files. The same seed always yields the same files.

The reference output is computed by the brute-force oracle
(`rankjoin.brute_force_ranked`) on a database built straight from the
generated rows, not from the CSV files the engine reads.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from rankjoin import (
    Database,
    Table,
    brute_force_ranked,
    format_record,
    parse_query,
    parse_ranking,
)

WEIGHT_COL = "wt"


@dataclass
class Instance:
    """Generated rows: relation name -> (columns, rows, weights or None)."""

    relations: Dict[str, Tuple[Tuple[str, ...], List[Tuple[int, ...]], Optional[List[int]]]]
    vertex_weights: Optional[Dict[int, int]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    query: str
    rank: str
    k: Optional[int]  # None drains the whole output
    generate: Callable[[random.Random, float], Instance]
    reference: Callable[["Workload", Instance], List[str]]


def _scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def _weights(rng: random.Random, n: int) -> List[int]:
    return [rng.randrange(1_000_000) for _ in range(n)]


def gen_fanout(rng: random.Random, scale: float) -> Instance:
    """3-path with large R fans on a few hubs, small T fans, and dangling fans.

    Hubs 1..4 join through S; hubs 5..6 of R and the T hubs 105..106 have no
    S partner, so the full reducer removes those rows. T fans stay small so
    the oracle's sub-instance join stays near k * 50 tuples per S edge."""
    joined, dangling = 4, 2
    r_fan, r_dangle = _scaled(20_000, scale, 20), _scaled(10_000, scale, 5)
    t_fan, t_dangle = _scaled(50, scale, 5), _scaled(10_000, scale, 5)
    r_rows, t_rows = [], []
    for h in range(1, joined + dangling + 1):
        fan = r_fan if h <= joined else r_dangle
        r_rows += [(1_000_000 + len(r_rows) + i, h) for i in range(fan)]
    for h in range(101, 101 + joined + dangling):
        fan = t_fan if h < 101 + joined else t_dangle
        t_rows += [(h, 2_000_000 + len(t_rows) + i) for i in range(fan)]
    s_rows = [(h, 100 + h) for h in range(1, joined + 1)]
    return Instance({
        "R": (("x", "y"), r_rows, _weights(rng, len(r_rows))),
        "S": (("y", "z"), s_rows, _weights(rng, len(s_rows))),
        "T": (("z", "u"), t_rows, _weights(rng, len(t_rows))),
    })


def gen_star(rng: random.Random, scale: float) -> Instance:
    """Star with `hubs` centres and `arm` rows per centre in each relation."""
    hubs, arm = _scaled(20, scale, 2), _scaled(14, scale, 2)
    rels = {}
    for name, var, base in (("R", "y", 10_000), ("S", "z", 20_000), ("T", "u", 30_000)):
        rows = [(h, base + h * arm + j) for h in range(1, hubs + 1) for j in range(arm)]
        rels[name] = (("x", var), rows, _weights(rng, len(rows)))
    return Instance(rels)


def gen_union(rng: random.Random, scale: float) -> Instance:
    """Random graph on `n` constants; T keeps half of S's edges and adds as
    many new ones. Vertex weights take 32 distinct values, so max-ranked
    outputs come in long equal-score runs."""
    n, m = _scaled(400, scale, 8), _scaled(4_000, scale, 8)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    r_edges = sorted(rng.sample(pairs, m))
    s_edges = sorted(rng.sample(pairs, m))
    s_set = set(s_edges)
    fresh = [p for p in rng.sample(pairs, 2 * m) if p not in s_set][: m - m // 2]
    t_edges = sorted(rng.sample(s_edges, m // 2) + fresh)
    return Instance(
        {
            "R": (("x", "y"), r_edges, None),
            "S": (("y", "z"), s_edges, None),
            "T": (("y", "z"), t_edges, None),
        },
        vertex_weights={c: rng.randrange(32) for c in range(n)},
    )


def _database(inst: Instance) -> Database:
    tables = [
        Table.from_rows(name, cols, rows, weights)
        for name, (cols, rows, weights) in sorted(inst.relations.items())
    ]
    vw = None
    if inst.vertex_weights is not None:
        vw = {str(c): w for c, w in inst.vertex_weights.items()}
    return Database.build(tables, vw)


def full_reference(wl: Workload, inst: Instance) -> List[str]:
    """The oracle's output, formatted as the CLI prints it (top k if set)."""
    db = _database(inst)
    rf = parse_ranking(wl.rank)
    results = brute_force_ranked(db, parse_query(wl.query), rf)
    if wl.k is not None:
        results = results[: wl.k]
    return [format_record(rf, db, r) for r in results]


def topk_reference(wl: Workload, inst: Instance) -> List[str]:
    """Oracle top-k on a sub-instance keeping, per hub, the R and T rows whose
    weight is at most the k-th smallest of that hub (ties kept).

    Under tuple_sum a dropped row has k lighter rows in its hub, each giving a
    strictly better output with the same other rows, so the top k is
    unchanged; value ties break on constants, whose order is the same in both
    databases."""
    rels = dict(inst.relations)
    for name, hub_col in (("R", 1), ("T", 0)):
        cols, rows, weights = rels[name]
        by_hub: Dict[int, List[int]] = {}
        for row, w in zip(rows, weights):
            by_hub.setdefault(row[hub_col], []).append(w)
        cut = {h: sorted(ws)[min(wl.k, len(ws)) - 1] for h, ws in by_hub.items()}
        kept = [(r, w) for r, w in zip(rows, weights) if w <= cut[r[hub_col]]]
        rels[name] = (cols, [r for r, _ in kept], [w for _, w in kept])
    return full_reference(wl, Instance(rels, inst.vertex_weights))


WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload("fanout_topk", "Q(x,y,z,u) :- R(x,y), S(y,z), T(z,u)",
                 "tuple_sum", 1000, gen_fanout, topk_reference),
        Workload("star_drain", "Q(x,y,z,u) :- R(x,y), S(x,z), T(x,u)",
                 "tuple_sum", None, gen_star, full_reference),
        Workload("union_ties", "Q(x,y,z) :- R(x,y), S(y,z) | R(x,y), T(y,z)",
                 "vertex_max", None, gen_union, full_reference),
    )
}


def write_job(wl: Workload, inst: Instance, out_dir: str) -> str:
    """Write the instance's files under `out_dir`; return the job.conf path."""
    os.makedirs(out_dir, exist_ok=True)
    weighted = False
    for name, (cols, rows, weights) in inst.relations.items():
        with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            if weights is None:
                writer.writerow(cols)
                writer.writerows(rows)
            else:
                weighted = True
                writer.writerow(cols + (WEIGHT_COL,))
                writer.writerows(row + (w,) for row, w in zip(rows, weights))
    query_path = os.path.join(out_dir, "query.txt")
    with open(query_path, "w") as fh:
        fh.write(wl.query + "\n")
    config = [f"query={query_path}", f"data={out_dir}", f"rank={wl.rank}"]
    if weighted:
        config.append(f"weight_col={WEIGHT_COL}")
    if inst.vertex_weights is not None:
        vw_path = os.path.join(out_dir, "vertex_weights.csv")
        with open(vw_path, "w", newline="") as fh:
            csv.writer(fh).writerows(sorted(inst.vertex_weights.items()))
        config.append(f"vertex_weights={vw_path}")
    if wl.k is not None:
        config.append(f"k={wl.k}")
    conf_path = os.path.join(out_dir, "job.conf")
    with open(conf_path, "w") as fh:
        fh.write("\n".join(config) + "\n")
    return conf_path


def make(wl: Workload, seed: int, scale: float) -> Instance:
    # Salting with the workload name keeps workloads independent per seed.
    return wl.generate(random.Random(f"{wl.name}:{seed}"), scale)
