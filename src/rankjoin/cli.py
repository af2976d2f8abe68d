"""Command-line frontend: plan, topk, enumerate, bench, gen, oracle.

Exit codes: 0 success (topk: output exhausted), 10 topk truncated (more
results remain), 2 validation error, 4 oracle cap exceeded, 141 stdout
closed early (as a shell reports a process that SIGPIPE ended).
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from .analysis import GENERATORS, analyze
from .cursor import RankedCursor, buffers_ties, tie_lead
from .data import Database, Table, load_csv, load_vertex_weights
from .decomposition import TreeDecomposition, gyo_join_tree, load_decomposition
from .errors import (
    CyclicQueryError,
    DecompositionError,
    EngineInvariantError,
    IngestError,
    OracleCapError,
    RankJoinError,
    SchemaError,
)
from .oracle import brute_force_ranked
from .preprocess import prepare
from .query import UnionQuery, parse_query
from .ranking import check_ranking, parse_ranking
from .result import format_record
from .union import UnionCursor

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE_CAP = 4
EXIT_TRUNCATED = 10
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _read_config(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise IngestError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _parse_k(raw) -> Optional[int]:
    if raw is None:
        return None
    try:
        k = int(raw)
    except ValueError:
        k = None
    if k is None or k < 0:
        raise IngestError(f"k must be a non-negative integer, got {raw!r}")
    return k


class Job:
    def __init__(self, args: argparse.Namespace):
        cfg = _read_config(args.config) if getattr(args, "config", None) else {}

        def pick(flag: Optional[str], key: str) -> Optional[str]:
            return flag if flag is not None else cfg.get(key)

        self.query_path = pick(args.query, "query")
        self.data_dir = pick(args.data, "data")
        self.rank_spec = pick(args.rank, "rank")
        self.decomp_path = pick(getattr(args, "decomp", None), "decomp")
        self.weight_col = pick(getattr(args, "weight_col", None), "weight_col")
        self.vertex_weights_path = pick(
            getattr(args, "vertex_weights", None), "vertex_weights"
        )
        self.k = _parse_k(pick(getattr(args, "k", None), "k"))

    def query(self) -> UnionQuery:
        if not self.query_path:
            raise IngestError("no query file given (--query or query= in config)")
        with open(self.query_path) as fh:
            return parse_query(fh.read())

    def load(self, uq: UnionQuery) -> Tuple[List[Table], Optional[Dict[str, int]]]:
        """Read the query's relations and the vertex weights, unencoded."""
        if not self.data_dir:
            raise IngestError("no data directory given (--data or data= in config)")
        names = sorted({a.relation for d in uq.disjuncts for a in d.atoms})
        tables: List[Table] = []
        for name in names:
            path = os.path.join(self.data_dir, f"{name}.csv")
            try:
                table = load_csv(path, name, weight_column=self.weight_col)
            except SchemaError:
                # The weight column is not in this file's header (the only
                # `SchemaError` of `load_csv`): the table is unweighted.
                table = load_csv(path, name)
            tables.append(table)
        vw = None
        if self.vertex_weights_path:
            vw = load_vertex_weights(self.vertex_weights_path)
        return tables, vw

    def database(self, uq: UnionQuery) -> Database:
        return Database.build(*self.load(uq))

    def ranking(self):
        if not self.rank_spec:
            raise IngestError("no ranking given (--rank or rank= in config)")
        return parse_ranking(self.rank_spec)

    def decomposition(self, uq: UnionQuery) -> Optional[TreeDecomposition]:
        if not self.decomp_path:
            return None
        if len(uq.disjuncts) != 1:
            raise DecompositionError(
                "--decomp applies to single-disjunct queries only"
            )
        return load_decomposition(self.decomp_path, uq.disjuncts[0])


def _make_cursor(uq: UnionQuery, db: Database, rf, decomp):
    cursors = []
    for cq in uq.disjuncts:
        prepared = prepare(db, cq, rf, decomp)
        cursors.append(RankedCursor(prepared))
    if len(cursors) == 1:
        return cursors[0]
    return UnionCursor(cursors)


def cmd_plan(args: argparse.Namespace) -> int:
    job = Job(args)
    uq = job.query()
    rf = parse_ranking(job.rank_spec) if job.rank_spec else None
    # Loaded before anything is printed: a union refuses `--decomp`.
    given = job.decomposition(uq)
    for i, cq in enumerate(uq.disjuncts):
        if len(uq.disjuncts) > 1:
            print(f"disjunct {i + 1}: {cq}")
        else:
            print(f"query: {cq}")
        if rf is not None:
            check_ranking(rf, cq)
        try:
            decomp = given or gyo_join_tree(cq)
        except CyclicQueryError as e:
            residue = ", ".join(str(a) for a in e.residue)
            print(
                f"error: query is cyclic (irreducible atoms: {residue}); "
                f"provide a decomposition with --decomp",
                file=sys.stderr,
            )
            return EXIT_VALIDATION
        print(f"width: {decomp.width}")
        _print_tree(decomp)
        if rf is not None and buffers_ties(rf):
            lead = tie_lead(decomp)
            if lead == 1:
                group = (f"each group of outputs that share a score and a value "
                         f"of {cq.head[0]}")
            elif lead:
                group = (f"each group of outputs that share a score and values "
                         f"of {','.join(cq.head[:lead])}")
            else:
                group = "each whole run of outputs that share a score"
            print(
                f"warning: under {rf.spec()}, {group} is buffered and sorted "
                "before the first of them is emitted, so the delay is "
                "unbounded when many outputs tie"
            )
        fr = analyze(cq)
        print(f"diameters: {','.join(str(d) for d in fr.diameters)}")
        if fr.coordinate_ok is None:
            print("coordinate condition: not applicable (cyclic query)")
        elif fr.coordinate_ok:
            print("coordinate condition: ok")
        else:
            a, b = fr.coordinate_witness
            print(f"coordinate condition: violated by atoms {a} and {b}")
            print(
                "warning: coordinate-ranked families cannot be enumerated with "
                "logarithmic delay after near-linear preprocessing on this query"
            )
        if fr.edge_ok is None:
            print("edge condition: not applicable (cyclic query)")
        elif fr.edge_ok:
            print("edge condition: ok")
        else:
            u, v, dist = fr.edge_witness
            print(f"edge condition: violated ({u}..{v} at distance {dist})")
            print(
                "warning: edge-ranked families hit the preprocessing lower "
                "bound on this query; the engine still runs"
            )
    return EXIT_OK


def _print_tree(d: TreeDecomposition) -> None:
    depth = {d.root: 0}
    for nid in d.pre_order():
        node = d.nodes[nid]
        bag = ",".join(node.var_order) or "∅"
        key = ",".join(node.key_vars)
        val = ",".join(node.val_vars)
        cover = ",".join(d.query.atoms[ai].relation for ai in node.cover) or "-"
        print(
            f"{'  ' * depth[nid]}node {nid}: bag {{{bag}}} key [{key}] val [{val}] "
            f"cover {cover}"
        )
        depth.update((c, depth[nid] + 1) for c in node.children)


def _stream(job: Job, limit: Optional[int]) -> int:
    uq = job.query()
    db = job.database(uq)
    rf = job.ranking()
    decomp = job.decomposition(uq)
    cursor = _make_cursor(uq, db, rf, decomp)
    emitted = 0
    while limit is None or emitted < limit:
        out = cursor.next()
        if out is None:
            return EXIT_OK
        # One write per line: `print` writes the line end separately, a
        # second system call per record when output is unbuffered.
        sys.stdout.write(format_record(rf, db, out) + "\n")
        emitted += 1
    return EXIT_TRUNCATED if cursor.next() is not None else EXIT_OK


def cmd_topk(args: argparse.Namespace) -> int:
    job = Job(args)
    if job.k is None:
        raise IngestError("topk needs -k (or k= in config)")
    return _stream(job, job.k)


def cmd_enumerate(args: argparse.Namespace) -> int:
    return _stream(Job(args), None)


def cmd_bench(args: argparse.Namespace) -> int:
    job = Job(args)
    uq = job.query()
    if len(uq.disjuncts) != 1:
        raise IngestError("bench supports single-disjunct queries only")
    pc = time.perf_counter
    gc_before = _gc_collections()
    t0 = pc()
    tables, vw = job.load(uq)
    t1 = pc()
    db = Database.build(tables, vw)
    t2 = pc()
    rf = job.ranking()
    decomp = job.decomposition(uq)
    t3 = pc()
    prepared = prepare(db, uq.disjuncts[0], rf, decomp)
    t4 = pc()
    setup_gc = _gc_collections() - gc_before
    cursor = RankedCursor(prepared, stats=True)
    results = cursor.drain_topk(job.k) if job.k is not None else cursor.drain()
    t5 = pc()
    stats = cursor.pull_stats
    print(f"load_seconds={t1 - t0:.6f}")
    print(f"encode_seconds={t2 - t1:.6f}")
    for key, value in prepared.setup_stats.items():
        print(f"{key}={value:.6f}" if key.endswith("_seconds") else f"{key}={value}")
    print(f"preprocess_seconds={t4 - t3:.6f}")
    print(f"setup_gc_collections={setup_gc}")
    print(f"enumerate_seconds={t5 - t4:.6f}")
    print(f"pulls={len(results)}")
    print(f"cells_initial={prepared.initial_cells}")
    print(f"cells_total={prepared.counters.cells}")
    print(f"cells_created_enum={prepared.counters.cells - prepared.initial_cells}")
    for label, idx in (("inserts", 0), ("pops", 1), ("comparisons", 2)):
        series = [s[idx] for s in stats] or [0]
        print(f"max_{label}_per_pull={max(series)}")
        print(f"median_{label}_per_pull={statistics.median(series)}")
    return EXIT_OK


def _gc_collections() -> int:
    """Cyclic GC collections so far, of every generation."""
    return sum(g["collections"] for g in gc.get_stats())


def cmd_gen(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise IngestError(f"--n must be a non-negative integer, got {args.n}")
    inst = GENERATORS[args.kind](args.n)
    os.makedirs(args.out, exist_ok=True)
    for table in inst.tables:
        path = os.path.join(args.out, f"{table.name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if table.weights is not None:
                writer.writerow(list(table.columns) + [inst.weight_column])
                for row, w in zip(table.rows, table.weights):
                    writer.writerow(list(row) + [w])
            else:
                writer.writerow(table.columns)
                writer.writerows(table.rows)
    with open(os.path.join(args.out, "query.txt"), "w") as fh:
        fh.write(inst.query_text + "\n")
    config = [f"query={os.path.join(args.out, 'query.txt')}",
              f"data={args.out}", f"rank={inst.rank_spec}"]
    if inst.weight_column:
        config.append(f"weight_col={inst.weight_column}")
    if inst.vertex_weights:
        vw_path = os.path.join(args.out, "vertex_weights.csv")
        with open(vw_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for constant, w in sorted(inst.vertex_weights.items()):
                writer.writerow([constant, w])
        config.append(f"vertex_weights={vw_path}")
    with open(os.path.join(args.out, "job.conf"), "w") as fh:
        fh.write("\n".join(config) + "\n")
    print(f"wrote {args.kind} instance (n={args.n}) to {args.out}")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    job = Job(args)
    uq = job.query()
    db = job.database(uq)
    rf = job.ranking()
    results = brute_force_ranked(db, uq, rf, cap=args.cap)
    if job.k is not None:
        results = results[: job.k]
    for out in results:
        sys.stdout.write(format_record(rf, db, out) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankjoin",
        description="Ranked enumeration of full conjunctive queries",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value job file; flags win")
    common.add_argument("--query", help="query file")
    common.add_argument("--data", help="directory of <Relation>.csv files")
    common.add_argument("--rank", help="ranking spec, e.g. tuple_sum or lex(z,x,y)")
    common.add_argument("--decomp", help="decomposition file")
    common.add_argument("--weight-col", dest="weight_col",
                        help="name of the per-tuple weight column")
    common.add_argument("--vertex-weights", dest="vertex_weights",
                        help="constant,weight CSV for vertex-based rankings")
    common.add_argument("-k", type=int, default=None, help="result count limit")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("plan", parents=[common]).set_defaults(func=cmd_plan)
    sub.add_parser("topk", parents=[common]).set_defaults(func=cmd_topk)
    sub.add_parser("enumerate", parents=[common]).set_defaults(func=cmd_enumerate)
    sub.add_parser("bench", parents=[common]).set_defaults(func=cmd_bench)
    p_oracle = sub.add_parser("oracle", parents=[common])
    p_oracle.add_argument("--cap", type=int, default=10**6)
    p_oracle.set_defaults(func=cmd_oracle)
    p_gen = sub.add_parser("gen")
    p_gen.add_argument("kind", choices=sorted(GENERATORS))
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`rankjoin enumerate … | head`): stop
        # without a traceback. Output still buffered goes to devnull, so the
        # interpreter's flush at exit does not fail again (the SIGPIPE recipe
        # of Python's `signal` docs).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OracleCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except EngineInvariantError as e:
        print(f"internal error: {e}", file=sys.stderr)
        raise
    except RankJoinError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    # The errors of opening an input file or making `gen`'s output directory;
    # not every `OSError`, since a closed stdout (`BrokenPipeError`) is one too.
    except (FileNotFoundError, FileExistsError, NotADirectoryError,
            IsADirectoryError, PermissionError) as e:
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
