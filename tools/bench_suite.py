"""Set-up phases of one or more rankjoin checkouts, written to a BENCH JSON.

    python3 tools/bench_suite.py --src parent=../parent --src change=. \
        --runs 10 --out BENCH_12.json

Each `--src LABEL=PATH` names a source checkout (its engine is imported from
`PATH/src`). Every checkout runs the same inputs, written once under a
temporary directory by the checkout that holds this script:

- `fanout_topk`: the seed-1, scale-1 files of `perfbench/workloads.py`
  (imported, not changed);
- `fanout_blank_line`: the same files with one blank line halfway through
  R, which `load_csv` splits with `csv.reader` instead of `str` methods;
- `threepath`, `diameter4`, `antichain`: `rankjoin gen` instances;
- `bounded_threepath`: a smaller `gen threepath` instance ranked by
  `bounded(tuple_sum; x,y)`, for the set-up of a bounded ranking.

A measurement is one fresh interpreter per checkout and input. It runs the
checkout's `rankjoin bench -k 0` in process and reads the set-up seconds it
prints (`load`: the CLI's CSV ingest, `build`: dictionary encoding, then
`prepare`'s `materialize`, `reduce` and `init_queues`); a non-zero exit fails
the run. It then repeats the same call under tracemalloc for its peak traced
memory, which also covers argument and query parsing. Runs alternate which
checkout goes first. The output file holds, per checkout, input and figure,
the median and quartiles over the runs, and each run's value. Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# `rankjoin gen` instances: name -> (kind, n, the rank spec that replaces the
# generator's, or None). The generators' own are sized so that set-up takes a
# tenth of a second or more; `bounded_threepath` is sized so that a set-up
# that adds the bound variables to every bag (a million rows) still runs.
GEN = {"threepath": ("threepath", 50_000, None),
       "diameter4": ("diameter4", 25_000, None),
       "antichain": ("antichain", 50_000, None),
       "bounded_threepath": ("threepath", 1_000, "bounded(tuple_sum; x,y)")}
BLANK_LINE = "fanout_blank_line"
# Each timing figure and the `rankjoin bench` line it is read from.
PHASES = {"load_s": "load_seconds", "build_s": "encode_seconds",
          "materialize_s": "materialize_seconds", "reduce_s": "reduce_seconds",
          "init_queues_s": "init_queues_seconds"}
FIGURES = (*PHASES, "setup_peak_mb")


def write_inputs(work: str) -> dict:
    """Write every input under `work`; return name -> job.conf path."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads
    from rankjoin import cli

    wl = workloads.WORKLOADS["fanout_topk"]
    inst = workloads.make(wl, 1, 1.0)
    confs = {name: workloads.write_job(wl, inst, os.path.join(work, name))
             for name in (wl.name, BLANK_LINE)}
    r_path = os.path.join(work, BLANK_LINE, "R.csv")
    with open(r_path, newline="") as fh:
        lines = fh.readlines()
    lines.insert(len(lines) // 2, "\r\n")
    with open(r_path, "w", newline="") as fh:
        fh.writelines(lines)
    for name, (kind, n, rank) in GEN.items():
        out = os.path.join(work, name)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["gen", kind, "--n", str(n), "--out", out])
        confs[name] = os.path.join(out, "job.conf")
        if rank is not None:
            rerank(confs[name], rank)
    return confs


def rerank(conf: str, rank: str) -> None:
    """Replace the rank spec of the job file `conf` with `rank`."""
    with open(conf) as fh:
        lines = fh.read().splitlines()
    with open(conf, "w") as fh:
        fh.writelines(f"rank={rank}\n" if line.startswith("rank=") else f"{line}\n"
                      for line in lines)


def measure(conf: str) -> dict:
    """One run's figures for `conf`, with the engine already importable: the
    phase seconds that `rankjoin bench -k 0` prints, then the peak traced
    memory of the same call repeated under tracemalloc."""
    from rankjoin import cli

    def bench() -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["bench", "--config", conf, "-k", "0"])
        if code != 0:
            raise RuntimeError(f"rankjoin bench exited {code} on {conf}")
        return dict(line.split("=", 1) for line in out.getvalue().splitlines())

    printed = bench()
    figures = {f: float(printed[key]) for f, key in PHASES.items()}
    tracemalloc.start()
    try:
        bench()
        figures["setup_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return figures


def run_one(src: str, conf: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", conf],
        env=dict(os.environ, PYTHONPATH=os.path.join(src, "src")),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def summary(values: list) -> dict:
    """Median and quartiles, and every run's value in run order, so paired
    runs can be compared."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(v, 6) for v in values]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", action="append", default=[], metavar="LABEL=PATH",
                   help="a checkout to measure; repeat for each")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default="BENCH.json")
    p.add_argument("--measure", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.src or not all("=" in s for s in args.src) or args.runs < 2:
        p.error("give at least one --src LABEL=PATH and two or more --runs")
    sides = dict(s.split("=", 1) for s in args.src)
    samples = {label: {} for label in sides}
    with tempfile.TemporaryDirectory() as work:
        confs = write_inputs(work)
        for run in range(args.runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            for name, conf in confs.items():
                for label in order:
                    got = run_one(sides[label], conf)
                    per = samples[label].setdefault(name, {f: [] for f in FIGURES})
                    for f in FIGURES:
                        per[f].append(got[f])
            print(f"run {run + 1}/{args.runs} done", file=sys.stderr)
    report = {
        "suite": "tools/bench_suite.py",
        "runs": args.runs,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "inputs": {"fanout_topk": "perfbench/workloads.py seed 1 scale 1",
                   BLANK_LINE: "fanout_topk with one blank line halfway through R",
                   **{name: f"rankjoin gen {kind} --n {n}"
                      + (f", rank {rank}" if rank else "")
                      for name, (kind, n, rank) in GEN.items()}},
        "units": {f: "MB" if f.endswith("_mb") else "s" for f in FIGURES},
        "results": {
            label: {name: {f: summary(v) for f, v in per.items()}
                    for name, per in by_input.items()}
            for label, by_input in samples.items()
        },
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
