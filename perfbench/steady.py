"""Steadiness check for the benchmark: is the code's run-to-run spread within
the bounds BENCHMARK.json fixes?

    python3 perfbench/steady.py --seeds 1-10 --sets 2 [--workloads a,b] [--trace 1]

For each workload it runs `perfbench/run.py` once per seed, `--sets` times
over, on the same code. Timed runs (`--trace 0`) report, per end-to-end metric
and set, the median over the seeds and the spread: the distance between the
first and third quartiles as a share of the median. With two sets it also
reports how much worse the second set's median is than the first's. Each
spread (except that of setup_s) and each drift must stay within the metric's
bound; the tool flags any spread above a third of the bound. Traced runs
(`--trace 1`) instead check that every count metric repeats exactly for the
same seed across sets. The host-speed probe of each run is printed beside it
as context; it is not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = proc.stdout.splitlines()
    probe = next((ln for ln in lines if ln.startswith("host probe")), "")
    return json.loads(lines[-1]), probe.split(": ", 1)[-1]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", help="comma-separated; default: all")
    p.add_argument("--seeds", default="1-10", help="range like 1-10")
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    ok = True
    for wl in names:
        # results[set][seed index] = metrics dict
        results = []
        for s in range(args.sets):
            runs = []
            for seed in seeds:
                out, probe = run_once(wl, seed, spec["run_seconds"], args.trace)
                ok &= out["correct"]
                print(f"{wl} set {s + 1} seed {seed}: correct={out['correct']} "
                      f"failed={out['failed']}/{out['attempted']}; host probe {probe}",
                      flush=True)
                print("  " + " ".join(f"{n}={v['value']:.5g}"
                                      for n, v in out["metrics"].items()), flush=True)
                runs.append(out["metrics"])
            results.append(runs)
        if args.trace:
            ok &= report_counts(wl, spec, results, seeds)
        else:
            ok &= report_spread(wl, spec, results)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


def report_spread(wl, spec, results) -> bool:
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells = []
        medians = []
        for runs in results:
            med, sp = spread([r[name]["value"] for r in runs])
            medians.append(med)
            flag = "" if sp <= bound / 3 else (" (above bound/3)" if sp <= bound else " (ABOVE BOUND)")
            if name != "setup_s" and sp > bound:
                ok = False
            cells.append(f"median {med:.6g} spread {sp:.3f}{flag}")
        line = f"{wl:12s} {name:15s} bound {bound:.2f}: " + "; ".join(cells)
        if len(medians) > 1:
            drift = worse_by(medians[0], medians[1], m["better"])
            ok &= drift <= bound
            line += f"; set 2 worse by {drift:+.3f}" + (" (ABOVE BOUND)" if drift > bound else "")
        print(line, flush=True)
    return ok


def report_counts(wl, spec, results, seeds) -> bool:
    ok = True
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"
              and m["name"] != "cursor.bytes_per_result"]
    for i, seed in enumerate(seeds):
        differ = [c for c in counts
                  if len({runs[i][c]["value"] for runs in results}) > 1]
        ok &= not differ
        print(f"{wl} seed {seed}: counts "
              + (f"DIFFER across sets: {differ}" if differ else "repeat exactly"))
    return ok


if __name__ == "__main__":
    sys.exit(main())
