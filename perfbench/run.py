"""rankjoin benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fanout_topk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from `src/`.
The run writes the seeded inputs under `.perfbench_work/`, computes the
reference output with the brute-force oracle (untimed), measures for
`--seconds` seconds, and checks every output against the reference. With
`--trace 0` it reports the end-to-end metrics, with `--trace 1` the per-layer
metrics of a separate traced run. The last line of stdout is one JSON object:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
Metric names, units and bounds are declared in BENCHMARK.json; the layer ->
end-to-end mapping is in `perfbench/layers.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; values below 1 are for smoke tests")
    return p.parse_args(argv)


def declared_metrics(trace: int):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rankjoin", "__init__.py")):
        print(f"error: no rankjoin sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import measure
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    wl = workloads.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".perfbench_work")
    work_dir = os.path.join(work_root, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        inst = workloads.make(wl, args.seed, args.scale)
        conf_path = workloads.write_job(wl, inst, work_dir)
        expected = wl.reference(wl, inst)
        probe = measure.host_probe()
        if args.trace:
            spans_path = os.path.join(work_root, f"spans-{wl.name}.tsv")
            metrics, tally, notes = tracing.traced_run(
                conf_path, wl.k, expected, args.seconds, spans_path)
        else:
            metrics, tally, notes = measure.timed_run(
                conf_path, wl.k, expected, args.seconds, ROOT, work_dir)
        probe = (probe, measure.host_probe())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    emitted = {name: unit for name, (_, unit, _) in metrics.items()}
    if emitted != declared:
        print(f"error: metrics {emitted} differ from BENCHMARK.json {declared}",
              file=sys.stderr)
        return 1
    print(f"workload {wl.name}, seed {args.seed}, scale {args.scale}, "
          f"{len(expected)} reference results, {'traced' if args.trace else 'timed'} run")
    print(f"host probe (fixed pure-Python loop, context only): "
          f"{probe[0]:.4f} s before, {probe[1]:.4f} s after")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {unit:12s} samples={samples}")
    error_rate = tally.failed / max(1, tally.attempted)
    print(f"  {'error_rate':38s} {error_rate:>16.6g} {'ratio':12s} "
          f"({tally.failed} failed of {tally.attempted} results attempted)")
    for note in notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
