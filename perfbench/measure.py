"""Timed (untraced) run: the end-to-end metrics.

One round is a library trial (set-up, then pulls with every result formatted),
a run of the real `rankjoin` CLI as a child process with stdout sent to a file,
and enough extra set-up-plus-first-result trials to give cheap set-ups as many
samples as expensive ones. Rounds repeat until the time budget is spent, and
every timing is a median over the run's samples.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import rankjoin as rj

MIN_ROUNDS = 3
# Extra set-up-only trials per round fill about this share of the round.
SETUP_SHARE = 0.1


def read_conf(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return dict(line.strip().split("=", 1) for line in fh if "=" in line)


def open_cursor(conf: Dict[str, str]):
    """Parse, load, encode and prepare the way `rankjoin topk/enumerate` does.

    Functions are looked up on the package at call time, so the traced run can
    wrap them."""
    with open(conf["query"]) as fh:
        uq = rj.parse_query(fh.read())
    names = sorted({a.relation for cq in uq.disjuncts for a in cq.atoms})
    tables = [
        rj.load_csv(os.path.join(conf["data"], f"{n}.csv"), n,
                    weight_column=conf.get("weight_col"))
        for n in names
    ]
    vw = None
    if "vertex_weights" in conf:
        vw = rj.load_vertex_weights(conf["vertex_weights"])
    db = rj.Database.build(tables, vw)
    rf = rj.parse_ranking(conf["rank"])
    cursors = [rj.RankedCursor(rj.prepare(db, cq, rf)) for cq in uq.disjuncts]
    cursor = cursors[0] if len(cursors) == 1 else rj.UnionCursor(cursors)
    return rf, db, cursor


@dataclass
class Trial:
    setup_s: float
    stamps: List[float]  # enumeration start, then one stamp per result
    end: float  # after the last next() call, including a final None
    lines: List[str]


def trial(conf: Dict[str, str], limit: Optional[int]) -> Trial:
    gc.collect()
    pc = time.perf_counter
    t0 = pc()
    rf, db, cursor = open_cursor(conf)
    t1 = pc()
    nxt, fmt = cursor.next, rj.format_record
    lines: List[str] = []
    stamps = [t1]
    while limit is None or len(lines) < limit:
        out = nxt()
        if out is None:
            break
        lines.append(fmt(rf, db, out))
        stamps.append(pc())
    return Trial(t1 - t0, stamps, pc(), lines)


def mismatches(got: List[str], want: List[str]) -> int:
    """Results missing, extra, or different at their rank position."""
    return sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))


def cli_run(conf_path: str, k: Optional[int], out_path: str, root: str
            ) -> Tuple[float, float, int]:
    """Run the CLI once; return (wall seconds, peak RSS in MB, exit code)."""
    argv = [sys.executable, "-m", "rankjoin.cli",
            "topk" if k is not None else "enumerate", "--config", conf_path]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    redirect = [(os.POSIX_SPAWN_OPEN, 1, out_path,
                 os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=redirect)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def tail_fraction(n: int) -> float:
    """The highest quantile of n samples that still has 10 samples beyond it."""
    return max(0.5, (n - 10) / n) if n > 0 else 0.5


def quantile(sorted_values: List[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[idx]


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: host speed, reported as context."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def check(self, label: str, got: List[str], want: List[str]) -> None:
        bad = mismatches(got, want)
        self.attempted += len(want)
        self.failed += bad
        if bad:
            self.notes.append(f"{label}: {bad} of {len(want)} results wrong")

    def crash(self, label: str, attempted: int) -> None:
        self.attempted += attempted
        self.failed += 1
        self.notes.append(f"{label}: crashed")


def timed_run(conf_path: str, k: Optional[int], expected: List[str],
              seconds: float, root: str, work_dir: str):
    conf = read_conf(conf_path)
    tally = Tally()
    setups: List[float] = []
    firsts: List[float] = []
    rates: List[float] = []
    delays: List[float] = []
    tails: List[float] = []
    walls: List[float] = []
    rss: List[float] = []
    per_trial = len(expected)
    tail_q = tail_fraction(per_trial)
    cli_out = os.path.join(work_dir, "cli_out.txt")

    def setup_trials(budget: float, setup_s: float) -> None:
        for _ in range(int(budget / max(setup_s, 1e-9))):
            s = trial(conf, 1)
            tally.check("set-up trial", s.lines, expected[:1])
            setups.append(s.setup_s)
            if len(s.stamps) > 1:
                firsts.append(s.setup_s + s.stamps[1] - s.stamps[0])

    deadline = time.perf_counter() + seconds
    rounds, last = 0, 0.0
    # Stop when the next round would mostly run past the deadline.
    while rounds < MIN_ROUNDS or time.perf_counter() + last / 2 < deadline:
        round_start = time.perf_counter()
        t = trial(conf, k)
        tally.check(f"library trial {rounds}", t.lines, expected)
        setups.append(t.setup_s)
        if len(t.stamps) > 1:
            firsts.append(t.setup_s + t.stamps[1] - t.stamps[0])
            trial_delays = sorted(b - a for a, b in zip(t.stamps, t.stamps[1:]))
            delays.extend(trial_delays)
            tails.append(quantile(trial_delays, tail_q))
        rates.append(len(t.lines) / (t.end - t.stamps[0]))
        setup_trials(SETUP_SHARE / 2 * (time.perf_counter() - round_start), t.setup_s)

        cli_start = time.perf_counter()
        wall, peak, code = cli_run(conf_path, k, cli_out, root)
        walls.append(wall)
        rss.append(peak)
        # topk exits 10 when more results remain.
        if code not in (0, 10):
            tally.crash(f"cli run {rounds} (exit {code})", per_trial)
        else:
            with open(cli_out) as fh:
                tally.check(f"cli run {rounds} vs library",
                            fh.read().splitlines(), t.lines)
        setup_trials(SETUP_SHARE / 2 * (time.perf_counter() - cli_start), t.setup_s)
        rounds += 1
        last = time.perf_counter() - round_start

    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "first_result_s": (statistics.median(firsts), "s", len(firsts)),
        "delay_p50_us": (statistics.median(delays) * 1e6, "us", len(delays)),
        "delay_tail_us": (statistics.median(tails) * 1e6, "us", len(tails)),
        "results_per_s": (statistics.median(rates), "1/s", len(rates)),
        "cli_wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (statistics.median(rss), "MB", len(rss)),
    }
    notes = [f"delay_tail_us is the median over trials of each trial's "
             f"p{100 * tail_q:.4f} delay ({per_trial} results per trial, "
             f"10 beyond it)"]
    return metrics, tally, notes + tally.notes
