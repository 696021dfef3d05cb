#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

    python3 hostbench/sweep.py --workload ftp-root --seeds 1-10 [--trace 0]
    python3 hostbench/sweep.py --workload ftp-root,ftp-incremental --seeds 1-10

For every metric of the result lines: the median over the runs, the
quartiles as statistics.quantiles(n=4) gives them and the inter-quartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json when it has one. With several workloads the runs interleave
(seed by seed, alternating which workload goes first) so that every
workload sees the same drift of the machine's speed, and for two workloads
the seeds on which the first reads higher than the second are counted.
Exits nonzero when any run fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, help="one name, or several comma-separated")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_path = HERE.parent / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    bounds = {m["name"]: m["bound"] for m in bench.get("end_to_end", [])}
    seconds = args.seconds or bench.get("run_seconds", 20)
    workloads = args.workload.split(",")
    seeds = seed_list(args.seeds)

    values = {w: {} for w in workloads}
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout)
                print(f"{w} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            metrics = json.loads(lines[-1])["metrics"]
            for name, m in metrics.items():
                values[w].setdefault(name, []).append(m["value"])
            shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in metrics.items())
            print(f"{w} seed {seed}: {shown}", flush=True)

    for w in workloads:
        print(f"\n{w}: {len(seeds)} runs")
        for name, vals in values[w].items():
            q1, q2, q3 = stats.quartiles(vals)
            sp = stats.spread(vals) if q2 else float("nan")
            bound = bounds.get(name)
            tail = f"  bound {bound}" if bound is not None else ""
            print(f"  {name}: median {q2:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {sp:.4f}{tail}")
    if len(workloads) == 2:
        a, b = workloads
        print(f"\nseeds on which {a} reads higher than {b} (of {len(seeds)}):")
        for name in values[a]:
            wins = sum(x > y for x, y in zip(values[a][name], values[b][name]))
            print(f"  {name}: {wins}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
