#!/usr/bin/env python3
"""Interleaved parent/change pairs of one perfbench workload.

Usage (from anywhere):
    python3 tools/perf_pairs.py --base ../parent --change . \
        --workload pagerank-kron --pairs 10 [--seconds 10] [--seed 1] \
        [--json pairs.json]

--base and --change are two checkouts of the repository (for example a
`git clone` of the parent commit beside the working tree). Pair k runs
`python3 perfbench/run.py --workload W --seed <seed+k> --seconds S --trace 0`
once in each checkout, with the same seed; the side that runs first
alternates from pair to pair, so a warm page cache or a drifting machine
does not favour one side. Every run must print `correct: true` with zero
failed operations, or the script stops.

For every end-to-end metric of BENCHMARK.json it prints the median and
quartiles of each side, the change of the medians, and in how many pairs the
change was lower and higher. A metric counts as improved when the change is
lower in at least 9 of 10 pairs (the same share for other pair counts) and
the drop of the medians exceeds the base side's interquartile range.
Standard library only.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_pairs: run failed in {checkout} (seed {seed}, "
                 f"exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"perf_pairs: {checkout} seed {seed} was not correct: "
                 f"{lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, metrics):
    rows = []
    n = len(pairs)
    need = math.ceil(0.9 * n)
    for m in metrics:
        name = m["name"]
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        lower_is_better = m.get("better", "lower") == "lower"
        sign = 1.0 if lower_is_better else -1.0
        better = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
        worse = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        bq1, bq3 = quartiles(base)
        cq1, cq3 = quartiles(change)
        bmed = statistics.median(base)
        cmed = statistics.median(change)
        gain = sign * (bmed - cmed)
        rows.append({
            "metric": name, "unit": m.get("unit", ""),
            "base_median": bmed, "base_q1": bq1, "base_q3": bq3,
            "change_median": cmed, "change_q1": cq1, "change_q3": cq3,
            "delta_pct": (cmed - bmed) / bmed * 100 if bmed else 0.0,
            "pairs_better": better, "pairs_worse": worse, "pairs": n,
            "improved": better >= need and gain > (bq3 - bq1),
        })
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--json", help="also write pairs and summary here")
    args = ap.parse_args()

    base = Path(args.base).resolve()
    change = Path(args.change).resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = [("base", base), ("change", change)]
        if k % 2 == 1:
            order.reverse()
        pair = {"seed": seed, "first": order[0][0]}
        for side, checkout in order:
            pair[side] = run_once(checkout, args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"pair {k} seed {seed} ({pair['first']} first): " + ", ".join(
            f"{m['name']} {pair['base'][m['name']]:.4g} -> "
            f"{pair['change'][m['name']]:.4g}" for m in metrics), flush=True)

    rows = summarize(pairs, metrics)
    print(f"\n{args.workload}: {args.pairs} pairs, order alternating")
    print(f"{'metric':<22}{'base med [q1, q3]':>30}{'change med [q1, q3]':>30}"
          f"{'delta':>9}{'better/worse':>14}  improved")
    for r in rows:
        b = f"{r['base_median']:.4g} [{r['base_q1']:.4g}, {r['base_q3']:.4g}]"
        c = (f"{r['change_median']:.4g} [{r['change_q1']:.4g}, "
             f"{r['change_q3']:.4g}]")
        print(f"{r['metric']:<22}{b:>30}{c:>30}{r['delta_pct']:>8.1f}%"
              f"{r['pairs_better']:>7}/{r['pairs_worse']:<6}  "
              f"{'yes' if r['improved'] else 'no'}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "pairs": pairs, "summary": rows},
            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
