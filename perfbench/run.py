#!/usr/bin/env python3
"""G-Store end-to-end benchmark: build, run one workload, print one result.

Usage (from the repository root):
    python3 perfbench/run.py --workload pagerank-kron --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the gstore library from src/) in an optimized
configuration under .bench_build/perfbench, runs the workload with a fixed
team of OpenMP threads, checks its outputs against the in-memory or serial
references, and prints as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the "end_to_end" list of BENCHMARK.json,
measured with tracing off; with --trace 1 they are the "per_layer" list,
from a separate traced run. The line before it holds the provenance of the
result. Every metric, the provenance and the Chrome trace of a traced run
are also written under .bench_build/perfbench/. The exit status is 0 only
when the build and the run succeeded and every checked output was correct.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's release preset
OMP_THREADS = 2  # keep in step with Options::threads in src/metrics.h
BUILD_JOBS = 4
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "w") as f:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=f, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"command failed: {' '.join(map(str, cmd))}")


def cached_build_type():
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return None


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    if cached_build_type() != BUILD_TYPE:
        run_logged(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"], BUILD / "configure.log")
    build_type = cached_build_type()
    if build_type in (None, "", "Debug"):
        fail(f"refusing a '{build_type}' build: unoptimized timings are not comparable")
    run_logged(["cmake", "--build", BUILD, "--target", "gstore_perfbench",
                "-j", str(BUILD_JOBS)], BUILD / "build.log")
    return BUILD / "gstore_perfbench", build_type


def tree_provenance():
    """Git SHA, dirty flag and diff hash when this is a git checkout;
    otherwise a content hash of the sources the benchmark builds."""
    prov = {}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        diff = subprocess.run(["git", "diff", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True).stdout
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout
        prov["git_sha"] = sha
        prov["git_dirty"] = bool(status.strip())
        prov["git_diff_sha256"] = hashlib.sha256(diff).hexdigest()
    except (OSError, subprocess.CalledProcessError):
        prov["git_sha"] = None
    h = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    prov["source_sha256"] = h.hexdigest()
    return prov


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="small graphs, for the self-test")
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one result to check that the oracle rejects it")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary, build_type = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    for sub in ("work", "traces", "results"):
        (BUILD / sub).mkdir(exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", BUILD / "work" / f"{tag}-{os.getpid()}",
           "--trace-out", BUILD / "traces" / f"{tag}.json"]
    if args.toy:
        cmd.append("--toy")
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    env = dict(os.environ, OMP_NUM_THREADS=str(OMP_THREADS))
    started = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {args.workload} run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    provenance = {**raw["info"], **tree_provenance(), "seed": args.seed,
                  "workload": args.workload, "trace": args.trace,
                  "seconds": args.seconds, "build_type": build_type,
                  "nproc": os.cpu_count(), "omp_num_threads": OMP_THREADS,
                  "wall_s": round(time.time() - started, 3)}
    record = {"provenance": provenance, "correct": raw["correct"],
              "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": raw["metrics"]}
    (BUILD / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))

    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
