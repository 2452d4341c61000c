#!/usr/bin/env python3
"""Run the benchmark untraced on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workloads corpus-cold,mega-solve \
        --seeds 1-10 --seconds 10

For every workload and metric it prints the median of the runs, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median. Run it from the root of a checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    host = next(json.loads(l) for l in lines if l.startswith('{"counters"'))["host"]
    return json.loads(lines[-1]), host, wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range like 1-10, or one seed repeated with --repeat")
    ap.add_argument("--repeat", type=int, default=1, help="runs per seed")
    ap.add_argument("--seconds", type=int, default=10)
    args = ap.parse_args()

    for w in args.workloads.split(","):
        runs = []
        for s in [s for s in seeds(args.seeds) for _ in range(args.repeat)]:
            res, host, wall = run_once(w, s, args.seconds)
            runs.append((res, wall))
            ok = "ok" if res["correct"] else "WRONG"
            print(f"{w} seed {s}: {wall:.1f}s {ok} ref {host['ref_ms_before']:.1f}/{host['ref_ms_after']:.1f} " +
                  " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        print(f"\n{w}: {len(runs)} runs, wall {min(r[1] for r in runs):.1f}"
              f"-{max(r[1] for r in runs):.1f}s")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for m in sorted(runs[0][0]["metrics"]):
            vals = [r[0]["metrics"][m]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {m:26} {med:12.4f} {q1:12.4f} {q3:12.4f} {100 * spread:7.2f}%")
        print(flush=True)


if __name__ == "__main__":
    main()
