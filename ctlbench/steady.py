#!/usr/bin/env python3
"""Checks that the control-plane benchmark is steady.

Runs two interleaved sets of runs per workload (set A and set B use the
same seeds, one run of each per seed, alternating), then prints for every
end-to-end metric each set's median and quartiles, its spread (the
interquartile range as a share of the median), and whether

  * each set's spread is within the metric's bound,
  * the two sets' medians differ by no more than the bound, either way,
  * the tick metrics repeat exactly for every seed,
  * the share of failed operations is the same in both sets.

Run from the repository root:

  python3 ctlbench/steady.py --runs 10
  python3 ctlbench/steady.py --runs 5 --workloads deploy-backlog

Every run lasts run_seconds of BENCHMARK.json; set A and set B both use
seeds 1 to --runs. It also records nproc, the Go version and the host
steal time seen during each run (read from /proc/stat), so a noisy host
shows in the record, which is written as JSON under .bench_build/steady/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

TICK_METRICS = ("jct_p50_ticks", "makespan_ticks", "task_wait_ticks_mean")


def steal_seconds():
    """Host steal time so far, summed over all CPUs, in seconds."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    steal0, wall0 = steal_seconds(), time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, check=False)
    wall, steal = time.monotonic() - wall0, steal_seconds() - steal0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr}")
    res = json.loads(lines[-1])
    res.update(workload=workload, seed=seed, wall_s=round(wall, 2), steal_s=round(steal, 2))
    return res


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def drift(first, second):
    """How far the second median is from the first, as a share."""
    return abs(second - first) / first if first else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    go = subprocess.run(["go", "version"], capture_output=True, text=True, check=False).stdout.strip()
    record = {"nproc": os.cpu_count(), "go": go, "run_seconds": seconds, "runs": []}
    print(f"nproc {os.cpu_count()}, {go}, {args.runs} runs per set, {seconds} s each")

    ok = True
    for name in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            seed = 1 + i
            for label in ("A", "B"):
                res = run_once(bench["command"], name, seed, seconds)
                res["set"] = label
                sets[label].append(res)
                record["runs"].append(res)
                values = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.5g}"
                                  for m in bench["end_to_end"])
                print(f"  {name} set {label} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"wall {res['wall_s']} s steal {res['steal_s']} s\n    {values}", flush=True)
        print(f"\n{name}")
        print(f"  {'metric':22s} {'A median [q1, q3]':>30s} {'spread':>7s} "
              f"{'B median [q1, q3]':>30s} {'spread':>7s} {'bound':>6s} verdict")
        for m in bench["end_to_end"]:
            key, bound = m["name"], m["bound"]
            a = [r["metrics"][key]["value"] for r in sets["A"]]
            b = [r["metrics"][key]["value"] for r in sets["B"]]
            (ma, qa1, qa3, sa), (mb, qb1, qb3, sb) = summary(a), summary(b)
            verdict = []
            if sa > bound or sb > bound:
                verdict.append("SPREAD")
            if drift(ma, mb) > bound:
                verdict.append("DRIFT")
            if key in TICK_METRICS and a != b:
                verdict.append("NOT-REPEATED")
            elif max(sa, sb) > bound / 3:
                verdict.append("spread>bound/3")
            ok = ok and not any(v.isupper() for v in verdict)
            print(f"  {key:22s} {ma:12.5g} [{qa1:.5g}, {qa3:.5g}] {sa:7.3f} "
                  f"{mb:12.5g} [{qb1:.5g}, {qb3:.5g}] {sb:7.3f} {bound:6.2f} {' '.join(verdict) or 'ok'}")
        shares = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for label, rs in sets.items()}
        correct = all(r["correct"] for rs in sets.values() for r in rs)
        same = shares["A"] == shares["B"]
        ok = ok and same and correct
        print(f"  failed share A {shares['A']} B {shares['B']} {'same' if same else 'DIFFERENT'}; "
              f"all correct: {correct}")

    os.makedirs(".bench_build/steady", exist_ok=True)
    path = time.strftime(".bench_build/steady/%Y%m%d-%H%M%S.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(f"\nrecord: {path}\nverdict: {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
