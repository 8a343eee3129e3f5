#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--workload W ...]

Runs perfbench/run.py once per seed on each workload (untraced, with the
declared run_seconds) and prints, per metric, the median and the distance
between the first and third quartile as a share of the median — the
figure each metric's bound is compared against. Raw results are appended
to perfbench/out/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    log = open(os.path.join("perfbench", "out", "spread.jsonl"), "a")
    worst = {}
    for w in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            res = json.loads(last) if last.startswith("{") else {}
            log.write(json.dumps({"workload": w, "seed": seed, "exit": r.returncode, "result": res}) + "\n")
            log.flush()
            if r.returncode != 0 or not res.get("correct"):
                print("%s seed %d: exit %d\n%s" % (w, seed, r.returncode, r.stderr[-2000:]))
                continue
            for k, v in res["metrics"].items():
                values[k].append(v["value"])
        print("== %s" % w)
        for m in spec["end_to_end"]:
            vs = values[m["name"]]
            if len(vs) < 2:
                print("  %-18s too few runs" % m["name"])
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst[(w, m["name"])] = spread
            print("  %-18s median %12.4f  spread %6.3f  bound %.2f  %s" % (
                m["name"], med, spread, m["bound"],
                "ok" if spread <= m["bound"] / 3 else ("within" if spread <= m["bound"] else "OVER")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
