#!/usr/bin/env python3
"""Check that the benchmark is steady enough for its bounds.

    python3 perfbench/spread.py --workload W --seeds 1-10 [--seconds S]
                                [--against .perfbench_out/spread-W-1-10.json]

Runs the workload once per seed (untraced) from the root of a checkout
and prints, for every end-to-end metric, the median and the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound in
BENCHMARK.json.  A spread should stay under a third of its bound.  The
values are saved to .perfbench_out/spread-W-A-B.json; --against compares
this set's medians with an earlier set's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int)
    p.add_argument("--against")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    lo, hi = (int(x) for x in a.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if r.returncode != 0:
            sys.exit("seed %d: exit code %d" % (seed, r.returncode))
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if not res["correct"] or res["failed"]:
            sys.exit("seed %d: answer check failed: %s" % (seed, res))
        for k, m in res["metrics"].items():
            values.setdefault(k, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr)
    os.makedirs(".perfbench_out", exist_ok=True)
    path = ".perfbench_out/spread-%s-%d-%d.json" % (a.workload, lo, hi)
    with open(path, "w") as f:
        json.dump(values, f, indent=1)
    earlier = None
    if a.against:
        with open(a.against) as f:
            earlier = json.load(f)
    ok = True
    print("%-16s %12s %8s %8s %s" % ("metric", "median", "spread", "bound", "vs earlier"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med
        verdict = "" if spread < m["bound"] / 3 else "  <-- over a third of the bound"
        if spread > m["bound"]:
            ok = False
        cmp = ""
        if earlier:
            old = statistics.median(earlier[m["name"]])
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            cmp = "%+.3f" % worse
            if worse > m["bound"]:
                ok = False
                cmp += " WORSE"
        print("%-16s %12.5g %8.3f %8.3f %s%s" % (m["name"], med, spread, m["bound"], cmp, verdict))
    print("saved " + path)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
