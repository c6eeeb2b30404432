#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads serve-tiny,wire-tiny --seeds 1-10
    python3 perfbench/spread.py --workloads fivestep-256 --seeds 1-5 \
        --inject bifft.execute --compare perfbench/out/base.json

For every workload and end-to-end metric it prints the median of the runs
and the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound from BENCHMARK.json. `--compare` reads the raw results of an
earlier invocation and flags every metric whose median got worse than the
earlier median by more than its bound (the regression rule the benchmark
fixes). Raw results go to `--out` (default perfbench/out/spread.json).
Run from the repository root; the benchmark command comes from
BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, inject):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    if inject:
        cmd += ["--inject", inject]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
    res = json.loads(lines[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--inject")
    ap.add_argument("--compare")
    ap.add_argument("--out", default="perfbench/out/spread.json")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    base = {}
    if a.compare:
        with open(a.compare) as f:
            base = json.load(f)
    raw = {}
    worst = 0.0
    for w in a.workloads.split(","):
        runs = [run(bench, w, s, a.inject) for s in seeds(a.seeds)]
        raw[w] = runs
        print(f"== {w} ({len(runs)} seeds)")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            med, sp = spread(vals)
            line = f"  {name:24s} median {med:<14.6g} spread {sp:6.3f}"
            m = metrics[name]
            line += f"  bound {m['bound']:.3f}"
            if name != "setup_s":
                worst = max(worst, sp / m["bound"])
            if w in base:
                old, _ = spread([r[name] for r in base[w]])
                worse = (med - old) / old if old else 0.0
                if m["better"] == "higher":
                    worse = -worse
                verdict = "REGRESSION" if worse > m["bound"] else "ok"
                line += f"  vs base {worse:+.3f} {verdict}"
            print(line)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    os.makedirs(os.path.dirname(a.out), exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
