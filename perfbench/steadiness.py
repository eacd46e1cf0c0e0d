#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end
metric's median and spread (interquartile range as a share of the
median), the way the steadiness of BENCHMARK.json's bounds is judged.

    python3 perfbench/steadiness.py [--seeds 1-10] [--seconds S] [workload ...]

Run it from the repository root. It reads BENCHMARK.json for the
command, the workloads, the bounds and run_seconds, and prints one
table per workload plus the per-run values as JSON lines on stderr.
"""

import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv):
    bench = json.load(open("BENCHMARK.json"))
    seeds = parse_seeds("1-10")
    seconds = bench["run_seconds"]
    workloads = []
    args = iter(argv)
    for a in args:
        if a == "--seeds":
            seeds = parse_seeds(next(args))
        elif a == "--seconds":
            seconds = int(next(args))
        else:
            workloads.append(a)
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            last = lines[-1] if lines else ""
            host = json.loads(lines[-2]).get("host", {}) if len(lines) > 1 else {}
            if out.returncode != 0 or not last.startswith("{"):
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(last)
            print(json.dumps({"workload": w, "seed": seed, "host": host, **result}), file=sys.stderr)
            if not result["correct"]:
                print(f"{w} seed {seed}: failed {result['failed']} of {result['attempted']}")
                for line in out.stderr.splitlines():
                    if line.startswith("check failed"):
                        print(f"  {line}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w} ({len(seeds)} seeds, {seconds} s)")
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= bounds[name] / 3 or name == "setup_s" else "  <-- above a third of the bound"
            print(f"  {name:<14} median {med:<12.6g} spread {spread:7.2%}  bound {bounds[name]:.0%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
