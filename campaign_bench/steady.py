#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

Runs BENCHMARK.json's command once per seed on each workload (untraced),
then prints, per workload and end-to-end metric, the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound.
With --against, it also prints how far each median moved from an
earlier pass, in the metric's worse direction, next to the bound.

    python3 campaign_bench/steady.py --seeds 1-10 [--workloads fleet-mixed,...]
                                     [--out campaign_bench/results/pass-2.json]
                                     [--against campaign_bench/results/pass-1.json]

Run it from the repository root. The JSON written with --out keeps every
run's metrics, so a later change can be compared against the same seeds.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = seed_list(args.seeds)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    runs = {}
    for w in workloads:
        runs[w] = []
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            t = time.time()
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            runs[w].append({"seed": seed, "exit": p.returncode,
                            "wall_s": round(time.time() - t, 1), "result": result})
            print(f"{w} seed {seed}: exit {p.returncode}, {time.time() - t:.1f} s, "
                  f"correct {result.get('correct')}", file=sys.stderr, flush=True)

    summary = {}
    print(f"{'workload':<12} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for w in workloads:
        summary[w] = {}
        for name, m in metrics.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[w]
                      if name in r["result"].get("metrics", {})]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m["bound"]
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": spread, "bound": bound, "values": values}
            flag = "" if spread < bound / 3 else ("  > bound/3" if spread <= bound else "  > BOUND")
            print(f"{w:<12} {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>7.3f} {bound:>6}{flag}")

    if args.against:
        before = json.load(open(args.against))["summary"]
        print(f"\n{'workload':<12} {'metric':<18} {'before':>12} {'now':>12} {'worse by':>9} {'bound':>6}")
        for w in workloads:
            for name, s in summary[w].items():
                if name not in before.get(w, {}):
                    continue
                b, a = before[w][name]["median"], s["median"]
                worse = (b - a) / b if metrics[name]["better"] == "higher" else (a - b) / b
                flag = "  > BOUND" if worse > s["bound"] else ""
                print(f"{w:<12} {name:<18} {b:>12.6g} {a:>12.6g} {worse:>9.3f} {s['bound']:>6}{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": seeds, "summary": summary, "runs": runs}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
