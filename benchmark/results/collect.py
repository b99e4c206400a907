#!/usr/bin/env python3
"""Measure the benchmark's baseline: sets of untraced runs over seeds 1..N
for every workload, plus one traced run each, summarized per metric as
median, quartiles and spread ((q3 - q1) / median), and the change of each
set's median against the first set's.

Run from the repository root:

    python3 benchmark/results/collect.py [--sets 2] [--seeds 10] [--seconds 10]

Writes benchmark/results/baseline.json (every run's metrics) and
benchmark/results/BASELINE.md (the summary tables).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "..", "Cargo.toml")


def build():
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "..", "target"))
    return os.path.join(target, "release", "udma-benchmark")


def cpu_model():
    with open("/proc/cpuinfo") as f:
        names = [l.split(":", 1)[1].strip() for l in f if l.startswith("model name")]
    return names[0] if names else platform.machine()


def run(exe, workload, seed, seconds, trace):
    args = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(args + ["--trace", str(trace)], capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    o = ap.parse_args()
    spec = json.load(open(os.path.join(HERE, "..", "..", "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    exe = build()
    runs = {w: [] for w in workloads}
    for s in range(o.sets):
        for w in workloads:
            for seed in range(1, o.seeds + 1):
                runs[w].append({"set": s + 1, "seed": seed, "metrics": run(exe, w, seed, o.seconds, 0)})
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr, flush=True)
    traced = {w: run(exe, w, 1, o.seconds, 1) for w in workloads}

    report = {"machine": f"{cpu_model()}, {os.cpu_count()} cpus", "seconds": o.seconds,
              "runs": runs, "traced_seed_1": traced, "summary": {}}
    lines = [
        "# Baseline",
        "",
        f"{o.sets} sets × {o.seeds} seeds × {o.seconds} s per workload, one process per run, "
        f"on {report['machine']} (a shared machine: host times drift between runs). "
        "Spread is (q3 − q1) / median over one set's runs, as `statistics.quantiles(n=4)` "
        "gives the quartiles; Δ is each later set's median against set 1's, signed so "
        "that positive is worse.",
        "",
        "| " + " | ".join(["workload", "metric", "bound"]
                          + [f"set {s + 1} {c}" for s in range(o.sets) for c in ("median", "spread")]
                          + [f"Δ set {s + 1}" for s in range(1, o.sets)]) + " |",
        "|---" * (3 + 3 * o.sets - 1) + "|",
    ]
    for w in workloads:
        report["summary"][w] = {}
        for name in bounds:
            sets = [summary([r["metrics"][name] for r in runs[w] if r["set"] == s + 1])
                    for s in range(o.sets)]
            report["summary"][w][name] = sets
            sign = -1.0 if better[name] == "higher" else 1.0
            deltas = [sign * (x["median"] - sets[0]["median"]) / sets[0]["median"] for x in sets[1:]]
            cells = [w, f"`{name}`", str(bounds[name])]
            cells += [c for x in sets for c in (f"{x['median']:.6g}", f"{100 * x['spread']:.2f}%")]
            cells += [f"{100 * d:+.2f}%" for d in deltas]
            lines.append("| " + " | ".join(cells) + " |")
    lines += ["", "## Traced run, seed 1", "", "| metric | " + " | ".join(workloads) + " |",
              "|---|" + "---|" * len(workloads)]
    for name in traced[workloads[0]]:
        lines.append(f"| `{name}` | " + " | ".join(f"{traced[w][name]:.6g}" for w in workloads) + " |")
    json.dump(report, open(os.path.join(HERE, "baseline.json"), "w"), indent=1)
    open(os.path.join(HERE, "BASELINE.md"), "w").write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
