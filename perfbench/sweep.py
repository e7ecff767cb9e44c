#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 10 [--workload NAME ...] [--trace 0|1] [--baseline OUT.json]

For every workload, runs ``run.py`` once per seed (one after another, each
with BENCHMARK.json's run_seconds unless --seconds is given), then prints per
metric its unit, median, quartiles and the quartile spread as a share of the
median, next to the bound BENCHMARK.json fixes.  --baseline stores the same
summary, with the machine's nproc and CPU, in the file's end_to_end or
per_layer section, keeping the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "runs": len(values),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def write_baseline(args, summary: dict) -> None:
    """Store the summary under end_to_end or per_layer, keeping the other section."""
    try:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        baseline = {}
    baseline["machine"] = {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
    }
    baseline["per_layer" if args.trace else "end_to_end"] = {
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
        "workloads": summary,
    }
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", help="write the summary to this JSON file")
    args = parser.parse_args()

    declared = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {}
    ok = True
    for name in workloads:
        values: dict[str, list] = {}
        units = {}
        attempted = failed = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds if m in result["metrics"]
            ), flush=True)
        summary[name] = {"fail_share": {"value": failed / attempted if attempted else None,
                                        "invocations": attempted}}
        print(f"  {name:<16} {'fail_share':<14} {failed}/{attempted} invocations")
        for metric in bounds:
            if len(values.get(metric, [])) < 2:
                continue
            stats = summarise(values[metric])
            stats["unit"] = units[metric]
            summary[name][metric] = stats
            bound = bounds[metric]
            spread = stats["spread"]
            flag = ""
            if bound is not None and spread is not None and metric != "setup_s" and spread > bound / 3:
                flag = "  above a third of the bound"
            if args.trace == 0 or flag:
                print(f"  {name:<16} {metric:<14} {stats['median']:>12.6g} {stats['unit']:<5}"
                      f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {spread:.4f}"
                      f" bound {bound} runs {stats['runs']}{flag}")
    if args.baseline:
        write_baseline(args, summary)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
