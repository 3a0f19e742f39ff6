"""Run-to-run spread of the benchmark, and the recorded baseline.

Runs run.py once per seed on each workload, each run in its own process,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median. With --write it also
makes one traced run per workload at the default seed and stores host
info, the cells of each workload at the default seed, these figures and
the traced per-layer split in manifest.json.

    python3 perfbench/spread.py --runs 5 --workload chain-lossy
    python3 perfbench/spread.py --runs 10 --write

Runs use seeds 101, 102, ... and run_seconds from BENCHMARK.json. --write
measures every workload, so it cannot be combined with --workload.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "manifest.json"
FIRST_SEED = 101

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         + proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n"
                         + proc.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "runs": len(values)}


def host_info():
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": model}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if args.write and args.workload:
        parser.error("--write records every workload; drop --workload")

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    baseline = {}
    for workload in args.workload or list(workloads.WORKLOADS):
        runs = [run_once(workload, FIRST_SEED + i, seconds, 0)
                for i in range(args.runs)]
        figures = {name: summarize([r[name] for r in runs]) for name in runs[0]}
        baseline[workload] = {"end_to_end": figures}
        for name, f in figures.items():
            flag = "" if name == "setup_s" or f["spread"] < bounds[name] / 3 else \
                "  (spread above a third of the bound)"
            print(f"{workload:18} {name:18} median {f['median']:<12.6g} "
                  f"q1 {f['q1']:<12.6g} q3 {f['q3']:<12.6g} "
                  f"spread {f['spread']:.4f} bound {bounds[name]}{flag}",
                  flush=True)
        if args.write:
            baseline[workload]["traced"] = run_once(
                workload, workloads.DEFAULT_SEED, seconds, 1)

    if args.write:
        with open(MANIFEST, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        manifest["host"] = host_info()
        manifest["workloads"] = {
            name: {"why": why, "cells": workloads.cells(name, workloads.DEFAULT_SEED)}
            for name, (_, why) in workloads.WORKLOADS.items()}
        manifest["baseline"] = {
            "seeds": [FIRST_SEED, FIRST_SEED + args.runs - 1],
            "seconds": seconds, "workloads": baseline}
        with open(MANIFEST, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
