"""Repeat the benchmark over seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 [--first-seed 1] [--trace 0|1]
        [--workload NAME ...] [--write]

Runs ``run.py`` once per seed for each workload, with ``run_seconds`` from
BENCHMARK.json, and prints for every metric the median, the quartiles and
the spread (interquartile distance over the median), next to the metric's
bound for end-to-end metrics.  ``--write`` stores the summary, with its
runs and seeds, and the environment (interpreter, CPU model and count,
platform) in baseline.json, the record later changes quote their
before/after numbers against.
"""

from __future__ import annotations

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
BASELINE = HERE / "baseline.json"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    failed = False
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
            if result:
                runs.append(result)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds
                ), flush=True)
        if not runs:
            continue
        summary = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        for name, s in summary.items():
            if name in bounds:
                print(f"  {workload} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g}"
                      f" spread {s['spread']:.3f} (bound {bounds[name]})")
        doc.setdefault(section, {})[workload] = {
            "runs": len(runs),
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "failed": sum(r["failed"] for r in runs),
            "metrics": summary,
        }
    if args.write:
        doc["environment"] = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "platform": platform.platform(),
            "run_seconds": bench["run_seconds"],
        }
        BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
