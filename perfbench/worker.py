"""One benchmark pass in a fresh interpreter.

Imports the package from ``src/``, writes the workload's configs (set-up),
prints ``ready``, then runs every operation once in a closed loop with one
client and prints one JSON line: the pass duration (operation calls only),
the failures, the peak resident memory and, with ``--trace``, the per-layer
metrics of ``layers.Tracer``.

    python3 perfbench/worker.py --workload cocycle --seed 1 [--trace]
        [--setup-only] [--tamper]
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from shintani_kit import selftest  # noqa: E402

from layers import Tracer  # noqa: E402
from workloads import WORKLOADS, ConfigWriter, probe_outcome  # noqa: E402


def run_ops(ops) -> tuple[float, list[str]]:
    wall = 0.0
    failures = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
            ok = True
        except (Exception, SystemExit):
            traceback.print_exc()
            ok = False
        wall += time.perf_counter() - t0
        if ok:
            try:
                ok = bool(op.check(out))
            except (KeyError, TypeError, ValueError):
                traceback.print_exc()
                ok = False
        if not ok:
            failures.append(op.label)
    return wall, failures


def run_probes(probes) -> dict:
    """Inputs the seed refuses, run outside the timed pass."""
    refused, wrong = 0, []
    if not probes:
        return {"refused": 0, "refused_s": 0.0, "wrong": wrong}
    t0 = time.perf_counter()
    for op in probes:
        try:
            outcome = probe_outcome(op, op.run())
        except (Exception, SystemExit):
            traceback.print_exc()
            outcome = "wrong"
        refused += outcome == "refused"
        if outcome == "wrong":
            wrong.append(op.label)
    return {"refused": refused, "refused_s": time.perf_counter() - t0, "wrong": wrong}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args(argv)

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](random.Random(args.seed), ConfigWriter(workdir))
        if args.tamper:
            selftest.tamper_bernoulli()
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            wall, failures = run_ops(wl.ops)
        finally:
            if tracer:
                tracer.uninstall()
        result = {
            "wall_s": wall,
            "attempted": len(wl.ops),
            "failures": failures,
            "seeded": wl.seeded,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if tracer:
            result["layers"] = tracer.metrics()
            tracer.write_spans(out_dir / f"spans-{args.workload}.json")
            probes = run_probes(wl.probes)
            result["attempted"] += len(wl.probes)
            result["failures"] += probes["wrong"]
            result["layers"]["real_quadratic_fields.refused"] = probes["refused"]
            result["layers"]["real_quadratic_fields.refused_s"] = probes["refused_s"]
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
