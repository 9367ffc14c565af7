"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload as a closed loop with one client: each pass is a fresh
``worker.py`` process that sets up, then runs every operation of the
workload once, one after the other.  Passes repeat while the next one is
expected to end within ``--seconds`` (at least one pass).  Extra set-up-only
processes are spawned until ``SETUP_SAMPLES`` set-up times exist.

``--trace 0`` reports the end-to-end metrics (medians over passes):
setup_s, wall_s and peak_rss_mb.  ``--trace 1`` runs the same untraced
passes, then traced passes, and reports the per-layer metrics plus
``trace.overhead_s`` (traced minus untraced wall_s).  Counts must repeat
exactly: they are compared across the traced passes and with the counts a
previous traced run left in ``.perfbench/counts/``, and every difference
is printed and counted in ``trace.count_mismatches``.

``--tamper`` corrupts a cached Bernoulli number in each pass before the
operations run; on measure_pool the run must then report failures.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
operation passed its check, 1 when one failed and 2 when the benchmark
could not run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402

WORKLOADS = ("rq_interpolation", "field_zeta_sweep", "cocycle", "measure_pool")
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TRACE_UNITS = {
    **{name: unit for name, (unit, _) in PER_LAYER.items()},
    "real_quadratic_fields.refused": "count",
    "real_quadratic_fields.refused_s": "s",
    "failed_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.count_mismatches": "count",
}
COUNT_SUFFIXES = ("_calls", "_points", "_distinct", ".refused", ".extracted_terms")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """Run one worker process; returns its result with setup_s added."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(flags) or 'pass'} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {}
    result["setup_s"] = setup
    return result


def passes(workload: str, seed: int, seconds: float, *flags: str) -> list[dict]:
    """Passes until the next one is expected to overrun the time budget."""
    out, costs = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        out.append(spawn(workload, seed, *flags))
        costs.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(costs) > seconds:
            return out


def count_mismatches(workload: str, seed: int, traced: list[dict]) -> int:
    """Compare every count across traced passes and with the last traced
    run of the same inputs in this checkout; print each difference."""
    counts = [
        {k: v for k, v in r["layers"].items() if k.endswith(COUNT_SUFFIXES)} for r in traced
    ]
    key = workload if not traced[0]["seeded"] else f"{workload}-seed{seed}"
    store = ROOT / ".perfbench" / "counts" / f"{key}.json"
    if store.exists():
        counts.insert(0, json.loads(store.read_text()))
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts[0], sort_keys=True))
    mismatches = 0
    for name in sorted(counts[-1]):
        seen = [c.get(name) for c in counts]
        if len(set(seen)) > 1:
            mismatches += 1
            print(f"count mismatch: {name} took values {seen}", file=sys.stderr)
    return mismatches


def run(args) -> tuple[dict, int, list[str], dict]:
    extra = ("--tamper",) if args.tamper else ()
    untraced = passes(args.workload, args.seed, args.seconds, *extra)
    results = list(untraced)
    if args.trace:
        traced = passes(args.workload, args.seed, args.seconds, "--trace", *extra)
        results += traced
        # counts repeat exactly (count_mismatches flags any that do not)
        metrics = {
            name: value if name.endswith(COUNT_SUFFIXES)
            else statistics.median(r["layers"][name] for r in traced)
            for name, value in traced[0]["layers"].items()
        }
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        traced_attempts = sum(r["attempted"] for r in traced)
        refused = sum(r["layers"]["real_quadratic_fields.refused"] for r in traced)
        failed = sum(len(r["failures"]) for r in traced)
        metrics.update({
            "failed_share": (failed + refused) / traced_attempts,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.count_mismatches": count_mismatches(args.workload, args.seed, traced),
        })
        units = TRACE_UNITS
    else:
        setups = [r["setup_s"] for r in results]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args.workload, args.seed, "--setup-only", *extra)["setup_s"])
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    attempted = sum(r["attempted"] for r in results)
    failures = [label for r in results for label in r["failures"]]
    return metrics, attempted, failures, units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tamper", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "shintani_kit" / "cli.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    try:
        metrics, attempted, failures, units = run(args)
    except (BenchmarkError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    for label in failures:
        print(f"FAILED: {label}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
