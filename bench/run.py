#!/usr/bin/env python3
"""The matsim benchmark: four seeded closed-loop workloads over the public API.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workload runs in a child interpreter
with ``PYTHONPATH=src`` (see ``bench/worker.py``).  ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``: throughput and latency of verified
ops, the set-up time of a fresh interpreter (median of several), and the
workload process's peak RSS.  ``--trace 1`` runs the traced pass and prints
the per-layer metrics.  The last stdout line is one JSON object; the full
record, with the machine facts and the answer digest, goes to
``bench/results/``.  Exit code 2 means the benchmark could not run (no
matsim sources, a crashed or hung worker).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(args, timeout):
    """Runs bench/worker.py against ROOT/src; returns (parsed last line, wall seconds)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish in {timeout} s") from exc
    wall = perf_counter() - t0
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    src = Path(out["matsim"]).resolve()
    if ROOT / "src" not in src.parents:
        raise BenchError(f"matsim was imported from {src}, not from this checkout")
    return out, wall


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(),
        "cpu_pinning": "none; the benchmark shares the machine's cores with other work",
    }


def run(args, spec):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.json.gz"
        out, _ = worker([*common, "--mode", "trace", "--spans", str(spans)], WORKER_TIMEOUT_S)
        names = [m["name"] for m in spec["per_layer"]]
        missing = [n for n in names if n not in out["per_layer"]]
        if missing:
            raise BenchError(f"traced run lacks per-layer metrics {missing}")
        values = {n: out["per_layer"][n] for n in names}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        attempted = 2 * out["ops"]
        correct = out["failed"] == 0 and out["digest_traced"] == out["digest_untraced"]
        record = {k: v for k, v in out.items() if k != "per_layer"}
        summary = [
            f"traced {out['ops']} ops ({out['spans']} spans, written to {spans.relative_to(ROOT)})",
            f"answer digest untraced {out['digest_untraced'][:16]}, traced {out['digest_traced'][:16]}",
        ]
    else:
        out, _ = worker([*common, "--mode", "run", "--seconds", str(args.seconds)], WORKER_TIMEOUT_S)
        setup = [worker(["--workload", args.workload, "--mode", "setup"], SETUP_TIMEOUT_S)[1]
                 for _ in range(SETUP_REPEATS)]
        values = {
            "ops_per_s": out["ops_per_s"],
            "op_p50_ms": out["op_p50_ms"],
            "op_p90_ms": out["op_p90_ms"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        attempted = out["ops"]
        correct = out["failed"] == 0
        record = {k: v for k, v in out.items() if k not in values}
        record["setup_runs_s"] = setup
        summary = [
            f"ops {out['ops']}  failed {out['failed']}  failed_ratio {out['failed_ratio']:.6g}  "
            f"(op_p90_ms is the {100 * out['op_p90_quantile']:.1f}th percentile)",
            f"answer digest {out['digest']} over the first {out['digest_ops']} ops",
        ]
    # a failed op counts as infinitely slow; JSON has no infinity
    values = {k: v if math.isfinite(v) else sys.float_info.max for k, v in values.items()}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    doc = {"correct": correct, "attempted": attempted, "failed": out["failed"], "metrics": metrics}
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "machine": machine(), "result": doc, "record": record}
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(f"matsim benchmark  workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {full['machine']['nproc']}  python {full['machine']['python']}")
    for line in summary:
        print("  " + line)
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    if out.get("errors"):
        print("  errors: " + "; ".join(out["errors"]))
    print(json.dumps(doc))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        if not (ROOT / "src" / "matsim" / "__init__.py").is_file():
            raise BenchError(f"no matsim sources under {ROOT / 'src'}")
        run(args, spec)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
