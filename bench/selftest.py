#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload at its smallest size (``--seconds 1``: the fixed
first ops only) and requires that no op fails, that the answer digests of
the untraced run, the untraced pass and the traced pass agree, and that two
traced runs with the same seed report identical counts.  It then checks that
the workloads separate the layers as BENCHMARK.json and layer_map.json
claim, that those two files agree with the tracer, and that the benchmark
refuses to run in a directory that holds only BENCHMARK.json and bench/.
Exits 1 on the first failed requirement.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SEED = 7

sys.path.insert(0, str(BENCH))


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def ok(msg):
    print(f"ok   {msg}")


def bench(workload, trace, root=ROOT):
    cmd = [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text())["record"]
    return last, record


def is_count(name):
    return not name.endswith(("self_s", "overhead_ratio"))


def check_spec(spec):
    import tracer

    names = [m["name"] for m in spec["per_layer"]]
    produced = set(tracer.Tracer().per_layer(1.0))
    if set(names) != produced:
        fail(f"per_layer metrics differ from the tracer's: {sorted(set(names) ^ produced)}")
    moves = json.loads((BENCH / "layer_map.json").read_text())["moves"]
    if list(moves) != names:
        fail("layer_map.json does not list exactly the per_layer metrics in order")
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, targets in moves.items():
        for target in targets:
            metric, _, workload = target.partition("@")
            if metric not in e2e or workload not in workloads:
                fail(f"layer_map.json: {name} -> {target} names no end-to-end metric of a workload")
    ok("BENCHMARK.json, layer_map.json and the tracer agree")


def layer_self_shares(record):
    shares = {}
    for name, row in record["layers"].items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + row["self_s"]
    return shares


def check_separation(traces):
    calls = {name: row["calls"] for name, row in traces["ideal_lattice"]["layers"].items()
             if name.startswith(("fppoly.", "classify.")) and row["calls"]}
    if calls:
        fail(f"ideal_lattice calls into fppoly/classify: {calls}")
    per_op = {w: traces[w]["per_layer"]["rings.residues.yielded"] / traces[w]["ops"]
              for w in ("class_search", "classify_witness")}
    if per_op["class_search"] < 20 * max(per_op["classify_witness"], 1 / traces["classify_witness"]["ops"]):
        fail(f"residues per op do not separate class_search from classify_witness: {per_op}")
    shares = layer_self_shares(traces["classify_witness"])
    low = shares.pop("fppoly", 0.0) + shares.pop("rings", 0.0)
    if shares and low <= max(shares.values()):
        fail(f"fppoly + rings is not the largest self-time share on classify_witness: {low} vs {shares}")
    ok(f"layers separate: residues per op {per_op}, no fppoly/classify calls on ideal_lattice")


def check_refuses_without_sources():
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(BENCH / "layer_map.json", bare / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "classify_witness", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without matsim sources")
    ok(f"refuses to run without src/ (exit {proc.returncode})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    traces = {}
    for w in (w["name"] for w in spec["workloads"]):
        last, run = bench(w, 0)
        if not last["correct"] or last["failed"]:
            fail(f"{w}: {last['failed']} of {last['attempted']} ops failed: {run['errors']}")
        (t1, r1), (t2, r2) = bench(w, 1), bench(w, 1)
        for t, r in ((t1, r1), (t2, r2)):
            if not t["correct"] or t["failed"]:
                fail(f"{w} traced: {t['failed']} failed ops, digests {r['digest_untraced']} / {r['digest_traced']}")
            if r["digest_traced"] != run["digest"]:
                fail(f"{w}: traced digest {r['digest_traced']} != untraced run {run['digest']}")
        diff = {k: (v, t2["metrics"][k]["value"]) for k, m in t1["metrics"].items()
                if is_count(k) and (v := m["value"]) != t2["metrics"][k]["value"]}
        if diff:
            fail(f"{w}: counts differ between two traced runs: {diff}")
        r1["per_layer"] = {k: m["value"] for k, m in t1["metrics"].items()}
        traces[w] = r1
        ok(f"{w}: {last['attempted']} ops, 0 failed, digest {run['digest'][:16]} traced and untraced, "
           f"counts repeat")
    check_separation(traces)
    check_refuses_without_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
