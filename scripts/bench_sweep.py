#!/usr/bin/env python3
"""Scaling sweeps of matsim, each case timed in a fresh interpreter.

    python3 scripts/bench_sweep.py [--tree DIR ...] [--family F ...] [--out FILE]
    python3 scripts/bench_sweep.py --tree BASE --tree CHANGE \\
        (--e2e | --traced) WORKLOAD [--pairs 10] [--seed-base 0] [--out FILE]

Each ``--tree`` is a matsim checkout (default: this one); its ``src`` and
``bench`` directories go on the child's path.  With several trees every case
runs on each in turn, the order alternating from case to case, so drift of a
shared machine hits them alike.  Families (``--family``, default all):

* ``arith``: ``mul`` / ``divmod`` / ``gcd`` at degree d in {8, 32, 128},
  p in {2, 3}: a product of two degree-d polynomials, a degree-2d dividend
  by a degree-d divisor, and the gcd of two random degree-d polynomials.
  Seconds per call, median and quartiles over REPEATS repeats (each times a
  loop of at least 0.05 s with ``timeit``).
* ``witness``: ``witness(R, A, V*A*V^-1)`` over FpTLoc(3) with entries of
  degree 8 / 16 / 32 / 64 and over the Eisenstein extension w^2 = t*w of
  FpTLoc(2) with entries of degree 3, built by ``bench/workloads.py``;
  seconds per call over five seeded pairs.
* ``gc``: the memory blocks (``sys.getallocatedblocks``) that one full
  ``gc.collect()`` releases after 408 ``classify_witness`` ops of seed 1,
  with the automatic collector on as in the benchmark.
* ``search``: one ``class_search`` op (``class_number`` + ``class_list``)
  over FpTLoc(2), built by ``bench/workloads.py``: Char2Sep at v(a) = k with
  m + 1 classes (m = 1 costs an enumeration the most, m = k a lift), and
  Insep at index bound n with its top level at ``s // 2`` (s = 1 costs an
  enumeration the most, s > 2n a lift).  Each answer goes through the
  workload's own check (class count, and every canonical matrix
  reclassifies to its form); a wrong answer stops the sweep.  The DEEP
  cases run on the last ``--tree`` only: a residue enumeration would take
  years there.
* ``oracle``: ``conj_search_mod`` at level N over ZLoc(3), for a similar
  pair (x^2 - 18's first class and a conjugate of it) and a non-similar one
  (its two classes), at N = 3, 4, 5; each row after the first of its pair
  kind also gives the growth factor per level against the one before.  The
  DEEP cases, on the last ``--tree`` only (the listing grew x12 per level),
  are N = 10, 20, 40 over ZLoc(3) and N = 20 over the Eisenstein extension
  w^2 = t of FpTLoc(2), where the non-similar pair differs in trace by
  pi^(N-1).  A witness must pass ``check_mod`` and a non-similar pair must
  give None, or the sweep stops.

``--e2e`` instead runs ``bench/run.py --trace 0`` unchanged (its own run
length) in each tree, ``--pairs`` times: pair i uses seed
``seed-base + i + 1`` on both trees, and even pairs run the first tree first.
The first tree is the base, the last the change.  Per metric of
``BENCHMARK.json`` it reports each tree's median and quartiles, how many
pairs the change won, the ratio of the medians, whether the change gains by
the benchmark's rule (wins at least 9 pairs in 10, and its median is better
by more than the base's IQR) and whether it stays within the metric's bound.
``--traced`` runs ``bench/run.py --trace 1`` for the same seeds and reports,
per seed, whether every answer digest (traced and untraced, on each tree)
is the same, and each tree's per-layer metrics.

Trees are named by their directory names.  Prints one JSON object; with
``--out`` it is also merged into FILE (sections ``cases``, ``e2e`` and
``traced``; an e2e or traced entry is keyed ``WORKLOAD/seedsA-B``), so one
file collects several runs.  Standard library only.
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

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 7
FAMILIES = ("arith", "witness", "gc", "search", "oracle")
SEARCH_REPEATS = 5
BENCH_TIMEOUT_S = 900  # bench/run.py: its worker, five set-up runs, and tracing

ARITH = """
import random, timeit, json, sys
from matsim.fppoly import FpPoly
op, p, d, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
rng = random.Random(1000 * p + d)
def poly(deg):
    return FpPoly(p, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
if op == "mul":
    a, b = poly(d), poly(d)
    call = lambda: a * b
elif op == "divmod":
    a, b = poly(2 * d), poly(d)
    call = lambda: divmod(a, b)
else:
    a, b = poly(d), poly(d)
    call = lambda: a.gcd(b)
timer = timeit.Timer(call)
number = max(timer.autorange()[0], 1)
while timer.timeit(number) < 0.05:
    number *= 2
print(json.dumps([timer.timeit(number) / number for _ in range(repeats)]))
"""

WITNESS = """
import json, random, sys, time
import workloads
from matsim import witness
from matsim.rings import FpTLoc, QuadExt
kind, size, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if kind == "FpT3":
    ring = FpTLoc(3)
else:
    f2 = FpTLoc(2)
    ring = QuadExt(f2, 0, f2.uniformizer(), "eisenstein")
rng = random.Random(7)
pairs = []
for _ in range(repeats):
    A = workloads.witness_matrix(ring, rng, size, 0)
    pairs.append((A, workloads.conjugate(ring, rng, A, 0)))
times = []
for A, B in pairs:
    t0 = time.perf_counter()
    w = witness(ring, A, B)
    times.append(time.perf_counter() - t0)
    if not w.check(A, B):
        raise SystemExit("witness failed its check")
print(json.dumps(times))
"""

GC_BLOCKS = """
import gc, json, sys
import workloads
work = workloads.WORKLOADS["classify_witness"]
inputs = work.inputs(1, 408)
gc.collect()
for x in inputs:
    work.run(x)
before = sys.getallocatedblocks()
gc.collect()
print(json.dumps([before - sys.getallocatedblocks()]))
"""

SEARCH = """
import json, random, sys, time
import workloads
from matsim.rings import FpTLoc
kind, size, level, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
search = workloads.ClassSearch()
make = search._char2sep if kind == "char2sep" else search._insep
x = make(kind, FpTLoc(2), random.Random(size), size, level)
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    ans = search.run(x)
    times.append(time.perf_counter() - t0)
    search.check(x, ans)
print(json.dumps(times))
"""

ORACLE = """
import json, sys, time
from matsim.classify import Mat2, pi_pow
from matsim.oracle import conj_search_mod, quotient_size
from matsim.rings import FpTLoc, QuadExt, ZLoc
kind, N, similar, repeats = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "similar", int(sys.argv[4])
if kind == "ZLoc3":
    ring = ZLoc(3)
    A, other = Mat2(ring, [[0, 1], [18, 0]]), Mat2(ring, [[0, 3], [6, 0]])
else:
    f2 = FpTLoc(2)
    ring = QuadExt(f2, 0, f2.uniformizer(), "eisenstein")
    w = ring.gen()
    A = Mat2(ring, [[w, 1], [f2.uniformizer(), 0]])
    other = Mat2(ring, [[A[0][0] + pi_pow(ring, N - 1), A[0][1]], [A[1][0], A[1][1]]])
V = Mat2(ring, [[1, 1], [1, 2]])
B = (V @ A) @ V.inv() if similar else other
budget = quotient_size(ring, N) ** 4
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    found = conj_search_mod(ring, A, B, N, budget)
    times.append(time.perf_counter() - t0)
    if (found is not None) != similar or (found is not None and not found.check_mod(ring, A, B)):
        raise SystemExit("wrong oracle answer")
print(json.dumps(times))
"""

# (ring, N): the DEEP ones on the last tree only
ORACLE_CASES = [("ZLoc3", 3), ("ZLoc3", 4), ("ZLoc3", 5)]
DEEP_ORACLE_CASES = [("ZLoc3", 10), ("ZLoc3", 20), ("ZLoc3", 40), ("EisenF2", 20)]

# (kind, size, level): Char2Sep (v(a), m), Insep (bound, s)
SEARCH_CASES = [("char2sep", k, 1) for k in range(3, 8)] + [("insep", n, 1) for n in range(8, 15)]
DEEP_SEARCH_CASES = [("char2sep", 16, 1), ("char2sep", 64, 1), ("char2sep", 64, 64), ("insep", 60, 121),
                     ("insep", 200, 399)]


def cases(families):
    if "arith" in families:
        for op in ("mul", "divmod", "gcd"):
            for p in (2, 3):
                for d in (8, 32, 128):
                    yield f"{op}/p{p}/deg{d}", ARITH, [op, p, d, REPEATS], False
    if "witness" in families:
        for kind, size in (("FpT3", 8), ("FpT3", 16), ("FpT3", 32), ("FpT3", 64), ("EisenF2", 3)):
            yield f"witness/{kind}/deg{size}", WITNESS, [kind, size, 5], False
    if "gc" in families:
        yield "gc_blocks/classify_witness/408ops", GC_BLOCKS, [], False
    if "search" in families:
        for deep, group in ((False, SEARCH_CASES), (True, DEEP_SEARCH_CASES)):
            for kind, size, level in group:
                label = f"va{size}-m{level}" if kind == "char2sep" else f"bound{size}-s{level}"
                yield f"search/{kind}/{label}", SEARCH, [kind, size, level, SEARCH_REPEATS], deep
    if "oracle" in families:
        for deep, group in ((False, ORACLE_CASES), (True, DEEP_ORACLE_CASES)):
            for ring, N in group:
                for pair in ("similar", "nonsimilar"):
                    yield f"oracle/{ring}/{pair}/N{N}", ORACLE, [ring, N, pair, SEARCH_REPEATS], deep


def run_case(tree, code, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "bench")]), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True, timeout=600
    )
    if proc.returncode != 0:
        raise SystemExit(f"case {args} failed on {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "iqr": q[2] - q[0], "values": values}


def sweep(trees, families):
    out = {}
    for idx, (name, code, case_args, deep) in enumerate(cases(families)):
        order = trees[-1:] if deep else (trees if idx % 2 == 0 else trees[::-1])
        row = {tree.name: summary(run_case(tree, code, case_args)) for tree in order}
        out[name] = {tree.name: row[tree.name] for tree in trees if tree.name in row}
        add_growth(out, name)
        print(name, "  ".join(f"{r['median']:.6g}" for r in out[name].values()), file=sys.stderr)
    return out


def add_growth(out, name):
    """For an oracle row at level N, each tree's factor per level against the
    row of the same ring and pair at the highest lower level that ran on it."""
    group, sep, level = name.rpartition("/N")
    if not name.startswith("oracle/") or not sep:
        return
    lower = [(int(k.rpartition("/N")[2]), k) for k in out if k.startswith(group + "/N")]
    for tree, row in out[name].items():
        prev = max(((n, k) for n, k in lower if n < int(level) and tree in out[k]), default=None)
        if prev is not None:
            ratio = row["median"] / out[prev[1]][tree]["median"]
            row["growth_per_level"] = ratio ** (1 / (int(level) - prev[0]))


def run_bench(tree, workload, seed, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=BENCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed on {tree}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        stem = f"{workload}-seed{seed}-trace1.json"
        doc["record"] = json.loads((tree / "bench" / "results" / stem).read_text())["record"]
    return doc


def e2e(trees, workload, seeds):
    """Alternating bench/run.py pairs, one seed per pair."""
    runs = {t.name: [] for t in trees}
    for i, seed in enumerate(seeds):
        for tree in trees if i % 2 == 0 else trees[::-1]:
            res = run_bench(tree, workload, seed, 0)
            runs[tree.name].append(res)
            print(workload, seed, tree.name, {k: m["value"] for k, m in res["metrics"].items()}, file=sys.stderr)
    return pair_summary(trees, runs, seeds)


def pair_summary(trees, runs, seeds):
    """Per metric: each tree's median and quartiles, and the change against the base."""
    base, change = trees[0].name, trees[-1].name
    spec = json.loads((trees[0] / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {}
    for m in spec:
        per = {t: [r["metrics"][m["name"]]["value"] for r in rs] for t, rs in runs.items()}
        row = {t: summary(v) for t, v in per.items()}
        sign = 1 if m["better"] == "higher" else -1
        wins = sum(sign * (c - b) > 0 for b, c in zip(per[base], per[change]))
        b, c = row[base]["median"], row[change]["median"]
        metrics[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"], **row,
            "change_wins": f"{wins}/{len(seeds)}",
            "median_ratio": c / b,
            "gain": wins >= 0.9 * len(seeds) and sign * (c - b) > row[base]["iqr"],
            "within_bound": sign * (b - c) / b <= m["bound"],
        }
    return {"seeds": seeds, "failed_ops": {t: sum(r["failed"] for r in rs) for t, rs in runs.items()},
            "attempted_ops": {t: sum(r["attempted"] for r in rs) for t, rs in runs.items()}, "metrics": metrics}


def traced(trees, workload, seeds):
    """Per seed: one traced bench/run.py in each tree, its digests and per-layer metrics."""
    out = {}
    for seed in seeds:
        recs = {t.name: run_bench(t, workload, seed, 1) for t in trees}
        digests = {r["record"][k] for r in recs.values() for k in ("digest_traced", "digest_untraced")}
        names = next(iter(recs.values()))["metrics"]
        out[f"seed{seed}"] = {
            "digests_equal": len(digests) == 1, "digests": sorted(digests),
            "failed": {t: r["failed"] for t, r in recs.items()},
            "per_layer": {n: {t: r["metrics"][n]["value"] for t, r in recs.items()} for n in names},
        }
        print(workload, seed, "digests equal" if len(digests) == 1 else "DIGESTS DIFFER", file=sys.stderr)
    return out


def cpu_model():
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("model name")), platform.processor())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", type=Path, help="matsim checkout (repeatable)")
    ap.add_argument("--family", action="append", choices=FAMILIES)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--e2e", metavar="WORKLOAD", help="run bench/run.py pairs instead of the sweep")
    mode.add_argument("--traced", metavar="WORKLOAD", help="run traced bench/run.py per seed and tree")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    trees = [t.resolve() for t in (args.tree or [ROOT])]
    if len({t.name for t in trees}) < len(trees):
        ap.error("the trees need distinct directory names")
    seeds = [args.seed_base + i + 1 for i in range(args.pairs)]
    out = {
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(), "platform": platform.platform(),
                    "python": platform.python_version()},
        "trees": {t.name: str(t) for t in trees},
    }
    if args.e2e or args.traced:
        key = f"{args.e2e or args.traced}/seeds{seeds[0]}-{seeds[-1]}"
        section = "e2e" if args.e2e else "traced"
        out[section] = {key: (e2e if args.e2e else traced)(trees, args.e2e or args.traced, seeds)}
    else:
        section = "cases"
        out[section] = sweep(trees, args.family or FAMILIES)
    print(json.dumps(out, indent=1))
    if args.out:
        merged = json.loads(args.out.read_text()) if args.out.exists() else out
        merged.setdefault(section, {}).update(out[section])
        args.out.write_text(json.dumps(merged, indent=1) + "\n")


if __name__ == "__main__":
    main()
