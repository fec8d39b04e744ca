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
  degree 8 / 16 / 32 / 64, over the Eisenstein extension w^2 = t of
  FpTLoc(2) with entries of degree 3, over ZLoc(2) with 800-bit entries and
  over the unramified extension w^2 = w + 1 of ZLoc(2) with entries of size
  30, built by ``bench/workloads.py``, so each ring kind of the witness
  check has a row.  Each of five seeded pairs is timed WITNESS_CALLS times
  in a row and gives the median of its calls; the row's median and
  quartiles are over those five per-pair medians, in seconds per call.
* ``val``: ``ZLoc(p).val`` of p^k*u (u a 64-bit unit) at k = 10^3 and 10^4,
  p in {2, 3}; seconds per call, as ``arith`` times them.
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
* ``principal``: ``is_principal`` on the ideal generated by 7 + y*w over
  Z[sqrt(-5)], at y = 10^4, 10^5, 10^6; each row after the first also gives
  the growth factor per factor of 10 in y.  The DEEP case, y = 10^30, runs
  on the last ``--tree`` only (a box scan would try 10^30 values of y).
  The answer must be 7 + y*w itself, or the sweep stops.  ``principal/small``
  times ``is_principal`` over 1,500 seeded ideals (x1 + y1*w, x2 + y2*w) with
  entries in [-100, 100], d cycling through -1, -2, -5, -6, -10, in total
  per repeat; the count of principal answers must be PRINCIPAL_SMALL_COUNT
  on every tree, and each generator must regenerate its ideal, or the sweep
  stops.
* ``lattice``: ``is_free`` of J = I*R[theta] over Z[sqrt(-5)], f from
  ``bench/workloads.py``'s lattice polynomials, for 20 seeded ideals
  I = (n, r + w) of norm n ~ 10^k, k = 2, 4, 8, 16, built as
  ``ideal_lattice`` builds its lattices; seconds per lattice, and each row
  after the first the growth factor per factor of 10 in N(I).  Every J
  must come out free (its Steinitz class I^2 is principal, as the class
  group has order 2), or the sweep stops.
* ``lm``: one Latimer-MacDuffee round trip over Z, ``ideal_to_matrix`` of
  ``matrix_to_ideal``, for f = x^n - x - 1 at n = 4, 8, 12, 16, on the
  companion matrix of f and on a conjugate of it by 3n seeded elementary
  moves I + c*E_ij, c in {-2, -1, 1, 2}; seconds per round trip, as
  ``arith`` times them, and each row after the first of its input kind the
  growth factor per unit of degree.  The round trip must give the input
  matrix back, or the sweep stops.
* ``import``: the ``-X importtime`` cumulative microseconds of ``matsim``,
  ``matsim.rings``, ``matsim.polys`` and ``matsim.cli`` when a fresh
  interpreter runs ``import matsim.cli``, over IMPORT_RUNS interpreters per
  row (one more runs first, uncounted, so a bytecode cache it writes is
  not timed).  The import work behind ``bench/run.py``'s ``setup_s``,
  without its run-to-run spread.

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
FAMILIES = ("arith", "witness", "val", "gc", "search", "oracle", "principal", "lattice", "lm", "import")
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
import json, random, statistics, sys, time
import workloads
from matsim import witness
from matsim.rings import QuadExt
kind, size, repeats, calls = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
rings = workloads.dvr_rings()
f2 = rings["FpT2"]
rings["EisenF2"] = QuadExt(f2, 0, f2.uniformizer(), "eisenstein")
ring = rings[kind]
if kind == "ZLoc2":  # size in bits
    size = 2**size
rng = random.Random(7)
pairs = []
for _ in range(repeats):
    A = workloads.witness_matrix(ring, rng, size, 0)
    pairs.append((A, workloads.conjugate(ring, rng, A, 0)))
times = []
for A, B in pairs:
    per_call = []
    for _ in range(calls):
        t0 = time.perf_counter()
        w = witness(ring, A, B)
        per_call.append(time.perf_counter() - t0)
        if not w.check(A, B):
            raise SystemExit("witness failed its check")
    times.append(statistics.median(per_call))
print(json.dumps(times))
"""
WITNESS_CALLS = 7

VAL = """
import random, timeit, json, sys
from matsim.rings import ZLoc
p, k, repeats = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
ring = ZLoc(p)
u = random.Random(k).randrange(2**63, 2**64)
while u % p == 0:
    u += 1
x = ring.coerce(p**k * u)
if ring.val(x) != k:
    raise SystemExit("wrong valuation")
timer = timeit.Timer(lambda: ring.val(x))
number = max(timer.autorange()[0], 1)
while timer.timeit(number) < 0.05:
    number *= 2
print(json.dumps([timer.timeit(number) / number for _ in range(repeats)]))
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
from matsim.oracle import conj_search_mod
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
budget = ring.p ** (4 * sum(ring.levels(N)))
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    found = conj_search_mod(ring, A, B, N, budget)
    times.append(time.perf_counter() - t0)
    if (found is not None) != similar or (found is not None and not found.check_mod(ring, A, B)):
        raise SystemExit("wrong oracle answer")
print(json.dumps(times))
"""

PRINCIPAL = """
import json, sys, time
from matsim.lattices import FracIdealR, QuadBase, is_principal
y, repeats = 10 ** int(sys.argv[1]), int(sys.argv[2])
base = QuadBase(-5)
g = base.elem(7, y)
ideal = FracIdealR.from_elems(base, [g])
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    found = is_principal(base, ideal)
    times.append(time.perf_counter() - t0)
    if found != g:
        raise SystemExit("wrong generator")
print(json.dumps(times))
"""

PRINCIPAL_SMALL = """
import json, random, sys, time
from matsim.lattices import FracIdealR, QuadBase, is_principal
repeats, expected = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(12)
bases = [QuadBase(d) for d in (-1, -2, -5, -6, -10)]
ideals = []
for i in range(1500):
    base = bases[i % len(bases)]
    elems = [base.elem(rng.randint(-100, 100), rng.randint(-100, 100)) for _ in range(2)]
    ideals.append((base, FracIdealR.from_elems(base, elems)))
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    found = [is_principal(base, ideal) for base, ideal in ideals]
    times.append(time.perf_counter() - t0)
principal = [(ideal, g) for (_, ideal), g in zip(ideals, found) if g is not None]
if len(principal) != expected or any(FracIdealR.from_elems(I.base, [g]) != I for I, g in principal):
    raise SystemExit(f"wrong answers: {len(principal)} principal, expected {expected}")
print(json.dumps(times))
"""
PRINCIPAL_SMALL_COUNT = 1221

LATTICE = """
import json, random, sys, time
import workloads
from matsim.lattices import QuadBase, RelExt, is_free, lattice_from_generators, lelem
k, count, repeats = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
rng = random.Random(k)
base = QuadBase(-5)
lattices = []
for _ in range(count):
    ctx = RelExt.from_poly_string(base, rng.choice(workloads.LATTICE_POLYS))
    # I = (n, r + w) with n | r^2 + 5 of size ~10^k: r^2 + 5 over one of its
    # small divisors, as ideal_lattice's generators without its divisor scan
    r = rng.randint(10 ** (k // 2), 3 * 10 ** (k // 2))
    m = r * r + 5
    n = m // rng.choice([g for g in range(1, 50) if m % g == 0])
    lattices.append(lattice_from_generators(ctx, [lelem(ctx, (n, 0, 0, 0)), lelem(ctx, (r % n, 1, 0, 0))]))
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    found = [is_free(J) for J in lattices]
    times.append((time.perf_counter() - t0) / count)
# J = I*R[theta] has Steinitz class I^2, principal as Cl(Z[sqrt -5]) has order 2
free = sum(b is not None for b in found)
if free != count:
    raise SystemExit(f"wrong answers: {free} of {count} lattices free")
print(json.dumps(times))
"""
# log10 of N(I), and lattices per case
LATTICE_CASES = [2, 4, 8, 16]
LATTICE_COUNT = 20

LM = """
import json, random, sys, timeit
from matsim.lm import ZZ, companion, ideal_to_matrix, matrix_to_ideal
from matsim.polys import parse_monic
n, how, repeats = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
f = parse_monic(f"x^{n} - x - 1", ZZ)
A = [[int(x) for x in row] for row in companion(f)]
if how == "conj":
    rng = random.Random(n)
    for _ in range(3 * n):
        # A -> E*A*E^-1 for E = I + c*E_ij: add c * row j to row i, then
        # subtract c * column i from column j
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        for row in A:
            row[j] -= c * row[i]
if ideal_to_matrix(f, matrix_to_ideal(f, A)) != A:
    raise SystemExit("the round trip changed the matrix")
timer = timeit.Timer(lambda: ideal_to_matrix(f, matrix_to_ideal(f, A)))
number = max(timer.autorange()[0], 1)
print(json.dumps([timer.timeit(number) / number for _ in range(repeats)]))
"""
LM_DEGREES = [4, 8, 12, 16]

IMPORT = """
import json, subprocess, sys
module, runs = sys.argv[1], int(sys.argv[2])
times = []
for _ in range(runs + 1):
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import matsim.cli"],
                          capture_output=True, text=True, check=True)
    # "import time: <self us> | <cumulative us> | <module, indented by depth>"
    rows = [line.split("|") for line in proc.stderr.splitlines() if line.startswith("import time:")]
    times.append(next(int(cum) for _, cum, name in rows if name.strip() == module))
print(json.dumps(times[1:]))
"""
IMPORT_MODULES = ("matsim", "matsim.rings", "matsim.polys", "matsim.cli")
IMPORT_RUNS = 10

# log10 of y: the DEEP one on the last tree only
PRINCIPAL_CASES = [4, 5, 6]
DEEP_PRINCIPAL_CASES = [30]

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
        rows = [("FpT3", "deg", 8), ("FpT3", "deg", 16), ("FpT3", "deg", 32), ("FpT3", "deg", 64),
                ("EisenF2", "deg", 3), ("ZLoc2", "bits", 800), ("Unram", "size", 30)]
        for kind, unit, size in rows:
            yield f"witness/{kind}/{unit}{size}", WITNESS, [kind, size, 5, WITNESS_CALLS], False
    if "val" in families:
        for p in (2, 3):
            for k in (10**3, 10**4):
                yield f"val/ZLoc{p}/k{k}", VAL, [p, k, REPEATS], False
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
    if "principal" in families:
        for deep, group in ((False, PRINCIPAL_CASES), (True, DEEP_PRINCIPAL_CASES)):
            for k in group:
                yield f"principal/d-5/y1e{k}", PRINCIPAL, [k, SEARCH_REPEATS], deep
        yield "principal/small", PRINCIPAL_SMALL, [SEARCH_REPEATS, PRINCIPAL_SMALL_COUNT], False
    if "lattice" in families:
        for k in LATTICE_CASES:
            yield f"lattice/ideal/N1e{k}", LATTICE, [k, LATTICE_COUNT, SEARCH_REPEATS], False
    if "lm" in families:
        for how in ("companion", "conj"):
            for n in LM_DEGREES:
                yield f"lm/{how}/deg{n}", LM, [n, how, REPEATS], False
    if "import" in families:
        for module in IMPORT_MODULES:
            yield f"import/{module}", IMPORT, [module, IMPORT_RUNS], False


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


# family -> the separator before a row's level: N for oracle, log10 y for
# principal, log10 N(I) for lattice, deg f for lm
LEVELS = {"oracle": "/N", "principal": "/y1e", "lattice": "/N1e", "lm": "/deg"}


def add_growth(out, name):
    """For an oracle, principal, lattice or lm row at some level, each tree's factor per
    level against the row of the same group at the highest lower level that
    ran on it."""
    mark = LEVELS.get(name.partition("/")[0])
    group, sep, level = name.rpartition(mark) if mark else ("", "", "")
    if not sep:
        return
    lower = [(int(k.rpartition(mark)[2]), k) for k in out if k.startswith(group + mark)]
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
