#!/usr/bin/env python3
"""Layer cases for GF(p)[t] arithmetic, each timed in a fresh interpreter.

    python3 scripts/bench_fppoly.py [--tree DIR ...] [--out FILE]

Each ``--tree`` is a matsim checkout (default: this one); its ``src`` and
``bench`` directories go on the child's path.  With several trees every case
runs on each in turn, so drift of a shared machine hits them alike.  Cases:

* ``mul`` / ``divmod`` / ``gcd`` at degree d in {8, 32, 128}, p in {2, 3}:
  a product of two degree-d polynomials, a degree-2d dividend by a degree-d
  divisor, and the gcd of two random degree-d polynomials.  Seconds per call,
  median and quartiles over REPEATS repeats (each times a loop of at
  least 0.05 s with ``timeit``).
* ``witness``: ``witness(R, A, V*A*V^-1)`` over FpTLoc(3) with entries of
  degree 8 / 16 / 32 / 64 and over the Eisenstein extension w^2 = t*w of
  FpTLoc(2) with entries of degree 3, built by ``bench/workloads.py``;
  seconds per call over five seeded pairs.
* ``gc_blocks``: the memory blocks (``sys.getallocatedblocks``) that one full
  ``gc.collect()`` releases after 408 ``classify_witness`` ops of seed 1,
  with the automatic collector on as in the benchmark.

Prints one JSON object (also written to ``--out``): the machine, Python, and
per case and tree the figures above.  Standard library only.
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


def cases():
    for op in ("mul", "divmod", "gcd"):
        for p in (2, 3):
            for d in (8, 32, 128):
                yield f"{op}/p{p}/deg{d}", ARITH, [op, p, d, REPEATS]
    for kind, size in (("FpT3", 8), ("FpT3", 16), ("FpT3", 32), ("FpT3", 64), ("EisenF2", 3)):
        yield f"witness/{kind}/deg{size}", WITNESS, [kind, size, 5]
    yield "gc_blocks/classify_witness/408ops", GC_BLOCKS, []


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
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", action="append", type=Path, help="matsim checkout (repeatable)")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    trees = [t.resolve() for t in (args.tree or [ROOT])]
    out = {
        "machine": {"nproc": os.cpu_count(), "platform": platform.platform(), "python": platform.python_version()},
        "trees": [str(t) for t in trees],
        "cases": {},
    }
    for name, code, case_args in cases():
        row = out["cases"][name] = {}
        for tree in trees:
            row[str(tree)] = summary(run_case(tree, code, case_args))
        print(name, "  ".join(f"{r['median']:.6g}" for r in row.values()), file=sys.stderr)
    text = json.dumps(out, indent=1)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
