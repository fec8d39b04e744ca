"""One benchmark process: set-up probe, timed closed loop, or traced pass.

Started by ``bench/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``; prints one JSON object on its last stdout line.

* ``--mode setup``: import matsim (and matsim.cli for cli_jobs), build the
  workload's rings, exit.  ``run.py`` times the whole interpreter.
* ``--mode run``: a closed loop with one client.  Inputs come from the seed
  before timing starts; each op is timed alone and then checked.  The loop
  runs until ``--seconds`` of wall time have passed (checks included) and
  at least ``trace_ops`` ops and one full cycle of slots are done; the
  answer digest covers the first ``trace_ops`` ops, so it does not depend
  on the speed of the machine.
* ``--mode trace``: the first ``trace_ops`` inputs, once untraced and once
  traced; reports the per-layer metrics and writes the spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from time import perf_counter, perf_counter_ns

import matsim
import workloads
from workloads import WORKLOADS, CheckFailed


def run_ops(work, inputs, count, deadline=None, tracer=None, digest_ops=None):
    """Runs ops in a closed loop; returns per-op (slot, ns, error) and the digest
    of the first ``digest_ops`` (default ``count``) answers."""
    digest_ops = count if digest_ops is None else digest_ops
    records = []
    digest = hashlib.sha256()
    i = 0
    while i < count or (deadline is not None and perf_counter() < deadline):
        x = inputs[i % len(inputs)]
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter_ns()
        try:
            ans = work.run(x)
            err = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            err = f"{type(exc).__name__}: {exc}"
        ns = perf_counter_ns() - t0
        if tracer is not None:
            tracer.active = False
        if err is None:
            try:
                canon = work.check(x, ans)
            except CheckFailed as exc:
                err = f"check: {exc}"
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if i < digest_ops:
            digest.update((f"FAILED {err}" if err else canon).encode() + b"\n")
        records.append((x.slot, ns, err))
        i += 1
    return records, digest.hexdigest()


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def cycle_rate(records):
    return sum(1 for _, _, err in records if err is None) / (sum(ns for _, ns, _ in records) / 1e9)


def summarize(records, cycle):
    """End-to-end figures of one loop; a failed op counts as infinitely slow.

    Throughput is taken per full cycle of ``cycle`` slots, each cycle being
    the same op mix, and the median over cycles is reported, so a burst of
    load from other work on the machine moves it less than a mean would.
    """
    times = sorted(ns / 1e6 if err is None else math.inf for _, ns, err in records)
    n = len(times)
    ok = sum(1 for _, _, err in records if err is None)
    op_time_s = sum(ns for _, ns, _ in records) / 1e9
    rates = [cycle_rate(records[k:k + cycle]) for k in range(0, n - cycle + 1, cycle)]
    # the highest percentile up to 90 that leaves at least 10 samples above it
    q90 = min(0.9, (n - 10) / n) if n > 10 else 0.5
    slots = {}
    for slot, ns, err in records:
        slots.setdefault(slot, []).append(ns / 1e6)
    return {
        "ops": n,
        "failed": n - ok,
        "failed_ratio": (n - ok) / n,
        "op_time_s": op_time_s,
        "cycles": len(rates),
        "ops_per_s": statistics.median(rates),
        "ops_per_s_mean": ok / op_time_s,
        "op_p50_ms": statistics.median(times),
        "op_p90_ms": nearest_rank(times, q90),
        "op_p90_quantile": q90,
        "errors": sorted({err for _, _, err in records if err})[:5],
        "slots": {
            slot: {"ops": len(v), "p50_ms": statistics.median(v), "mean_ms": statistics.fmean(v)}
            for slot, v in sorted(slots.items())
        },
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def emit(out):
    out["matsim"] = matsim.__file__
    print(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--spans", help="trace mode: where to write the spans (gzip JSON)")
    args = ap.parse_args(argv)
    work = WORKLOADS[args.workload]

    if args.mode == "setup":
        emit({"rings": sorted(work.rings())})
        return 0

    if args.mode == "run":
        # a loop that outruns its input pool starts over at input 0
        cycles = math.ceil(args.seconds * work.pool_cycles_per_s) + 1
        inputs = work.inputs(args.seed, max(cycles * len(work.SLOTS), work.trace_ops))
        gc.collect()
        t0 = perf_counter()
        min_ops = max(work.trace_ops, len(work.SLOTS))
        records, digest = run_ops(work, inputs, min_ops, deadline=t0 + args.seconds, digest_ops=work.trace_ops)
        out = summarize(records, len(work.SLOTS))
        out.update(wall_s=perf_counter() - t0, digest=digest, peak_rss_mb=peak_rss_mb(),
                   digest_ops=work.trace_ops)
        emit(out)
        return 0

    from tracer import Tracer

    inputs = work.inputs(args.seed, work.trace_ops)
    gc.collect()
    t0 = perf_counter()
    plain, digest_plain = run_ops(work, inputs, work.trace_ops)
    plain_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install(extra_namespaces=(workloads,))
    try:
        gc.collect()
        t0 = perf_counter()
        traced, digest_traced = run_ops(work, inputs, work.trace_ops, tracer=tracer)
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
    # the overhead compares op time only; checks run untraced in both passes
    overhead = sum(ns for _, ns, _ in traced) / sum(ns for _, ns, _ in plain)
    out = {
        "ops": len(traced),
        "failed": sum(1 for _, _, err in plain + traced if err),
        "errors": sorted({err for _, _, err in plain + traced if err})[:5],
        "digest_untraced": digest_plain,
        "digest_traced": digest_traced,
        "untraced_wall_s": plain_s,
        "traced_wall_s": traced_s,
        "per_layer": tracer.per_layer(overhead),
        "spans": len(tracer.start),
        "layers": tracer.table(),
    }
    if args.spans:
        tracer.write_spans(args.spans)
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
