"""Run-time tracing of matsim's layers, from the benchmark's own files.

``Tracer.install()`` replaces the public functions of every matsim module,
and a few methods that carry the arithmetic, with wrappers that record a
span per call: name, start, end and the span that was open when the call
began.  A wrapped function is replaced in every namespace that imported it
(``pi_pow`` in ``classify`` and ``oracle``, ``smith_normal_form`` in
``oracle``, ``hnf_int``/``solve_int`` in ``lattices``, the subcommand table
of ``cli``, ...).  ``uninstall()`` puts the originals back, so untraced code
in the same process runs unchanged.

Spans stay in memory as flat arrays and are written out at the end.  A
span's self time is its duration minus the time of the spans it caused.
Residue enumeration (``rings.*.residues``) is a generator, so it gets no
span: each step of it is timed on its own, its time is taken out of the
enclosing span, and its yields are counted against that enclosing span.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
from array import array
from math import isqrt
from time import perf_counter_ns

LAYERS = ("rings", "fppoly", "polys", "classify", "oracle", "intlin", "lm", "lattices", "cli")

# public functions whose span name is not "<module>.<function>"
ALIASES = {"intlin.hnf_int": "intlin.hnf", "intlin.smith_normal_form": "intlin.snf"}

# methods that carry the arithmetic: span name -> (module, class, attribute)
METHODS = {
    "fppoly.mul": [("fppoly", "FpPoly", "__mul__"), ("fppoly", "FpPoly", "__rmul__")],
    "fppoly.divmod": [("fppoly", "FpPoly", "__divmod__")],
    "fppoly.gcd": [("fppoly", "FpPoly", "gcd")],
    "fppoly.rat_new": [("fppoly", "FpRat", "__init__")],
    "rings.val": [("rings", cls, "val") for cls in ("ZLoc", "FpTLoc", "QuadExt")],
    "rings.ext_mul": [("rings", "ExtElem", "__mul__"), ("rings", "ExtElem", "__rmul__")],
    "rings.ext_div": [("rings", "ExtElem", "__truediv__"), ("rings", "ExtElem", "__rtruediv__")],
    "rings.parse": [("rings", cls, "parse") for cls in ("ZLoc", "FpTLoc", "QuadExt")],
}
RESIDUES = "rings.residues"
RESIDUE_METHODS = [("rings", cls, "residues") for cls in ("ZLoc", "FpTLoc", "QuadExt")]

# spans whose calls and self time are per-layer metrics
SPAN_METRICS = (
    "fppoly.mul", "fppoly.divmod", "fppoly.gcd", "fppoly.rat_new",
    "rings.val", "rings.ext_mul", "rings.ext_div", "rings.parse",
    "classify.compute_m", "classify.class_list", "classify.to_canonical", "classify.pi_pow",
    "polys.quad_factor", "oracle.conj_search_mod", "intlin.snf", "intlin.hnf", "intlin.solve_int",
    "lm.matrix_to_ideal", "lm.ideal_to_matrix", "lm.reduce_form", "lm.equivalent",
    "lattices.lattice_from_generators", "lattices.is_free", "lattices.is_principal",
    "cli.main", "polys.parse_monic",
)

_DONE = object()


def _coeff_ops(args):
    a, b = args[0], args[1]
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


class Tracer:
    """Span recorder; ``active`` is False outside the traced pass and in checks."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.calls = []
        self.self_ns = []
        self.extra = []  # per-name counter: coeff_ops, yields, box points
        self.yielded_by = []  # residue yields attributed to the enclosing span
        self.stack = []  # frames [span id, child ns, name id]
        self.active = False
        self.in_residues = False
        self.candidates = 0
        self.hits = 0
        self._restore = []
        self.res_id = self._id(RESIDUES)

    def _id(self, name):
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.extra.append(0)
            self.yielded_by.append(0)
        return nid

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, count=None):
        nid = self._id(name)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            if count is not None:
                rec.extra[nid] += count(args)
            stack = rec.stack
            sid = len(rec.start)
            rec.parent.append(stack[-1][0] if stack else -1)
            rec.name.append(nid)
            rec.end.append(0)
            frame = [sid, 0, nid]
            stack.append(frame)
            t0 = perf_counter_ns()
            rec.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                rec.end[sid] = t1
                rec.calls[nid] += 1
                rec.self_ns[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _residues(self, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(ring, N):
            gen = fn(ring, N)
            if not rec.active or rec.in_residues:
                return gen  # a nested enumeration counts as part of the outer one
            return rec._count_yields(gen)

        return wrapper

    def _count_yields(self, gen):
        stack = self.stack
        res = self.res_id
        while True:
            if not self.active:
                yield from gen
                return
            top = stack[-1] if stack else None
            frame = [top[0] if top else -1, 0, res]
            stack.append(frame)
            self.in_residues = True
            t0 = perf_counter_ns()
            try:
                item = next(gen, _DONE)
            finally:
                t1 = perf_counter_ns()
                self.in_residues = False
                stack.pop()
            dur = t1 - t0
            self.self_ns[res] += dur - frame[1]
            if top is not None:
                top[1] += dur
            if item is _DONE:
                return
            self.extra[res] += 1
            if top is not None:
                self.yielded_by[top[2]] += 1
            yield item

    def _box_points(self, args):
        """Sum of isqrt(N/|d|) + 1 over the integral scaling of the ideal."""
        base, ideal = args[0], args[1]
        active, self.active = self.active, False
        try:
            den = ideal.den_scalar()
            N = int(ideal.norm_index() * den * den)
            return isqrt(N // -base.d) + 1
        finally:
            self.active = active

    def _candidates(self, fn):
        """Counts the congruence solutions and those with a unit determinant."""
        rec = self

        @functools.wraps(fn)
        def wrapper(ring, *args, **kwargs):
            out = fn(ring, *args, **kwargs)
            if rec.active:
                rec.active = False
                try:
                    rec.candidates += len(out)
                    rec.hits += sum(1 for U in out if ring.val(U.det()) == 0)
                finally:
                    rec.active = True
            return out

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def install(self, extra_namespaces=()):
        modules = {layer: importlib.import_module(f"matsim.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module("matsim"), *modules.values(), *extra_namespaces]
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = ALIASES.get(f"{layer}.{attr}", f"{layer}.{attr}")
                count = self._box_points if name == "lattices.is_principal" else None
                replaced[obj] = self._span(obj, name, count)
        solve = modules["oracle"]._solve_congruence
        replaced[solve] = self._candidates(solve)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in replaced:
                            self._set_item(obj, key, replaced[val])
                elif inspect.isfunction(obj) and obj in replaced:
                    self._set_attr(ns, attr, replaced[obj])
        for name, sites in METHODS.items():
            wrappers = {}
            for mod, cls, attr in sites:
                owner = getattr(modules[mod], cls)
                fn = vars(owner)[attr]
                if fn not in wrappers:
                    wrappers[fn] = self._span(fn, name, _coeff_ops if name == "fppoly.mul" else None)
                self._set_attr(owner, attr, wrappers[fn])
        for mod, cls, attr in RESIDUE_METHODS:
            owner = getattr(modules[mod], cls)
            self._set_attr(owner, attr, self._residues(vars(owner)[attr]))

    def _set_attr(self, owner, attr, value):
        self._restore.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append(functools.partial(mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def _get(self, name, table):
        nid = self.ids.get(name)
        return 0 if nid is None else table[nid]

    def per_layer(self, overhead_ratio):
        """Every per-layer metric of the benchmark, by name."""
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.calls"] = self._get(name, self.calls)
            out[f"{name}.self_s"] = self._get(name, self.self_ns) / 1e9
        out["fppoly.mul.coeff_ops"] = self._get("fppoly.mul", self.extra)
        out["rings.residues.yielded"] = self._get(RESIDUES, self.extra)
        out["rings.residues.self_s"] = self._get(RESIDUES, self.self_ns) / 1e9
        calls = out["classify.compute_m.calls"]
        yields = self._get("classify.compute_m", self.yielded_by)
        out["classify.compute_m.residues_per_call"] = yields / calls if calls else 0.0
        out["oracle.conj_search_mod.candidates"] = self.candidates
        out["oracle.conj_search_mod.hit_ratio"] = self.hits / self.candidates if self.candidates else 0.0
        out["lattices.is_principal.box_points"] = self._get("lattices.is_principal", self.extra)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def table(self):
        """calls / self time / counters of every span name that was entered."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "counter": self.extra[i],
                "residues_yielded_inside": self.yielded_by[i],
            }
            for i, name in enumerate(self.names)
            if self.calls[i] or self.extra[i]
        }

    def write_spans(self, path):
        """All spans as columns; times are perf_counter_ns, parent -1 is a root."""
        doc = {
            "names": self.names,
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
