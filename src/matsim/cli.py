"""JSON command-line interface.

One job per invocation: a subcommand, a ring descriptor, and a JSON payload.
Results are emitted as canonical JSON (sorted keys, LF) so identical jobs
produce byte-identical output.  Boolean answers never drive nonzero exit
codes; only operational failures do:

    exit 0  success (including "similar": false)
    exit 2  malformed input (JSON, ring descriptor, element syntax)
    exit 3  precondition violation reported by the library
    exit 4  internal invariant violated (a library defect; please report)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import lattices as lat
from . import lm
from .classify import (
    GL2Witness,
    LowerBound,
    Mat2,
    Reducible,
    canonical_matrix,
    class_list,
    class_number,
    classify,
    to_canonical,
    witness,
)
from .errors import InvariantViolation, MatsimError, invariant
from .oracle import DEFAULT_BUDGET, conj_search_mod
from .polys import parse_monic
from .rings import ring_from_json


class InputError(Exception):
    """Bad input syntax: exit code 2."""


def _read_source(arg):
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return fh.read()
    return arg


def _load_json(arg, what):
    try:
        return json.loads(_read_source(arg))
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {what}: {exc}") from exc


def _ring(args, allow_zz=False):
    if args.ring is None:
        raise InputError("--ring is required for this command")
    doc = _load_json(args.ring, "--ring")
    try:
        if isinstance(doc, dict) and doc.get("kind") == "ZZ":
            if not allow_zz:
                raise InputError("ring ZZ is only valid for lm-* commands")
            return lm.ZZ
        return ring_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad ring descriptor: {exc}") from exc


def _parse_rows(ring, doc, key):
    """doc[key] as a list of rows of ring elements."""
    try:
        return [[_parse_elem(ring, x) for x in row] for row in doc[key]]
    except MatsimError:
        raise
    except Exception as exc:
        raise InputError(f"bad {key!r}: {exc}") from exc


def _parse_matrix(ring, doc, key):
    return Mat2(ring, _parse_rows(ring, doc, key))


def _parse_elem(ring, x):
    if isinstance(x, str):
        return ring.parse(x)
    if type(x) is int:
        return ring.from_int(x)
    raise InputError(f"matrix entries must be strings or integers, got {x!r}")


def _oracle_level(doc):
    """The oracle level N of a payload: a JSON integer >= 1, 3 when absent."""
    N = doc.get("N", 3)
    if type(N) is not int or N < 1:
        raise InputError(f"N must be an integer >= 1, got {json.dumps(N)}")
    return N


def _parse_poly(ring, doc):
    try:
        return parse_monic(doc["f"], ring)
    except Exception as exc:
        raise InputError(f"bad polynomial: {exc}") from exc


def _emit(args, doc):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args):
    ring = _ring(args)
    doc = _load_json(args.payload, "--in")
    A = _parse_matrix(ring, doc, "matrix")
    form, U = to_canonical(ring, A)
    C = canonical_matrix(form)
    verified = GL2Witness(U).check(A, C)
    return {
        "form": form.label(),
        "canonical_matrix": C.encode(),
        "witness": U.encode(),
        "verified": verified,
    }


def cmd_similar(args):
    ring = _ring(args)
    doc = _load_json(args.payload, "--in")
    A = _parse_matrix(ring, doc, "A")
    B = _parse_matrix(ring, doc, "B")
    forms = [classify(ring, A).label(), classify(ring, B).label()]
    result = {
        "similar": A.char_poly() == B.char_poly() and forms[0] == forms[1],
        "forms": forms,
    }
    if args.cross_check:
        N = _oracle_level(doc)
        found = conj_search_mod(ring, A, B, N, args.oracle_budget)
        result["oracle"] = {"N": N, "witness_mod": None if found is None else found.U.encode()}
        invariant(found is not None or not result["similar"], "oracle contradicts an exact similarity")
    return result


def cmd_witness(args):
    ring = _ring(args)
    doc = _load_json(args.payload, "--in")
    A = _parse_matrix(ring, doc, "A")
    B = _parse_matrix(ring, doc, "B")
    w = witness(ring, A, B)
    if w is None:
        return {"similar": False, "witness": None, "verified": None}
    verified = w.check(A, B)
    return {"similar": True, "witness": w.U.encode(), "verified": verified}


def cmd_class_list(args):
    ring = _ring(args)
    doc = _load_json(args.payload, "--in")
    f = _parse_poly(ring, doc)
    out = []
    for fo in class_list(ring, f, args.insep_bound):
        C = canonical_matrix(fo)
        entry = {"form": fo.label(), "matrix": C.encode()}
        if not isinstance(fo, Reducible):
            # the ideal R*g1 + R*(c + theta) of classify.ideal_reps, read off C
            pair = ((C[0][1], ring.zero), (-C[0][0], ring.one))
            entry["ideal"] = [[ring.encode(x) for x in u] for u in pair]
        out.append(entry)
    return {"classes": out, "count": len(out)}


def cmd_class_number(args):
    ring = _ring(args)
    doc = _load_json(args.payload, "--in")
    f = _parse_poly(ring, doc)
    n = class_number(ring, f, 10 if args.insep_bound is None else args.insep_bound)
    if isinstance(n, LowerBound):
        return {"class_number_lower_bound": n.count}
    return {"class_number": n}


def cmd_lm_to_ideal(args):
    ring = _ring(args, allow_zz=True)
    doc = _load_json(args.payload, "--in")
    f = _parse_poly(ring, doc)
    J = lm.matrix_to_ideal(f, _parse_rows(ring, doc, "matrix"), ring)
    result = {"basis": J.encode(), "verified": True}
    if isinstance(ring, lm.IntegerRing) and f.degree == 2:
        disc = f.a * f.a + 4 * f.b
        if disc < 0:
            F = lm.reduce_form(lm.ideal_to_form(J))
            result["reduced_form"] = [F.a, F.b, F.c]
    return result


def cmd_lm_to_matrix(args):
    ring = _ring(args, allow_zz=True)
    doc = _load_json(args.payload, "--in")
    f = _parse_poly(ring, doc)
    basis = tuple(tuple(u) for u in _parse_rows(ring, doc, "basis"))
    J = lm.IdealBasis(f, ring, basis)
    A = lm.ideal_to_matrix(f, J)
    return {"matrix": [[ring.encode(x) for x in row] for row in A]}


def _lattice_vector(ctx, v):
    if type(v) is not list:
        raise ValueError(f"a coordinate vector is a JSON list, got {json.dumps(v)}")
    return lat.lelem(ctx, [Fraction(str(c)) for c in v])


def cmd_lattice_free(args):
    doc = _load_json(args.payload, "--in")
    try:
        if type(doc["d"]) is not int:
            raise ValueError(f"d must be an integer, got {json.dumps(doc['d'])}")
        base = lat.QuadBase(doc["d"])
        ctx = lat.RelExt.from_poly_string(base, doc["f"])
        gens = [_lattice_vector(ctx, g) for g in doc["generators"]]
        x0 = _lattice_vector(ctx, doc["x0"]) if "x0" in doc else None
    except MatsimError:
        raise
    except Exception as exc:
        raise InputError(f"bad lattice payload: {exc}") from exc
    J = lat.lattice_from_generators(ctx, gens)
    dec = lat.decompose(J, x0)
    basis = lat.free_basis(J, dec)
    result = {
        "x0": [str(c) for c in dec.x0.coords()],
        "intersect_base": dec.frak_b.encode(),
        "coefficient_ideal": dec.frak_a.encode(),
        "steinitz": dec.steinitz.encode(),
        "steinitz_generator": None if dec.generator is None else dec.generator.encode(),
        "free": basis is not None,
    }
    if basis is not None:
        result["free_basis"] = [b.encode() for b in basis]
        A = lat.mult_matrix(J, basis)
        result["mult_matrix"] = [[e.encode() for e in row] for row in A]
    return result


def cmd_cross_check(args):
    ring = _ring(args)
    doc = _load_json(args.payload, "--in")
    A = _parse_matrix(ring, doc, "A")
    B = _parse_matrix(ring, doc, "B")
    N = _oracle_level(doc)
    found = conj_search_mod(ring, A, B, N, args.oracle_budget)
    return {
        "N": N,
        "witness_mod": None if found is None else found.U.encode(),
        "similar_mod": found is not None,
    }


COMMANDS = {
    "classify": cmd_classify,
    "similar": cmd_similar,
    "witness": cmd_witness,
    "class-list": cmd_class_list,
    "class-number": cmd_class_number,
    "lm-to-ideal": cmd_lm_to_ideal,
    "lm-to-matrix": cmd_lm_to_matrix,
    "lattice-free": cmd_lattice_free,
    "cross-check": cmd_cross_check,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="matsim",
        description="Exact 2x2 matrix similarity over DVRs, the matrix/ideal "
        "correspondence over Z, and freeness of ideal lattices over Z[sqrt(d)].",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--ring", help="ring descriptor: JSON text, a file, or -")
    p.add_argument("--in", dest="payload", default="-", help="payload: JSON text, a file, or - (stdin)")
    p.add_argument("--out", default="-", help="output file or - (stdout)")
    p.add_argument("--insep-bound", dest="insep_bound", type=int, default=None)
    p.add_argument("--oracle-budget", dest="oracle_budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--cross-check", dest="cross_check", action="store_true",
                   help="also run the mod-pi^N conjugacy oracle on similar jobs")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result = COMMANDS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 4
    except MatsimError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 3
    except (ValueError, ZeroDivisionError, KeyError, RecursionError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    _emit(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
