"""The digit-by-digit lift of ``compute_m`` and the inseparable parameters
against two oracles: the residue enumeration it replaced
(``legacy_search.py``), on seeded random f over ten rings, and the
Artin-Schreier closed form over GF(2)(t) at depths the enumeration cannot
reach, checked with the constructions of ``bench/workloads.py``.
"""

import importlib
import random
import types
from pathlib import Path
from time import perf_counter

import pytest

import legacy_search as old
from matsim.classify import Insep, LowerBound, class_list, class_number, pi_pow
from matsim.fppoly import FpPoly, FpRat
from matsim.polys import MonicPoly, quad_factor
from matsim.rings import FpTLoc, QuadExt, ZLoc

from conftest import SEED, _rand_unit, all_instances, instance_ids, rand_integral

C = importlib.import_module("matsim.classify")
F2 = FpTLoc(2)
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

SEARCH_RINGS = all_instances() + [
    QuadExt(F2, 1, 1, "unramified"),  # residue field F4
    QuadExt(F2, 0, F2.uniformizer(), "eisenstein"),  # w^2 = t
    # w^2 = a*w + b with a != 0: r + pi^(k-1)*d needs reducing mod pi^k
    QuadExt(ZLoc(2), 2, 2, "eisenstein"),
    QuadExt(F2, F2.uniformizer(), F2.uniformizer(), "eisenstein"),
]
SEARCH_IDS = instance_ids() + ["UnramF2", "EisenF2", "EisenZ2-2w", "EisenF2-tw"]
# the branches with a search; rings with v(2) = 0 have none of them
SEP, CHAR2 = {"case1", "case22"}, {"char2sep", "insep"}
BRANCHES = [SEP, set(), CHAR2, set(), SEP, SEP, CHAR2, CHAR2, SEP, CHAR2]
# the old search lists sum q^(2m) (or q^i) residues: keep q^(2m) and q^i <= 256
ENUMERATION_CAP = 256


def _draw(ring, rng, depth):
    """x^2 - a*x - b with b = r0(r0 + a) + pi^j*c: v(a) and j up to depth, so
    the searches of every branch reach past their first levels."""
    a = pi_pow(ring, rng.randint(0, depth)) * _rand_unit(ring, rng) if rng.random() < 0.75 else ring.zero
    r0 = rand_integral(ring, rng)
    b = r0 * (r0 + a) + pi_pow(ring, rng.randint(0, 2 * depth + 1)) * rand_integral(ring, rng)
    return MonicPoly.quadratic(ring, a, b)


@pytest.mark.parametrize("ring, branches", zip(SEARCH_RINGS, BRANCHES), ids=SEARCH_IDS)
def test_lift_matches_enumeration(ring, branches):
    rng = random.Random(SEED)
    q = len(list(ring.residues(1)))
    depth = 1
    while q ** (2 * depth + 2) <= ENUMERATION_CAP:
        depth += 1
    levels = 2 * depth  # insep levels: q^levels <= ENUMERATION_CAP
    enc = ring.encode
    seen = set()
    for _ in range(40):
        f = _draw(ring, rng, depth)
        if quad_factor(f, ring).reducible:
            continue
        name = C._branch(ring, f)[0]
        if name == "insep":
            # the old class_list kept the levels where _insep_params found a u
            old_forms = []
            for i in range(levels + 1):
                new, was = C._insep_params(ring, f.b, i), old._insep_params(ring, f.b, i)
                assert new == was, (f, i)
                if was is not None:
                    old_forms.append(Insep(f, i, *was))
            labels = [form.label() for form in class_list(ring, f, levels)]
            assert labels == [form.label() for form in old_forms], f
        elif name in ("case1", "char2sep", "case22"):
            (m, r), (m_old, r_old) = C.compute_m(ring, f, name), old.compute_m(ring, f, name)
            assert (m, r) == (m_old, r_old), (f, name)
            assert r is None or enc(r) == enc(r_old)
        else:
            continue
        seen.add(name)
    assert seen == branches


@pytest.mark.parametrize("ring, branches", zip(SEARCH_RINGS, BRANCHES), ids=SEARCH_IDS)
def test_class_number_counts_class_list(ring, branches):
    # the insep count comes from the lifting chain alone, without the forms
    rng = random.Random(SEED + 1)
    seen = set()
    for _ in range(30):
        f = _draw(ring, rng, 3)
        if quad_factor(f, ring).reducible:
            continue
        name = C._branch(ring, f)[0]
        for bound in (0, 2, 7):
            count = len(class_list(ring, f, bound))
            assert class_number(ring, f, bound) == (LowerBound(count) if name == "insep" else count), (f, bound)
        seen.add(name)
    assert "insep" in seen or "insep" not in branches


def _timed(limit, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    elapsed = perf_counter() - t0
    assert elapsed < limit, f"{elapsed:.2f} s, limit {limit} s"
    return out


def _artin_schreier(b, bound):
    """The insep levels and u_i of x^2 - b over GF(2)(t) for a polynomial b.

    Squares are the series in t^2, so with s the first odd degree of b,
    v(b - u^2) >= 2i is solvable exactly for 2i < s, by u_i = the square root
    of b's even part, truncated mod t^i.
    """
    coeffs = b.coeffs
    s = next(k for k in range(1, len(coeffs), 2) if coeffs[k])
    return [FpRat(FpPoly(2, coeffs[0 : 2 * i : 2])) for i in range(min(s // 2, bound) + 1)]


@pytest.mark.parametrize("s", [1, 3, 17, 63, 151])
def test_insep_levels_match_artin_schreier(s):
    rng = random.Random(SEED + s)
    coeffs = [rng.randrange(2) if k % 2 == 0 or k > s else 0 for k in range(s + 12)]
    coeffs[s] = 1
    b = FpPoly(2, coeffs)
    f = MonicPoly.quadratic(F2, F2.zero, FpRat(b))
    bound = 200
    forms = _timed(2.0, class_list, F2, f, bound)
    expected = _artin_schreier(b, bound)
    assert [form.i for form in forms] == list(range(len(expected)))
    assert [form.u for form in forms] == expected
    assert class_number(F2, f, bound) == LowerBound(len(expected))


def _workloads():
    """bench/workloads.py, executed without writing anything under bench/."""
    mod = types.ModuleType("bench_workloads")
    exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"), mod.__dict__)
    return mod


@pytest.mark.parametrize(
    "kind, params",
    [("insep", (200, 151)), ("insep", (60, 151)), ("char2sep", (64, 1)), ("char2sep", (64, 8)), ("char2sep", (16, 16))],
    ids=["insep-200-151", "insep-60-151", "char2sep-64-1", "char2sep-64-8", "char2sep-16-16"],
)
def test_deep_searches_match_the_bench_construction(kind, params):
    # the workload builds f with a known class count and its check raises on
    # a wrong count or a canonical matrix that does not reclassify to its form
    search = _workloads().ClassSearch()
    make = search._insep if kind == "insep" else search._char2sep
    x = make(kind, F2, random.Random(SEED), *params)
    _timed(2.0, lambda: search.check(x, search.run(x)))
