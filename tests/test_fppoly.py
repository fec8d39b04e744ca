"""The packed-lane FpPoly and FpRat against the tuple implementation they
replaced (``legacy_fppoly``), and against sympy's ``Poly(..., modulus=p)``.

The primes cover every storage lane width (1, 2 and 4 bytes, and 8 bytes for
2^61 - 1, whose products need the generic lanes past 8 bytes).  Degrees run
to 300 and include the lengths where a product, sum or quotient needs the
next lane width, and coefficients can all be p - 1, which fills a lane to
its bound.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_fppoly as old
from conftest import run_optimized
from matsim import fppoly
from matsim.fppoly import FpPoly, FpRat
from matsim.polys import parse_monic, quad_factor
from matsim.rings import FpTLoc

PRIMES = [2, 3, 5, 251, 257, 65537, 999983]
BIG_PRIME = 2**61 - 1
# lengths on both sides of the lane-width steps of p = 2, 3 and 5
BOUNDARY_DEGREES = [14, 15, 16, 61, 62, 63, 64, 253, 254, 255, 256, 300]
DEGREES = st.one_of(st.integers(-1, 20), st.sampled_from(BOUNDARY_DEGREES), st.integers(21, 300))
# fractions multiply their parts; lower degrees keep the legacy oracle fast
SMALL_DEGREES = st.one_of(st.integers(-1, 12), st.sampled_from([14, 15, 16, 30, 31, 32]))
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def coeff_list(p, deg, kind, rng):
    if kind == "max":
        return [p - 1] * (deg + 1)
    if kind == "sparse":
        return [rng.randrange(p) if rng.random() < 0.1 else 0 for _ in range(deg)] + [1] * (deg >= 0)
    return [rng.randrange(p) for _ in range(deg + 1)]


@st.composite
def poly_pairs(draw, primes=PRIMES, degrees=DEGREES):
    """(p, coefficient list a, coefficient list b), b possibly empty."""
    p = draw(st.sampled_from(primes))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = st.sampled_from(["random", "max", "sparse"])
    a = coeff_list(p, draw(degrees), draw(kinds), rng)
    b = coeff_list(p, draw(degrees), draw(kinds), rng)
    return p, a, b


def same(new, legacy):
    return new.p == legacy.p and new.coeffs == legacy.coeffs


@SETTINGS
@given(poly_pairs(PRIMES + [BIG_PRIME]), st.integers(-10**7, 10**7))
def test_ring_operations_match_legacy(case, scalar):
    p, ca, cb = case
    a, b, la, lb = FpPoly(p, ca), FpPoly(p, cb), old.FpPoly(p, ca), old.FpPoly(p, cb)
    assert same(a, la) and same(b, lb)
    assert a.degree == la.degree and a.lead() == la.lead() and a.order() == la.order()
    assert a.eval_at_zero() == la.eval_at_zero() and a.is_one() == la.is_one()
    assert a.to_string() == la.to_string()
    assert same(a + b, la + lb)
    assert same(a - b, la - lb)
    assert same(-a, -la)
    assert same(a * b, la * lb)
    assert same(a * scalar, la * scalar) and same(scalar * a, scalar * la)
    assert same(a * p, la * p) and same(a * 0, la * 0)
    assert same(a.monic(), la.monic())
    assert same(a.gcd(b), la.gcd(lb)) and same(b.gcd(a), lb.gcd(la))
    if cb and any(cb):
        q, r = divmod(a, b)
        lq, lr = divmod(la, lb)
        assert same(q, lq) and same(r, lr)
        assert same(a // b, lq) and same(a % b, lr)
    assert (a == b) == (la == lb)
    assert a == FpPoly(p, list(ca) + [0, p, -p])
    assert hash(a) == hash(FpPoly(p, list(ca) + [0, 0]))


@SETTINGS
@given(poly_pairs([p for p in PRIMES if p < 1000]))
def test_square_roots_match_legacy(case):
    p, ca, cb = case
    a, la = FpPoly(p, ca), old.FpPoly(p, ca)
    for new, legacy in ((a, la), (a * a, la * la)):
        root, legacy_root = new.sqrt(), legacy.sqrt()
        assert (root is None) == (legacy_root is None)
        if root is not None:
            assert same(root, legacy_root)
        assert new.even_part_only() == legacy.even_part_only()


@SETTINGS
@given(poly_pairs(), st.integers(1, 40))
def test_inverse_mod_t_power_matches_legacy(case, n):
    p, ca, _ = case
    a = FpPoly(p, ca)
    if not a.eval_at_zero():
        a = a + FpPoly.const(p, 1)
    legacy = old.FpPoly(p, a.coeffs)
    assert same(a.inverse_mod_t_power(n), old._poly_inverse_mod_t_power(legacy, n))
    assert same(a.truncate(n), legacy % old.FpPoly.t_power(p, n))


@settings(SETTINGS, max_examples=80)
@given(poly_pairs(degrees=SMALL_DEGREES), poly_pairs(degrees=SMALL_DEGREES))
def test_rational_functions_match_legacy(case, other):
    p, cn, cd = case
    ce, cf = ([c % p for c in coeffs] for coeffs in other[1:])
    cd, cf = cd if any(cd) else [1], cf if any(cf) else [1]

    def both(top, bottom):
        return FpRat(FpPoly(p, top), FpPoly(p, bottom)), old.FpRat(old.FpPoly(p, top), old.FpPoly(p, bottom))

    (x, lx), (y, ly) = both(cn, cd), both(ce, cf)
    # z shares x's denominator, so sums and products cancel through it
    z, lz = both(ce, (x.den * FpPoly(p, cf)).coeffs)
    pairs = [(x, lx), (y, ly), (z, lz), (-x, -lx), (x - x, lx - lx)]
    for (u, v), (lu, lv) in ((x, y), (lx, ly)), ((x, z), (lx, lz)), ((z, x), (lz, lx)):
        pairs += [(u + v, lu + lv), (u - v, lu - lv), (u * v, lu * lv)]
        if v:
            pairs.append((u / v, lu / lv))
    for new, legacy in pairs:
        assert same(new.num, legacy.num) and same(new.den, legacy.den)
    assert x.to_string() == lx.to_string() and x.t_order() == lx.t_order()
    assert (x == y) == (lx == ly) and (x == z) == (lx == lz)
    g = FpPoly(p, ce)
    if g:
        # the same element, written with a common factor
        w = FpRat(x.num * g, x.den * g)
        assert w == x and hash(w) == hash(x)
    ring = FpTLoc(p)
    assert ring.sort_key(x) == (lx.num.coeffs, lx.den.coeffs)
    assert (ring.sort_key(x) < ring.sort_key(y)) == ((lx.num.coeffs, lx.den.coeffs) < (ly.num.coeffs, ly.den.coeffs))


@pytest.mark.parametrize(
    "p, lengths",
    [(2, (1, 2, 254, 255, 256, 257)), (3, (1, 2, 62, 63, 64, 65)), (5, (1, 2, 14, 15, 16, 17)), (251, (1, 2, 3)), (257, (1, 2, 3))],
)
def test_lane_bounds_at_every_width_step(p, lengths):
    """Full lanes (every coefficient p - 1) at the lengths where a product or
    a quotient needs one more byte per lane."""
    for n in lengths:
        top = [p - 1] * n
        for m in sorted({1, max(n - 1, 1), n, n + 1}):
            a, b = FpPoly(p, top), FpPoly(p, [p - 1] * m)
            la, lb = old.FpPoly(p, top), old.FpPoly(p, [p - 1] * m)
            assert same(a * b, la * lb), (n, m)
            assert same(a * a + b, la * la + lb), (n, m)
            q, r = divmod(a * a, b)
            lq, lr = divmod(la * la, lb)
            assert same(q, lq) and same(r, lr), (n, m)
            assert same((a * a).gcd(a * b), (la * la).gcd(la * lb)), (n, m)


@pytest.mark.parametrize("p", [2, 3, 5, 251, 257, 65537, BIG_PRIME])
def test_products_divisions_and_gcds_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(p)

    def to_sympy(coeffs):
        return sympy.Poly(list(reversed(coeffs)) or [0], t, modulus=p)

    def from_sympy(poly):
        return FpPoly(p, [int(c) for c in reversed(poly.all_coeffs())])

    for deg_a, deg_b in ((0, 0), (5, 3), (40, 39), (130, 17), (300, 150)):
        for kind in ("random", "max"):
            ca, cb = coeff_list(p, deg_a, kind, rng), coeff_list(p, deg_b, kind, rng)
            cb[-1] = cb[-1] or 1
            a, b, sa, sb = FpPoly(p, ca), FpPoly(p, cb), to_sympy(ca), to_sympy(cb)
            assert a * b == from_sympy(sa * sb)
            q, r = sa.div(sb)
            assert divmod(a, b) == (from_sympy(q), from_sympy(r))
            assert a.gcd(b) == from_sympy(sympy.gcd(sa, sb).monic())


def test_halve_exponents_rejects_under_python_O():
    proc = run_optimized(
        "from matsim.fppoly import FpPoly\n"
        "for f in (FpPoly(2, (0, 1, 1)), FpPoly(3, (1, 0, 1))):\n"
        "    try:\n"
        "        f.halve_exponents()\n"
        "    except ValueError:\n"
        "        print('rejected', __debug__)\n"
    )
    assert proc.stdout == "rejected False\nrejected False\n", proc.stderr


PRIMES_TO_1000 = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def test_sqrt_mod_p_matches_scan_small_primes():
    for p in PRIMES_TO_1000:
        assert [fppoly._sqrt_mod_p(a, p) for a in range(p)] == [old._sqrt_mod_p(a, p) for a in range(p)]


@pytest.mark.parametrize("p", [999953, 999961, 999983])
def test_sqrt_mod_p_matches_scan_large_primes(p):
    # p = 999953, 999961 are 1 mod 8, so the Tonelli loop runs
    rng = random.Random(p)
    for a in [rng.randrange(p) for _ in range(10)] + [rng.randrange(p) ** 2 for _ in range(10)]:
        assert fppoly._sqrt_mod_p(a, p) == old._sqrt_mod_p(a, p)


def test_quad_factor_large_prime_same_factors(monkeypatch):
    ring = FpTLoc(999983)
    # irreducible, and (x - 7t - 3)(x + 7t + 3)
    fs = [parse_monic(s, ring) for s in ("x^2 - 889946*t^2 - 5", "x^2 - (49*t^2 + 42*t + 9)")]
    fast = [quad_factor(f, ring) for f in fs]
    monkeypatch.setattr(fppoly, "_sqrt_mod_p", old._sqrt_mod_p)
    assert fast == [quad_factor(f, ring) for f in fs]
    assert [q.reducible for q in fast] == [False, True]
