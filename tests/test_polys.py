import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_polys as old

from matsim.errors import CharTwo
from matsim.fppoly import FpPoly, FpRat
from matsim.polys import (
    MonicPoly,
    _as_solve_f2t,
    _ext_sqrt,
    artin_schreier_solve,
    disc_quad,
    is_separable,
    parse_monic,
    quad_factor,
    sqrt_in_field,
)
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc

from conftest import all_instances, instance_ids, rand_field_elem, rand_integral, run_optimized

Z2 = ZLoc(2)
Z3 = ZLoc(3)
Z5 = ZLoc(5)
F2 = FpTLoc(2)
UNRAM = QuadExt(Z2, 1, 1, "unramified")
EISEN = QuadExt(Z2, 0, 2, "eisenstein")


def quad(ring, a, b):
    return MonicPoly.quadratic(ring, ring.coerce(a), ring.coerce(b))


class TestDerivative:
    def test_x2_minus_5(self):
        f = quad(Z2, 0, 5)
        assert f.derivative() == [Fraction(0), Fraction(2)]  # 2x

    def test_char2_vanishing(self):
        f = quad(F2, 0, F2.parse("t"))
        assert f.derivative() == []

    def test_char2_constant(self):
        t = F2.parse("t")
        f = quad(F2, t, t)
        assert f.derivative() == [t]


class TestSeparable:
    def test_examples(self):
        assert is_separable(quad(Z2, 0, 5), Z2)
        assert not is_separable(quad(F2, 0, F2.parse("t^3")), F2)
        t = F2.parse("t")
        assert is_separable(quad(F2, t, t), F2)


class TestDisc:
    def test_values(self):
        assert disc_quad(quad(Z2, 0, 5), Z2) == 5
        assert disc_quad(quad(Z3, 0, 18), Z3) == 18
        assert disc_quad(quad(Z5, 2, 3), Z5) == 4

    def test_char_two(self):
        with pytest.raises(CharTwo):
            disc_quad(quad(F2, 0, F2.parse("t")), F2)


class TestQuadFactor:
    def test_split(self):
        # x^2 - 3x + 2 = x^2 - 3x - (-2): roots 1, 2
        fact = quad_factor(quad(Z5, 3, -2), Z5)
        assert fact.reducible
        assert {fact.lam1, fact.lam2} == {Fraction(1), Fraction(2)}

    def test_irreducible_x2_minus_5(self):
        assert not quad_factor(quad(Z2, 0, 5), Z2).reducible

    def test_artin_schreier_irreducible(self):
        t = F2.parse("t")
        b = F2.parse("t^2+t^3")
        f = quad(F2, t, b)
        assert not quad_factor(f, F2).reducible
        # independent oracle: brute-force roots z = U/V over all small polys
        assert _brute_force_as(F2, b / (t * t)) is None

    def test_root_ordering_and_identity(self):
        fact = quad_factor(quad(Z3, 12, -27), Z3)  # roots 3 and 9
        assert fact.reducible
        assert Z3.val(fact.lam1) >= Z3.val(fact.lam2)
        assert fact.lam1 * fact.lam2 == 27 and fact.lam1 + fact.lam2 == 12

    def test_double_root(self):
        fact = quad_factor(quad(Z2, 6, -9), Z2)  # (x-3)^2
        assert fact.reducible and fact.lam1 == fact.lam2 == 3

    def test_char2_perfect_square(self):
        fact = quad_factor(quad(F2, 0, F2.parse("t^2")), F2)
        assert fact.reducible and fact.lam1 == F2.parse("t")

    def test_extension_split(self):
        # x^2 - 5 becomes (x - sqrt5)(x + sqrt5) over Z2[w], w^2 = w + 1
        f = quad(UNRAM, 0, 5)
        fact = quad_factor(f, UNRAM)
        assert fact.reducible
        sqrt5 = ExtElem(UNRAM, Fraction(-1), Fraction(2))
        assert {fact.lam1, fact.lam2} == {sqrt5, -sqrt5}

    def test_eisenstein_split(self):
        f = quad(EISEN, 0, 2)
        fact = quad_factor(f, EISEN)
        assert fact.reducible
        th = EISEN.gen()
        assert {fact.lam1, fact.lam2} == {th, -th}

    def test_eisenstein_still_irreducible(self):
        assert not quad_factor(quad(EISEN, 0, 5), EISEN).reducible


def _brute_force_as(ring, c):
    """Exhaustive low-degree search for z with z^2 + z = c over GF(2)(t)."""
    polys = [FpPoly(2, bits) for k in range(0, 5) for bits in product((0, 1), repeat=k + 1)]
    for num in polys:
        for den in polys:
            if den.is_zero():
                continue
            z = FpRat(num, den)
            if z * z + z == c:
                return z
    return None


class TestArtinSchreier:
    def test_solvable_cases_match_brute_force(self, rng):
        t = F2.parse("t")
        for _ in range(40):
            z_target = rand_integral(F2, rng)
            c = z_target * z_target + z_target
            z = artin_schreier_solve(F2, c)
            assert z is not None and z * z + z == c

    def test_unsolvable_matches_brute_force(self):
        for s in ["1+t", "t/(1+t+t^2)", "1/t^2 + t"]:
            c = F2.parse(s)
            got = artin_schreier_solve(F2, c)
            brute = _brute_force_as(F2, c)
            if got is None:
                assert brute is None
            else:
                assert got * got + got == c


class TestSqrt:
    @pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
    def test_square_round_trip(self, ring, rng):
        for _ in range(40):
            x = rand_integral(ring, rng)
            s = sqrt_in_field(ring, x * x)
            assert s is not None and s * s == x * x

    @pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
    def test_factor_iff_disc_square(self, ring, rng):
        if ring.char == 2:
            return
        for _ in range(40):
            a, b = rand_integral(ring, rng), rand_integral(ring, rng)
            f = MonicPoly.quadratic(ring, a, b)
            disc = a * a + ring.from_int(4) * b
            assert quad_factor(f, ring).reducible == (sqrt_in_field(ring, disc) is not None)


class TestExactFactorIdentity:
    @pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
    def test_product_of_roots(self, ring, rng):
        for _ in range(40):
            a, b = rand_integral(ring, rng), rand_integral(ring, rng)
            f = MonicPoly.quadratic(ring, a, b)
            fact = quad_factor(f, ring)
            if not fact.reducible:
                continue
            lam1, lam2 = fact.lam1, fact.lam2
            assert lam1 + lam2 == a and lam1 * lam2 == -b
            assert ring.val(lam1) >= 0 and ring.val(lam2) >= 0


class TestParsing:
    def test_examples(self):
        f = parse_monic("x^2 - t*x - (t^2+t^3)", F2)
        assert f.a == F2.parse("t") and f.b == F2.parse("t^2+t^3")
        g = parse_monic("x^2 + 6", ZLoc(3))
        assert g.a == 0 and g.b == -6
        h = parse_monic("x^3 - 1", ZLoc(5))
        assert h.degree == 3

    def test_encode_round_trip(self, rng):
        for ring in all_instances():
            for _ in range(15):
                a, b = rand_integral(ring, rng), rand_integral(ring, rng)
                f = MonicPoly.quadratic(ring, a, b)
                assert parse_monic(f.encode(), ring) == f


def test_quadratic_accessors_reject_a_cubic_under_python_O():
    proc = run_optimized(
        "from matsim.polys import parse_monic\n"
        "from matsim.rings import ZLoc\n"
        "f = parse_monic('x^3 - 2', ZLoc(3))\n"
        "for name in ('a', 'b'):\n"
        "    try:\n"
        "        getattr(f, name)\n"
        "    except ValueError:\n"
        "        print(name, __debug__)\n"
    )
    assert proc.stdout == "a False\nb False\n", proc.stderr


F3 = FpTLoc(3)
T3 = FpRat.t(3)
# (base, A, B, ramification) of w^2 = A*w + B: characteristic 0 over ZLoc(2),
# ZLoc(3) and ZLoc(5), characteristic 3 over FpTLoc(3); A = 0 and A != 0
SQRT_EXTENSIONS = [
    (Z2, 1, 1, "unramified"),
    (Z2, 0, 2, "eisenstein"),
    (Z2, 2, 2, "eisenstein"),
    (Z3, 0, -1, "unramified"),
    (Z3, 1, 1, "unramified"),
    (Z3, 3, 3, "eisenstein"),
    (Z5, 0, 2, "unramified"),
    (Z5, 1, 3, "unramified"),
    (Z5, 0, 5, "eisenstein"),
    (F3, 0, -1, "unramified"),
    (F3, 1, 1, "unramified"),
    (F3, 0, T3, "eisenstein"),
    (F3, T3, T3, "eisenstein"),
]


def _sqrt_inputs(ring, rng):
    """Squares, random elements, base elements, and d = y^2*(A^2/4 + B),
    whose roots y*(w - A/2) have trace 0."""
    base = ring.base
    half = ring.mp_a / base.from_int(2)
    trace_free = half * half + ring.mp_b
    yield ring.zero
    for _ in range(60):
        z = rand_field_elem(ring, rng)
        y = rand_field_elem(base, rng)
        yield z * z
        yield z
        yield ring.embed(y)
        yield ring.embed(y * y)
        yield ring.embed(y * y * trace_free)
        yield ring.embed(y * trace_free)


@pytest.mark.parametrize(
    "base, A, B, ram", SQRT_EXTENSIONS, ids=[f"{e[0]!r}-{e[3]}-{i}" for i, e in enumerate(SQRT_EXTENSIONS)]
)
def test_ext_sqrt_matches_the_elimination(base, A, B, ram, rng):
    ring = QuadExt(base, A, B, ram)
    for d in _sqrt_inputs(ring, rng):
        got, want = _ext_sqrt(ring, d), old._ext_sqrt(ring, d)
        assert (got is None) == (want is None), d
        if got is not None:
            assert got * got == d and got in (want, -want), d


def test_ext_sqrt_with_trace_zero():
    # -1 = w^2 over w^2 = -1: the roots +-w have trace 0, and N(-1) = 1
    ring = QuadExt(Z3, 0, -1, "unramified")
    assert _ext_sqrt(ring, ring.embed(-1)) in (ring.gen(), -ring.gen())
    assert _ext_sqrt(ring, ring.embed(-4)) in (2 * ring.gen(), -2 * ring.gen())
    assert _ext_sqrt(ring, ring.embed(3)) is None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32),
    deg_v=st.integers(0, 12),
    deg_n=st.integers(0, 40),
    kind=st.sampled_from(["root", "square_den", "random"]),
)
def test_as_solve_f2t_matches_gf2_elimination(seed, deg_v, deg_n, kind):
    # the degree sweep returns the elimination's root (free unknown u_e = 0)
    # and None on the same c: solvable c = z^2 + z, and random N/D with D a
    # square or not
    rng = random.Random(seed)

    def poly(deg):
        return FpPoly(2, [rng.randrange(2) for _ in range(deg)] + [1])

    if kind == "root":
        z = FpRat(poly(deg_n // 2), poly(deg_v))
        c = z * z + z
    elif kind == "square_den":
        v = poly(deg_v)
        c = FpRat(poly(deg_n), v * v)
    else:
        c = FpRat(poly(deg_n), poly(2 * deg_v))
    got = _as_solve_f2t(c)
    assert got == old._as_solve_f2t(c)
    if kind == "root":
        assert got in (z, z + 1)
    if got is not None:
        assert got * got + got == c
