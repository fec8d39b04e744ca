from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsim.classify import pi_pow
from matsim.errors import NotIntegral
from matsim.fppoly import FpPoly, FpRat
from matsim.rings import INF, ExtElem, FpTLoc, QuadExt, ZLoc, _int_val, ring_from_json

import legacy_classify
import legacy_residues
from legacy_oracle import quotient_size
from conftest import arith

from conftest import all_instances, instance_ids, rand_field_elem, rand_integral, rand_nonzero

Z2 = ZLoc(2)
Z3 = ZLoc(3)
F2 = FpTLoc(2)
F3 = FpTLoc(3)
UNRAM = QuadExt(Z2, 1, 1, "unramified")
EISEN = QuadExt(Z2, 0, 2, "eisenstein")


class TestValuation:
    def test_p_adic(self):
        assert Z2.val(Fraction(12)) == 2
        assert Z2.val(Fraction(0)) is INF
        assert Z3.val(Fraction(1, 3)) == -1

    def test_t_adic(self):
        x = F2.parse("t^3/(1+t)")
        assert F2.val(x) == 3

    def test_eisenstein_doubled_group(self):
        # 3*theta with theta = sqrt(2): min(2*v2(0), 2*v2(3)+1) = 1
        x = ExtElem(EISEN, Fraction(0), Fraction(3))
        assert EISEN.val(x) == 1
        # cross-check through the norm: v2(N(3 theta)) = v2(-18) = 1, doubled
        assert Z2.val(x.norm()) == 1
        assert EISEN.val(EISEN.embed(Fraction(2))) == 2
        assert EISEN.val(EISEN.gen()) == 1

    def test_unramified_value_group(self):
        w = UNRAM.gen()
        assert UNRAM.val(w) == 0
        assert UNRAM.val(UNRAM.embed(Fraction(2))) == 1
        # norm cross-check: 2*v(x) = v_base(N(x))
        x = ExtElem(UNRAM, Fraction(2), Fraction(6))
        assert 2 * UNRAM.val(x) == Z2.val(x.norm())


class TestArith:
    def test_rational(self):
        assert arith(Z3, "add", Fraction(1, 2), Fraction(1, 2)) == 1

    def test_char2_squaring(self):
        one_t = F2.parse("1+t")
        sq = arith(F2, "mul", one_t, one_t)
        assert sq == F2.parse("1+t^2")

    def test_minpoly_relation(self):
        w = UNRAM.gen()
        assert w * w == ExtElem(UNRAM, Fraction(1), Fraction(1))  # w^2 = 1 + w

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            arith(Z2, "div", Fraction(1), Fraction(0))
        with pytest.raises(ZeroDivisionError):
            arith(EISEN, "inv", EISEN.zero)


class TestIntegrality:
    def test_examples(self):
        assert Z2.is_integral(Fraction(3, 5))
        assert not Z2.is_integral(Fraction(1, 2))
        assert F3.is_integral(F3.parse("t/(t+1)"))


class TestResidue:
    def test_int(self):
        assert Z3.residue(Fraction(14), 2) == 5

    def test_series_inverse(self):
        r = F2.residue(F2.parse("1/(1+t)"), 3)
        assert r == FpPoly(2, (1, 1, 1))
        # verify (1+t)(1+t+t^2) = 1 mod t^3
        prod = FpPoly(2, (1, 1)) * r
        assert prod % FpPoly.t_power(2, 3) == FpPoly(2, (1,))

    def test_rational_inverse(self):
        assert Z2.residue(Fraction(7, 3), 3) == 5

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            Z2.residue(Fraction(1, 2), 1)

    def test_extension_residues(self):
        x = ExtElem(EISEN, Fraction(5), Fraction(3))
        assert EISEN.lift(EISEN.residue(x, 3)) == ExtElem(EISEN, Fraction(1), Fraction(1))


class TestUniformizer:
    def test_all(self):
        assert ZLoc(5).uniformizer() == Fraction(5)
        assert F2.uniformizer() == F2.parse("t")
        assert EISEN.uniformizer() == EISEN.gen()
        assert UNRAM.uniformizer() == UNRAM.embed(Fraction(2))


class TestEncoding:
    @pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
    def test_round_trip(self, ring, rng):
        for _ in range(50):
            x = rand_field_elem(ring, rng)
            assert ring.parse(ring.encode(x)) == x


class TestRingValidation:
    def test_unramified_needs_irreducible_reduction(self):
        with pytest.raises(ValueError):
            QuadExt(Z2, 0, 1, "unramified")  # x^2 - 1 reducible mod 2

    def test_eisenstein_needs_v_b_one(self):
        with pytest.raises(ValueError):
            QuadExt(Z2, 0, 4, "eisenstein")

    def test_no_nested_extensions(self):
        from matsim.errors import UnsupportedRing

        with pytest.raises(UnsupportedRing):
            QuadExt(EISEN, 0, 2, "eisenstein")

    def test_primality(self):
        with pytest.raises(ValueError):
            ZLoc(4)

    def test_unramified_check_matches_root_scan(self):
        # Euler's criterion (odd p) and the two-value scan (p = 2) against a
        # scan of every z in GF(p) for a root of z^2 - a*z - b; a and b are
        # lifted by pi so that their residues have to be taken
        primes = [p for p in range(2, 60) if all(p % q for q in range(2, p))]
        for p in primes:
            for base in (ZLoc(p), FpTLoc(p)):
                pi = base.uniformizer()
                for a in range(p):
                    for b in range(p):
                        root = any((z * z - a * z - b) % p == 0 for z in range(p))
                        lifts = (base.from_int(a) + pi, base.from_int(b) - pi)
                        try:
                            QuadExt(base, *lifts, "unramified")
                            built = True
                        except ValueError as exc:
                            assert str(exc) == f"reduction mod {base.pi_name} is not irreducible"
                            built = False
                        assert built == (not root), (base, a, b)

    def test_unramified_at_a_large_prime(self):
        # 999983 = 3 mod 4, so -1 is not a square: x^2 + 1 stays irreducible
        for base in (ZLoc(999983), FpTLoc(999983)):
            ext = QuadExt(base, 0, -1, "unramified")
            assert ext.gen() * ext.gen() == ext.from_int(-1)
            with pytest.raises(ValueError):
                QuadExt(base, 0, 4, "unramified")


# ---------------------------------------------------------------------------
# axioms on random samples, all instances


@pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
def test_valuation_axioms(ring, rng):
    for _ in range(60):
        x = rand_field_elem(ring, rng)
        y = rand_field_elem(ring, rng)
        vx, vy = ring.val(x), ring.val(y)
        assert ring.val(x * y) == vx + vy
        s = x + y
        if s or (x and y):
            assert ring.val(s) >= min(vx, vy)
        if vx != vy:
            assert ring.val(s) == min(vx, vy)


@pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
def test_unit_iff_val_zero(ring, rng):
    for _ in range(40):
        x = rand_nonzero(ring, rng)
        inv = ring.one / x
        is_unit = ring.is_integral(x) and ring.is_integral(inv)
        assert is_unit == (ring.val(x) == 0)


@pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
@pytest.mark.parametrize("N", [1, 2, 3])
def test_residue_ring_homomorphism(ring, N, rng):
    for _ in range(30):
        x = rand_field_elem(ring, rng)
        y = rand_field_elem(ring, rng)
        if ring.val(x) < 0 or ring.val(y) < 0:
            continue
        rx, ry = ring.lift(ring.residue(x, N)), ring.lift(ring.residue(y, N))
        assert ring.residue(x * y, N) == ring.residue(rx * ry, N)
        assert ring.residue(x + y, N) == ring.residue(rx + ry, N)


@given(a=st.integers(-200, 200), b=st.integers(-200, 200).filter(lambda v: v != 0),
       c=st.integers(-200, 200), d=st.integers(-200, 200).filter(lambda v: v != 0))
@settings(max_examples=200, derandomize=True)
def test_fraction_canonical_equality_cross_multiplication(a, b, c, d):
    # structural equality of canonical forms == mathematical equality
    x = Fraction(a, b)
    y = Fraction(c, d)
    assert (x == y) == (a * d == c * b)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=8),
       st.lists(st.integers(0, 1), min_size=1, max_size=8),
       st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
@settings(max_examples=200, derandomize=True)
def test_fprat_canonical_equality(n1, d1, n2, d2):
    # x1/y1 == x2/y2 in GF(2)(t) iff cross-multiplication holds
    p = 2
    x1, y1 = FpPoly(p, n1), FpPoly(p, d1)
    x2, y2 = FpPoly(p, n2), FpPoly(p, d2)
    if y1.is_zero() or y2.is_zero():
        return
    r1 = FpRat(x1, y1)
    r2 = FpRat(x2, y2)
    assert (r1 == r2) == (x1 * y2 == x2 * y1)


@given(p=st.sampled_from([2, 3, 5, 7]), v=st.integers(0, 5000), u=st.integers(1, 10**40), sign=st.sampled_from([1, -1]))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_int_val_matches_the_division_loop(p, v, u, sign):
    # u may itself hold powers of p: the answer is then above v
    n = sign * p**v * u
    assert _int_val(n, p) == legacy_classify.int_val(n, p) >= v


@given(
    p=st.sampled_from([2, 3, 5]),
    num=st.lists(st.integers(0, 4), max_size=8),
    den=st.one_of(st.just([]), st.lists(st.integers(0, 4), min_size=1, max_size=4)),
    u=st.lists(st.integers(0, 4), max_size=6),
    i=st.integers(0, 12),
    N=st.integers(0, 12),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_fptloc_residue_and_the_shifted_insep_s(p, num, den, u, i, N):
    # residue skips the Newton inverse when den = 1: it must give the same
    # code as num * den^-1 mod t^N; a non-integral x still raises
    ring = FpTLoc(p)
    d = FpPoly(p, [1 + den[0] % (p - 1)] + den[1:]) if den else FpPoly(p, [1])  # d(0) != 0
    x = FpRat(FpPoly(p, num), d)
    newton = (x.num.truncate(N) * x.den.inverse_mod_t_power(N)).truncate(N)
    assert ring.residue(x, N) == newton
    pi = ring.uniformizer()
    if x and ring.val(x / pi) < 0:
        with pytest.raises(NotIntegral):
            ring.residue(x / pi, N)
    # the shifted s: b = u^2 + t^i * x, so (b - u^2)/t^i = x, without a gcd
    uu = ring.coerce(FpPoly(p, u))
    b = uu * uu + pi_pow(ring, i) * x
    s = b.sub_square_shifted(uu, i)
    assert s == (b - uu * uu) / pi_pow(ring, i) == x
    assert (s.num, s.den) == (x.num, x.den)
    if x.num.order() == 0:
        with pytest.raises(ValueError):
            b.sub_square_shifted(uu, i + 1)
    if uu:
        with pytest.raises(ValueError):
            b.sub_square_shifted(uu / (uu * pi + 1), i)  # prime to u: not a polynomial


def test_deterministic_residue_order():
    assert [Z2.encode(x) for x in Z2.residues(2)] == ["0", "1", "2", "3"]
    assert [F2.encode(x) for x in F2.residues(2)] == ["0", "1", "t", "1+t"]
    # extension orders are lexicographic on the (x, y) pair
    first = list(UNRAM.residues(1))[:3]
    assert [UNRAM.encode(x) for x in first] == ["0", "w", "1"]


RESIDUE_RINGS = all_instances() + [QuadExt(F2, 0, F2.uniformizer(), "eisenstein")]


@pytest.mark.parametrize("ring", RESIDUE_RINGS, ids=instance_ids() + ["EisenF2"])
def test_residues_match_legacy(ring, rng):
    base = getattr(ring, "base", ring)
    zero_code = base.residue(base.zero, 0)
    N = 1
    while quotient_size(ring, N) <= 3**6:
        listed = list(ring.residues(N))
        assert listed == list(legacy_residues.residues(ring, N))
        assert quotient_size(ring, N) == len(listed)
        samples = listed + [rand_integral(ring, rng) for _ in range(20)]
        for r in samples:
            code = ring.residue(r, N)
            old = legacy_residues.residue(ring, r, N)
            if isinstance(old, tuple):  # a level-0 y was None
                old = tuple(zero_code if c is None else c for c in old)
            assert code == old
        assert all(ring.lift(ring.residue(r, N)) == r for r in listed)
        N += 1
    assert N > 4


PROTOCOL_RINGS = all_instances() + [ZLoc(5), QuadExt(F3, F3.uniformizer(), F3.uniformizer(), "eisenstein")]


@pytest.mark.parametrize("ring", PROTOCOL_RINGS, ids=instance_ids() + ["ZLoc5", "EisenF3"])
def test_descriptor_round_trip(ring):
    back = ring_from_json(ring.to_json())
    assert back == ring and hash(back) == hash(ring) and repr(back) == repr(ring)
    assert back.levels(3) == ring.levels(3)
    assert list(back.residues(1)) == list(ring.residues(1))


def test_base_rings_are_keyed_on_kind_and_p():
    assert ZLoc(2) != FpTLoc(2) and FpTLoc(3) != ZLoc(3)
    assert ZLoc(2) != ZLoc(3) and FpTLoc(2) != FpTLoc(3)
    assert ZLoc(3) == ZLoc(3) and FpTLoc(3) == FpTLoc(3)
    assert hash(ZLoc(5)) == hash(("ZLoc", 5)) and hash(FpTLoc(3)) == hash(("FpTLoc", 3))
    assert (repr(ZLoc(5)), repr(FpTLoc(3))) == ("ZLoc(5)", "FpTLoc(3)")
    assert ZLoc(2).to_json() == {"kind": "ZLoc", "p": 2}
    assert FpTLoc(3).to_json() == {"kind": "FpTLoc", "p": 3}
    for p in (1, 4, 10**6 + 3):
        for cls in (ZLoc, FpTLoc):
            with pytest.raises(ValueError, match="not a \\(small\\) prime"):
                cls(p)
