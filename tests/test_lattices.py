from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import legacy_lattices as old
from matsim.errors import NotFullRank, UnsupportedRing, X0InBase
from matsim.lattices import (
    FracIdealR,
    QLattice,
    QuadBase,
    RelExt,
    coefficient_ideal,
    default_x0,
    ideal_mul,
    intersect_base,
    is_free,
    is_principal,
    lattice_from_generators,
    lelem,
    mult_matrix,
    steinitz,
    unit_ideal,
)
from matsim.lm import norm_form
from matsim.rings import QQ, ExtElem, QuadAlgebra

from conftest import qmat_det, qmat_mul, run_optimized

BASE = QuadBase(-5)


@pytest.fixture(scope="module")
def sqrt2_lattice():
    """The nontrivial class-group generator of Z[sqrt(-5)][sqrt(2)]:
    J = R[theta]*2 + R[theta]*((1+w)/2)*theta with theta = sqrt(2).

    This lattice is free over R even though it is not principal as an
    R[theta]-module, which is what makes x^2 - 2 have two conjugacy
    classes over Z[sqrt(-5)].
    """
    ctx = RelExt.from_poly_string(BASE, "x^2 - 2")
    J = lattice_from_generators(
        ctx,
        [lelem(ctx, (2, 0, 0, 0)), lelem(ctx, (0, 0, Fraction(1, 2), Fraction(1, 2)))],
    )
    return ctx, J


@pytest.fixture(scope="module")
def x2_x_7_lattice():
    """The non-free class-group generator for f = x^2 - x + 7, presented as
    R[theta]*((1+theta)/3) + R[theta]*(2+w): its Steinitz ideal is the
    non-principal (3, 2+w), so only one conjugacy class is realized."""
    ctx = RelExt.from_poly_string(BASE, "x^2 - x + 7")
    J = lattice_from_generators(
        ctx,
        [lelem(ctx, (Fraction(1, 3), 0, Fraction(1, 3), 0)), lelem(ctx, (2, 1, 0, 0))],
    )
    return ctx, J


class TestQuadBase:
    def test_validation(self):
        with pytest.raises(UnsupportedRing):
            QuadBase(5)  # positive
        with pytest.raises(UnsupportedRing):
            QuadBase(-3)  # 1 mod 4
        with pytest.raises(UnsupportedRing):
            QuadBase(-20)  # not squarefree
        QuadBase(-1)
        QuadBase(-6)

    def test_huge_d_rejected_with_the_bound(self):
        # the squarefree check would run 10^10 trial divisions here
        with pytest.raises(UnsupportedRing, match=r"10\^12"):
            QuadBase(-(10**20 + 1))

    def test_arithmetic(self):
        w = BASE.omega
        assert w * w == BASE.elem(-5)
        assert (BASE.elem(2, 1) * BASE.elem(2, -1)) == BASE.elem(9)
        assert BASE.parse("2+w") == BASE.elem(2, 1)
        assert BASE.parse("-1/2-3*w") == ExtElem(BASE, Fraction(-1, 2), -3)


class TestLatticeConstruction:
    def test_relext_needs_coefficients_in_the_order(self):
        # theta must be integral over R, or R[theta]-spans are no R[theta]-modules
        for f in ("x^2 - 1/2", "x^2 - (1/3*w)*x - 1", "x^2 + 1/2*w"):
            with pytest.raises(ValueError, match="needs a and b in Z"):
                RelExt.from_poly_string(BASE, f)
        with pytest.raises(ValueError):
            RelExt(BASE, 0, Fraction(1, 2))
        ctx = RelExt.from_poly_string(BASE, "x^2 - w*x - 2")
        assert (ctx.mp_a, ctx.mp_b) == (BASE.omega, BASE.elem(2))

    def test_full_ring(self):
        ctx = RelExt.from_poly_string(BASE, "x^2 - 2")
        J = lattice_from_generators(ctx, [lelem(ctx, (1, 0, 0, 0))])
        assert J.lat.den == 1 and len(J.lat.rows) == 4

    def test_not_full_rank(self):
        ctx = RelExt.from_poly_string(BASE, "x^2 - 2")
        with pytest.raises(NotFullRank):
            lattice_from_generators(ctx, [])

    def test_sqrt2_lattice_basis(self, sqrt2_lattice):
        ctx, J = sqrt2_lattice
        # frozen HNF of the lattice
        assert J.lat.den == 2
        assert J.lat.rows == ((2, 2, 0, 0), (0, 4, 0, 0), (0, 0, 1, 1), (0, 0, 0, 2))


class TestIntersectBase:
    def test_sqrt2_lattice(self, sqrt2_lattice):
        _, J = sqrt2_lattice
        assert intersect_base(J).encode() == "(2, 1+w)"

    def test_x2_x_7_lattice(self, x2_x_7_lattice):
        _, J = x2_x_7_lattice
        assert intersect_base(J).encode() == "(3, 2+w)"

    def test_full_ring(self):
        ctx = RelExt.from_poly_string(BASE, "x^2 - 2")
        J = lattice_from_generators(ctx, [lelem(ctx, (1, 0, 0, 0))])
        assert intersect_base(J) == unit_ideal(BASE)


class TestCoefficientIdeal:
    def test_sqrt2_lattice_x0_is_half_theta(self, sqrt2_lattice):
        ctx, J = sqrt2_lattice
        x0 = default_x0(J)
        assert x0.coords() == (0, 0, Fraction(1, 2), 0)
        assert coefficient_ideal(J, x0).encode() == "(2, 1+w)"

    def test_x2_x_7_lattice_x0_is_third_theta(self, x2_x_7_lattice):
        ctx, J = x2_x_7_lattice
        x0 = default_x0(J)
        assert x0.coords() == (0, 0, Fraction(1, 3), 0)
        assert coefficient_ideal(J, x0) == unit_ideal(BASE)

    def test_full_ring_theta(self):
        ctx = RelExt.from_poly_string(BASE, "x^2 - 2")
        J = lattice_from_generators(ctx, [lelem(ctx, (1, 0, 0, 0))])
        assert coefficient_ideal(J, ctx.gen()) == unit_ideal(BASE)

    def test_x0_in_base_rejected(self, sqrt2_lattice):
        ctx, J = sqrt2_lattice
        with pytest.raises(X0InBase):
            coefficient_ideal(J, lelem(ctx, (1, 0, 0, 0)))


class TestIdealMul:
    def test_sqrt2_lattice_square(self):
        I = FracIdealR.from_elems(BASE, [BASE.elem(2), BASE.elem(1, 1)])
        assert ideal_mul(I, I).encode() == "(2)"

    def test_unit(self):
        I = FracIdealR.from_elems(BASE, [BASE.elem(3), BASE.elem(2, 1)])
        assert ideal_mul(unit_ideal(BASE), I) == I

    def test_conjugate_product_is_norm(self):
        I = FracIdealR.from_elems(BASE, [BASE.elem(3), BASE.elem(2, 1)])
        assert ideal_mul(I, I.conj()).encode() == "(3)"

    def test_commutative_associative(self, rng):
        ideals = []
        while len(ideals) < 6:
            a = BASE.elem(rng.randint(-6, 6), rng.randint(-6, 6))
            b = BASE.elem(rng.randint(-6, 6), rng.randint(-6, 6))
            if a or b:
                try:
                    ideals.append(FracIdealR.from_elems(BASE, [a, b]))
                except NotFullRank:
                    continue
        for i1 in ideals[:3]:
            for i2 in ideals[3:]:
                assert ideal_mul(i1, i2) == ideal_mul(i2, i1)
        i1, i2, i3 = ideals[:3]
        assert ideal_mul(ideal_mul(i1, i2), i3) == ideal_mul(i1, ideal_mul(i2, i3))


class TestIsPrincipal:
    def test_generator_two(self):
        I = FracIdealR.from_elems(BASE, [BASE.elem(2)])
        assert is_principal(BASE, I) == BASE.elem(2)

    def test_non_principal_classics(self):
        assert is_principal(BASE, FracIdealR.from_elems(BASE, [BASE.elem(2), BASE.elem(1, 1)])) is None
        assert is_principal(BASE, FracIdealR.from_elems(BASE, [BASE.elem(3), BASE.elem(2, 1)])) is None

    def test_fractional(self):
        I = FracIdealR.from_elems(BASE, [BASE.elem(Fraction(1, 2))])
        assert is_principal(BASE, I) == BASE.elem(Fraction(1, 2))

    def test_generator_far_beyond_any_box(self):
        # the scan would try 10^30 values of y; the reduction takes a few steps
        for g in (BASE.elem(7, 10**30), BASE.elem(Fraction(3, 2), -(10**30) - 1)):
            I = FracIdealR.from_elems(BASE, [g])
            found = is_principal(BASE, I)
            assert FracIdealR.from_elems(BASE, [found]) == I
            assert found in (g, -g)
        # 3 divides N(7 + 10^30*w), so this is a prime of norm 3, and x^2 + 5y^2 = 3 has no solution
        assert is_principal(BASE, FracIdealR.from_elems(BASE, [BASE.elem(7, 10**30), BASE.elem(3)])) is None


def _gen(base, x, y, den):
    return base.elem(Fraction(x, den), Fraction(y, den))


COORD = st.integers(-(10**4), 10**4)
GEN = st.tuples(COORD, COORD, st.integers(1, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=st.sampled_from([-1, -2, -5, -6, -10, -13, -14, -21, -30]), gens=st.tuples(GEN, GEN))
def test_is_principal_matches_the_box_scan(d, gens):
    base = QuadBase(d)
    elems = [_gen(base, *g) for g in gens]
    if not any(elems):
        return
    ideal = FracIdealR.from_elems(base, elems)
    # the same generator, not just an associate, or None for both
    assert is_principal(base, ideal) == old.is_principal(base, ideal)


D_SMALL = st.sampled_from([-1, -2, -5, -6, -10, -13])
SMALL_GEN = st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(1, 3))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=D_SMALL, g1=st.tuples(SMALL_GEN, SMALL_GEN), g2=st.tuples(SMALL_GEN, SMALL_GEN))
def test_ideal_arithmetic_matches_the_extelem_path(d, g1, g2):
    base = QuadBase(d)
    elems = [[_gen(base, *g) for g in gens] for gens in (g1, g2)]
    if not all(any(e) for e in elems):
        return
    I1, I2 = (FracIdealR.from_elems(base, e) for e in elems)
    prod, conj = ideal_mul(I1, I2), I1.conj()
    assert prod == old.ideal_mul(I1, I2)
    assert conj == old.ideal_conj(I1)
    # I*conj(I) = (N(I)) is principal; the generator itself must agree
    for ideal in (prod, conj, ideal_mul(I1, conj)):
        assert is_principal(base, ideal) == old.is_principal(base, ideal)


INT = st.integers(-50, 50)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=D_SMALL, a=INT, b=INT, u=st.tuples(INT, INT), v=st.tuples(INT, INT))
def test_norm_form_matches_extelem_norms(d, a, b, u, v):
    # on Z[theta], theta^2 = a*theta + b, and on Z[w], w^2 = d
    for alg in (QuadAlgebra(QQ, a, b), QuadBase(d)):
        F = norm_form(u, v, 1, alg.mp_a, alg.mp_b)
        ref = old.norm_form(*(ExtElem(alg, Fraction(x), Fraction(y)) for x, y in (u, v)), 1)
        assert (F.a, F.b, F.c) == ref


class TestSteinitzAndFreeness:
    def test_sqrt2_lattice(self, sqrt2_lattice):
        _, J = sqrt2_lattice
        st = steinitz(J)
        assert st.encode() == "(2)"
        assert is_principal(BASE, st) == BASE.elem(2)
        basis = is_free(J)
        assert basis is not None
        b1, b2 = basis
        A = mult_matrix(J, basis)
        # char poly of the multiplication matrix is x^2 - 2
        assert A[0][0] + A[1][1] == BASE.zero
        assert A[0][0] * A[1][1] - A[0][1] * A[1][0] == BASE.elem(-2)

    def test_sqrt2_lattice_free_basis_regenerates(self, sqrt2_lattice):
        ctx, J = sqrt2_lattice
        basis = is_free(J)
        regen = lattice_from_generators(ctx, list(basis))
        assert regen == J

    def test_x2_x_7_lattice(self, x2_x_7_lattice):
        _, J = x2_x_7_lattice
        st = steinitz(J)
        assert st.encode() == "(3, 2+w)"
        assert is_principal(BASE, st) is None
        assert is_free(J) is None

    def test_full_ring_free(self):
        ctx = RelExt.from_poly_string(BASE, "x^2 - 2")
        J = lattice_from_generators(ctx, [lelem(ctx, (1, 0, 0, 0))])
        assert steinitz(J) == unit_ideal(BASE)
        basis = is_free(J)
        assert basis is not None
        A = mult_matrix(J, basis)
        assert A[0][0] + A[1][1] == BASE.zero

    def test_steinitz_class_independent_of_x0(self, sqrt2_lattice):
        ctx, J = sqrt2_lattice
        choices = [
            lelem(ctx, (0, 0, Fraction(1, 2), 0)),  # sqrt(2)/2
            lelem(ctx, (0, 0, 1, 0)),  # sqrt(2)
            lelem(ctx, (1, 0, 1, 0)),  # 1 + sqrt(2)
        ]
        stats = [steinitz(J, x0) for x0 in choices]
        gens = [is_principal(BASE, st) for st in stats]
        # all principal here; in general all-or-none, and conjugate products
        # of any two Steinitz ideals must be principal
        assert all(g is not None for g in gens)
        for st1 in stats:
            for st2 in stats:
                assert is_principal(BASE, ideal_mul(st1, st2.conj())) is not None

    def test_steinitz_class_independent_of_x0_nonfree(self, x2_x_7_lattice):
        ctx, J = x2_x_7_lattice
        choices = [
            lelem(ctx, (0, 0, Fraction(1, 3), 0)),
            lelem(ctx, (0, 0, 1, 0)),
            lelem(ctx, (1, 0, 2, 0)),
        ]
        stats = [steinitz(J, x0) for x0 in choices]
        assert all(is_principal(BASE, st) is None for st in stats)
        for st1 in stats:
            for st2 in stats:
                assert is_principal(BASE, ideal_mul(st1, st2.conj())) is not None


class TestModuleClosure:
    def test_outputs_are_omega_closed(self, sqrt2_lattice, x2_x_7_lattice):
        for _, J in (sqrt2_lattice, x2_x_7_lattice):
            for ideal in (intersect_base(J), coefficient_ideal(J, default_x0(J)), steinitz(J)):
                for e in ideal.elems():
                    assert old.ideal_contains(ideal, BASE.omega * e)


SMALL = st.integers(-4, 4)
RAT = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
VEC = st.tuples(RAT, RAT, RAT, RAT)


@st.composite
def rel_exts(draw):
    base = QuadBase(draw(st.sampled_from([-1, -2, -5, -6, -10, -13])))
    a, b = (base.elem(draw(SMALL), draw(SMALL)) for _ in range(2))
    return RelExt(base, a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(ctx=rel_exts(), gens=st.lists(VEC, min_size=1, max_size=3), vecs=st.lists(VEC, min_size=4, max_size=4))
def test_integer_actions_match_the_extelem_path(ctx, gens, vecs):
    base = ctx.base
    w, th = base.omega, ctx.gen()
    units = [lelem(ctx, [int(i == j) for j in range(4)]) for i in range(4)]
    assert ctx.actions == tuple(tuple((g * u).coords() for u in units) for g in (w, th))
    assert base.actions == ((((w * w).y, (w * w).x), (w.y, w.x)),)
    # the span of the generators under w and theta, and its closure
    ref = old.span(ctx, [lelem(ctx, g) for g in gens])
    if ref.rank == 4:
        J = lattice_from_generators(ctx, gens)
        assert J.lat == ref and J.lat.closed_under(ctx.actions) and old.rtheta_closed(ctx, ref)
    else:
        with pytest.raises(NotFullRank):
            lattice_from_generators(ctx, gens)
    # a random rank-4 lattice, which is rarely an R[theta]-module, and its
    # spans under w alone and theta alone, each closed under one action
    for acts in ((), ctx.actions[:1], ctx.actions[1:]):
        lat = QLattice.from_vectors(vecs, acts)
        if lat.rank == 4:
            assert lat.closed_under(ctx.actions) == old.rtheta_closed(ctx, lat)
    # ideals: the span under w
    elems = [base.elem(g[0], g[1]) for g in gens]
    ideal = old.ideal_span(base, elems)
    if ideal.rank == 2:
        assert FracIdealR.from_elems(base, elems).lat == ideal


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ctx=rel_exts(), gens=st.lists(VEC, min_size=1, max_size=2), x0=VEC)
def test_freeness_does_not_depend_on_x0(ctx, gens, x0):
    if not (x0[2] or x0[3]):
        return  # x0 must lie outside K
    try:
        J = lattice_from_generators(ctx, gens)
    except NotFullRank:
        return
    basis = is_free(J, lelem(ctx, x0))
    assert (basis is None) == (is_free(J) is None)
    if basis is not None:
        assert lattice_from_generators(ctx, list(basis)) == J


# the lattices of the fixtures above, and the full ring R[sqrt 2]
@example(ctx=RelExt.from_poly_string(BASE, "x^2 - 2"), gens=[(2, 0, 0, 0), (0, 0, Fraction(1, 2), Fraction(1, 2))])
@example(ctx=RelExt.from_poly_string(BASE, "x^2 - x + 7"), gens=[(Fraction(1, 3), 0, Fraction(1, 3), 0), (2, 1, 0, 0)])
@example(ctx=RelExt.from_poly_string(BASE, "x^2 - 2"), gens=[(1, 0, 0, 0)])
@settings(max_examples=200, deadline=None, derandomize=True)
@given(ctx=rel_exts(), gens=st.lists(VEC, min_size=1, max_size=3))
def test_intersect_base_and_default_x0_match_the_kernel_path(ctx, gens):
    try:
        J = lattice_from_generators(ctx, gens)
    except NotFullRank:
        return
    assert intersect_base(J) == old.intersect_base(J)
    assert default_x0(J) == old.default_x0(J)


class TestGaussianWitness:
    def test_intro_example_witness(self):
        # U = [[2w, 1], [-3, w]] over Z[i] intertwines the two intro matrices
        gauss = QuadBase(-1)
        w = gauss.omega
        U = [[2 * w, gauss.one], [gauss.elem(-3), w]]
        A = [[gauss.zero, gauss.one], [gauss.elem(-6), gauss.zero]]
        B = [[gauss.zero, gauss.elem(2)], [gauss.elem(-3), gauss.zero]]
        assert qmat_mul(gauss, U, A) == qmat_mul(gauss, B, U)
        assert qmat_det(U) == gauss.one


class TestNonPrincipalityBox:
    def test_no_single_generator_in_box(self, sqrt2_lattice):
        # bounded attestation that the sqrt(2)-lattice is not R[theta]-principal:
        # no lattice point with small coordinates generates J over R[theta]
        ctx, J = sqrt2_lattice
        from itertools import product

        vecs = J.lat.vectors()
        for combo in product(range(-2, 3), repeat=4):
            cand = None
            for c, v in zip(combo, vecs):
                e = lelem(ctx, [c * x for x in v])
                cand = e if cand is None else cand + e
            if not cand:
                continue
            span = lattice_from_generators(ctx, [cand])
            assert span != J


def test_free_basis_is_checked_under_python_O():
    # a wrong u0 gives a basis that spans another lattice; the check of the
    # returned basis must raise even when asserts are compiled away
    proc = run_optimized(
        "from fractions import Fraction\n"
        "from matsim import lattices as L\n"
        "from matsim.errors import InvariantViolation\n"
        "base = L.QuadBase(-5)\n"
        "ctx = L.RelExt.from_poly_string(base, 'x^2 - 2')\n"
        "gens = [L.lelem(ctx, (2, 0, 0, 0)), L.lelem(ctx, (0, 0, Fraction(1, 2), Fraction(1, 2)))]\n"
        "J = L.lattice_from_generators(ctx, gens)\n"
        "real = L._find_u0\n"
        "L._find_u0 = lambda *args: real(*args) + Fraction(1, 2)\n"
        "try:\n"
        "    print(L.is_free(J))\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stdout + proc.stderr


def test_module_closure_is_checked_under_python_O():
    # a span without the images under w and theta is no R[theta]-module; the
    # closure check must raise even when asserts are compiled away
    proc = run_optimized(
        "from matsim import lattices as L\n"
        "from matsim.errors import InvariantViolation\n"
        "base = L.QuadBase(-5)\n"
        "ctx = L.RelExt.from_poly_string(base, 'x^2 - 2')\n"
        "real = L.QLattice.from_vectors\n"
        "L.QLattice.from_vectors = classmethod(lambda cls, vecs, actions=(): real(vecs))\n"
        "gens = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 2)]\n"
        "try:\n"
        "    print(L.lattice_from_generators(ctx, gens))\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stdout + proc.stderr


def test_principal_generator_is_checked_under_python_O():
    # a reduction that reports twice the minimal vector yields a generator of
    # 2I, not I; the check of the generator must raise without asserts
    proc = run_optimized(
        "from matsim import lattices as L\n"
        "from matsim.errors import InvariantViolation\n"
        "base = L.QuadBase(-5)\n"
        "real = L.gauss_reduce\n"
        "def wrong(F):\n"
        "    G, ((p, q), e2) = real(F)\n"
        "    return G, ((2 * p, 2 * q), e2)\n"
        "L.gauss_reduce = wrong\n"
        "I = L.FracIdealR.from_elems(base, [base.elem(7, 10**4)])\n"
        "try:\n"
        "    print(L.is_principal(base, I))\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stdout + proc.stderr
