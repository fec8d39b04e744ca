from fractions import Fraction

import pytest

from matsim.errors import NotFullRank, UnsupportedRing, X0InBase
from matsim.lattices import (
    FracIdealR,
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
from matsim.rings import ExtElem

from conftest import qmat_det, qmat_mul

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

    def test_arithmetic(self):
        w = BASE.omega
        assert w * w == BASE.elem(-5)
        assert (BASE.elem(2, 1) * BASE.elem(2, -1)) == BASE.elem(9)
        assert BASE.parse("2+w") == BASE.elem(2, 1)
        assert BASE.parse("-1/2-3*w") == ExtElem(BASE, Fraction(-1, 2), -3)


class TestLatticeConstruction:
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
                    assert ideal.contains(BASE.omega * e)


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
