import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matsim import lm
from matsim.errors import (
    CharPolyMismatch,
    IndefiniteForm,
    MatsimError,
    NotAnIdeal,
    NotImaginaryQuadratic,
    NotIntegral,
    NotSeparable,
)
from matsim.lm import (
    ZZ,
    BQForm,
    IdealBasis,
    char_poly_n,
    class_forms,
    companion,
    equivalent,
    gauss_reduce,
    ideal_norm,
    ideal_to_form,
    ideal_to_matrix,
    is_non_zero_divisor,
    matrix_to_ideal,
    reduce_form,
    scale_ideal,
)
from matsim.polys import MonicPoly, is_separable, parse_monic, poly_mul
from matsim.rings import FpTLoc, QuadExt, ZLoc

import legacy_lm as old
from conftest import SEED, all_instances, instance_ids, rand_integral, run_optimized
from legacy_polys import char_poly_n as hessenberg_char_poly

X2P6 = parse_monic("x^2 + 6", ZZ)
EISEN_F2 = QuadExt(FpTLoc(2), 0, FpTLoc(2).uniformizer(), "eisenstein")


def F(a, b, c):
    return BQForm(a, b, c)


class TestCompanion:
    def test_examples(self):
        assert [[ZZ.encode(x) for x in r] for r in companion(X2P6)] == [["0", "-6"], ["1", "0"]]
        f5 = parse_monic("x^2 - 5", ZZ)
        assert [[ZZ.encode(x) for x in r] for r in companion(f5)] == [["0", "5"], ["1", "0"]]
        f3 = parse_monic("x^3 - 1", ZZ)
        comp = companion(f3)
        assert char_poly_n(ZZ, comp) == f3

    def test_star_identity_for_companion(self):
        J = matrix_to_ideal(X2P6, companion(X2P6))
        # companion corresponds to the principal class: basis spans Z[theta]
        assert ideal_norm(J) == 1


class TestMatrixToIdeal:
    def test_intro_example_a(self):
        J = matrix_to_ideal(X2P6, [[0, 1], [-6, 0]])
        assert set(J.basis) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_intro_example_b(self):
        J = matrix_to_ideal(X2P6, [[0, 2], [-3, 0]])
        assert set(J.basis) == {(Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_char_poly_mismatch(self):
        with pytest.raises(CharPolyMismatch):
            matrix_to_ideal(X2P6, [[0, 1], [5, 0]])

    def test_shape_must_be_deg_f_square(self):
        for A in ([[0, -6], [1]], [[]], [[0, -6, 3], [1, 0, 2]], [[0, -6], [1, 0], [0, 0]]):
            with pytest.raises(ValueError, match="deg f x deg f"):
                matrix_to_ideal(X2P6, A)

    @pytest.mark.parametrize(
        "ring, f, A",
        [
            (ZLoc(2), "x^2 + 3", [["1/2", "2"], ["-13/8", "-1/2"]]),
            (ZZ, "x^3 + 6", [["0", "1/2", "0"], ["0", "0", "1"], ["-12", "0", "0"]]),
        ],
        ids=["ZLoc2", "ZZ"],
    )
    def test_entries_must_lie_in_R(self, ring, f, A):
        # both have char poly f; the ZLoc(2) basis used to come out
        # [[-13, 0], [-4, 8]], which ideal_to_matrix rejects as no ideal
        f = parse_monic(f, ring)
        A = [[ring.parse(x) for x in row] for row in A]
        assert char_poly_n(ring, A) == f
        with pytest.raises(NotIntegral):
            matrix_to_ideal(f, A, ring)

    def test_not_separable(self):
        f = parse_monic("x^2", ZZ)
        with pytest.raises(NotSeparable):
            matrix_to_ideal(f, [[0, 1], [0, 0]])

    def test_cubic_round_trip_similarity(self):
        f = parse_monic("x^3 - x - 1", ZZ)
        A = companion(f)
        J = matrix_to_ideal(f, A)
        B = ideal_to_matrix(f, J)
        assert char_poly_n(ZZ, B) == f


class TestIdealToMatrix:
    def test_two_theta_basis(self):
        J = IdealBasis(X2P6, ZZ, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
        A = ideal_to_matrix(X2P6, J)
        # row convention theta*(u) = (u)*A; the column-convention form
        # [[0,2],[-3,0]] is its transpose
        assert [[ZZ.encode(x) for x in r] for r in A] == [["0", "-3"], ["2", "0"]]

    def test_principal_basis(self):
        J = IdealBasis(X2P6, ZZ, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        A = ideal_to_matrix(X2P6, J)
        assert [[ZZ.encode(x) for x in r] for r in A] == [["0", "-6"], ["1", "0"]]

    def test_scaled_basis_is_similar(self):
        J = IdealBasis(X2P6, ZZ, ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1))))
        Js = scale_ideal(J, (0, 1))  # multiply by theta (a non-zero-divisor)
        A, B = ideal_to_matrix(X2P6, J), ideal_to_matrix(X2P6, Js)
        assert char_poly_n(ZZ, A) == char_poly_n(ZZ, B)
        assert equivalent(J, Js)

    def test_not_an_ideal(self):
        J = IdealBasis(X2P6, ZZ, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(3))))
        with pytest.raises(NotAnIdeal):
            ideal_to_matrix(X2P6, J)  # theta*1 = theta not in Z + 3Z*theta


class TestNonZeroDivisor:
    def test_examples(self):
        assert is_non_zero_divisor(X2P6, [2, 0])
        assert not is_non_zero_divisor(X2P6, [0, 0])
        assert is_non_zero_divisor(X2P6, [0, 1])


class TestForms:
    def test_intro_forms(self):
        JA = matrix_to_ideal(X2P6, [[0, 1], [-6, 0]])
        JB = matrix_to_ideal(X2P6, [[0, 2], [-3, 0]])
        assert reduce_form(ideal_to_form(JA)) == F(1, 0, 6)
        assert reduce_form(ideal_to_form(JB)) == F(2, 0, 3)
        assert not equivalent(JA, JB)

    def test_gaussian(self):
        f = parse_monic("x^2 + 1", ZZ)
        J = IdealBasis(f, ZZ, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        assert ideal_to_form(J) == F(1, 0, 1)

    def test_not_imaginary(self):
        f = parse_monic("x^2 - 5", ZZ)
        J = IdealBasis(f, ZZ, ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
        with pytest.raises(NotImaginaryQuadratic):
            ideal_to_form(J)


class TestReduceForm:
    def test_fixed_points(self):
        assert reduce_form(F(2, 0, 3)) == F(2, 0, 3)
        assert reduce_form(F(1, 0, 6)) == F(1, 0, 6)

    def test_unreduced_disc_minus_24(self):
        # any disc -24 form reduces into the two-element class list
        targets = {F(1, 0, 6), F(2, 0, 3)}
        assert reduce_form(F(6, 12, 7)) in targets
        assert reduce_form(F(5, 4, 2)) in targets
        assert reduce_form(F(3, 6, 5)) in targets

    def test_full_enumeration_disc_minus_24(self):
        assert class_forms(-24) == [F(1, 0, 6), F(2, 0, 3)]

    def test_indefinite_rejected(self):
        with pytest.raises(IndefiniteForm):
            reduce_form(F(1, 0, -5))

    def test_idempotent_and_disc_preserving(self, rng):
        count = 0
        while count < 200:
            a = rng.randint(1, 30)
            b = rng.randint(-30, 30)
            c = rng.randint(1, 30)
            Fm = F(a, b, c)
            if Fm.disc() >= 0:
                continue
            count += 1
            r = reduce_form(Fm)
            assert reduce_form(r) == r
            assert r.disc() == Fm.disc()
            assert -r.a < r.b <= r.a <= r.c


def _value(Fm, x, y):
    return Fm.a * x * x + Fm.b * x * y + Fm.c * y * y


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=st.integers(1, 10**30), c=st.integers(1, 10**30), t=st.floats(-0.999, 0.999))
def test_gauss_reduce_transform(a, c, t):
    # b with b^2 < 4ac, anywhere in that range, so F is positive definite
    b = int(t * 2 * math.isqrt(a * c))
    Fm = F(a, b, c)
    G, (e1, e2) = gauss_reduce(Fm)
    assert e1[0] * e2[1] - e1[1] * e2[0] == 1
    assert _value(Fm, *e1) == G.a
    assert _value(Fm, *e2) == G.c
    assert _value(Fm, e1[0] + e2[0], e1[1] + e2[1]) == G.a + G.b + G.c
    assert G.disc() == Fm.disc()
    assert -G.a < G.b <= G.a <= G.c and (G.b >= 0 or G.a < G.c)


class TestEquivalence:
    def test_scaling_invariance_random(self, rng):
        f = X2P6
        count = 0
        while count < 30:
            alpha = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
            if not is_non_zero_divisor(f, list(alpha)):
                continue
            count += 1
            J = matrix_to_ideal(f, [[0, 2], [-3, 0]])
            assert equivalent(J, scale_ideal(J, alpha))

    def test_dvr_delegation(self):
        Z2 = ZLoc(2)
        f = parse_monic("x^2 - 5", Z2)
        J1 = IdealBasis(f, Z2, ((Z2.one, Z2.zero), (Z2.zero, Z2.one)))
        J2 = IdealBasis(f, Z2, ((Z2.from_int(2), Z2.zero), (Z2.one, Z2.one)))
        assert not equivalent(J1, J2)  # the two x^2-5 classes over ZLoc(2)
        assert equivalent(J2, J2)

    def test_round_trip_class_preserved(self, rng):
        # matrix -> ideal -> matrix lands in the same GL2(Z)-class: equal forms
        for A in ([[0, 1], [-6, 0]], [[0, 2], [-3, 0]], [[1, 5], [-2, -1]]):
            f = char_poly_n(ZZ, [[ZZ.coerce(x) for x in r] for r in A])
            if f.a * f.a + 4 * f.b >= 0:
                continue
            J = matrix_to_ideal(f, A)
            B = ideal_to_matrix(f, J)
            JB = matrix_to_ideal(f, B)
            assert equivalent(J, JB)


def test_field_solve_is_one_elimination_for_det_and_solve():
    from matsim.intlin import field_solve

    M = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1, 2)]]
    det, (x, y) = field_solve(M, [[Fraction(4), Fraction(5)], [Fraction(0), Fraction(1)]])
    assert det == -6
    for sol, rhs in ((x, (4, 5)), (y, (0, 1))):
        assert [M[i][0] * sol[0] + M[i][1] * sol[1] for i in range(2)] == list(rhs)
    assert field_solve([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], [[1, 1]]) == (0, None)


def _matmul(ring, A, B):
    n = len(A)
    return [[sum((A[i][k] * B[k][j] for k in range(n)), ring.zero) for j in range(n)] for i in range(n)]


def _conjugate(ring, M, rng, draw, steps):
    """U*M*U^-1 for U a product of `steps` elementary matrices I + c*E_ij, c = draw()."""
    n = len(M)
    U = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    Ui = [row[:] for row in U]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = draw()
        U[i] = [x + c * y for x, y in zip(U[i], U[j])]
        for row in Ui:
            row[j] = row[j] - c * row[i]
    return _matmul(ring, _matmul(ring, U, M), Ui)


class TestCharPoly:
    def test_matches_sympy_charpoly(self, rng):
        sympy = pytest.importorskip("sympy")
        for n in range(1, 13):
            for _ in range(2):
                M = [[rng.choice((0, 0, rng.randint(-3, 3))) for _ in range(n)] for _ in range(n)]
                expected = [int(c) for c in reversed(sympy.Matrix(M).charpoly().all_coeffs())]
                assert list(char_poly_n(ZZ, M).coeffs) == expected

    @pytest.mark.parametrize(
        "ring", all_instances() + [EISEN_F2], ids=instance_ids() + ["EisenF2"]
    )
    def test_conjugated_companion(self, ring, rng):
        def draw():
            return rand_integral(ring, rng, 3)

        for n in range(1, 6):
            f = MonicPoly(ring, [draw() for _ in range(n)] + [ring.one])
            M = _conjugate(ring, companion(f), rng, draw, 2 * (n - 1))
            assert char_poly_n(ring, M) == f
        f2 = MonicPoly(ring, [draw(), draw(), ring.one])
        f3 = MonicPoly(ring, [draw(), draw(), draw(), ring.one])
        # swap: exchanging indices 1 and 2 of a companion (U a permutation)
        # leaves the subdiagonal entry (1, 0) zero above the nonzero (2, 0)
        C = companion(f3)
        P = [[C[i][j] for j in (0, 2, 1)] for i in (0, 2, 1)]
        assert not P[1][0] and P[2][0]
        assert char_poly_n(ring, P) == f3
        # skip: a block diagonal matrix has no pivot below the subdiagonal in
        # column 1; its char poly is the product of the blocks' ones
        Z = ring.zero
        B = [row + [Z] * 3 for row in companion(f2)] + [[Z] * 2 + row for row in C]
        assert not any(B[i][1] for i in range(2, 5))
        assert char_poly_n(ring, B) == MonicPoly(ring, poly_mul(f2.coeffs, f3.coeffs, ring))

    def test_degree_12_round_trip(self):
        # and degree 16, where the Sylvester matrix of f and f' is 31 x 31
        for n in (12, 16):
            rng = random.Random(SEED)
            f = parse_monic(f"x^{n} - x - 1", ZZ)
            A = _conjugate(ZZ, companion(f), rng, lambda: ZZ.from_int(rng.choice((-2, -1, 1, 2))), 2 * n)
            assert ideal_to_matrix(f, matrix_to_ideal(f, A)) == A

    @pytest.mark.parametrize(
        "ring", all_instances() + [EISEN_F2], ids=instance_ids() + ["EisenF2"]
    )
    def test_berkowitz_matches_hessenberg(self, ring, rng):
        for n in range(6):
            for _ in range(3):
                M = [[rand_integral(ring, rng, 3) if rng.random() < 0.6 else ring.zero for _ in range(n)]
                     for _ in range(n)]
                assert char_poly_n(ring, M) == hessenberg_char_poly(ring, M)

    def test_berkowitz_matches_hessenberg_on_integers(self, rng):
        for n in range(13):
            for _ in range(3):
                M = [[rng.choice((0, rng.randint(-9, 9), rng.randint(-10**6, 10**6))) for _ in range(n)]
                     for _ in range(n)]
                assert char_poly_n(ZZ, M) == hessenberg_char_poly(ZZ, M)


def test_resultant_separability_matches_the_gcd(rng):
    seen = set()
    for n in range(10):
        for _ in range(12):
            # f = g^2 * h has a repeated root once deg g >= 1
            k = rng.randint(0, n // 2)
            g = [rng.randint(-3, 3) for _ in range(k)] + [1]
            h = [rng.randint(-3, 3) for _ in range(n - 2 * k)] + [1]
            f = MonicPoly(ZZ, poly_mul(poly_mul(g, g, ZZ), h, ZZ))
            separable = lm._separable_zz([int(c) for c in f.coeffs])
            assert separable == is_separable(f, ZZ)
            seen.add(separable)
    assert seen == {True, False}


def test_star_identity_is_checked_under_python_O():
    # a wrong theta*u must raise even when asserts are compiled away
    proc = run_optimized(
        "from matsim import lm\n"
        "from matsim.errors import InvariantViolation\n"
        "from matsim.polys import parse_monic\n"
        "lm._theta_times = lambda *args: tuple(c + 1 for c in args[-1])\n"
        "try:\n"
        "    lm.matrix_to_ideal(parse_monic('x^2 + 6', lm.ZZ), [[0, 1], [-6, 0]])\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stderr


def _outcome(fn, *args):
    """fn(*args), or the class of the matsim error it raises."""
    try:
        return fn(*args)
    except MatsimError as exc:
        return type(exc)


def _variants(rng, f, J):
    """(f, basis, expected) to try on both paths: J itself, J/k (a fractional
    ideal with the same matrix), a singular basis, J with one vector over k
    (fractional, rarely an ideal), and J under a wrong integral f and a
    non-integral f.  expected is NotAnIdeal where the outcome is known."""
    k = rng.randint(2, 7)
    c = list(f.coeffs)
    wrong = MonicPoly(ZZ, [c[0] + rng.choice((-1, 1))] + c[1:])
    half = MonicPoly(ZZ, [c[0] + Fraction(1, 2)] + c[1:])
    basis = tuple(tuple(map(Fraction, u)) for u in J.basis)
    scaled = tuple(tuple(x / k for x in u) for u in basis)
    return [
        (f, basis, None),
        (f, scaled, None),
        (f, basis[:1] + basis[:-1], NotAnIdeal),
        (f, scaled[:1] + basis[1:], None),
        (wrong, basis, None),
        (half, basis, NotAnIdeal),
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_integer_path_matches_the_fraction_path(n, seed):
    # random separable f of degree n and a unimodular conjugate of its companion
    rng = random.Random(seed)
    f = MonicPoly(ZZ, [rng.randint(-5, 5) for _ in range(n)] + [1])
    assume(is_separable(f, ZZ))
    steps = rng.randint(0, 3 * n)
    A = _conjugate(ZZ, companion(f), rng, lambda: ZZ.from_int(rng.choice((-2, -1, 1, 2))), steps)
    g = lm._krylov_conjugator(ZZ, [int(c) for c in f.coeffs], [[int(x) for x in row] for row in A])
    assert g == old._krylov_conjugator(ZZ, f, A)
    J, Jold = matrix_to_ideal(f, A), old.matrix_to_ideal(f, A)
    assert J == Jold
    assert ideal_to_matrix(f, J) == old.ideal_to_matrix(f, Jold) == A
    for F, basis, expected in _variants(rng, f, J):
        Jb = IdealBasis(F, ZZ, basis)
        got = _outcome(ideal_to_matrix, F, Jb)
        assert got == _outcome(old.ideal_to_matrix, F, Jb)
        assert expected is None or got is expected
        if F != f:
            assert _outcome(matrix_to_ideal, F, A) is CharPolyMismatch is _outcome(old.matrix_to_ideal, F, A)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(b=st.integers(-60, 60), c=st.integers(1, 3000), seed=st.integers(0, 2**32 - 1))
def test_integer_forms_match_the_fraction_path(b, c, seed):
    # A = [[x, y], [-f(x)/y, -b - x]] has char poly f = x^2 + b*x + c
    assume(b * b < 4 * c)
    rng = random.Random(seed)
    f = MonicPoly(ZZ, [c, b, 1])
    x = rng.randint(-40, 40)
    fx = x * x + b * x + c
    y = rng.choice([d for d in range(1, 60) if fx % d == 0]) * rng.choice((1, -1))
    A = [[x, y], [-fx // y, -b - x]]
    J, Jold = matrix_to_ideal(f, A), old.matrix_to_ideal(f, A)
    assert J == Jold
    assert ideal_to_form(J) == old.ideal_to_form(Jold)
    for F, basis, expected in _variants(rng, f, J):
        Jb = IdealBasis(F, ZZ, basis)
        got = _outcome(ideal_to_form, Jb)
        assert got == _outcome(old.ideal_to_form, Jb)
        assert expected is None or got is expected
        if not isinstance(got, type):
            assert reduce_form(got) == reduce_form(old.ideal_to_form(Jb))
