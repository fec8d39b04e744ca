import random
from fractions import Fraction

import pytest

from matsim.errors import (
    CharPolyMismatch,
    IndefiniteForm,
    NotAnIdeal,
    NotImaginaryQuadratic,
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
    ideal_norm,
    ideal_to_form,
    ideal_to_matrix,
    is_non_zero_divisor,
    matrix_to_ideal,
    reduce_form,
    scale_ideal,
)
from matsim.polys import MonicPoly, parse_monic, poly_mul
from matsim.rings import FpTLoc, QuadExt, ZLoc

from conftest import SEED, all_instances, instance_ids, rand_integral, run_optimized

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
        rng = random.Random(SEED)
        f = parse_monic("x^12 - x - 1", ZZ)
        A = _conjugate(ZZ, companion(f), rng, lambda: ZZ.from_int(rng.choice((-2, -1, 1, 2))), 24)
        assert ideal_to_matrix(f, matrix_to_ideal(f, A)) == A


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
