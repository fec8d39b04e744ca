"""Acceptance criteria, one test per criterion (run with -s for the report).

Each test prints one line "[criterion N] PASS/FAIL <summary> (t s)" and then
asserts.  Criterion 8 is split in two: its class-list clause contradicts the
similarity clauses of the same criterion (and the classification itself, see
tests/test_classify.py::TestClassList::test_insep_t3), so that clause lives
in a separate, honestly-failing test rather than being weakened to pass.
"""

import random
import time
from fractions import Fraction

import pytest

from matsim.classify import (
    Mat2,
    canonical_matrix,
    class_list,
    class_number,
    classify,
    similar,
    witness,
)
from matsim.lattices import (
    QuadBase,
    RelExt,
    coefficient_ideal,
    default_x0,
    intersect_base,
    is_free,
    is_principal,
    lattice_from_generators,
    lelem,
    mult_matrix,
    steinitz,
)
from matsim.lm import (
    ZZ,
    BQForm,
    equivalent,
    ideal_to_form,
    is_non_zero_divisor,
    matrix_to_ideal,
    reduce_form,
    scale_ideal,
)
from matsim.oracle import conj_search_mod, mat_congruent_mod
from matsim.polys import MonicPoly, parse_monic, quad_factor
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc

from conftest import (
    SEED,
    qmat_det,
    qmat_mul,
    all_instances,
    rand_field_elem,
    rand_gl2,
    rand_integral,
    rand_mat,
)

Z2 = ZLoc(2)
F2 = FpTLoc(2)
UNRAM = QuadExt(Z2, 1, 1, "unramified")
EISEN = QuadExt(Z2, 0, 2, "eisenstein")


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def _report(n, ok, msg, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[criterion {n}] {status} {msg} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {n}: {msg}"
    assert elapsed < limit, f"criterion {n}: exceeded {limit}s ({elapsed:.2f}s)"


def test_criterion_1_x2_minus_5_classes():
    with _Timer() as tm:
        f = MonicPoly.quadratic(Z2, 0, 5)
        forms = class_list(Z2, f)
        mats = [canonical_matrix(fo).encode() for fo in forms]
        ok = mats == [[["0", "1"], ["5", "0"]], [["-1", "2"], ["2", "1"]]]
        A = Mat2(Z2, [[0, 1], [5, 0]])
        B = Mat2(Z2, [[-1, 2], [2, 1]])
        ok &= not similar(Z2, A, B)
        sqrt5 = ExtElem(UNRAM, Fraction(-1), Fraction(2))
        ok &= sqrt5 * sqrt5 == UNRAM.from_int(5)
        SA = Mat2(UNRAM, [[0, 1], [5, 0]])
        SB = Mat2(UNRAM, [[-1, 2], [2, 1]])
        D = Mat2(UNRAM, [[sqrt5, UNRAM.one], [UNRAM.zero, -sqrt5]])
        C = Mat2(UNRAM, [[sqrt5, UNRAM.zero], [UNRAM.zero, -sqrt5]])
        w = witness(UNRAM, SA, D)
        ok &= w is not None and w.check(SA, D)
        ok &= similar(UNRAM, SB, C)
    _report(1, ok, "x^2-5 over Z_(2): two classes, exact matrices, extension behavior", tm.elapsed, 1.0)


def test_criterion_2_intro_example():
    with _Timer() as tm:
        f = parse_monic("x^2 + 6", ZZ)
        JA = matrix_to_ideal(f, [[0, 1], [-6, 0]])
        JB = matrix_to_ideal(f, [[0, 2], [-3, 0]])
        ok = reduce_form(ideal_to_form(JA)) == BQForm(1, 0, 6)
        ok &= reduce_form(ideal_to_form(JB)) == BQForm(2, 0, 3)
        ok &= not equivalent(JA, JB)
        gauss = QuadBase(-1)
        w = gauss.omega
        U = [[2 * w, gauss.one], [gauss.elem(-3), w]]
        A = [[gauss.zero, gauss.one], [gauss.elem(-6), gauss.zero]]
        B = [[gauss.zero, gauss.elem(2)], [gauss.elem(-3), gauss.zero]]
        ok &= qmat_mul(gauss, U, A) == qmat_mul(gauss, B, U)
        ok &= qmat_det(U) == gauss.one
    _report(2, ok, "intro example: forms x^2+6y^2 vs 2x^2+3y^2, Gaussian witness", tm.elapsed, 1.0)


def test_criterion_3_sqrt2_lattice():
    with _Timer() as tm:
        base = QuadBase(-5)
        ctx = RelExt.from_poly_string(base, "x^2 - 2")
        J = lattice_from_generators(
            ctx,
            [lelem(ctx, (2, 0, 0, 0)), lelem(ctx, (0, 0, Fraction(1, 2), Fraction(1, 2)))],
        )
        ok = intersect_base(J).encode() == "(2, 1+w)"
        x0 = default_x0(J)
        ok &= coefficient_ideal(J, x0).encode() == "(2, 1+w)"
        st = steinitz(J, x0)
        ok &= st.encode() == "(2)"
        ok &= is_principal(base, st) == base.elem(2)
        basis = is_free(J, x0)
        ok &= basis is not None
        if basis is not None:
            A = mult_matrix(J, basis)
            ok &= A[0][0] + A[1][1] == base.zero
            ok &= A[0][0] * A[1][1] - A[0][1] * A[1][0] == base.elem(-2)
            ok &= lattice_from_generators(ctx, list(basis)) == J
    _report(3, ok, "x^2-2 lattice over Z[sqrt(-5)]: Steinitz (2) principal, explicit free basis", tm.elapsed, 1.0)


def test_criterion_4_x2_x_7_lattice():
    with _Timer() as tm:
        base = QuadBase(-5)
        ctx = RelExt.from_poly_string(base, "x^2 - x + 7")
        J = lattice_from_generators(
            ctx,
            [lelem(ctx, (Fraction(1, 3), 0, Fraction(1, 3), 0)), lelem(ctx, (2, 1, 0, 0))],
        )
        x0 = default_x0(J)
        ok = coefficient_ideal(J, x0).encode() == "(1)"
        st = steinitz(J, x0)
        ok &= st.encode() == "(3, 2+w)"
        ok &= is_principal(base, st) is None
        ok &= is_free(J, x0) is None
    _report(4, ok, "x^2-x+7 lattice: Steinitz (3, 2+w) non-principal, not free", tm.elapsed, 1.0)


def test_criterion_5_class_number_formula():
    with _Timer() as tm:
        rng = random.Random(SEED)
        ok = True
        accepted = 0
        while accepted < 50:
            p = rng.choice([3, 5, 7])
            ring = ZLoc(p)
            a = rand_integral(ring, rng)
            b = rand_integral(ring, rng)
            f = MonicPoly.quadratic(ring, a, b)
            if quad_factor(f, ring).reducible:
                continue
            delta = a * a / Fraction(4) + b
            vd = ring.val(delta)
            if vd > 6:
                continue
            accepted += 1
            n = class_number(ring, f)
            ok &= n == vd // 2 + 1
            ok &= n == len(class_list(ring, f))
        Z3 = ZLoc(3)
        M0 = Mat2(Z3, [[0, 1], [18, 0]])
        M1 = Mat2(Z3, [[0, 3], [6, 0]])
        ok &= conj_search_mod(Z3, M0, M1, 4, budget=2 * 10**8) is None
    _report(5, ok, "50 random Unit2 class numbers + x^2-18 oracle distinction", tm.elapsed, 30.0)


# --- criterion 6: the randomized property suites --------------------------


_SUITE_TOTAL = []


def _suite(n, name, count, elapsed, failures):
    _SUITE_TOTAL.append(elapsed)
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion 6.{n}] {status} {name}: {count} cases, {len(failures)} failures ({elapsed:.2f}s)")
    assert not failures, failures[:3]
    assert count >= 200


def test_criterion_6_1_valuation_axioms():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        for ring in all_instances():
            for _ in range(40):
                count += 1
                x, y = rand_field_elem(ring, rng), rand_field_elem(ring, rng)
                vx, vy = ring.val(x), ring.val(y)
                if ring.val(x * y) != vx + vy:
                    failures.append((ring, "mul", x, y))
                if (x + y) and ring.val(x + y) < min(vx, vy):
                    failures.append((ring, "ultrametric", x, y))
                if vx != vy and ring.val(x + y) != min(vx, vy):
                    failures.append((ring, "strict", x, y))
    _suite(1, "valuation axioms", count, tm.elapsed, failures)


def test_criterion_6_2_conjugation_invariance():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        for ring in all_instances():
            for _ in range(34):
                count += 1
                A = rand_mat(ring, rng)
                V = rand_gl2(ring, rng)
                B = (V @ A) @ V.inv()
                if classify(ring, B) != classify(ring, A):
                    failures.append((ring, A.encode()))
    _suite(2, "conjugation invariance of classify", count, tm.elapsed, failures)


def test_criterion_6_3_witness_soundness():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        for ring in all_instances():
            for _ in range(34):
                count += 1
                A = rand_mat(ring, rng)
                V = rand_gl2(ring, rng)
                B = (V @ A) @ V.inv()
                w = witness(ring, A, B)
                if w is None or (w.U @ A) != (B @ w.U) or ring.val(w.U.det()) != 0:
                    failures.append((ring, A.encode()))
    _suite(3, "witness soundness (exact identity, unit det)", count, tm.elapsed, failures)


def test_criterion_6_4_transpose_similarity():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        for ring in all_instances():
            for _ in range(34):
                count += 1
                A = rand_mat(ring, rng)
                w = witness(ring, A, A.transpose())
                if w is None or not w.check(A, A.transpose()):
                    failures.append((ring, A.encode()))
    _suite(4, "transpose similarity", count, tm.elapsed, failures)


def test_criterion_6_5_round_trip():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        while count < 200:
            for ring in all_instances():
                a, b = rand_integral(ring, rng), rand_integral(ring, rng)
                f = MonicPoly.quadratic(ring, a, b)
                for form in class_list(ring, f, insep_bound=3):
                    count += 1
                    if classify(ring, canonical_matrix(form)) != form:
                        failures.append((ring, form.label()))
    _suite(5, "round trip classify(canonical_matrix(F)) = F", count, tm.elapsed, failures)


def test_criterion_6_6_scaling_invariance():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        f = parse_monic("x^2 + 6", ZZ)
        J0 = matrix_to_ideal(f, [[0, 2], [-3, 0]])
        JP = matrix_to_ideal(f, [[0, 1], [-6, 0]])
        while count < 200:
            alpha = (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
            if not is_non_zero_divisor(f, list(alpha)):
                continue
            count += 1
            J = J0 if rng.random() < 0.5 else JP
            if not equivalent(J, scale_ideal(J, alpha)):
                failures.append(alpha)
    _suite(6, "non-zero-divisor scaling invariance of equivalent", count, tm.elapsed, failures)


def test_criterion_6_7_reduce_form():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        while count < 200:
            a = rng.randint(1, 40)
            b = rng.randint(-40, 40)
            c = rng.randint(1, 40)
            F = BQForm(a, b, c)
            if F.disc() >= 0:
                continue
            count += 1
            r = reduce_form(F)
            if reduce_form(r) != r or r.disc() != F.disc():
                failures.append((a, b, c))
    _suite(7, "reduce_form idempotence and discriminant preservation", count, tm.elapsed, failures)


def test_criterion_6_8_oracle_soundness():
    with _Timer() as tm:
        rng = random.Random(SEED)
        failures = []
        count = 0
        small = [ZLoc(2), ZLoc(3), F2]
        for ring in small:
            for _ in range(35):
                # direction (i): no modular witness at any N => not similar
                count += 1
                A, B = rand_mat(ring, rng), rand_mat(ring, rng)
                if conj_search_mod(ring, A, B, 2) is None and similar(ring, A, B):
                    failures.append(("(i)", ring, A.encode(), B.encode()))
                # direction (ii): exact witnesses reduce modulo every pi^N
                count += 1
                V = rand_gl2(ring, rng)
                C = (V @ A) @ V.inv()
                w = witness(ring, A, C)
                for N in (1, 2, 3):
                    if not mat_congruent_mod(ring, w.U @ A, C @ w.U, N):
                        failures.append(("(ii)", ring, A.encode(), N))
                    if conj_search_mod(ring, A, C, N) is None:
                        failures.append(("(ii) search", ring, A.encode(), N))
    _suite(8, "oracle soundness directions (i) and (ii)", count, tm.elapsed, failures)


def test_criterion_6_total_runtime():
    total = sum(_SUITE_TOTAL)
    print(f"[criterion 6] PASS total property-suite runtime {total:.2f}s (limit 120s)")
    assert total < 120.0


def test_criterion_7_descent():
    with _Timer() as tm:
        rng = random.Random(SEED)
        checked = 0
        mismatches = []

        def embed(S, M):
            return Mat2(S, [[S.embed(x) for x in row] for row in M.rows])

        while checked < 100:
            A = rand_mat(Z2, rng)
            if rng.random() < 0.5:
                V = rand_gl2(Z2, rng)
                B = (V @ A) @ V.inv()
            else:
                B = rand_mat(Z2, rng)
                if A.char_poly() != B.char_poly():
                    continue
            checked += 1
            sR = similar(Z2, A, B)
            for S in (UNRAM, EISEN):
                if similar(S, embed(S, A), embed(S, B)) != sR:
                    mismatches.append((A.encode(), B.encode(), repr(S)))
        ok = not mismatches
    _report(7, ok, f"descent on {checked} shared-char-poly pairs over both extensions", tm.elapsed, 60.0)


def test_criterion_8_similarity_clauses():
    with _Timer() as tm:
        t = F2.parse("t")
        M1 = Mat2(F2, [[0, t], [t * t, 0]])
        M2 = Mat2(F2, [[0, t * t], [t, 0]])
        M0 = Mat2(F2, [[0, t * t * t], [1, 0]])
        w = witness(F2, M1, M2)
        ok = similar(F2, M1, M2) and w is not None and w.check(M1, M2)
        ok &= not similar(F2, M0, M1)
    _report(8, ok, "inseparable similarity clauses (witness verified)", tm.elapsed, 1.0)


@pytest.mark.inconsistent_expectation
def test_criterion_8_class_list_as_stated():
    """Stated expectation: class_list(x^2 - t^3, bound 5) = classes i = 0, 1, 2.

    That expectation is mathematically unattainable: v(t^3 - u^2) <= 3 for
    every u (squares in GF(2)(t) have even-exponent support), so no class
    exists at i = 2, and the expected third matrix [[0,t],[t^2,0]] is
    conjugate to the expected second one [[0,t^2],[t,0]] -- as the
    similarity clause of this same criterion asserts.  The enumeration
    returns the two genuine classes; this test records the original
    expectation as stated and fails honestly rather than being weakened.
    """
    with _Timer() as tm:
        f = MonicPoly.quadratic(F2, 0, F2.parse("t^3"))
        forms = class_list(F2, f, insep_bound=5)
        mats = [canonical_matrix(fo).encode() for fo in forms]
        expected_spec_literal = [
            [["0", "t^3"], ["1", "0"]],
            [["0", "t^2"], ["t", "0"]],
            [["0", "t"], ["t^2", "0"]],
        ]
        ok = mats == expected_spec_literal
    _report(
        "8 (class-list clause)",
        ok,
        "stated inseparable class list i=0,1,2 is internally inconsistent "
        "(its third matrix is conjugate to its second); the true list is i=0,1",
        tm.elapsed,
        1.0,
    )
