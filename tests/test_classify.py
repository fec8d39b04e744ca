import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matsim.classify import (
    Char2Sep,
    Case22Extra,
    Case22Main,
    GL2Witness,
    Insep,
    LowerBound,
    Mat2,
    PolyFacts,
    Reducible,
    Unit2,
    canonical_matrix,
    class_list,
    class_number,
    classify,
    compute_m,
    ideal_reps,
    identity,
    pi_pow,
    reducible_normalize,
    similar,
    to_canonical,
    triangularize,
    witness,
)
from matsim.errors import InsepBoundRequired, InvalidParams, NotIntegral
from matsim.oracle import conj_search_mod
from matsim.polys import MonicPoly, parse_monic, quad_factor
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc

import legacy_classify as old
from conftest import SEED, all_instances, instance_ids, rand_gl2, rand_integral, rand_mat, run_optimized

Z2 = ZLoc(2)
Z3 = ZLoc(3)
Z5 = ZLoc(5)
F2 = FpTLoc(2)
UNRAM = QuadExt(Z2, 1, 1, "unramified")
EISEN = QuadExt(Z2, 0, 2, "eisenstein")
EISEN_F2 = QuadExt(F2, 0, F2.uniformizer(), "eisenstein")
# every branch, plus a characteristic-2 ring whose v(2) is not the INF object
RINGS = all_instances() + [EISEN_F2]
RING_IDS = instance_ids() + ["EisenF2"]


def mat(ring, rows):
    return Mat2(ring, rows)


def quad(ring, a, b):
    return MonicPoly.quadratic(ring, ring.coerce(a), ring.coerce(b))


class TestClassifyExamples:
    def test_x2_minus_5_principal(self):
        form = classify(Z2, mat(Z2, [[0, 1], [5, 0]]))
        assert form == Case22Main(quad(Z2, 0, 5), 0)

    def test_x2_minus_5_nontrivial(self):
        form = classify(Z2, mat(Z2, [[-1, 2], [2, 1]]))
        assert isinstance(form, Case22Extra)
        assert form.r == 1 and form.i == 1

    def test_insep_t_entry(self):
        t = F2.parse("t")
        form = classify(F2, mat(F2, [[0, t], [t * t, 0]]))
        assert isinstance(form, Insep)
        assert form.i == 1 and form.u == F2.zero and form.s == F2.parse("t^2")

    def test_non_integral_rejected(self):
        with pytest.raises(NotIntegral):
            mat(Z2, [[Fraction(1, 2), 0], [0, 0]])


class TestCanonicalMatrix:
    def test_case22extra_x2_minus_5(self):
        f = quad(Z2, 0, 5)
        M = canonical_matrix(Case22Extra(f, Z2.one, 1))
        assert M.encode() == [["-1", "2"], ["2", "1"]]

    def test_scalar(self):
        f = quad(Z5, 2, -1)  # (x-1)^2
        M = canonical_matrix(Reducible(f, Z5.one, Z5.one, Z5.zero))
        assert M.encode() == [["1", "0"], ["0", "1"]]

    def test_insep_non_normalized_params(self):
        # u^2 + s*pi^i = b holds, so the matrix is emitted even though the
        # stored s has v(s) < i (the class of this matrix is i = 1)
        f = quad(F2, 0, F2.parse("t^3"))
        M = canonical_matrix(Insep(f, 2, F2.zero, F2.parse("t")))
        assert M.encode() == [["0", "t"], ["t^2", "0"]]

    def test_invalid_params(self):
        f = quad(Z2, 0, 5)
        with pytest.raises(InvalidParams):
            canonical_matrix(Unit2(f, 0))  # 2 is not a unit in ZLoc(2)
        with pytest.raises(InvalidParams):
            canonical_matrix(Case22Main(f, 3))  # index out of range
        with pytest.raises(InvalidParams):
            canonical_matrix(Insep(quad(F2, 0, F2.parse("t^3")), 1, F2.one, F2.one))

    def test_negative_exponents_are_invalid(self):
        # each form below once reached pi^k with k < 0
        t = F2.parse("t")
        with pytest.raises(InvalidParams):
            canonical_matrix(Reducible(quad(Z2, 2, -1), Z2.one, Z2.one, Z2.coerce(Fraction(1, 2))))
        with pytest.raises(InvalidParams):
            canonical_matrix(Char2Sep(quad(F2, t, t), F2.zero, -1))
        with pytest.raises(InvalidParams):
            canonical_matrix(Insep(quad(F2, 0, F2.parse("t^3")), -1, F2.zero, F2.parse("t^3")))
        with pytest.raises(ValueError):
            pi_pow(Z2, -1)


class TestComputeM:
    def test_x2_minus_5_case22(self):
        m, r = compute_m(Z2, quad(Z2, 0, 5), "case22")
        assert (m, r) == (1, 1)

    def test_char2sep_m0(self):
        t = F2.parse("t")
        m, r = compute_m(F2, quad(F2, t, t), "char2sep")
        assert (m, r) == (0, F2.zero)
        # oracle: no residue mod t^2 reaches v(b - r(r+a)) >= 2
        b, a = t, t
        assert all(F2.val(b - rr * (rr + a)) < 2 for rr in F2.residues(2))

    def test_char2sep_m1(self):
        t = F2.parse("t")
        b = F2.parse("t^2+t^3")
        m, r = compute_m(F2, quad(F2, t, b), "char2sep")
        # both r = 0 and r = t realize level 1; the least residue wins
        assert m == 1 and r == F2.zero
        assert F2.val(b - r * (r + t)) >= 2

    def test_m_is_maximal_brute_force(self):
        # independent check of maximality over all residues
        f = quad(Z2, 0, 5)
        m, _ = compute_m(Z2, f, "case22")
        delta = Fraction(5)
        for cand in range(m + 1, 3):
            hit = any(
                Z2.val(delta - r * r) >= 2 * cand
                for r in Z2.residues(2 * cand)
                if Z2.val(r) == 0
            )
            assert not hit


class TestClassList:
    def test_x2_minus_5(self):
        f = quad(Z2, 0, 5)
        forms = class_list(Z2, f)
        assert [fo.label() for fo in forms] == ["Case22Main{n=0}", "Case22Extra{r=1,i=1}"]
        mats = [canonical_matrix(fo).encode() for fo in forms]
        assert mats == [[["0", "1"], ["5", "0"]], [["-1", "2"], ["2", "1"]]]

    def test_x2_minus_18_over_z3(self):
        f = quad(Z3, 0, 18)
        forms = class_list(Z3, f)
        assert [type(fo) for fo in forms] == [Unit2, Unit2]
        mats = [canonical_matrix(fo).encode() for fo in forms]
        assert mats == [[["0", "1"], ["18", "0"]], [["0", "3"], ["6", "0"]]]

    def test_insep_t3(self):
        # inseparable classes for b = t^3: only i = 0, 1 exist, since
        # v(t^3 - u^2) <= 3 for every u (squares have even-exponent support)
        f = quad(F2, 0, F2.parse("t^3"))
        forms = class_list(F2, f, insep_bound=5)
        assert [fo.label() for fo in forms] == [
            "Insep{i=0,u=0,s=t^3}",
            "Insep{i=1,u=0,s=t^2}",
        ]
        mats = [canonical_matrix(fo).encode() for fo in forms]
        assert mats == [[["0", "t^3"], ["1", "0"]], [["0", "t^2"], ["t", "0"]]]

    def test_insep_requires_bound(self):
        with pytest.raises(InsepBoundRequired):
            class_list(F2, quad(F2, 0, F2.parse("t^3")))

    def test_double_root_requires_bound(self):
        with pytest.raises(InsepBoundRequired):
            class_list(Z2, quad(Z2, 2, -1))  # (x-1)^2

    def test_double_root_with_bound(self):
        forms = class_list(Z2, quad(Z2, 2, -1), insep_bound=2)
        taus = [Z2.encode(fo.tau) for fo in forms]
        assert taus == ["0", "1", "2", "4"]

    def test_reducible_distinct_roots(self):
        # f = (x-1)(x-3) over ZLoc(2): v(lam1-lam2) = 1, two classes
        f = quad(Z2, 4, -3)
        forms = class_list(Z2, f)
        assert len(forms) == 2
        assert {Z2.encode(fo.tau) for fo in forms} == {"1", "2"}


class TestClassNumber:
    def test_examples(self):
        assert class_number(Z2, quad(Z2, 0, 5)) == 2
        assert class_number(Z3, quad(Z3, 0, 18)) == 2
        assert class_number(Z2, quad(Z2, 0, 2)) == 1

    def test_insep_lower_bound(self):
        n = class_number(F2, quad(F2, 0, F2.parse("t^3")), insep_bound=5)
        assert n == LowerBound(2)

    def test_reducible_rejected(self):
        with pytest.raises(ValueError):
            class_number(Z5, quad(Z5, 3, -2))


class TestSimilar:
    def test_x2_minus_5_pair(self):
        A = mat(Z2, [[0, 1], [5, 0]])
        B = mat(Z2, [[-1, 2], [2, 1]])
        assert not similar(Z2, A, B)

    def test_x2_minus_5_over_extension(self):
        sqrt5 = ExtElem(UNRAM, Fraction(-1), Fraction(2))
        A = mat(UNRAM, [[0, 1], [5, 0]])
        B = mat(UNRAM, [[-1, 2], [2, 1]])
        D = mat(UNRAM, [[sqrt5, UNRAM.one], [UNRAM.zero, -sqrt5]])
        C = mat(UNRAM, [[sqrt5, UNRAM.zero], [UNRAM.zero, -sqrt5]])
        assert not similar(UNRAM, A, B)
        assert similar(UNRAM, A, D)
        assert similar(UNRAM, B, C)
        w = witness(UNRAM, A, D)
        assert w is not None and w.check(A, D)

    def test_insep_transpose_pair(self):
        t = F2.parse("t")
        M1 = mat(F2, [[0, t], [t * t, 0]])
        M2 = mat(F2, [[0, t * t], [t, 0]])
        assert similar(F2, M1, M2)
        w = witness(F2, M1, M2)
        assert w is not None and w.check(M1, M2)
        M0 = mat(F2, [[0, t * t * t], [1, 0]])
        assert not similar(F2, M0, M1)
        assert witness(F2, M0, M1) is None

    def test_different_char_poly(self):
        assert not similar(Z2, mat(Z2, [[0, 1], [5, 0]]), mat(Z2, [[0, 1], [3, 0]]))


class TestWitness:
    def test_conjugation_round_trip(self):
        A = mat(Z2, [[0, 1], [5, 0]])
        V = mat(Z2, [[1, 1], [0, 1]])
        B = (V @ A) @ V.inv()
        w = witness(Z2, A, B)
        assert w is not None and w.check(A, B)

    def test_x2_minus_5_pair_none(self):
        assert witness(Z2, mat(Z2, [[0, 1], [5, 0]]), mat(Z2, [[-1, 2], [2, 1]])) is None


# the rings of the witness check: every instance, the Eisenstein extension
# w^2 = t of FpTLoc(2), and an unramified extension of ZLoc(2) whose
# w^2 = w/3 + 5/7 has denominators, so that its pair products carry L = 21
CHECK_RINGS = RINGS + [QuadExt(Z2, Fraction(1, 3), Fraction(5, 7), "unramified")]


def _bump(M, entry, c):
    rows = [list(r) for r in M.rows]
    rows[entry // 2][entry % 2] += c
    return Mat2(M.ring, rows, check_integral=False)


@given(
    ring=st.sampled_from(CHECK_RINGS),
    mode=st.sampled_from(["conjugate", "bump U", "bump B", "I, bump A", "pi*I", "U/pi"]),
    seed=st.integers(0, 2**32),
    entry=st.integers(0, 3),
    k=st.integers(0, 40),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_witness_check_matches_the_legacy_check(ring, mode, seed, entry, k):
    rng = random.Random(seed)
    U, A = rand_gl2(ring, rng), rand_mat(ring, rng)
    B = (U @ A) @ U.inv()
    if mode == "bump U":
        U = _bump(U, entry, pi_pow(ring, k))
    elif mode == "bump B":
        B = _bump(B, entry, pi_pow(ring, k))
    elif mode == "I, bump A":  # U*A - B*U is nonzero in one entry only
        U, B = identity(ring), _bump(A, entry, pi_pow(ring, k))
    elif mode == "pi*I":  # commutes with A, but is not a unit
        U, B = Mat2(ring, [[pi_pow(ring, k + 1), 0], [0, pi_pow(ring, k + 1)]]), A
    elif mode == "U/pi":  # U*A = B*U still holds, but U leaves R
        pi = ring.uniformizer()
        U = Mat2(ring, [[x / pi for x in row] for row in U.rows], check_integral=False)
    verdict = GL2Witness(U).check(A, B)
    assert verdict == old.witness_check(U, A, B)
    if mode == "conjugate":
        assert verdict
    elif mode in ("I, bump A", "pi*I", "U/pi"):
        assert not verdict


# per ring kind, U = diag(pi, 1/pi) has determinant 1 and U*A = B*U for
# A = [[1, 1], [0, 1]] and B = [[1, pi^2], [0, 1]], yet A and B are not
# similar (tau = 1 against tau = pi^2): the check must see that U leaves R,
# with asserts compiled away
OFF_R_RINGS = {
    "ZLoc": "R = ZLoc(3)\n",
    "FpTLoc": "R = FpTLoc(3)\n",
    "QuadExt": "R = QuadExt(ZLoc(2), 1, 1, 'unramified')\n",
    "QuadExt-FpTLoc": "F2 = FpTLoc(2)\nR = QuadExt(F2, 0, F2.uniformizer(), 'eisenstein')\n",
}


@pytest.mark.parametrize("kind", sorted(OFF_R_RINGS))
def test_check_rejects_a_unit_determinant_outside_R_under_python_O(kind):
    proc = run_optimized(
        "import importlib\n"
        "C = importlib.import_module('matsim.classify')\n"
        "from matsim.rings import FpTLoc, QuadExt, ZLoc\n"
        + OFF_R_RINGS[kind]
        + "pi = R.uniformizer()\n"
        "A = C.Mat2(R, [[1, 1], [0, 1]])\n"
        "B = C.Mat2(R, [[1, pi * pi], [0, 1]])\n"
        "U = C.Mat2(R, [[pi, 0], [0, R.one / pi]], check_integral=False)\n"
        "print(U @ A == B @ U, U.is_unit(), C.GL2Witness(U).check(A, B), C.similar(R, A, B), __debug__)\n"
    )
    assert proc.stdout == "True True False False False\n", proc.stdout + proc.stderr


def _same_f_pairs(ring, rng):
    """Pairs (A, B) with one characteristic polynomial: B a conjugate of A,
    or of the canonical matrix of another class in A's list.  Half the A are
    lam*I + pi^2*M, whose f has a deeper discriminant and so more classes."""
    pi2 = pi_pow(ring, 2)
    for k in range(8):
        A = rand_mat(ring, rng)
        if k % 2:
            A = Mat2(ring, [[A[0][0] + pi2 * A[0][1], pi2 * A[1][0]], [pi2 * A[1][1], A[0][0]]])
        V = rand_gl2(ring, rng)
        yield A, (V @ A) @ V.inv()
        form = classify(ring, A)
        for other in class_list(ring, A.char_poly(), insep_bound=3)[:4]:
            if other != form:
                yield A, (V @ canonical_matrix(other)) @ V.inv()


@pytest.mark.parametrize("ring", CHECK_RINGS, ids=RING_IDS + ["UnramDen"])
def test_pair_classification_matches_two_independent_ones(ring):
    # witness and similar share one PolyFacts between A and B; the legacy
    # versions classify each matrix on its own
    kinds = set()
    for A, B in _same_f_pairs(ring, random.Random(SEED)):
        w, w_old = witness(ring, A, B), old.witness(ring, A, B)
        assert (w is None) == (w_old is None)
        assert w is None or w.U.encode() == w_old.U.encode()
        assert similar(ring, A, B) == old.similar(ring, A, B) == (w is not None)
        facts = PolyFacts(ring, A.char_poly())
        for X in (A, B):
            form, U = to_canonical(ring, X, facts)
            form_old, U_old = to_canonical(ring, X)
            assert form == form_old and U.encode() == U_old.encode()
        kinds.add(w is not None)
    assert kinds == {True, False}


def _count_calls(monkeypatch, names):
    C = importlib.import_module("matsim.classify")  # matsim.classify is the function
    calls = {}
    for name in names:
        def counted(*args, _real=getattr(C, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(C, name, counted)
    return C, calls


@pytest.mark.parametrize(
    "rows, branches",
    [([[0, 1], [5, 0]], 1), ([[1, 1], [0, 4]], 0)],
    ids=["irreducible", "reducible"],
)
def test_a_pair_works_out_its_polynomial_once(monkeypatch, rows, branches):
    A = mat(Z3, rows)
    V = mat(Z3, [[1, 2], [1, 3]])
    B = (V @ A) @ V.inv()
    C, calls = _count_calls(monkeypatch, ("quad_factor", "_branch", "canonical_matrix", "to_canonical"))
    for run, matrices in ((lambda: C.witness(Z3, A, B), 2), (lambda: C.similar(Z3, A, B), 2), (lambda: C.to_canonical(Z3, A), 1)):
        calls.update(dict.fromkeys(calls, 0))
        assert run()
        assert calls == {"quad_factor": 1, "_branch": branches, "canonical_matrix": 1, "to_canonical": matrices}


class TestTriangularize:
    def test_already_triangular(self):
        A = mat(Z5, [[2, 7], [0, 1]])
        w, T = triangularize(Z5, A, (Fraction(2), Fraction(1)))
        assert T[1][0] == Z5.zero and w.check(A, T)

    def test_eigenvector_case(self):
        A = mat(Z3, [[0, 2], [-1, 3]])  # f = (x-1)(x-2)
        w, T = triangularize(Z3, A, (Fraction(2), Fraction(1)))
        assert T[0][0] == 2 and T[1][1] == 1 and T[1][0] == Z3.zero
        assert w.check(A, T)

    def test_scalar(self):
        A = mat(Z3, [[4, 0], [0, 4]])
        w, T = triangularize(Z3, A, (Fraction(4), Fraction(4)))
        assert T == A and w.check(A, T)


class TestReducibleNormalize:
    def test_diagonalizable_class(self):
        # v(lam1 - lam2) = 1 <= v(tau_raw): representative is pi^1
        assert reducible_normalize(Z3, Fraction(2), Fraction(5), Fraction(9)) == 3

    def test_scalar_class(self):
        assert reducible_normalize(Z3, Fraction(1), Fraction(1), Fraction(0)) == Fraction(0)

    def test_unit_tau(self):
        assert reducible_normalize(Z5, Fraction(1), Fraction(2), Fraction(1)) == 1


class TestIdealReps:
    def test_x2_minus_5(self):
        reps = ideal_reps(Z2, quad(Z2, 0, 5))
        assert reps == [
            ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1))),
        ]

    def test_x2_minus_2(self):
        reps = ideal_reps(Z2, quad(Z2, 0, 2))
        assert reps == [((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))]

    def test_insep_t3(self):
        reps = ideal_reps(F2, quad(F2, 0, F2.parse("t^3")), insep_bound=5)
        assert [(F2.encode(a), F2.encode(c)) for (a, _), (c, _) in reps] == [
            ("t^3", "0"),
            ("t^2", "0"),
        ]


# ---------------------------------------------------------------------------
# randomized properties (smaller mirrors of the acceptance suites)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_round_trip_classify_canonical(ring, rng):
    for _ in range(8):
        a, b = rand_integral(ring, rng), rand_integral(ring, rng)
        f = MonicPoly.quadratic(ring, a, b)
        for form in class_list(ring, f, insep_bound=3):
            assert classify(ring, canonical_matrix(form)) == form


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_conjugation_invariance_and_witness(ring, rng):
    for _ in range(15):
        A = rand_mat(ring, rng)
        V = rand_gl2(ring, rng)
        B = (V @ A) @ V.inv()
        assert classify(ring, B) == classify(ring, A)
        w = witness(ring, A, B)
        assert w is not None and w.check(A, B)
        assert ring.val(w.U.det()) == 0


@pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
def test_transpose_similarity(ring, rng):
    for _ in range(15):
        A = rand_mat(ring, rng)
        w = witness(ring, A, A.transpose())
        assert w is not None and w.check(A, A.transpose())


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_class_number_matches_list_length(ring, rng):
    for _ in range(10):
        a, b = rand_integral(ring, rng), rand_integral(ring, rng)
        f = MonicPoly.quadratic(ring, a, b)
        if quad_factor(f, ring).reducible:
            continue
        n = class_number(ring, f, insep_bound=4)
        forms = class_list(ring, f, insep_bound=4)
        if isinstance(n, LowerBound):
            assert n.count == len(forms)
        else:
            assert n == len(forms)


def test_descent_smoke(rng):
    # descent in miniature; the full version is acceptance criterion 7
    for _ in range(10):
        A = rand_mat(Z2, rng)
        V = rand_gl2(Z2, rng)
        B = (V @ A) @ V.inv()
        for S in (UNRAM, EISEN):
            SA = Mat2(S, [[S.embed(x) for x in row] for row in A.rows])
            SB = Mat2(S, [[S.embed(x) for x in row] for row in B.rows])
            assert similar(S, SA, SB)


def test_char2_extension_classify():
    # an Eisenstein extension of GF(2)(t): inseparable polys become squares
    S = QuadExt(F2, 0, F2.parse("t"), "eisenstein")
    th = S.gen()
    f = MonicPoly.quadratic(S, S.zero, th * th * th * th * th * th)  # x^2 - t^3
    fact = quad_factor(f, S)
    assert fact.reducible and fact.lam1 == fact.lam2 == th * th * th
    A = Mat2(S, [[S.zero, S.embed(F2.parse("t"))], [S.embed(F2.parse("t^2")), S.zero]])
    form = classify(S, A)
    assert isinstance(form, Reducible)


class TestEisensteinChar2:
    """QuadExt(FpTLoc(2), x^2 - t, eisenstein) has characteristic 2, with w^2 = t."""

    def labels(self, f, bound=4):
        return [fo.label() for fo in class_list(EISEN_F2, parse_monic(f, EISEN_F2), bound)]

    def test_insep(self):
        f = parse_monic("x^2 - t*w", EISEN_F2)
        assert self.labels("x^2 - t*w") == ["Insep{i=0,u=0,s=t*w}", "Insep{i=1,u=0,s=t}"]
        assert class_number(EISEN_F2, f, insep_bound=4) == LowerBound(2)

    def test_char2sep(self):
        assert self.labels("x^2 - x - t*w") == ["Char2Sep{r=0,i=0}"]
        assert self.labels("x^2 - w*x - t") == ["Char2Sep{r=0,i=0}", "Char2Sep{r=0,i=1}"]
        for f, n in (("x^2 - x - t*w", 1), ("x^2 - w*x - t", 2)):
            assert class_number(EISEN_F2, parse_monic(f, EISEN_F2)) == n
        A = mat(EISEN_F2, [[0, 1], [EISEN_F2.parse("t"), EISEN_F2.gen()]])
        assert isinstance(classify(EISEN_F2, A), Char2Sep)

    def test_listed_forms_differ_mod_pi3(self):
        # independent of the classification: no GL2 witness even mod pi^3
        for f in ("x^2 - t*w", "x^2 - w*x - t"):
            mats = [canonical_matrix(fo) for fo in class_list(EISEN_F2, parse_monic(f, EISEN_F2), 4)]
            for i, A in enumerate(mats):
                for B in mats[i + 1:]:
                    assert conj_search_mod(EISEN_F2, A, B, 3) is None


class TestDeepBranches:
    """Targets for the branches random data rarely reaches: the ramified
    instance has v(2) = 2, so its extra family can go two levels deep and
    its low-trace case admits a two-member family."""

    def test_eisenstein_low_trace_two_classes(self):
        th = EISEN.gen()
        f = MonicPoly.quadratic(EISEN, th, EISEN.from_int(6))
        forms = class_list(EISEN, f)
        assert [fo.label() for fo in forms] == ["Case1{r=0,i=0}", "Case1{r=0,i=1}"]
        assert class_number(EISEN, f) == 2
        for fo in forms:
            assert classify(EISEN, canonical_matrix(fo)) == fo

    def test_eisenstein_two_level_extras(self):
        f = MonicPoly.quadratic(EISEN, 0, 17)
        forms = class_list(EISEN, f)
        assert [fo.label() for fo in forms] == [
            "Case22Main{n=0}",
            "Case22Extra{r=1,i=1}",
            "Case22Extra{r=1,i=2}",
        ]
        assert class_number(EISEN, f) == 3
        for fo in forms:
            assert classify(EISEN, canonical_matrix(fo)) == fo
        # the same Delta over the base has v(2) = 1, capping the extras
        f2 = MonicPoly.quadratic(Z2, 0, 17)
        assert [fo.label() for fo in class_list(Z2, f2)] == [
            "Case22Main{n=0}",
            "Case22Extra{r=1,i=1}",
        ]

    def test_deep_reflection_chain(self):
        # corner entries of high valuation force several reflection steps
        for k in range(1, 7):
            A = Mat2(
                Z2,
                [[0, Fraction(2**k)], [Fraction(5 * 4**k) / Fraction(2**k), 0]],
            )
            form = classify(Z2, A)
            C = canonical_matrix(form)
            w = witness(Z2, A, C)
            assert w is not None and w.check(A, C)


def test_witness_is_checked_under_python_O():
    # a wrong transform for A alone makes U = ub^-1 * ua fail U*A = B*U; the
    # check must raise even when asserts are compiled away.  witness passes
    # the pair's shared PolyFacts to both classifications, so the patch
    # forwards it.
    proc = run_optimized(
        "import importlib\n"
        "C = importlib.import_module('matsim.classify')\n"
        "from matsim.errors import InvariantViolation\n"
        "from matsim.rings import ZLoc\n"
        "R = ZLoc(3)\n"
        "real, calls = C.to_canonical, []\n"
        "def wrong(ring, A, _facts=None):\n"
        "    form, U = real(ring, A, _facts)\n"
        "    calls.append(A)\n"
        "    return form, (C.Mat2(ring, [[1, 1], [0, 1]]) @ U if len(calls) == 1 else U)\n"
        "C.to_canonical = wrong\n"
        "A = C.Mat2(R, [[0, 1], [5, 0]])\n"
        "try:\n"
        "    C.witness(R, A, A)\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stderr


# per ring kind, an A whose entries have large denominators, and so a chain
# product U with a large one: pi^k added to one entry of U (by wrapping the
# ``reduce`` that multiplies the chain), for k = 0 and a deep k = 40, must
# still fail the check on numerators with asserts compiled away
BUMPED_CHAINS = {
    "ZLoc": "R = ZLoc(3)\nA = C.Mat2(R, [[Fraction(1, 7**30), 1], [5, Fraction(2, 11**20)]])\n",
    "FpTLoc": (
        "R = FpTLoc(3)\n"
        "d = FpPoly(3, [1] + [i % 3 for i in range(1, 31)])\n"
        "A = C.Mat2(R, [[FpRat(FpPoly(3, [2, 1]), d), 1], [R.uniformizer(), FpRat(FpPoly(3, [1]), d * d)]])\n"
    ),
    "QuadExt": (
        "R = QuadExt(ZLoc(2), Fraction(1, 3), Fraction(5, 7), 'unramified')\n"
        "w = R.gen()\n"
        "A = C.Mat2(R, [[w + Fraction(1, 3**40), 1], [2, Fraction(1, 5**30) * w]])\n"
    ),
    "QuadExt-FpTLoc": (
        "F2 = FpTLoc(2)\n"
        "R = QuadExt(F2, 0, F2.uniformizer(), 'eisenstein')\n"
        "w = R.gen()\n"
        "d = FpPoly(2, [1] + [i % 2 for i in range(1, 31)])\n"
        "A = C.Mat2(R, [[w + FpRat(FpPoly(2, [1]), d), 1], [w, FpRat(FpPoly(2, [0, 1]), d)]])\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(BUMPED_CHAINS))
def test_bumped_chain_product_is_caught_under_python_O(kind):
    proc = run_optimized(
        "import importlib\n"
        "from fractions import Fraction\n"
        "C = importlib.import_module('matsim.classify')\n"
        "from matsim.errors import InvariantViolation\n"
        "from matsim.fppoly import FpPoly, FpRat\n"
        "from matsim.rings import FpTLoc, QuadExt, ZLoc\n"
        + BUMPED_CHAINS[kind]
        + "u = R.numerators(sum(C.to_canonical(R, A)[1].rows, ()))[0]\n"
        "print('large', u.bit_length() > 25 if isinstance(u, int) else u.degree > 25)\n"
        "real = C.reduce\n"
        "for k in (0, 40):\n"
        "    def bumped(f, chain, k=k):\n"
        "        rows = [list(r) for r in real(f, chain).rows]\n"
        "        rows[0][1] += C.pi_pow(R, k)\n"
        "        return C.Mat2(R, rows, check_integral=False)\n"
        "    C.reduce = bumped\n"
        "    try:\n"
        "        C.to_canonical(R, A)\n"
        "    except InvariantViolation:\n"
        "        print('caught', k, __debug__)\n"
    )
    assert proc.stdout == "large True\ncaught 0 False\ncaught 40 False\n", proc.stdout + proc.stderr


# one corrupted step per branch of to_canonical, each a wrong answer that the
# final check must turn into InvariantViolation with asserts compiled away
CORRUPTED_STEPS = {
    # tau + pi^9 is not a power of pi: not a canonical tau
    "reducible": (
        "R = ZLoc(3)\n"
        "A = C.Mat2(R, [[1, 1], [0, 4]])\n"
        "real = C.reducible_normalize\n"
        "C.reducible_normalize = lambda ring, *args: real(ring, *args) + C.pi_pow(ring, 9)\n"
    ),
    # tau/pi makes the shear to the canonical tau leave R: the move itself
    # raises NotIntegral, which must surface as a defect of the library too
    "move-leaves-R": (
        "R = ZLoc(3)\n"
        "A = C.Mat2(R, [[1, 0], [0, 4]])\n"
        "real = C.reducible_normalize\n"
        "C.reducible_normalize = lambda ring, *args: real(ring, *args) / ring.uniformizer()\n"
    ),
    # s + 1 breaks u^2 + s*pi^i = b
    "insep": (
        "R = FpTLoc(2)\n"
        "t = R.uniformizer()\n"
        "A = C.Mat2(R, [[t, t * t], [t, t]])\n"
        "real = C._insep_params\n"
        "C._insep_params = lambda ring, b, i: (lambda u, s: (u, s + ring.one))(*real(ring, b, i))\n"
    ),
    # r + 1 is not congruent to the reduced rho mod pi^n (Case22Extra, n = 1)
    "irreducible": (
        "R = ZLoc(2)\n"
        "A = C.Mat2(R, [[-1, 2], [2, 1]])\n"
        "real = C.compute_m\n"
        "C.compute_m = lambda ring, f, case: (lambda m, r: (m, r + 1))(*real(ring, f, case))\n"
    ),
}


@pytest.mark.parametrize("branch", sorted(CORRUPTED_STEPS))
def test_each_branch_is_checked_under_python_O(branch):
    proc = run_optimized(
        "import importlib\n"
        "C = importlib.import_module('matsim.classify')\n"
        "from matsim.errors import InvariantViolation\n"
        "from matsim.rings import FpTLoc, ZLoc\n"
        + CORRUPTED_STEPS[branch]
        + "try:\n"
        "    print(C.to_canonical(R, A)[0].label())\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stdout + proc.stderr
