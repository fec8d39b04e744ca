import itertools

import pytest

from matsim.classify import Mat2, canonical_matrix, class_list, pi_pow, similar, witness
from matsim.errors import BudgetExceeded
from matsim.oracle import (
    _solve_congruence,
    conj_search_mod,
    conj_search_naive,
    enumerate_quotient,
    level_collapse_check,
    mat_congruent_mod,
    quotient_size,
)
from matsim.polys import MonicPoly
from matsim.rings import FpTLoc, QuadExt, ZLoc

from conftest import all_instances, instance_ids, rand_gl2, rand_integral, rand_mat, run_optimized

Z2 = ZLoc(2)
Z3 = ZLoc(3)
F2 = FpTLoc(2)
UNRAM = QuadExt(Z2, 1, 1, "unramified")
EISEN = QuadExt(Z2, 0, 2, "eisenstein")
EISEN_F2 = QuadExt(F2, 0, F2.uniformizer(), "eisenstein")


def quad(ring, a, b):
    return MonicPoly.quadratic(ring, ring.coerce(a), ring.coerce(b))


class TestEnumerate:
    def test_examples(self):
        assert [Z2.encode(x) for x in enumerate_quotient(Z2, 2)] == ["0", "1", "2", "3"]
        assert [F2.encode(x) for x in enumerate_quotient(F2, 2)] == ["0", "1", "t", "1+t"]
        assert [Z3.encode(x) for x in enumerate_quotient(Z3, 1)] == ["0", "1", "2"]

    def test_sizes(self):
        assert quotient_size(Z2, 3) == 8
        assert quotient_size(UNRAM, 2) == 16
        assert quotient_size(EISEN, 3) == 8
        assert len(enumerate_quotient(EISEN, 3)) == 8

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            enumerate_quotient(Z2, 30, budget=100)


class TestConjSearch:
    def test_x2_minus_5_pair_none(self):
        A = Mat2(Z2, [[0, 1], [5, 0]])
        B = Mat2(Z2, [[-1, 2], [2, 1]])
        assert conj_search_mod(Z2, A, B, 3) is None

    def test_identity_pair(self):
        A = Mat2(Z2, [[0, 1], [5, 0]])
        r = conj_search_mod(Z2, A, A, 2)
        assert r is not None and r.check_mod(Z2, A, A)

    def test_x2_minus_18_distinguished(self):
        M0 = Mat2(Z3, [[0, 1], [18, 0]])
        M1 = Mat2(Z3, [[0, 3], [6, 0]])
        assert conj_search_mod(Z3, M0, M1, 4, budget=2 * 10**8) is None

    def test_budget_on_declared_space(self):
        M0 = Mat2(Z3, [[0, 1], [18, 0]])
        with pytest.raises(BudgetExceeded):
            conj_search_mod(Z3, M0, M0, 4)  # 81^4 > default budget

    @pytest.mark.parametrize("ring", all_instances(), ids=instance_ids())
    def test_kernel_matches_naive(self, ring, rng):
        # the linear-algebra search must agree with literal enumeration
        N = 1 if isinstance(ring, QuadExt) and ring.ramification == "unramified" else 2
        for _ in range(4):
            A = rand_mat(ring, rng)
            B = rand_mat(ring, rng)
            fast = conj_search_mod(ring, A, B, N)
            slow = conj_search_naive(ring, A, B, N)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.U == slow.U  # same lexicographically-first witness

    def test_deterministic(self):
        A = Mat2(Z2, [[0, 1], [5, 0]])
        r1 = conj_search_mod(Z2, A, A, 3)
        r2 = conj_search_mod(Z2, A, A, 3)
        assert r1.U == r2.U


def _literal_solution_keys(ring, A, B, N):
    """Sort keys of every X in (R/pi^N)^(2x2) with X*A = B*X mod pi^N."""
    reps = list(ring.residues(N))
    # X*A - B*X mod pi^N depends on A and B mod pi^N only
    A, B = (
        [[ring.lift(ring.residue(M[i][j], N)) for j in range(2)] for i in range(2)] for M in (A, B)
    )
    xa = [[[x * A[c][j] for j in range(2)] for c in range(2)] for x in reps]
    bx = [[[B[i][r] * x for r in range(2)] for i in range(2)] for x in reps]

    def holds(X, i, j):
        e = xa[X[i][0]][0][j] + xa[X[i][1]][1][j] - bx[X[0][j]][i][0] - bx[X[1][j]][i][1]
        return ring.val(e) >= N

    keys = []
    idx = range(len(reps))
    for x00, x01, x10 in itertools.product(idx, repeat=3):
        # entry (0, 0) does not involve X[1][1]: test it once for all x11
        if not holds(((x00, x01), (x10, None)), 0, 0):
            continue
        for x11 in idx:
            X = ((x00, x01), (x10, x11))
            if holds(X, 0, 1) and holds(X, 1, 0) and holds(X, 1, 1):
                keys.append(tuple(ring.sort_key(reps[e]) for e in (x00, x01, x10, x11)))
    return sorted(keys)


@pytest.mark.parametrize(
    "ring", all_instances() + [EISEN_F2], ids=instance_ids() + ["EisenF2"]
)
def test_solution_set_matches_enumeration(ring, rng):
    # every solution, not just the first witness, at each N <= 3 whose search
    # space stays small; N = 3 is where the Eisenstein levels (2, 1) differ
    for N in (1, 2, 3):
        if quotient_size(ring, N) ** 4 > 3 * 10**5:
            continue
        A = rand_mat(ring, rng)
        pi = pi_pow(ring, 1)
        near = Mat2(ring, [[int(i == j) + pi * rand_integral(ring, rng) for j in range(2)]
                           for i in range(2)])
        V = rand_gl2(ring, rng)
        pairs = [(A, rand_mat(ring, rng)), (A, (V @ A) @ V.inv()), (near, near)]
        for A_, B_ in pairs:
            sols = _solve_congruence(ring, A_, B_, N, 10**7)
            got = [tuple(ring.sort_key(U[i][j]) for i in range(2) for j in range(2)) for U in sols]
            assert len(set(got)) == len(got)
            assert sorted(got) == _literal_solution_keys(ring, A_, B_, N)


class TestSoundness:
    @pytest.mark.parametrize("ring", [Z2, Z3, F2], ids=["ZLoc2", "ZLoc3", "FpT2"])
    def test_direction_i_no_modular_witness_implies_not_similar(self, ring, rng):
        for _ in range(10):
            A = rand_mat(ring, rng)
            B = rand_mat(ring, rng)
            if conj_search_mod(ring, A, B, 2) is None:
                assert not similar(ring, A, B)

    @pytest.mark.parametrize("ring", [Z2, Z3, F2], ids=["ZLoc2", "ZLoc3", "FpT2"])
    def test_direction_ii_exact_witness_reduces(self, ring, rng):
        for _ in range(8):
            A = rand_mat(ring, rng)
            V = rand_gl2(ring, rng)
            B = (V @ A) @ V.inv()
            w = witness(ring, A, B)
            for N in (1, 2, 3):
                assert mat_congruent_mod(ring, w.U @ A, B @ w.U, N)
                assert conj_search_mod(ring, A, B, N) is not None

    def test_class_list_pairwise_distinct_mod_oracle(self):
        for ring, f, N in [
            (Z2, quad(Z2, 0, 5), 3),
            (Z3, quad(Z3, 0, 18), 4),
            (Z2, quad(Z2, 0, 3), 3),
            (Z2, quad(Z2, 2, -4), 4),
        ]:
            mats = [canonical_matrix(fo) for fo in class_list(ring, f)]
            for i in range(len(mats)):
                for j in range(i + 1, len(mats)):
                    res = conj_search_mod(ring, mats[i], mats[j], N, budget=2 * 10**8)
                    assert res is None, (f.encode(), i, j)


class TestLevelCollapseReport:
    def test_x2_minus_5_r1(self):
        rep = level_collapse_check(Z2, quad(Z2, 0, 5), Z2.one, 3)
        assert rep.cutoff == 1
        assert rep.all_agree
        marks = {(r.k, r.n): r.oracle_found for r in rep.rows}
        assert marks[(0, 1)] is False  # the two x^2-5 classes stay distinct
        assert marks[(0, 2)] is True  # reflection at v(T) = 2

    def test_x2_minus_18_r0(self):
        rep = level_collapse_check(Z3, quad(Z3, 0, 18), Z3.zero, 2, budget=2 * 10**8)
        assert rep.cutoff == 1
        assert rep.all_agree

    def test_degenerate_equal_levels_not_listed(self):
        rep = level_collapse_check(Z2, quad(Z2, 0, 5), Z2.one, 2)
        assert all(r.k < r.n for r in rep.rows)


def test_kernel_solutions_are_checked_under_python_O():
    # the identity has a unit determinant but does not solve U*A = B*U for
    # A != B; the check must raise even when asserts are compiled away
    proc = run_optimized(
        "from matsim import oracle\n"
        "from matsim.classify import Mat2, identity\n"
        "from matsim.errors import InvariantViolation\n"
        "from matsim.rings import ZLoc\n"
        "R = ZLoc(2)\n"
        "oracle._solve_congruence = lambda ring, *args: [identity(ring)]\n"
        "A, B = Mat2(R, [[0, 1], [5, 0]]), Mat2(R, [[1, 1], [4, -1]])\n"
        "try:\n"
        "    oracle.conj_search_mod(R, A, B, 2)\n"
        "except InvariantViolation:\n"
        "    print('caught', __debug__)\n"
    )
    assert proc.stdout == "caught False\n", proc.stderr
