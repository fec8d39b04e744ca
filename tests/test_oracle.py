import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_oracle as old
from legacy_oracle import conj_search_naive, enumerate_quotient
from matsim.classify import Mat2, canonical_matrix, class_list, pi_pow, reduce_mod, similar, witness
from matsim.errors import BudgetExceeded
from matsim.fppoly import FpPoly
from matsim.intlin import howell_form
from matsim.oracle import (
    _solve_congruence,
    conj_search_mod,
    level_collapse_check,
    mat_congruent_mod,
    quotient_size,
)
from matsim.polys import MonicPoly
from matsim.rings import FpTLoc, QuadExt, ZLoc

from conftest import SEED, all_instances, instance_ids, rand_gl2, rand_integral, rand_mat, run_optimized

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


def _additive_closure(zero, gens, add):
    """The subgroup generated by gens in a finite abelian group."""
    span = {zero}
    for g in gens:
        if g in span:
            continue
        coset = span
        while True:  # span + k*g for k = 1, 2, ... until it is span again
            coset = {add(X, g) for X in coset}
            if coset <= span:
                break
            span = span | coset
    return span


def _span_keys(ring, gens, N):
    """Sort keys of the R/pi^N-span of the Mat2 gens: the additive group
    generated by pi^i * G, i < N, which holds every base multiple of G."""
    red = lambda X: tuple(reduce_mod(ring, x, N) for x in X)
    steps = [red(pi_pow(ring, i) * G[r][c] for r in range(2) for c in range(2))
             for G, i in itertools.product(gens, range(N))]
    span = _additive_closure(red([ring.zero] * 4), steps, lambda X, g: red(a + b for a, b in zip(X, g)))
    return [tuple(ring.sort_key(e) for e in X) for X in span]


RINGS7, IDS7 = all_instances() + [EISEN_F2], instance_ids() + ["EisenF2"]


@pytest.mark.parametrize("ring", RINGS7, ids=IDS7)
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
            got = _span_keys(ring, _solve_congruence(ring, A_, B_, N, 10**7), N)
            assert len(set(got)) == len(got)
            assert sorted(got) == _literal_solution_keys(ring, A_, B_, N)


def _near_identity(ring, rng):
    pi = pi_pow(ring, 1)
    return Mat2(ring, [[int(i == j) + pi * rand_integral(ring, rng) for j in range(2)] for i in range(2)])


# the listing costs one Mat2 per solution: keep the declared space small
LISTING_SPACE = 6 * 10**5


@pytest.mark.parametrize("ring", RINGS7, ids=IDS7)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), N=st.integers(1, 3), kind=st.sampled_from(["random", "conjugate", "near"]))
def test_digit_search_matches_listing(ring, seed, N, kind):
    # the same witness, entry for entry, as the listing it replaced
    while quotient_size(ring, N) ** 4 > LISTING_SPACE:
        N -= 1
    rng = random.Random(seed)
    A = _near_identity(ring, rng) if kind == "near" else rand_mat(ring, rng)
    if kind == "random":
        B = rand_mat(ring, rng)
    else:
        V = rand_gl2(ring, rng)
        B = (V @ A) @ V.inv()
    new = conj_search_mod(ring, A, B, N)
    was = old.conj_search_mod(ring, A, B, N)
    assert (new is None) == (was is None)
    if new is not None:
        assert new.U == was.U


@pytest.mark.parametrize("ring", RINGS7, ids=IDS7)
def test_deep_level(ring, rng):
    N = 20
    budget = quotient_size(ring, N) ** 4
    A = rand_mat(ring, rng)
    V = rand_gl2(ring, rng)
    B = (V @ A) @ V.inv()
    found = conj_search_mod(ring, A, B, N, budget=budget)
    assert found is not None and found.check_mod(ring, A, B)
    # traces that differ mod pi^N: no U invertible mod pi^N conjugates them
    shifted = Mat2(ring, [[B[0][0] + pi_pow(ring, N - 1), B[0][1]], [B[1][0], B[1][1]]])
    assert conj_search_mod(ring, A, shifted, N, budget=budget) is None


def _module_span(vectors, n, p, H, poly):
    """The submodule of S^n spanned by the vectors, S = Z/p^H or GF(p)[t]/t^H:
    the additive group generated by pi^i * v, i < H."""
    reduce = (lambda x: x.truncate(H)) if poly else (lambda x: x % p**H)
    power = (lambda i: FpPoly.t_power(p, i)) if poly else (lambda i: p**i)
    red = lambda v: tuple(reduce(x) for x in v)
    steps = [red(x * power(i) for x in v) for v, i in itertools.product(vectors, range(H))]
    return _additive_closure(red([power(H)] * n), steps, lambda X, g: red(a + b for a, b in zip(X, g)))


@pytest.mark.parametrize("p, H, poly", itertools.product([2, 3], [1, 2, 3], [False, True]))
def test_howell_form_has_the_howell_property(p, H, poly):
    rng = random.Random(SEED)

    def entry():
        c = p ** rng.randrange(H + 1) * rng.randrange(1, p**H)  # valuations 0..H, each often
        return FpPoly(p, [c // p**i % p for i in range(2 * H)]) if poly else c

    for nrows, n, _ in itertools.product(range(4), range(1, 4), range(10)):
        rows = [[entry() for _ in range(n)] for _ in range(nrows)]
        echelon = howell_form(rows, p, H)
        leads = [col for col, _, _ in echelon]
        assert leads == sorted(set(leads))
        for col, j, row in echelon:
            pivot = FpPoly.t_power(p, j) if poly else p**j
            assert not any(row[:col]) and row[col] == pivot and j < H
        full = _module_span(rows, n, p, H, poly)
        for k in range(n + 1):
            # the rows leading at k or later span all of the span zero before k
            tail = _module_span([row for col, _, row in echelon if col >= k], n, p, H, poly)
            assert tail == {v for v in full if not any(v[:k])}, (rows, k)


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
