"""Independent brute-force verification over finite quotients R/pi^N.

The conjugacy search is deliberately one-sided: absence of a unit-determinant
solution of U*A = B*U modulo pi^N proves the matrices are not similar over R,
while a mod-pi^N witness proves nothing (no effective bound is computed).
Exact witnesses always carry the positive direction.

The search space (R/pi^N)^(2x2) is never materialized: the congruence is a
linear system over the base Euclidean domain (Z or GF(p)[t]), so the solution
set is enumerated from a Smith normal form.  Each entry of the unknown matrix
is one unknown over ZLoc or FpTLoc and two over a quadratic extension (the
coordinates x, y of x + y*w); one solver serves both.  The result is
identical to the naive enumeration (cross-checked in the tests) and
deterministic: candidates are reported in the canonical element order.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .classify import Mat2, pi_pow
from .errors import BudgetExceeded, invariant
from .intlin import smith_normal_form
from .rings import QuadExt

DEFAULT_BUDGET = 10**7


def quotient_size(ring, N: int) -> int:
    return ring.p ** sum(ring.levels(N))


def enumerate_quotient(ring, N: int, budget: int = DEFAULT_BUDGET):
    """All canonical representatives of R/pi^N, in the deterministic order."""
    if quotient_size(ring, N) > budget:
        raise BudgetExceeded(f"{quotient_size(ring, N)} residues exceed budget {budget}")
    return list(ring.residues(N))


def mat_congruent_mod(ring, X: Mat2, Y: Mat2, N: int) -> bool:
    for i in range(2):
        for j in range(2):
            if ring.val(X[i][j] - Y[i][j]) < N:
                return False
    return True


@dataclass(frozen=True)
class ResidueWitness:
    """Unit-determinant solution of U*A = B*U modulo pi^N (canonical lift)."""

    U: Mat2
    N: int

    def check_mod(self, ring, A: Mat2, B: Mat2) -> bool:
        return (
            mat_congruent_mod(ring, self.U @ A, B @ self.U, self.N)
            and ring.val(self.U.det()) == 0
        )


def conj_search_mod(ring, A: Mat2, B: Mat2, N: int, budget: int = DEFAULT_BUDGET):
    """Exhaustive search for U in (R/pi^N)^(2x2), det a unit, U*A = B*U mod pi^N.

    Returns the first witness in the canonical order, or None.  Raises
    BudgetExceeded when the declared search space (|R/pi^N|^4) or the actual
    solution set exceeds the budget.
    """
    space = quotient_size(ring, N) ** 4
    if space > budget:
        raise BudgetExceeded(f"search space {space} exceeds budget {budget}")
    candidates = _solve_congruence(ring, A, B, N, budget)
    hits = []
    for U in candidates:
        if ring.val(U.det()) != 0:
            continue
        invariant(mat_congruent_mod(ring, U @ A, B @ U, N), "a kernel solution fails U*A = B*U mod pi^N")
        key = tuple(ring.sort_key(U[i][j]) for i in range(2) for j in range(2))
        hits.append((key, U))
    if not hits:
        return None
    hits.sort(key=lambda kv: kv[0])
    return ResidueWitness(hits[0][1], N)


def conj_search_naive(ring, A: Mat2, B: Mat2, N: int, budget: int = DEFAULT_BUDGET):
    """Reference implementation: literally enumerate all candidate matrices."""
    space = quotient_size(ring, N) ** 4
    if space > budget:
        raise BudgetExceeded(f"search space {space} exceeds budget {budget}")
    reps = list(ring.residues(N))
    best = None
    for a in reps:
        for b in reps:
            for c in reps:
                for d in reps:
                    U = Mat2(ring, [[a, b], [c, d]])
                    if ring.val(U.det()) != 0:
                        continue
                    if mat_congruent_mod(ring, U @ A, B @ U, N):
                        key = tuple(
                            ring.sort_key(U[i][j]) for i in range(2) for j in range(2)
                        )
                        if best is None or key < best[0]:
                            best = (key, U)
    return None if best is None else ResidueWitness(best[1], N)


# ---------------------------------------------------------------------------
# the congruence as a linear system over the base Euclidean domain


def _solve_congruence(ring, A, B, N, budget):
    """All X over R/pi^N with X*A = B*X mod pi^N, as canonically lifted Mat2.

    The unknowns are the base coordinates of the four entries of X in the
    basis (1) of a base ring or (1, w) of an extension, and coordinate k
    matters modulo pi_base^levels[k] only (``ring.levels(N)``).
    Multiplication by c acts on the coordinates of one entry by the block
    whose column g holds the coordinates of c*g.  Solutions are reduced
    coordinate by coordinate modulo their levels, deduplicated, then lifted.
    """
    levels = ring.levels(N)
    if isinstance(ring, QuadExt):
        base, basis, lift = ring.base, (ring.one, ring.gen()), ring.lift
        coords = lambda c: (c.x, c.y)
    else:
        base, basis, lift = ring, (ring.one,), lambda code: ring.lift(code[0])
        coords = lambda c: (c,)
    d, H = len(levels), max(levels)
    pows = _pi_powers(base, H)
    zero = pows[0] - pows[0]

    def block(c):
        # block[g][k]: coordinate k of c*g
        return [[base.residue(e, H) for e in coords(c * g)] for g in basis]

    bA = [[block(A[r][c]) for c in range(2)] for r in range(2)]
    bB = [[block(B[r][c]) for c in range(2)] for r in range(2)]
    # row k of entry (i, j) of X*A - B*X, over the unknowns (r, c, g), scaled
    # so that every row is a congruence modulo pi_base^H
    rows = []
    for i, j, k in itertools.product(range(2), range(2), range(d)):
        row = []
        for r, c, g in itertools.product(range(2), range(2), range(d)):
            e = zero
            if r == i:
                e = e + bA[c][j][g][k]
            if c == j:
                e = e - bB[i][r][g][k]
            row.append(pows[H - levels[k]] * e)
        rows.append(row)
    mods = [pows[n] for n in levels] * 4
    reduced = dict.fromkeys(
        tuple(map(operator.mod, x, mods)) for x in _kernel_mod(base, rows, pows, budget)
    )
    out = []
    for x in reduced:
        entries = [lift(x[s : s + d]) for s in range(0, 4 * d, d)]
        # lifts of residues: integral by construction
        out.append(Mat2(ring, [entries[:2], entries[2:]], check_integral=False))
    return out


def _pi_powers(base, H):
    """[1, pi, ..., pi^H] in the Euclidean domain of residues (Z or GF(p)[t])."""
    pi = base.residue(base.uniformizer(), H + 1)
    pows = [base.residue(base.one, 1)]
    for _ in range(H):
        pows.append(pows[-1] * pi)
    return pows


def _kernel_mod(base, rows, pows, budget):
    """One x in each class mod pows[H] of solutions of rows * x = 0 mod pows[H].

    With U * rows * V = D, x = V * z where z_i runs over pi^(H - f_i) times
    the residues mod pi^(f_i) (``base.codes(f_i)``), f_i = min(v(D_ii), H).
    """
    H = len(pows) - 1
    D, _, V = smith_normal_form(rows)
    free = [min(base.val(D[i][i]), H) for i in range(len(D))]
    count = base.p ** sum(free)
    if count > budget:
        raise BudgetExceeded(f"solution set of size {count} exceeds budget {budget}")
    # z_i * (column i of V) for every value of z_i, so x is a sum of one
    # step per free column
    steps = []
    for i, f in enumerate(free):
        if f:
            col = [row[i] * pows[H - f] % pows[H] for row in V]
            steps.append([[b * z for b in col] for z in base.codes(f)])

    def extend(i, x):
        if i == len(steps):
            yield x
            return
        for step in steps[i]:
            yield from extend(i + 1, [a + b for a, b in zip(x, step)])

    yield from extend(0, [pows[0] - pows[0]] * len(V))


# ---------------------------------------------------------------------------
# level-collapse comparison report for the one-parameter ideal family


@dataclass(frozen=True)
class LevelCollapseRow:
    k: int
    n: int
    predicted_similar: bool
    oracle_found: bool

    @property
    def agree(self):
        return self.predicted_similar == self.oracle_found


@dataclass(frozen=True)
class LevelCollapseReport:
    cutoff: int
    rows: tuple

    @property
    def all_agree(self):
        return all(r.agree for r in self.rows)


def level_collapse_check(ring, f, r, N: int, budget: int = DEFAULT_BUDGET):
    """Compare mod-pi^N conjugacy of the level-k and level-n ideal matrices
    against the predicted collapse pattern (reflection at v(T), saturation
    at v(2r+a)) for all 0 <= k < n <= min(N, v(T))."""
    a, b = f.a, f.b
    T = b - r * (r + a)
    vT = ring.val(T)
    c = ring.val(ring.from_int(2) * r + a)
    cutoff = min(c, vT // 2)

    def mat(j):
        pij = pi_pow(ring, j)
        return Mat2(ring, [[-r, pij], [T / pij, a + r]])

    def index(x):
        return min(x, vT - x, c)

    rows = []
    top = min(N, vT)
    for k in range(top + 1):
        for n in range(k + 1, top + 1):
            predicted = index(k) == index(n)
            found = conj_search_mod(ring, mat(k), mat(n), N, budget) is not None
            rows.append(LevelCollapseRow(k, n, predicted, found))
    return LevelCollapseReport(cutoff, tuple(rows))
