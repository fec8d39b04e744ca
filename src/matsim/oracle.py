"""Independent brute-force verification over finite quotients R/pi^N.

The conjugacy search is deliberately one-sided: absence of a unit-determinant
solution of U*A = B*U modulo pi^N proves the matrices are not similar over R,
while a mod-pi^N witness proves nothing (no effective bound is computed).
Exact witnesses always carry the positive direction.

The search space (R/pi^N)^(2x2) is never materialized: the congruence is a
linear system over the base Euclidean domain (Z or GF(p)[t]), so the solution
set is enumerated from a Smith normal form.  The result is identical to the
naive enumeration (cross-checked in the tests) and deterministic: candidates
are reported in the canonical element order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import Mat2, pi_pow
from .errors import BudgetExceeded
from .fppoly import FpPoly
from .intlin import smith_normal_form
from .rings import INF, ExtElem, FpTLoc, QuadExt, ZLoc

DEFAULT_BUDGET = 10**7


def quotient_size(ring, N: int) -> int:
    if isinstance(ring, (ZLoc, FpTLoc)):
        return ring.p ** N
    if isinstance(ring, QuadExt):
        if ring.ramification == "unramified":
            return ring.base.p ** (2 * N)
        return ring.base.p ** N
    raise TypeError(f"not a DVR instance: {ring!r}")


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
        assert mat_congruent_mod(ring, U @ A, B @ U, N)
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
    """All X over R/pi^N with X*A = B*X mod pi^N, as canonically lifted Mat2."""
    if isinstance(ring, (ZLoc, FpTLoc)):
        return _solve_base(ring, A, B, N, budget)
    return _solve_ext(ring, A, B, N, budget)


def _coeff_matrix(entries_a, entries_b, zero):
    """Coefficients of the 4 linear forms (X*A - B*X)[i][j] in X[r][c]."""
    rows = []
    for i in range(2):
        for j in range(2):
            row = []
            for r in range(2):
                for c in range(2):
                    acc = zero
                    if r == i:
                        acc = acc + entries_a[c][j]
                    if c == j:
                        acc = acc - entries_b[i][r]
                    row.append(acc)
            rows.append(row)
    return rows


def _solve_base(ring, A, B, N, budget):
    p = ring.p
    if isinstance(ring, ZLoc):
        q = p**N
        lift = lambda x: ring.residue(x, N)
        coeffs = _coeff_matrix(
            [[lift(A[i][j]) for j in range(2)] for i in range(2)],
            [[lift(B[i][j]) for j in range(2)] for i in range(2)],
            0,
        )
        sols = _kernel_mod(coeffs, q, _val_int(p), N, p, budget)
        out = []
        for x in sols:
            out.append(Mat2(ring, [[x[0] % q, x[1] % q], [x[2] % q, x[3] % q]]))
        return out
    q = FpPoly.t_power(p, N)
    lift = lambda x: ring.residue(x, N)
    coeffs = _coeff_matrix(
        [[lift(A[i][j]) for j in range(2)] for i in range(2)],
        [[lift(B[i][j]) for j in range(2)] for i in range(2)],
        FpPoly.const(p, 0),
    )
    sols = _kernel_mod(coeffs, q, _val_poly, N, p, budget)
    return [Mat2(ring, [[x[0] % q, x[1] % q], [x[2] % q, x[3] % q]]) for x in sols]


def _val_int(p):
    def v(d):
        if d == 0:
            return INF
        out = 0
        while d % p == 0:
            d //= p
            out += 1
        return out

    return v


def _val_poly(d):
    if d.is_zero():
        return INF
    return d.order()


def _kernel_mod(coeffs, q, valuation, H, p, budget):
    """Solutions x of coeffs * x = 0 mod q, where q has valuation H."""
    D, _, V = smith_normal_form(coeffs)
    ncols = len(coeffs[0])
    diag = [D[i][i] if i < len(D) else None for i in range(ncols)]
    free = []
    for d in diag:
        if d is None or (valuation(d) is INF):
            free.append(H)
        else:
            free.append(min(valuation(d), H))
    count = 1
    for fcount in free:
        count *= p**fcount
        if count > budget:
            raise BudgetExceeded(f"solution set of size {count} exceeds budget {budget}")
    sols = []
    for z in _iter_z(free, q, H, p):
        x = [_dot(V[j], z) for j in range(ncols)]
        sols.append(x)
    return sols


def _iter_z(free, q, H, p):
    """z vectors: z_i = shift_i * k, k over residues mod p^free_i (or t^free_i)."""
    if isinstance(q, int):
        shifts = [p ** (H - f) for f in free]
        counts = [p**f for f in free]

        def values(i):
            return [shifts[i] * k for k in range(counts[i])]

    else:
        shifts = [FpPoly.t_power(p, H - f) for f in free]

        def values(i):
            out = []
            for code in range(p ** free[i]):
                coeffs = []
                cc = code
                for _ in range(free[i]):
                    coeffs.append(cc % p)
                    cc //= p
                out.append(shifts[i] * FpPoly(p, coeffs))
            return out

    def rec(i, cur):
        if i == len(free):
            yield list(cur)
            return
        for v in values(i):
            cur.append(v)
            yield from rec(i + 1, cur)
            cur.pop()

    yield from rec(0, [])


def _dot(col, z):
    acc = None
    for a, b in zip(col, z):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def _solve_ext(ring, A, B, N, budget):
    """Quadratic extensions: 8 base unknowns with per-coordinate moduli."""
    base = ring.base
    p = base.p
    unram = ring.ramification == "unramified"
    hx = N if unram else (N + 1) // 2
    hy = N if unram else N // 2
    H = max(hx, hy)
    if isinstance(base, ZLoc):
        q = p**H
        zero = 0
        shift = lambda k: p**k
        lift = lambda x, h: base.residue(x, h) if h > 0 else 0
        val = _val_int(p)
    else:
        q = FpPoly.t_power(p, H)
        zero = FpPoly.const(p, 0)
        shift = lambda k: FpPoly.t_power(p, k)
        lift = lambda x, h: base.residue(x, h) if h > 0 else FpPoly.const(p, 0)
        val = _val_poly
    w = ring.gen()

    def mult_block(c):
        # base 2x2 matrix of multiplication by c on (x, y) coords: columns c, c*w
        cw = c * w
        return [[lift(c.x, H), lift(cw.x, H)], [lift(c.y, H), lift(cw.y, H)]]

    # unknown layout: for each matrix slot (r, c): two coords (x, y)
    rows = []
    for i in range(2):
        for j in range(2):
            for part in range(2):  # x-part then y-part of the equation
                row = [zero] * 8
                for r in range(2):
                    for c in range(2):
                        blk = None
                        if r == i:
                            blk = mult_block(A[c][j])
                        if c == j:
                            nb = mult_block(B[i][r])
                            blk = (
                                [[blk[0][0] - nb[0][0], blk[0][1] - nb[0][1]],
                                 [blk[1][0] - nb[1][0], blk[1][1] - nb[1][1]]]
                                if blk is not None
                                else [[zero - nb[0][0], zero - nb[0][1]],
                                      [zero - nb[1][0], zero - nb[1][1]]]
                            )
                        if blk is None:
                            continue
                        for part2 in range(2):
                            row[2 * (2 * r + c) + part2] = (
                                row[2 * (2 * r + c) + part2] + blk[part][part2]
                            )
                # equation row scaled so every congruence is mod pi_base^H
                scale = H - (hx if part == 0 else hy)
                if scale:
                    row = [shift(scale) * x for x in row]
                rows.append(row)
    sols = _kernel_mod(rows, q, val, H, p, budget)
    seen = set()
    out = []
    for x in sols:
        entries = []
        for slot in range(4):
            ex = base.lift(x[2 * slot] % q)
            ey = base.lift(x[2 * slot + 1] % q)
            elem = ring.lift(ring.residue(ExtElem(ring, ex, ey), N))
            entries.append(elem)
        U = Mat2(ring, [[entries[0], entries[1]], [entries[2], entries[3]]])
        key = tuple(ring.sort_key(e) for e in entries)
        if key in seen:
            continue
        seen.add(key)
        out.append(U)
    return out


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
