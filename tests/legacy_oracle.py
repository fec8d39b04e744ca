"""The oracle's listing of the solution set before the digit search on a
Howell echelon replaced it, kept as a test oracle for ``test_oracle.py``.

The bodies are the old ones: ``conj_search_mod`` lists every solution of
X*A = B*X mod pi^N from a Smith normal form over Z or GF(p)[t]
(``_kernel_mod``), deduplicates and lifts them, and keeps the least
unit-determinant one; ``conj_search_naive`` literally enumerates
(R/pi^N)^(2x2); ``enumerate_quotient`` lists R/pi^N.  The Smith normal form
and its domain helpers came along from ``matsim.intlin``, whose only user
they were.  One mechanical edit: the helpers shared with the new code
(``mat_congruent_mod``, ``ResidueWitness``, ``_pi_powers``) are imported
from ``matsim.oracle``.  ``quotient_size``, |R/pi^N|, left the library with
its last caller and lives here.
"""

import itertools
import operator

from matsim.classify import Mat2
from matsim.errors import BudgetExceeded, invariant
from matsim.fppoly import FpPoly
from matsim.oracle import DEFAULT_BUDGET, ResidueWitness, _pi_powers, mat_congruent_mod
from matsim.rings import QuadExt


def quotient_size(ring, N: int) -> int:
    return ring.p ** sum(ring.levels(N))


def enumerate_quotient(ring, N: int, budget: int = DEFAULT_BUDGET):
    """All canonical representatives of R/pi^N, in the deterministic order."""
    if quotient_size(ring, N) > budget:
        raise BudgetExceeded(f"{quotient_size(ring, N)} residues exceed budget {budget}")
    return list(ring.residues(N))


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
# Smith normal form over Z or GF(p)[t]


class _ZDom:
    @staticmethod
    def is_zero(x):
        return x == 0

    @staticmethod
    def size(x):
        return abs(x)

    @staticmethod
    def normalize(x):
        return (-x, -1) if x < 0 else (x, 1)


class _PolyDom:
    @staticmethod
    def is_zero(x):
        return x.is_zero()

    @staticmethod
    def size(x):
        return x.degree + 1

    @staticmethod
    def normalize(x):
        if x.is_zero():
            return x, 1
        lead = x.lead()
        if lead == 1:
            return x, 1
        inv = pow(lead, -1, x.p)
        return x * inv, inv


def smith_normal_form(rows):
    """(D, U, V) with U*M*V = D diagonal, U and V unimodular.

    The entries are all ints or all FpPoly; the domain follows their type.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    dom = _PolyDom if nr and nc and isinstance(m[0][0], FpPoly) else _ZDom
    U = _ident_like(m, nr)
    V = _ident_like(m, nc)
    t = 0
    while t < min(nr, nc):
        piv = _smallest_nonzero(m, t, dom)
        if piv is None:
            break
        changed = True
        while changed:
            changed = False
            piv = _smallest_nonzero(m, t, dom)
            i0, j0 = piv
            _swap_rows(m, U, t, i0)
            _swap_cols(m, V, t, j0)
            for i in range(t + 1, nr):
                if not dom.is_zero(m[i][t]):
                    q = m[i][t] // m[t][t]
                    _row_op(m, U, i, t, q)
                    if not dom.is_zero(m[i][t]):
                        changed = True
            for j in range(t + 1, nc):
                if not dom.is_zero(m[t][j]):
                    q = m[t][j] // m[t][t]
                    _col_op(m, V, j, t, q)
                    if not dom.is_zero(m[t][j]):
                        changed = True
        t += 1
    # normalize diagonal units (sign / leading coefficient)
    for i in range(min(nr, nc)):
        d, unit = dom.normalize(m[i][i])
        if unit != 1:
            for j in range(nc):
                m[i][j] = m[i][j] * unit
            for j in range(nr):
                U[i][j] = U[i][j] * unit
    return m, U, V


def _ident_like(m, n):
    if m and m[0] and isinstance(m[0][0], FpPoly):
        p = m[0][0].p
        return [[FpPoly.const(p, int(i == j)) for j in range(n)] for i in range(n)]
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _smallest_nonzero(m, t, dom):
    best = None
    for i in range(t, len(m)):
        for j in range(t, len(m[0])):
            if not dom.is_zero(m[i][j]):
                if best is None or dom.size(m[i][j]) < dom.size(m[best[0]][best[1]]):
                    best = (i, j)
    return best


def _swap_rows(m, U, i, j):
    if i != j:
        m[i], m[j] = m[j], m[i]
        U[i], U[j] = U[j], U[i]


def _swap_cols(m, V, i, j):
    if i != j:
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]


def _row_op(m, U, i, t, q):
    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
    U[i] = [a - q * b for a, b in zip(U[i], U[t])]


def _col_op(m, V, j, t, q):
    for row in m:
        row[j] = row[j] - q * row[t]
    for row in V:
        row[j] = row[j] - q * row[t]
