"""Independent verification over finite quotients R/pi^N.

The conjugacy search is deliberately one-sided: absence of a unit-determinant
solution of U*A = B*U modulo pi^N proves the matrices are not similar over R,
while a mod-pi^N witness proves nothing (no effective bound is computed).
Exact witnesses always carry the positive direction.

Neither the search space (R/pi^N)^(2x2) nor the solution set is listed.  The
congruence is linear over the base ring (Z or GF(p)[t]): each entry of the
unknown matrix is one base coordinate over ZLoc or FpTLoc and two over a
quadratic extension (x, y of x + y*w).  Its solutions form a module, put
into a Howell echelon with the coordinates in the order of ``sort_key``
(entry by entry, x before y).  A digit search then fixes the coordinates
one at a time: at a pivot pi^j it keeps the least digit tau whose candidate
c + pi^j*tau still has a unit-determinant completion, a question about at
most q^4 points modulo pi (q = |R/pi|).  The result is the canonical-first
witness of the literal search over (R/pi^N)^(2x2) (cross-checked in the
tests against the listing it replaced), and it is checked once before it is
returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .classify import Mat2, _theta_matrix, pi_pow
from .errors import BudgetExceeded, invariant
from .intlin import howell_form
from .rings import QuadExt

DEFAULT_BUDGET = 10**7


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
    """The first U in (R/pi^N)^(2x2) in the canonical order with U*A = B*U
    mod pi^N and a unit determinant, or None.

    Raises BudgetExceeded when the declared search space |R/pi^N|^4 exceeds
    the budget, although the digit search costs at most 4*d*p tests of at
    most q^4 points each at any N (d coordinates per entry).
    """
    # |R/pi^N|^4 = p^(4L) >= 2^(4L) exceeds the budget once 4L reaches its
    # bit length, so the power is built only while it is about budget-sized
    L = sum(ring.levels(N))
    if 4 * L >= budget.bit_length() or ring.p ** (4 * L) > budget:
        raise BudgetExceeded(f"search space {ring.p}^(4*{L}) exceeds budget {budget}")
    U = _least_unit(ring, _solve_congruence(ring, A, B, N), N)
    if U is None:
        return None
    found = ResidueWitness(U, N)
    invariant(found.check_mod(ring, A, B), "the digit search returned U with U*A != B*U or det U not a unit")
    return found


# ---------------------------------------------------------------------------
# the congruence as a module over the base ring, and the digit search on it


class _Frame:
    """Matrices over R/pi^N as vectors of base coordinates: entry by entry,
    x before y in an extension, the order of ``sort_key``.  Coordinate k
    matters modulo pi_base^L_k only (L = ``ring.levels(N)``); it is stored
    times pi^(H - L_k), H = max(L), so that every coordinate lives in
    R_base/pi^H, with its order kept."""

    def __init__(self, ring, N):
        self.ring = ring
        if isinstance(ring, QuadExt):
            self.base, self.basis, self.lift = ring.base, (ring.one, ring.gen()), ring.lift
            self.coords = lambda c: (c.x, c.y)
        else:
            self.base, self.basis, self.lift = ring, (ring.one,), lambda code: ring.lift(code[0])
            self.coords = lambda c: (c,)
        levels = ring.levels(N)
        self.d, self.H = len(levels), max(levels)
        self.pows = _pi_powers(self.base, max(self.H, 1))
        self.levels = levels * 4
        self.scale = [self.pows[self.H - L] for L in self.levels]

    def vector(self, X):
        entries = (e for row in X.rows for x in row for e in self.coords(x))
        return [self.base.residue(e, L) * s for e, L, s in zip(entries, self.levels, self.scale)]

    def matrix(self, y):
        x = [a // s for a, s in zip(y, self.scale)]
        entries = [self.lift(x[i : i + self.d]) for i in range(0, len(x), self.d)]
        # lifts of residues: integral by construction
        return Mat2(self.ring, [entries[:2], entries[2:]], check_integral=False)


def _solve_congruence(ring, A, B, N):
    """Generators of the module of X over R/pi^N with X*A = B*X mod pi^N, as
    canonically lifted Mat2 whose ``_Frame`` vectors form a Howell echelon:
    each leads with a power of pi at a later coordinate than the one before.

    The unknowns are the coordinates of ``_Frame``.  Multiplication by c
    acts on the coordinates of one entry by the block whose column g holds
    the coordinates of c*g.  The generator of unknown k is (column k of the
    system | pi^(H - L_k) e_k), and the rows of its Howell echelon that
    vanish on the system's part span the scaled solutions.
    """
    fr = _Frame(ring, N)
    base, d, H, pows = fr.base, fr.d, fr.H, fr.pows
    n = 4 * d
    zero = pows[0] - pows[0]

    def block(c):
        # block[g][k]: coordinate k of c*g
        return [[base.residue(e, H) for e in fr.coords(c * g)] for g in fr.basis]

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
            row.append(fr.scale[k] * e)
        rows.append(row)
    gens = [[eq[u] for eq in rows] + [fr.scale[u] if v == u else zero for v in range(n)] for u in range(n)]
    return [fr.matrix(row[n:]) for col, _, row in howell_form(gens, base.p, H) if col >= n]


def _pi_powers(base, H):
    """[1, pi, ..., pi^H] in the Euclidean domain of residues (Z or GF(p)[t])."""
    pi = base.residue(base.uniformizer(), H + 1)
    pows = [base.residue(base.one, 1)]
    for _ in range(H):
        pows.append(pows[-1] * pi)
    return pows


def _least_unit(ring, gens, N):
    """The first X in the canonical order with a unit determinant among the
    R-combinations of the Mat2 ``gens`` modulo pi^N, or None.

    The ``_Frame`` vectors of ``gens`` are a Howell echelon, as
    ``_solve_congruence`` returns them; the scaled coordinates are fixed in
    order.  At the row that leads at coordinate k with pi^j, the
    values left for that coordinate are c + pi^j*t, c the current value mod
    pi^j.  Whether some completion has a unit determinant depends on the
    image mod pi only, which is (current X + t*row + the span of the later
    rows) mod pi: it depends on the digit tau = t mod pi, and the span of
    the later rows holds every completion by the Howell property.  The
    least value of the class of tau is c + pi^j*tau in both element orders
    (numeric over Z, from the constant coefficient over GF(p)[t]), so the
    least feasible tau gives the least coordinate.
    """
    fr = _Frame(ring, N)
    base, d, H, pows, p = fr.base, fr.d, fr.H, fr.pows, ring.p
    rows = [fr.vector(G) for G in gens]
    leads = [next((c for c in row if c), None) for row in rows]
    invariant(all(lead in pows for lead in leads), "a generator does not lead with a power of pi")
    echelon = [(row.index(lead), pows.index(lead), row) for row, lead in zip(rows, leads)]

    # modulo pi: the coordinates g with levels(1)[g] = 1 of each entry, as
    # digits mod p, and the products of those basis elements mod pi
    live = [g for g in range(d) if ring.levels(1)[g]]
    surv = [k for k in range(4 * d) if k % d in live]
    digits = lambda c: [int(base.residue(fr.coords(c)[i], 1)) for i in live]
    table = [[digits(fr.basis[g] * fr.basis[h]) for h in live] for g in live]
    m = len(live)

    def image(y):
        return tuple(int(y[k] // fr.scale[k] % pows[1]) for k in surv)

    def mul(a, b):
        out = [0] * m
        for g, x in enumerate(a):
            for h, y in enumerate(b):
                if x and y:
                    for i, c in enumerate(table[g][h]):
                        out[i] += x * y * c
        return out

    def unit(z):
        e = [z[i : i + m] for i in range(0, 4 * m, m)]
        return any((u - v) % p for u, v in zip(mul(e[0], e[3]), mul(e[1], e[2])))

    def feasible(y, span):
        return any(unit(tuple((a + b) % p for a, b in zip(y, v))) for v in span)

    imgs = [image(row) for _, _, row in echelon]
    spans = [{(0,) * len(surv)}]  # spans of the images of the rows i, i + 1, ..., built backwards
    for img in reversed(imgs):
        span = spans[-1]
        if img not in span:
            span = {tuple((a + c * b) % p for a, b in zip(v, img)) for v in span for c in range(p)}
        spans.append(span)
    spans.reverse()
    x, img = [pows[0] - pows[0]] * (4 * d), (0,) * len(surv)
    if not feasible(img, spans[0]):
        return None
    for i, (k, j, row) in enumerate(echelon):
        c = x[k] % pows[j]
        steps = ((c - x[k]) // pows[j] + pows[0] * tau for tau in range(p))
        options = ((t, tuple((a + int(t % pows[1]) * b) % p for a, b in zip(img, imgs[i]))) for t in steps)
        found = next((o for o in options if feasible(o[1], spans[i + 1])), None)
        invariant(found is not None, "no digit keeps a unit determinant within reach")
        t, img = found
        x = [(a + t * b) % pows[H] for a, b in zip(x, row)]
    return fr.matrix(x)


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
        return _theta_matrix(ring, f, pi_pow(ring, j), r)

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
