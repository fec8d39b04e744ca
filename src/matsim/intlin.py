"""Small exact linear algebra: integer HNF and solving, fraction-free
(Bareiss) elimination, Gauss-Jordan over a field, and the Howell echelon
over Z/p^H or GF(p)[t]/(t^H).

Everything here works on small matrices (at most about 31x31: the Sylvester
matrix of a degree-16 polynomial and its derivative), so the simple
textbook algorithms are used throughout.  The Hermite form convention is
row-style upper echelon with positive pivots and entries above each pivot
reduced into [0, pivot).
"""

from __future__ import annotations

from .fppoly import FpPoly
from .rings import _int_val


# ---------------------------------------------------------------------------
# integer HNF


def _hnf(m, nc):
    """(rows, pivots): the rows of m in canonical row HNF on their first nc
    columns, with the pivot (row, column) pairs.

    Every row operation acts on the whole row, so columns after nc ride
    along: with identity columns appended they become the unimodular
    transform.  Rows that are zero on the first nc columns sink to the bottom.
    """
    m = [list(map(int, r)) for r in m]
    nr = len(m)
    pivots = []
    for col in range(nc):
        row = len(pivots)
        if row == nr:
            break
        piv = next((i for i in range(row, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        # clear below via gcd steps
        for i in range(row + 1, nr):
            while m[i][col]:
                q = m[row][col] // m[i][col]
                m[row] = [a - q * b for a, b in zip(m[row], m[i])]
                m[row], m[i] = m[i], m[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
        pivots.append((row, col))
    # reduce entries above each pivot, left to right: later reductions only
    # touch columns to the right of already-reduced pivots
    for r, col in pivots:
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
    return m, pivots


def hnf_int(rows):
    """Canonical Hermite normal form of the Z-span of the given rows."""
    return _hnf(rows, len(rows[0]) if rows else 0)[0]


def solve_int(rows, target):
    """Integer row x with x * M = target, or None.

    x is read off the transform that rides along the HNF of M: the target
    is reduced against the pivot rows, and x gathers the transform part of
    each row used.
    """
    nr, nc = len(rows), len(target)
    H, pivots = _hnf([list(r) + [int(i == j) for j in range(nr)] for i, r in enumerate(rows)], nc)
    t = list(map(int, target))
    x = [0] * nr
    for r, col in pivots:
        if t[col] % H[r][col]:
            return None
        q = t[col] // H[r][col]
        if q:
            t = [a - q * b for a, b in zip(t, H[r])]
            x = [a + q * b for a, b in zip(x, H[r][nc:])]
    return None if any(t) else x


def bareiss(m):
    """(det M, det M * M^-1 * B) for integer rows m = [M | B], M square.

    Bareiss's fraction-free Gauss-Jordan elimination (Cohen, GTM 138, §2.2):
    after step k every entry is a (k+1) x (k+1) minor, so each division by
    the previous pivot is exact and all values stay integers.  With no B
    only the rows below each pivot are eliminated.  A singular M gives
    (0, None).
    """
    a = [list(r) for r in m]
    n = len(a)
    jordan = n and len(a[0]) > n
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        p, rk = a[k][k], a[k][k + 1:]
        for i in range(n) if jordan else range(k + 1, n):
            if i != k:
                # columns up to k are never read again: only those right of
                # k are updated
                ai = a[i]
                c = ai[k]
                ai[k + 1:] = [(p * x - c * y) // prev for x, y in zip(ai[k + 1:], rk)]
        prev = p
    return sign * prev, [[sign * x for x in r[n:]] for r in a]


# ---------------------------------------------------------------------------
# Gauss-Jordan elimination over a field


def field_solve(M, rhs=()):
    """(det M, [x with M x = b for each column b in rhs]) for a square M.

    Entries may be of any exact field type (Fraction, FpRat, ExtElem).
    A singular M gives (0, None).
    """
    n = len(M)
    a = [list(M[i]) + [b[i] for b in rhs] for i in range(n)]
    det = None
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if a[i][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pivot = a[col][col]
        det = pivot if det is None else det * pivot
        inv = 1 / pivot
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    if sign < 0:
        det = -det
    return det, [[a[i][n + k] for i in range(n)] for k in range(len(rhs))]


# ---------------------------------------------------------------------------
# Howell echelon over Z/p^H or GF(p)[t]/(t^H)


def howell_form(rows, p, H):
    """Echelon rows of the span of ``rows`` in S^n, S = Z/p^H (int entries)
    or GF(p)[t]/(t^H) (FpPoly entries), with the Howell property: for every
    column k, the rows that lead at k or later span every element of the
    span that is zero before column k (Howell, "Spans in the module
    (Z_m)^s", 1986; Storjohann and Mulders, ESA 1998).

    S is a chain ring, so at each column the row of least valuation is the
    pivot: scaled to lead with pi^j exactly (pi = p or t), it clears the
    column from every other row, and pi^(H-j) times it, zero at the pivot,
    rejoins the rows still to be reduced.  Returns [(column, j, row)] with
    entries reduced into S, in column order.
    """
    if rows and isinstance(rows[0][0], FpPoly):
        reduce, order = lambda x: x.truncate(H), FpPoly.order
        inverse, power = lambda u: u.inverse_mod_t_power(H), lambda j: FpPoly.t_power(p, j)
    else:
        mod = p**H
        reduce, order = lambda x: x % mod, lambda x: _int_val(x, p)
        inverse, power = lambda u: pow(u, -1, mod), p.__pow__
    todo = [r for r in ([reduce(x) for x in row] for row in rows) if any(r)]
    out = []
    for col in range(len(rows[0]) if rows else 0):
        live = [r for r in todo if r[col]]
        if not live:
            continue
        piv = min(live, key=lambda r: order(r[col]))
        todo.remove(piv)
        j = order(piv[col])
        pj = power(j)
        u = inverse(piv[col] // pj)
        piv = [reduce(x * u) for x in piv]
        todo = [[reduce(x - r[col] // pj * y) for x, y in zip(r, piv)] if r[col] else r for r in todo]
        if j:
            todo.append([reduce(x * power(H - j)) for x in piv])
        todo = [r for r in todo if any(r)]
        out.append((col, j, piv))
    return out
