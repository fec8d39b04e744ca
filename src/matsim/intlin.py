"""Small exact linear algebra over Z and GF(p)[t]: HNF, Howell echelon, kernels.

Everything here works on tiny matrices (at most 8x16), so the simple
textbook algorithms are used throughout.  The Hermite form convention is
row-style upper echelon with positive pivots and entries above each pivot
reduced into [0, pivot).
"""

from __future__ import annotations

from .fppoly import FpPoly


# ---------------------------------------------------------------------------
# integer HNF


def hnf_int(rows):
    """Canonical Hermite normal form of the Z-span of the given rows."""
    H, _ = hnf_with_transform(rows)
    return H


def hnf_with_transform(rows):
    """(H, U) with U unimodular, U * rows = H in canonical row HNF.

    Zero rows of H sink to the bottom; the matching rows of U span the
    left kernel of the input.
    """
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    row = 0
    for col in range(nc):
        piv = None
        for i in range(row, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        u[row], u[piv] = u[piv], u[row]
        # clear below via gcd steps
        for i in range(row + 1, nr):
            while m[i][col]:
                q = m[row][col] // m[i][col]
                m[row] = [a - q * b for a, b in zip(m[row], m[i])]
                u[row] = [a - q * b for a, b in zip(u[row], u[i])]
                m[row], m[i] = m[i], m[row]
                u[row], u[i] = u[i], u[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
            u[row] = [-a for a in u[row]]
        row += 1
        if row == nr:
            break
    # reduce entries above each pivot, left to right: later reductions only
    # touch columns to the right of already-reduced pivots
    pivots = []
    r = 0
    for col in range(nc):
        if r < len(m) and r < nr and m[r][col]:
            pivots.append((r, col))
            r += 1
    for r, col in pivots:
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
    return m, u


def left_kernel_int(rows):
    """Basis rows x with x * M = 0, over Z."""
    H, U = hnf_with_transform(rows)
    return [U[i] for i in range(len(H)) if not any(H[i])]


def solve_int(rows, target):
    """Integer row x with x * M = target, or None."""
    H, U = hnf_with_transform(rows)
    t = list(map(int, target))
    nc = len(t)
    coeff = [0] * len(H)
    pivots = {}
    r = 0
    for col in range(nc):
        if r < len(H) and H[r][col]:
            pivots[col] = r
            r += 1
    for col in range(nc):
        if t[col] == 0:
            continue
        r = pivots.get(col)
        if r is None or t[col] % H[r][col]:
            return None
        q = t[col] // H[r][col]
        coeff[r] = q
        t = [a - q * b for a, b in zip(t, H[r])]
    if any(t):
        return None
    n = len(U)
    return [sum(coeff[i] * U[i][j] for i in range(n)) for j in range(n)]


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
        reduce, order = lambda x: x % mod, lambda x: _int_order(x, p)
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


def _int_order(x, p):
    """The p-adic valuation of a nonzero int."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v
