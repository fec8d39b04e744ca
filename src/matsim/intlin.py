"""Small exact linear algebra over Z and GF(p)[t]: HNF, SNF, kernels.

Everything here works on tiny matrices (at most 8x8), so the simple
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
