"""Earlier bodies of ``polys`` routines, kept as test oracles for
``test_polys.py`` and ``test_lm.py``.

* ``_as_solve_f2t`` before the degree sweep, with the GF(2) elimination it
  called: the equation U^2 + U*V = num(c) becomes an augmented GF(2)
  system, one int per row, solved by Gauss-Jordan with the free unknown
  set to 0.
* ``_ext_sqrt`` before the norm-trace identity: an elimination of x that
  leaves a quadratic in y^2 over the base.
* ``char_poly_n`` before Berkowitz's division-free algorithm: Hessenberg
  reduction by similarity over K, O(n^3) operations with divisions.
"""

from matsim.fppoly import FpPoly, FpRat
from matsim.polys import MonicPoly, poly_mul, sqrt_in_field
from matsim.rings import ExtElem


def _as_solve_f2t(c: FpRat):
    """Solve z^2 + z = c in GF(2)(t) by linear algebra over GF(2)."""
    n, d = c.num, c.den
    v = d.sqrt()
    if v is None:
        return None
    bound = max(v.degree, n.degree, 0)
    ncols = bound + 1
    nrows = max(2 * bound, bound + v.degree, n.degree) + 1
    # row k of U^2 + U*V = num(c), the coefficient of t^k: bit i for the
    # unknown coefficient u_i of U, bit ncols for the right-hand side
    aug = [0] * nrows
    vbits = [j for j, vc in enumerate(v.coeffs) if vc]
    for i in range(ncols):
        aug[2 * i] ^= 1 << i  # U^2 term
        for j in vbits:
            aug[i + j] ^= 1 << i  # U*V term
    for j, nc in enumerate(n.coeffs):
        if nc:
            aug[j] ^= 1 << ncols
    sol = _solve_gf2(aug, ncols)
    if sol is None:
        return None
    return FpRat(FpPoly(2, sol), v)


def _solve_gf2(aug, ncols):
    """Gauss-Jordan elimination over GF(2); one solution or None.

    Row i is the int aug[i]: bit j holds the coefficient of unknown j and
    bit ncols the right-hand side, so a row operation is one XOR.  Free
    unknowns are set to 0.
    """
    aug = list(aug)
    nrows = len(aug)
    pivots = []
    r = 0
    for col in range(ncols):
        bit = 1 << col
        piv = next((i for i in range(r, nrows) if aug[i] & bit), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        row = aug[r]
        for i in range(nrows):
            if i != r and aug[i] & bit:
                aug[i] ^= row
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    # the rows below the pivots have no coefficient left: 0 = rhs
    if any(aug[i] >> ncols for i in range(r, nrows)):
        return None
    sol = [0] * ncols
    for i, col in enumerate(pivots):
        sol[col] = aug[i] >> ncols
    return sol


def _ext_sqrt(ring, d: ExtElem):
    """Square root in a quadratic extension, characteristic != 2.

    For d = d0 + d1*w with w^2 = A*w + B, a root z = x + y*w satisfies
    2xy + A y^2 = d1 and x^2 + B y^2 = d0; eliminating x turns Y = y^2
    into a root of  D_ext*Y^2 - (A*d1/2 + d0)*Y + d1^2/4  over the base.
    """
    base = ring.base
    A, B = ring.mp_a, ring.mp_b
    d0, d1 = d.x, d.y
    two = base.from_int(2)
    four = base.from_int(4)
    dext = A * A / four + B
    if not d1:
        s = sqrt_in_field(base, d0)
        if s is not None:
            return ExtElem(ring, s, base.zero)
        t = sqrt_in_field(base, d0 / dext)
        if t is not None:
            cand = ExtElem(ring, -A * t / two, t)
            if cand * cand == d:
                return cand
        return None
    mid = A * d1 / two + d0
    disc = mid * mid - dext * d1 * d1
    s = sqrt_in_field(base, disc)
    if s is None:
        return None
    for sign in (1, -1):
        y2 = (mid + s) / (two * dext) if sign == 1 else (mid - s) / (two * dext)
        if not y2:
            continue
        y = sqrt_in_field(base, y2)
        if y is None:
            continue
        x = (d1 - A * y2) / (two * y)
        cand = ExtElem(ring, x, y)
        if cand * cand == d:
            return cand
    return None


def char_poly_n(ring, M):
    """det(xI - M) as a MonicPoly, in O(n^3) operations over K.

    Hessenberg reduction by similarity, then the recurrence on the leading
    principal minors of xI - H (Cohen, GTM 138, Algorithm 2.2.9).
    """
    n = len(M)
    H = [[ring.coerce(x) for x in row] for row in M]
    for m in range(1, n - 1):
        k = next((k for k in range(m, n) if H[k][m - 1]), None)
        if k is None:
            continue
        H[k], H[m] = H[m], H[k]
        for row in H:
            row[k], row[m] = row[m], row[k]
        t = H[m][m - 1]
        for i in range(m + 1, n):
            u = H[i][m - 1] / t
            H[i] = [x - u * y for x, y in zip(H[i], H[m])]
            for row in H:
                row[m] = row[m] + u * row[i]
    p = [[ring.one]]
    for m in range(n):
        pm = poly_mul([-H[m][m], ring.one], p[m], ring)
        t = ring.one
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i]
            c = t * H[i][m]
            pm[: i + 1] = [x - c * y for x, y in zip(pm, p[i])]
        p.append(pm)
    return MonicPoly(ring, p[n])
