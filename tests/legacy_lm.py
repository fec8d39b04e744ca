"""The ``Fraction`` path of the Latimer-MacDuffee code over Z, kept as the
test oracle of ``test_lm.py``.

Before the integer path, ``ZZ`` stored every value as a ``Fraction``: the
Krylov rows were eliminated by ``field_solve`` once per candidate cyclic
vector, theta*u came from a polynomial product reduced by division, the
ideal check solved over Q, and ``char_poly_n`` was the Hessenberg reduction
of ``legacy_polys``.  The bodies are the old ones.
"""

import random
from fractions import Fraction
from math import lcm

from legacy_polys import char_poly_n
from matsim.classify import Mat2, pi_pow
from matsim.errors import (
    CharPolyMismatch,
    NotAnIdeal,
    NotImaginaryQuadratic,
    NotIntegral,
    NotSeparable,
    UnsupportedRing,
    invariant,
)
from matsim.intlin import field_solve
from matsim.lm import _KRYLOV_SEED, IdealBasis, IntegerRing, ideal_norm, norm_form
from matsim.polys import MonicPoly, is_separable, mul_mod
from matsim.rings import DVR


def _theta_times(f: MonicPoly, u):
    return mul_mod(f, u, (f.ring.zero, f.ring.one))


def _row_times_mat(ring, row, A):
    n = len(A)
    return [sum((row[k] * A[k][j] for k in range(n)), ring.zero) for j in range(n)]


def _clear_scalar(ring, vecs):
    """Nonzero a in R making a*v integral for every coordinate."""
    if isinstance(ring, DVR):
        worst = max((-ring.val(c) for v in vecs for c in v), default=0)
        return pi_pow(ring, int(max(worst, 0)))
    return Fraction(lcm(*(c.denominator for v in vecs for c in v)))


def matrix_to_ideal(f: MonicPoly, A, ring=None) -> IdealBasis:
    """Ideal basis u with theta*(u) = (u)*A, built from a Krylov conjugator.

    A is an n x n array (list of lists or Mat2) with char poly f; requires
    gcd(f, f') = 1.
    """
    ring = ring or f.ring
    if isinstance(A, Mat2):
        A = [list(A[0]), list(A[1])]
    A = [[ring.coerce(x) for x in row] for row in A]
    n = f.degree
    if len(A) != n or any(len(row) != n for row in A):
        raise ValueError("matrix shape must be deg f x deg f")
    if not all(ring.is_integral(x) for row in A for x in row):
        raise NotIntegral(f"matrix entries must lie in {ring!r}")
    if char_poly_n(ring, A) != f:
        raise CharPolyMismatch("det(xI - A) differs from f")
    if not is_separable(f, ring):
        raise NotSeparable("the correspondence needs gcd(f, f') = 1")
    g = _krylov_conjugator(ring, f, A)
    a = _clear_scalar(ring, g)
    rows = [[a * g[i][j] for j in range(n)] for i in range(n)]
    # u_j = sum_i theta^i * (a*g)[i][j]; the order is fixed by the identity
    # theta*(u) = (u)*A, so no cosmetic reordering is applied
    basis = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
    J = IdealBasis(f, ring, tuple(basis))
    _verify_star(J, A)
    return J


def _krylov_conjugator(ring, f, A):
    """g in GL_n(K) with g*A = A0*g: last row is a cyclic vector w and

        g[i-1] = g[i]*A + coeffs[i]*w

    (Horner with the coefficients of f); the top-row relation then holds by
    Cayley-Hamilton.  Standard basis vectors are tried first, then small
    random vectors with a fixed seed.
    """
    n = f.degree
    rng = random.Random(_KRYLOV_SEED)
    candidates = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    best = None
    for _ in range(32):
        for w in candidates:
            g = [None] * n
            g[n - 1] = list(w)
            for i in range(n - 1, 0, -1):
                nxt = _row_times_mat(ring, g[i], A)
                g[i - 1] = [nxt[j] + f.coeffs[i] * w[j] for j in range(n)]
            d, _ = field_solve(g)
            if not d:
                continue
            score = _det_size(ring, d)
            if best is None or score < best[0]:
                best = (score, g)
        if best is not None:
            break
        candidates = [[ring.from_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(4)]
    invariant(best is not None, "no cyclic vector found (should be impossible)")
    return best[1]


def _det_size(ring, d):
    """Preference order for cyclic vectors: unimodular conjugators first."""
    if isinstance(ring, DVR):
        return ring.val(d)
    d = abs(d)
    return (d.numerator * d.denominator, d.denominator)


def _verify_star(J: IdealBasis, A):
    ring = J.ring
    f = J.f
    n = f.degree
    for j in range(n):
        lhs = _theta_times(f, J.basis[j])
        rhs = tuple(
            sum((J.basis[k][i] * A[k][j] for k in range(n)), ring.zero) for i in range(n)
        )
        invariant(lhs == rhs, "identity theta*(u) = (u)*A failed")


def ideal_to_matrix(f: MonicPoly, J: IdealBasis):
    """The multiplication-by-theta matrix on the given basis (row convention)."""
    ring = J.ring
    n = f.degree
    # column j of A solves (basis coordinates)^T * A[.][j] = theta * u_j
    Mt = [[u[i] for u in J.basis] for i in range(n)]
    det, cols = field_solve(Mt, [_theta_times(f, u) for u in J.basis])
    if not det:
        raise NotAnIdeal("basis is not K-linearly independent")
    A = [[cols[j][k] for j in range(n)] for k in range(n)]
    for row in A:
        for x in row:
            if not ring.is_integral(x):
                raise NotAnIdeal("multiplication by theta leaves the R-span")
    if char_poly_n(ring, A) != f:
        raise NotAnIdeal("char poly of the produced matrix differs from f")
    return A


def ideal_to_form(J: IdealBasis):
    """Norm form N(x*u1 + y*u2)/N(J) of a rank-2 ideal over Z."""
    f = J.f
    ring = J.ring
    if f.degree != 2 or not isinstance(ring, IntegerRing):
        raise UnsupportedRing("forms need a quadratic Z-order")
    disc = f.a * f.a + 4 * f.b
    if disc >= 0:
        raise NotImaginaryQuadratic(f"disc {disc} is not negative")
    ideal_to_matrix(f, J)  # validates rank and the ideal property
    return norm_form(*J.basis, ideal_norm(J), f.a, f.b)
