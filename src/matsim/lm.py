"""Matrix <-> ideal correspondence and quadratic-form equivalence over Z.

A matrix A with characteristic polynomial f and gcd(f, f') = 1 corresponds
to an ideal of R[x]/(f) that is free of rank n over R.  The conversion uses
a Krylov-built conjugator g with g*A = A0*g (A0 the companion matrix), and
the returned basis u always satisfies the exact identity

    theta * (u_1, ..., u_n) = (u_1, ..., u_n) * A,

multiplication by theta acting on row vectors of coordinates.  Both
directions check det(xI - A) = f by Berkowitz's division-free algorithm
(polys.char_poly_n).  Over Z every value is an integer: A, f and the
cyclic vector are, so the Krylov rows are too, and determinants and
solutions come from Bareiss's fraction-free elimination (intlin.bareiss);
the DVR instances keep the same steps over K.  Equivalence of ideals is
decided where an exact procedure exists: imaginary quadratic orders over Z
(binary-form reduction) and the DVR instances (delegation to the conjugacy
classifier).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm
from operator import mul

from .classify import Mat2
from .classify import similar as dvr_similar
from .errors import (
    CharPolyMismatch,
    IndefiniteForm,
    NotAnIdeal,
    NotImaginaryQuadratic,
    NotIntegral,
    NotSeparable,
    UnsupportedRing,
    invariant,
)
from .intlin import bareiss, field_solve
from .polys import MonicPoly, char_poly_n, is_separable, mul_mod, poly_gcd
from .rings import DVR, Rationals

_KRYLOV_SEED = 20240817


class IntegerRing(Rationals):
    """Z as the base ring of the correspondence; K = Q via Fraction.  The
    correspondence computes on ints, so coordinates and entries it returns
    may be ints: they compare, hash and encode as the equal Fractions."""

    kind = "ZZ"

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("ZZ")

    def __repr__(self):
        return "ZZ"

    def is_integral(self, x):
        return self.coerce(x).denominator == 1


ZZ = IntegerRing()


def _theta_times(coeffs, u):
    """theta*u for f with low-to-high coefficients coeffs (monic): a shift
    up, with theta^n = -(coeffs[0] + coeffs[1]*theta + ...)."""
    top = u[-1]
    return (-top * coeffs[0],) + tuple(x - top * c for x, c in zip(u, coeffs[1:-1]))


@dataclass(frozen=True)
class IdealBasis:
    """Free R-basis of an ideal of R[x]/(f), coordinates over (1, theta, ...)."""

    f: MonicPoly
    ring: object
    basis: tuple  # tuple of coordinate tuples over K

    def __post_init__(self):
        n = self.f.degree
        if len(self.basis) != n or any(len(u) != n for u in self.basis):
            raise ValueError("basis arity must match deg f")

    def encode(self):
        enc = self.ring.encode
        return [[enc(c) for c in u] for u in self.basis]


def companion(f: MonicPoly):
    """The companion matrix A0 with -a_n, ..., -a_1 in the last column."""
    ring = f.ring
    n = f.degree
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = ring.one
    for i in range(n):
        # paper indexing a_k = coeff of x^(n-k); last column holds -a_(n-i)
        rows[i][n - 1] = -f.coeffs[i]
    return rows


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
    zz = isinstance(ring, IntegerRing)
    if zz:
        A = [[int(x) for x in row] for row in A]
    if char_poly_n(ring, A) != f:
        raise CharPolyMismatch("det(xI - A) differs from f")
    # f = det(xI - A) is integral
    coeffs = [int(c) for c in f.coeffs] if zz else f.coeffs
    if not (_separable_zz(coeffs) if zz else is_separable(f, ring)):
        raise NotSeparable("the correspondence needs gcd(f, f') = 1")
    g = _krylov_conjugator(ring, coeffs, A)
    # u_j = sum_i theta^i * g[i][j], integral as A, f and w are; the order is
    # fixed by the identity theta*(u) = (u)*A, so no cosmetic reordering
    J = IdealBasis(f, ring, tuple(zip(*g)))
    _verify_star(J, coeffs, A)
    return J


def _separable_zz(coeffs):
    """gcd(f, f') = 1 over Q: the resultant of f and f', the determinant of
    their Sylvester matrix, is nonzero (f' has degree n - 1 in characteristic 0)."""
    n = len(coeffs) - 1
    if n < 1:
        return False
    f, fp = coeffs[::-1], [i * c for i, c in enumerate(coeffs)][:0:-1]
    rows = [[0] * i + f + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + fp + [0] * (n - 1 - i) for i in range(n)]
    return bareiss(rows)[0] != 0


def _krylov_conjugator(ring, coeffs, A):
    """g in GL_n(K) with g*A = A0*g: last row is a cyclic vector w and

        g[i-1] = g[i]*A + coeffs[i]*w

    (Horner with the coefficients of f); the top-row relation then holds by
    Cayley-Hamilton.  Standard basis vectors are tried first, then small
    random vectors with a fixed seed.  Over Z all of it is on ints.
    """
    n = len(A)
    zz = isinstance(ring, IntegerRing)
    zero, one, lift = (0, 1, int) if zz else (ring.zero, ring.one, ring.from_int)
    cols = list(zip(*A))
    rng = random.Random(_KRYLOV_SEED)
    candidates = [[one if i == j else zero for j in range(n)] for i in range(n)]
    best = None
    for _ in range(32):
        for w in candidates:
            g = [None] * n
            g[n - 1] = list(w)
            for i in range(n - 1, 0, -1):
                g[i - 1] = [sum(map(mul, g[i], col), zero) + coeffs[i] * x for col, x in zip(cols, w)]
            d = bareiss(g)[0] if zz else field_solve(g)[0]
            if not d:
                continue
            score = _det_size(ring, d)
            if best is None or score < best[0]:
                best = (score, g)
        if best is not None:
            break
        candidates = [[lift(rng.randint(-3, 3)) for _ in range(n)] for _ in range(4)]
    invariant(best is not None, "no cyclic vector found (should be impossible)")
    return best[1]


def _det_size(ring, d):
    """Preference order for cyclic vectors: unimodular conjugators first."""
    if isinstance(ring, DVR):
        return ring.val(d)
    d = abs(d)
    return (d.numerator * d.denominator, d.denominator)


def _verify_star(J: IdealBasis, coeffs, A):
    zero = 0 if isinstance(J.ring, IntegerRing) else J.ring.zero
    coords = list(zip(*J.basis))
    for u, col in zip(J.basis, zip(*A)):
        rhs = tuple(sum(map(mul, c, col), zero) for c in coords)
        invariant(_theta_times(coeffs, u) == rhs, "identity theta*(u) = (u)*A failed")


def ideal_to_matrix(f: MonicPoly, J: IdealBasis):
    """The multiplication-by-theta matrix on the given basis (row convention)."""
    return _theta_matrix(f, J)[0]


def _theta_matrix(f: MonicPoly, J: IdealBasis):
    """(A, rows, det): the matrix of theta on the basis, the basis
    coordinates and their determinant; over Z the coordinates are scaled to
    ints by the lcm of their denominators, and A and det come from one
    Bareiss elimination."""
    ring = J.ring
    n = f.degree
    if not n:  # R[x]/(1) = 0: the empty basis spans no lattice
        raise NotAnIdeal("basis is not K-linearly independent")
    # column j of A solves (basis coordinates)^T * A[.][j] = theta * u_j
    if isinstance(ring, IntegerRing):
        D = lcm(*(c.denominator for u in J.basis for c in u))
        rows = [[c.numerator * (D // c.denominator) for c in u] for u in J.basis]
        # A has char poly f, so it is integral only if f is; a non-integral
        # f fails below, and theta on its numerators is never read
        integral = all(c.denominator == 1 for c in f.coeffs)
        theta = [_theta_times([c.numerator for c in f.coeffs], u) for u in rows]
        det, DA = bareiss([[u[i] for u in rows] + [t[i] for t in theta] for i in range(n)])
        if not det:
            raise NotAnIdeal("basis is not K-linearly independent")
        if not integral or any(x % det for row in DA for x in row):
            raise NotAnIdeal("multiplication by theta leaves the R-span")
        A = [[x // det for x in row] for row in DA]
    else:
        rows = J.basis
        Mt = [[u[i] for u in rows] for i in range(n)]
        det, cols = field_solve(Mt, [_theta_times(f.coeffs, u) for u in rows])
        if not det:
            raise NotAnIdeal("basis is not K-linearly independent")
        A = [[cols[j][k] for j in range(n)] for k in range(n)]
        if not all(ring.is_integral(x) for row in A for x in row):
            raise NotAnIdeal("multiplication by theta leaves the R-span")
    if char_poly_n(ring, A) != f:
        raise NotAnIdeal("char poly of the produced matrix differs from f")
    return A, rows, det


def is_non_zero_divisor(f: MonicPoly, alpha, ring=None) -> bool:
    """True iff alpha is invertible in K[x]/(f) (gcd test; needs (f,f')=1)."""
    ring = ring or f.ring
    alpha = [ring.coerce(c) for c in alpha]
    if not any(alpha):
        return False
    g = poly_gcd(list(f.coeffs), alpha, ring)
    return len(g) == 1


# ---------------------------------------------------------------------------
# binary quadratic forms (imaginary quadratic Z-orders)


@dataclass(frozen=True)
class BQForm:
    a: int
    b: int
    c: int

    def disc(self):
        return self.b * self.b - 4 * self.a * self.c

    def is_positive_definite(self):
        return self.a > 0 and self.disc() < 0

    def opposite(self):
        return BQForm(self.a, -self.b, self.c)

    def __str__(self):
        return f"{self.a}x^2 + {self.b}xy + {self.c}y^2"


def gauss_reduce(F: BQForm):
    """Gauss reduction with its SL2(Z) transform: (G, (e1, e2)) with G the
    unique reduced form, |b| <= a <= c and b >= 0 on ties, and
    G(x, y) = F(x*e1 + y*e2); so a = F(e1) is the minimum of F on Z^2 - 0
    (Cohen, GTM 138, §5.4)."""
    if not F.is_positive_definite():
        raise IndefiniteForm(f"{F} is not positive definite")
    a, b, c = F.a, F.b, F.c
    (p, q), (r, s) = (1, 0), (0, 1)
    while True:
        if c < a or (a == c and b < 0):
            # (x, y) -> (-y, x); on a tie it only flips the sign of b
            a, b, c = c, -b, a
            (p, q), (r, s) = (r, s), (-p, -q)
        elif b > a or b <= -a:
            # (x, y) -> (x + k*y, y), moving b into (-a, a]
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
            r, s = r + k * p, s + k * q
        else:
            return BQForm(a, b, c), ((p, q), (r, s))


def reduce_form(F: BQForm) -> BQForm:
    """Unique Gauss-reduced representative: |b| <= a <= c, b >= 0 on ties."""
    return gauss_reduce(F)[0]


def norm_form(u, v, n, a, b) -> BQForm:
    """The form N(x*u + y*v)/n for coordinate pairs u, v of x + y*theta, theta^2 = a*theta + b,
    so N(x + y*theta) = x^2 + a*x*y - b*y^2; the middle coefficient is N(u + v) - N(u) - N(v), over n."""
    def N(x, y):
        return x * x + a * x * y - b * y * y
    fa, fc = N(*u), N(*v)
    coeffs = (fa, N(u[0] + v[0], u[1] + v[1]) - fa - fc, fc)
    if any(c % n for c in coeffs):
        raise NotAnIdeal("norm form is not integral: not an ideal basis")
    return BQForm(*(int(c // n) for c in coeffs))


def ideal_norm(J: IdealBasis):
    """|det| of the coordinate matrix: the (generalized) index [Z[theta] : J]."""
    (u0, u1), (v0, v1) = J.basis
    d = u0 * v1 - u1 * v0
    return abs(d)


def ideal_to_form(J: IdealBasis) -> BQForm:
    """Norm form N(x*u1 + y*u2)/N(J) of a rank-2 ideal over Z."""
    f = J.f
    ring = J.ring
    if f.degree != 2 or not isinstance(ring, IntegerRing):
        raise UnsupportedRing("forms need a quadratic Z-order")
    disc = f.a * f.a + 4 * f.b
    if disc >= 0:
        raise NotImaginaryQuadratic(f"disc {disc} is not negative")
    # validates rank and the ideal property; on the integer rows D*u the
    # numerator of the form and the norm |det| both scale by D^2
    _, rows, det = _theta_matrix(f, J)
    return norm_form(*rows, abs(det), int(f.a), int(f.b))


def scale_ideal(J: IdealBasis, alpha) -> IdealBasis:
    """alpha * J for alpha given in power-basis coordinates."""
    ring = J.ring
    alpha = tuple(ring.coerce(c) for c in alpha)
    basis = tuple(mul_mod(J.f, u, alpha) for u in J.basis)
    return IdealBasis(J.f, ring, basis)


def equivalent(J1: IdealBasis, J2: IdealBasis) -> bool:
    """Decide J1 ~ J2 (alpha1*J1 = alpha2*J2 for non-zero-divisors alpha_i).

    Implemented over imaginary quadratic Z-orders (reduced forms, up to the
    GL2 orientation flip) and over the DVR instances (conjugacy of the
    multiplication matrices).
    """
    if J1.f != J2.f:
        return False
    ring = J1.ring
    if isinstance(ring, IntegerRing):
        F1 = reduce_form(ideal_to_form(J1))
        F2 = reduce_form(ideal_to_form(J2))
        return F1 == F2 or F1 == reduce_form(F2.opposite())
    if isinstance(ring, DVR):
        A = ideal_to_matrix(J1.f, J1)
        B = ideal_to_matrix(J2.f, J2)
        return dvr_similar(ring, Mat2(ring, A), Mat2(ring, B))
    raise UnsupportedRing(f"no equivalence decision over {ring!r}")


def class_forms(disc: int):
    """All reduced positive definite forms of the given negative discriminant."""
    if disc >= 0:
        raise NotImaginaryQuadratic("need a negative discriminant")
    out = []
    a = 1
    while a * a * 3 <= -disc:
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            F = BQForm(a, b, c)
            if reduce_form(F) == F:
                out.append(F)
        a += 1
    return sorted(out, key=lambda F: (F.a, F.b, F.c))
