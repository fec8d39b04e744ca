"""Rank-4 lattices over imaginary quadratic orders R = Z[sqrt(d)].

L = K[theta] is a relative quadratic extension of K = Q(sqrt(d)) given by a
monic f = x^2 - a*x - b over R.  A full R-lattice J in L decomposes along
any direction x0 outside K as

    J = frak_a * (x0 + u0)  (+)  (J intersect K),

so J is free over R exactly when the Steinitz ideal frak_a * (J cap K) is
principal, which one Gauss reduction of its norm form decides.  Everything
else is exact integer linear algebra on Hermite normal forms; d is
restricted to squarefree d < 0 with d = 2, 3 mod 4 so that (1, sqrt(d)) is
a Z-basis of the maximal order, and to |d| <= 10^12.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import NotFreeError, NotFullRank, UnsupportedRing, X0InBase, invariant
from .intlin import field_solve, hnf_int, left_kernel_int, solve_int
from .lm import gauss_reduce, norm_form
from .polys import parse_monic_quadratic
from .rings import QQ, ExtElem, QuadAlgebra


_MAX_ABS_D = 10**12  # the squarefree check divides by every k <= sqrt|d|


def _is_squarefree(n):
    n = abs(n)
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


class QuadBase(QuadAlgebra):
    """K = Q(sqrt d), w^2 = d, with the order R = Z[w] for squarefree d < 0
    with d = 2, 3 mod 4 and |d| <= 10^12.  Elements are ExtElem with
    Fraction coordinates."""

    def __init__(self, d: int):
        if abs(d) > _MAX_ABS_D:
            raise UnsupportedRing(f"need |d| <= 10^12, got d = {d}")
        if d >= 0 or not _is_squarefree(d) or d % 4 not in (2, 3):
            raise UnsupportedRing("need squarefree d < 0 with d = 2, 3 mod 4")
        super().__init__(QQ, 0, d)
        self.d = d
        self.omega = self.gen()
        # w acting on ideal coordinates (w-part, 1-part): [[0, d], [1, 0]]
        self.actions = (_action([((self.omega * u).y, (self.omega * u).x) for u in (self.omega, self.one)]),)

    def __repr__(self):
        return f"QuadBase({self.d})"

    def elem(self, x, y=0):
        return ExtElem(self, Fraction(x), Fraction(y))

    def encode(self, e):
        """Strings like 2+w, -w and 1/2-3*w."""
        enc = QQ.encode
        if not e.y:
            return enc(e.x)
        ys = enc(e.y)
        if ys == "1":
            wterm = "w"
        elif ys == "-1":
            wterm = "-w"
        else:
            wterm = f"{ys}*w"
        if not e.x:
            return wterm
        sign = "+" if (e.y > 0) else "-"
        mag = wterm.lstrip("-")
        return f"{enc(e.x)}{sign}{mag}"


# ---------------------------------------------------------------------------
# exact rational lattices via integer HNF


def _act(row, M):
    return [sum(c * m for c, m in zip(row, col)) for col in zip(*M)]


def _action(images):
    """The integer matrix whose rows are the coordinates of the images of
    the unit vectors."""
    invariant(all(c.denominator == 1 for r in images for c in r), "an action of the order must be integral")
    return tuple(tuple(int(c) for c in r) for r in images)


@dataclass(frozen=True)
class QLattice:
    """(1/den) * (Z-span of rows); rows are a canonical integer HNF."""

    den: int
    rows: tuple  # tuple of int tuples, no zero rows

    @classmethod
    def from_vectors(cls, vecs, actions=()):
        """The lattice spanned by vecs and their images under every product
        of the integer action matrices (row vector times matrix)."""
        vecs = [tuple(Fraction(c) for c in v) for v in vecs]
        den = lcm(*(c.denominator for v in vecs for c in v))
        ints = [[int(c * den) for c in v] for v in vecs]
        for M in actions:
            ints += [_act(r, M) for r in ints]
        H = [r for r in hnf_int(ints) if any(r)]
        g = gcd(den, *(c for r in H for c in r))
        if g > 1:
            den //= g
            H = [[c // g for c in r] for r in H]
        return cls(den, tuple(tuple(r) for r in H))

    @property
    def rank(self):
        return len(self.rows)

    def vectors(self):
        return [tuple(Fraction(c, self.den) for c in r) for r in self.rows]

    def closed_under(self, actions):
        """True when rows*M lies in the lattice for every action matrix M."""
        images = [_act(r, M) for M in actions for r in self.rows]
        return tuple(tuple(r) for r in hnf_int(list(self.rows) + images) if any(r)) == self.rows

    def index_in(self):
        """For a full-rank lattice: covolume relative to Z^dim (pivot product)."""
        n = len(self.rows[0])
        invariant(self.rank == n, "the index is defined for full-rank lattices")
        val = 1
        for r in self.rows:
            val *= next(c for c in r if c)
        return Fraction(abs(val), self.den**n)


# ---------------------------------------------------------------------------
# fractional ideals of R (rank-2 lattices in K closed under w)


@dataclass(frozen=True)
class FracIdealR:
    """Fractional R-ideal; lattice coordinates ordered (w-part, 1-part)."""

    base: QuadBase
    lat: QLattice

    @classmethod
    def from_vectors(cls, base, vecs, check=True):
        """The R-span of vectors in (w-part, 1-part) coordinates."""
        lat = QLattice.from_vectors(vecs, base.actions)
        if lat.rank != 2:
            raise NotFullRank("ideal must have rank 2 over Z")
        out = cls(base, lat)
        if check:
            out._check_module()
        return out

    @classmethod
    def from_elems(cls, base, elems, check=True):
        return cls.from_vectors(base, [(e.y, e.x) for e in elems], check)

    def _check_module(self):
        invariant(self.lat.closed_under(self.base.actions), "not closed under multiplication by w")

    def elems(self):
        return [ExtElem(self.base, v[1], v[0]) for v in self.lat.vectors()]

    def __mul__(self, other):
        den = self.lat.den * other.lat.den
        prods = [[Fraction(c, den) for c in r] for r in _products(self, other)]
        return FracIdealR.from_vectors(self.base, prods, check=False)

    def conj(self):
        return FracIdealR.from_vectors(self.base, [(-c, r) for c, r in self.lat.vectors()], check=False)

    def norm_index(self) -> Fraction:
        """Covolume relative to R = Z + Zw (the ideal norm for integral ideals)."""
        return self.lat.index_in()

    def encode(self):
        """Classical presentation "(n)" or "(n, r + c*w)"."""
        (c0, r0), (zero, n0) = self.lat.rows
        invariant(zero == 0, "the HNF of a rank-2 lattice is upper triangular")
        den = self.den_scalar()
        n = QQ.encode(Fraction(n0, den))
        if (c0, r0) == (n0, 0):
            return f"({n})"
        return f"({n}, {self.base.elem(Fraction(r0, den), Fraction(c0, den)).encode()})"

    def den_scalar(self):
        return self.lat.den

    def __repr__(self):
        return f"FracIdealR({self.encode()})"


def _products(I1: FracIdealR, I2: FracIdealR):
    """Integer rows (w-part, 1-part) of the products of the two Z-bases, over
    den1*den2: (x1 + y1*w)(x2 + y2*w) = (x1*x2 + d*y1*y2) + (x1*y2 + x2*y1)*w."""
    d = I1.base.d
    return [[x1 * y2 + x2 * y1, x1 * x2 + d * y1 * y2] for y1, x1 in I1.lat.rows for y2, x2 in I2.lat.rows]


def unit_ideal(base: QuadBase) -> FracIdealR:
    return FracIdealR.from_elems(base, [base.one], check=False)


def ideal_mul(I1: FracIdealR, I2: FracIdealR) -> FracIdealR:
    return I1 * I2


def is_principal(base: QuadBase, ideal: FracIdealR):
    """Generator of the ideal, or None.

    The rows (c, r), (0, n) of the ideal over its denominator are the HNF
    Z-basis u = r + c*w, v = n of an integral ideal I of norm c*n.  Every
    alpha in I has N(alpha) >= N(I), with equality exactly when alpha*R = I.
    So I is principal iff the Gauss-reduced form of N(x*u + y*v)/N(I) has
    a = 1, and then p*u + q*v is a generator, (p, q) the vector reaching a.
    Of its associates (times -1, and w when d = -1, with
    w*(x + y*w) = d*y + x*w) the one returned has x >= 0, then the least
    |y|, then y > 0.
    """
    (c, r), (_, n) = ideal.lat.rows
    reduced, ((p, q), _) = gauss_reduce(norm_form((r, c), (n, 0), c * n, 0, base.d))
    if reduced.a != 1:
        return None
    x, y = p * r + q * n, p * c
    units = [(x, y), (-x, -y)] + ([(base.d * y, x), (-base.d * y, -x)] if base.d == -1 else [])
    x, y = min(units, key=lambda e: (e[0] < 0, abs(e[1]), e[1] < 0))
    generated = QLattice.from_vectors([(y, x)], base.actions)
    invariant(generated.rows == ideal.lat.rows, "the generator must regenerate the ideal")
    return base.elem(Fraction(x, ideal.lat.den), Fraction(y, ideal.lat.den))


# ---------------------------------------------------------------------------
# the relative quadratic extension L = K[theta]


class RelExt(QuadAlgebra):
    """L = K[theta], theta^2 = a*theta + b with a, b in R; elements are
    ExtElem over QuadBase, with rational coordinates (1, w, theta, w*theta)."""

    def __init__(self, base, mp_a, mp_b):
        super().__init__(base, mp_a, mp_b)
        if any(c.denominator != 1 for e in (self.mp_a, self.mp_b) for c in (e.x, e.y)):
            raise ValueError("f = x^2 - a*x - b needs a and b in Z[w], w = sqrt(d)")
        # w and theta acting on the coordinates (1, w, theta, w*theta)
        units = [lelem(self, [int(i == j) for j in range(4)]) for i in range(4)]
        w, th = self.embed(base.omega), self.gen()
        self.actions = tuple(_action([(g * u).coords() for u in units]) for g in (w, th))

    @classmethod
    def from_poly_string(cls, base, s):
        """L from "x^2 - a*x - b" with coefficients in Z[sqrt d] ("w" for sqrt d)."""
        return cls(base, *parse_monic_quadratic(s, base))

    def __repr__(self):
        return f"RelExt({self.base!r}, theta^2={self.mp_a.encode()}*theta+{self.mp_b.encode()})"

    def encode(self, e):
        return [QQ.encode(c) for c in e.coords()]


def lelem(ctx, coords):
    c = [Fraction(x) for x in coords]
    if len(c) != 4:
        raise ValueError(f"an element of L has 4 coordinates, got {len(c)}")
    return ExtElem(ctx, ctx.base.elem(c[0], c[1]), ctx.base.elem(c[2], c[3]))


@dataclass(frozen=True)
class LLattice:
    """Full R-lattice in L; 4D lattice over (1, w, theta, w*theta)."""

    ctx: RelExt
    lat: QLattice


def lattice_from_generators(ctx: RelExt, gens) -> LLattice:
    """HNF of the span of {g, w*g, theta*g, w*theta*g} for each generator."""
    vecs = [(g if isinstance(g, ExtElem) else lelem(ctx, g)).coords() for g in gens]
    lat = QLattice.from_vectors(vecs, ctx.actions)
    if lat.rank != 4:
        raise NotFullRank("generators do not span L over K")
    invariant(lat.closed_under(ctx.actions), "lattice not closed under w and theta")
    return LLattice(ctx, lat)


def intersect_base(J: LLattice) -> FracIdealR:
    """J cap K: kernel of the projection onto the (theta, w*theta) part."""
    rows, den = J.lat.rows, J.lat.den
    kernel = left_kernel_int([r[2:] for r in rows])
    vecs = [[sum(k * r[j] for k, r in zip(comb, rows)) for j in range(4)] for comb in kernel]
    invariant(all(v[2] == v[3] == 0 for v in vecs), "a kernel vector has a theta-part")
    return FracIdealR.from_vectors(J.ctx.base, [(Fraction(v[1], den), Fraction(v[0], den)) for v in vecs])


def coefficient_ideal(J: LLattice, x0: ExtElem) -> FracIdealR:
    """frak_a = {k in K : k*x0 in J + K}: the theta-part image of J over x0."""
    if not x0.y:
        raise X0InBase("x0 must lie outside K")
    coeffs = [lelem(J.ctx, v).y / x0.y for v in J.lat.vectors()]
    return FracIdealR.from_elems(J.ctx.base, coeffs)


def default_x0(J: LLattice) -> ExtElem:
    """theta / D where D clears the denominators of the theta-projection."""
    proj = QLattice.from_vectors([(r[2], r[3]) for r in J.lat.vectors()])
    D = proj.den
    return lelem(J.ctx, (0, 0, Fraction(1, D), 0))


def steinitz(J: LLattice, x0: ExtElem | None = None) -> FracIdealR:
    """The Steinitz ideal frak_a * (J cap K); principal iff J is free."""
    if x0 is None:
        x0 = default_x0(J)
    return ideal_mul(coefficient_ideal(J, x0), intersect_base(J))


class Decomposition(NamedTuple):
    """J = frak_a*(x0 + u0) (+) frak_b with frak_b = J cap K, the Steinitz
    ideal frak_a*frak_b, and its generator (None when it is not principal)."""

    x0: ExtElem
    frak_a: FracIdealR
    frak_b: FracIdealR
    steinitz: FracIdealR
    generator: ExtElem | None


def decompose(J: LLattice, x0: ExtElem | None = None) -> Decomposition:
    """The ideals of J along x0 (default: ``default_x0``), each computed once."""
    if x0 is None:
        x0 = default_x0(J)
    frak_a = coefficient_ideal(J, x0)
    frak_b = intersect_base(J)
    st = ideal_mul(frak_a, frak_b)
    return Decomposition(x0, frak_a, frak_b, st, is_principal(J.ctx.base, st))


def is_free(J: LLattice, x0: ExtElem | None = None):
    """Explicit free R-basis (b1, b2) with span_R{b1, b2} = J, or None."""
    return free_basis(J, decompose(J, x0))


def free_basis(J: LLattice, dec: Decomposition):
    """The free basis of J from its decomposition, or None when not free.

    Freeness is decided by principality of the Steinitz ideal; the basis is
    assembled from the direct-sum decomposition J = frak_a*(x0+u0) (+) (J cap K)
    and a two-term Bezout expression of the Steinitz generator.
    """
    x0, frak_a, frak_b, st, g = dec
    if g is None:
        return None
    v = x0 + _find_u0(J, x0, frak_a, frak_b)
    # the Bezout system over st's denominator, which divides den_a*den_b
    k = frak_a.den_scalar() * frak_b.den_scalar() // st.den_scalar()
    target = (g.y * st.den_scalar(), g.x * st.den_scalar())
    invariant(all(c.denominator == 1 for c in target), "coordinates must be integral after scaling")
    sol = solve_int([[c // k for c in r] for r in _products(frak_a, frak_b)], [int(c) for c in target])
    invariant(sol is not None, "the Steinitz generator must lie in the product lattice")
    a1, a2 = frak_a.elems()
    b1v, b2v = frak_b.elems()
    B1 = sol[0] * b1v + sol[1] * b2v
    B2 = sol[2] * b1v + sol[3] * b2v
    basis1 = a1 * v - B2
    basis2 = a2 * v + B1
    span = lattice_from_generators(J.ctx, [basis1, basis2])
    invariant(span == J, "the free basis must regenerate the lattice exactly")
    return (basis1, basis2)


def _find_u0(J: LLattice, x0: ExtElem, frak_a: FracIdealR, frak_b: FracIdealR):
    """u0 in K making the coefficient ideal of x0 + u0 equal to frak_a.

    For each generator k of frak_a pick j in J with the theta-part of k*x0;
    then k*(x0 + u0) - j lies in J cap K, so u0 = proj(j)/k - x0.x modulo
    (1/k)(J cap K) (x0.x the K-part of x0), an intersection of two affine
    lattices in K.
    """
    base = J.ctx.base
    dens = J.lat.den
    conds = []
    for k in frak_a.elems():
        target = k * x0.y  # required theta-part
        rows = [[r[2], r[3]] for r in J.lat.rows]
        tvec = [target.x * dens, target.y * dens]
        invariant(all(t.denominator == 1 for t in tvec), "theta-parts must be integral after scaling")
        comb = solve_int(rows, [int(t) for t in tvec])
        invariant(comb is not None, "frak_a generators are attained on J")
        j = [sum(comb[i] * J.lat.rows[i][c] for i in range(4)) for c in range(4)]
        proj = ExtElem(base, Fraction(j[0], dens), Fraction(j[1], dens))
        w_i = proj / k - x0.x
        lam = [e / k for e in frak_b.elems()]
        conds.append((w_i, lam))
    (w1, lam1), (w2, lam2) = conds
    diff = w2 - w1
    rows = [[l.x, l.y] for l in lam1] + [[l.x, l.y] for l in lam2]
    den = lcm(*(c.denominator for r in rows + [[diff.x, diff.y]] for c in r))
    irows = [[int(c * den) for c in r] for r in rows]
    itarget = [int(diff.x * den), int(diff.y * den)]
    sol = solve_int(irows, itarget)
    invariant(sol is not None, "a largest-coefficient vector always exists")
    return w1 + sol[0] * lam1[0] + sol[1] * lam1[1]


def mult_matrix(J: LLattice, basis):
    """Multiplication-by-theta matrix on a free basis, row convention."""
    b1, b2 = basis
    ctx = J.ctx
    th = ctx.gen()
    # theta*bj = x*b1 + y*b2 with x, y in K: a 2x2 system over K per column
    targets = [(t.x, t.y) for t in (th * b1, th * b2)]
    det, cols = field_solve([[b1.x, b2.x], [b1.y, b2.y]], targets)
    if not det:
        raise ZeroDivisionError("singular matrix")
    if any(c.denominator != 1 for col in cols for e in col for c in e.coords()):
        raise NotFreeError("matrix entries leave R; basis is not an R-basis")
    A = [[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]]
    # defining identity theta*(b1, b2) = (b1, b2)*A, entrywise exact; as
    # (b1, b2) is a K-basis of L, it also gives A trace a and determinant -b
    for j, bj in enumerate(basis):
        invariant(th * bj == A[0][j] * b1 + A[1][j] * b2, "theta*(b1, b2) = (b1, b2)*A failed")
    return A
