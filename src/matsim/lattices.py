"""Rank-4 lattices over imaginary quadratic orders R = Z[sqrt(d)].

L = K[theta] is a relative quadratic extension of K = Q(sqrt(d)) given by a
monic f = x^2 - a*x - b over R.  A full R-lattice J in L decomposes along
any direction x0 outside K as

    J = frak_a * (x0 + u0)  (+)  (J intersect K),

so J is free over R exactly when the Steinitz ideal frak_a * (J cap K) is
principal.  Everything is exact integer linear algebra on Hermite normal
forms; d is restricted to squarefree d < 0 with d = 2, 3 mod 4 so that
(1, sqrt(d)) is a Z-basis of the maximal order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from .errors import NotFreeError, NotFullRank, UnsupportedRing, X0InBase
from .intlin import field_solve, hnf_int, left_kernel_int, solve_int
from .polys import parse_monic_quadratic
from .rings import QQ, ExtElem, QuadAlgebra


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
    with d = 2, 3 mod 4.  Elements are ExtElem with Fraction coordinates."""

    def __init__(self, d: int):
        if d >= 0 or not _is_squarefree(d) or d % 4 not in (2, 3):
            raise UnsupportedRing("need squarefree d < 0 with d = 2, 3 mod 4")
        super().__init__(QQ, 0, d)
        self.d = d
        self.omega = self.gen()

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


@dataclass(frozen=True)
class QLattice:
    """(1/den) * (Z-span of rows); rows are a canonical integer HNF."""

    den: int
    rows: tuple  # tuple of int tuples, no zero rows

    @classmethod
    def from_vectors(cls, vecs):
        vecs = [tuple(Fraction(c) for c in v) for v in vecs]
        den = 1
        for v in vecs:
            for c in v:
                den = den * c.denominator // gcd(den, c.denominator)
        ints = [[int(c * den) for c in v] for v in vecs]
        H = [r for r in hnf_int(ints) if any(r)]
        g = den
        for r in H:
            for c in r:
                g = gcd(g, c)
        if g > 1:
            den //= g
            H = [[c // g for c in r] for r in H]
        return cls(den, tuple(tuple(r) for r in H))

    @property
    def rank(self):
        return len(self.rows)

    def vectors(self):
        return [tuple(Fraction(c, self.den) for c in r) for r in self.rows]

    def member(self, vec):
        target = [Fraction(c) * self.den for c in vec]
        if any(t.denominator != 1 for t in target):
            return False
        return solve_int(list(self.rows), [int(t) for t in target]) is not None

    def scaled(self, q: Fraction):
        q = Fraction(q)
        return QLattice.from_vectors([[c * q for c in v] for v in self.vectors()])

    def index_in(self):
        """For a full-rank lattice: covolume relative to Z^dim (pivot product)."""
        n = len(self.rows[0])
        assert self.rank == n
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
    def from_elems(cls, base, elems, check=True):
        vecs = [(e.y, e.x) for e in elems]
        vecs += [((base.omega * e).y, (base.omega * e).x) for e in elems]
        lat = QLattice.from_vectors(vecs)
        if lat.rank != 2:
            raise NotFullRank("ideal must have rank 2 over Z")
        out = cls(base, lat)
        if check:
            out._assert_module()
        return out

    def _assert_module(self):
        for e in self.elems():
            w = self.base.omega * e
            assert self.lat.member((w.y, w.x)), "not closed under multiplication by w"

    def elems(self):
        return [ExtElem(self.base, v[1], v[0]) for v in self.lat.vectors()]

    def contains(self, e: ExtElem):
        return self.lat.member((e.y, e.x))

    def __mul__(self, other):
        prods = [a * b for a in self.elems() for b in other.elems()]
        return FracIdealR.from_elems(self.base, prods, check=False)

    def scaled(self, q):
        if isinstance(q, ExtElem):
            return FracIdealR.from_elems(self.base, [q * e for e in self.elems()], check=False)
        return FracIdealR(self.base, self.lat.scaled(Fraction(q)))

    def conj(self):
        return FracIdealR.from_elems(self.base, [e.conj() for e in self.elems()], check=False)

    def norm_index(self) -> Fraction:
        """Covolume relative to R = Z + Zw (the ideal norm for integral ideals)."""
        return self.lat.index_in()

    def encode(self):
        """Classical presentation "(n)" or "(n, r + c*w)"."""
        (c0, r0), second = self.lat.rows
        assert second[0] == 0
        n = Fraction(second[1], self.den_scalar())
        gen2 = ExtElem(self.base, Fraction(r0, self.den_scalar()), Fraction(c0, self.den_scalar()))
        if gen2.y and n and gen2 == self.base.omega * n:
            return f"({QQ.encode(n)})"
        return f"({QQ.encode(n)}, {gen2.encode()})"

    def den_scalar(self):
        return self.lat.den

    def __eq__(self, other):
        return isinstance(other, FracIdealR) and self.base == other.base and self.lat == other.lat

    def __hash__(self):
        return hash((self.base, self.lat))

    def __repr__(self):
        return f"FracIdealR({self.encode()})"


def unit_ideal(base: QuadBase) -> FracIdealR:
    return FracIdealR.from_elems(base, [base.one], check=False)


def ideal_mul(I1: FracIdealR, I2: FracIdealR) -> FracIdealR:
    return I1 * I2


def is_principal(base: QuadBase, ideal: FracIdealR):
    """Generator of the ideal, or None.  Searches |y| <= sqrt(N/|d|) after
    scaling to an integral ideal; norms are positive definite so the box is
    exhaustive."""
    scale = ideal.den_scalar()
    integral = ideal.scaled(Fraction(scale))
    N = integral.norm_index()
    assert N.denominator == 1
    N = int(N)
    dd = -base.d
    y = 0
    while dd * y * y <= N:
        rem = N - dd * y * y
        x = isqrt(rem)
        if x * x == rem:
            for cand in ((x, y), (x, -y)) if y else ((x, 0),):
                alpha = base.elem(cand[0], cand[1])
                if not alpha:
                    continue
                if FracIdealR.from_elems(base, [alpha], check=False) == integral:
                    return alpha / scale
        y += 1
    return None


# ---------------------------------------------------------------------------
# the relative quadratic extension L = K[theta]


class RelExt(QuadAlgebra):
    """L = K[theta], theta^2 = a*theta + b with a, b in R; elements are
    ExtElem over QuadBase, with rational coordinates (1, w, theta, w*theta)."""

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
    return ExtElem(ctx, ctx.base.elem(c[0], c[1]), ctx.base.elem(c[2], c[3]))


@dataclass(frozen=True)
class LLattice:
    """Full R-lattice in L; 4D lattice over (1, w, theta, w*theta)."""

    ctx: RelExt
    lat: QLattice

    def basis_elems(self):
        return [lelem(self.ctx, v) for v in self.lat.vectors()]

    def contains(self, e: ExtElem):
        return self.lat.member(e.coords())

    def __eq__(self, other):
        return isinstance(other, LLattice) and self.ctx == other.ctx and self.lat == other.lat

    def __hash__(self):
        return hash((self.ctx, self.lat))


def lattice_from_generators(ctx: RelExt, gens) -> LLattice:
    """HNF of the span of {g, w*g, theta*g, w*theta*g} for each generator."""
    base = ctx.base
    w = base.omega
    th = ctx.gen()
    vecs = []
    for g in gens:
        if not isinstance(g, ExtElem):
            g = lelem(ctx, g)
        if not g:
            continue
        for m in (g, w * g, th * g, w * (th * g)):
            vecs.append(m.coords())
    lat = QLattice.from_vectors(vecs)
    if lat.rank != 4:
        raise NotFullRank("generators do not span L over K")
    out = LLattice(ctx, lat)
    _assert_rtheta_module(out)
    return out


def _assert_rtheta_module(J: LLattice):
    w = J.ctx.base.omega
    th = J.ctx.gen()
    for e in J.basis_elems():
        assert J.contains(w * e), "lattice not closed under w"
        assert J.contains(th * e), "lattice not closed under theta"


def intersect_base(J: LLattice) -> FracIdealR:
    """J cap K: kernel of the projection onto the (theta, w*theta) part."""
    den = J.lat.den
    rows = [[r[2], r[3]] for r in J.lat.rows]
    kernel = left_kernel_int(rows)
    elems = []
    for comb in kernel:
        vec = [
            sum(comb[i] * J.lat.rows[i][j] for i in range(len(comb))) for j in range(4)
        ]
        assert vec[2] == 0 and vec[3] == 0
        elems.append(ExtElem(J.ctx.base, Fraction(vec[0], den), Fraction(vec[1], den)))
    return FracIdealR.from_elems(J.ctx.base, elems)


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
    a1, a2 = frak_a.elems()
    b1v, b2v = frak_b.elems()
    prods = [a1 * b1v, a1 * b2v, a2 * b1v, a2 * b2v]
    sol = solve_int(
        [_scaled_pair(p, st.den_scalar()) for p in prods],
        _scaled_pair(g, st.den_scalar()),
    )
    assert sol is not None, "Steinitz generator must lie in the product lattice"
    B1 = sol[0] * b1v + sol[1] * b2v
    B2 = sol[2] * b1v + sol[3] * b2v
    assert a1 * B1 + a2 * B2 == g
    basis1 = a1 * v - B2
    basis2 = a2 * v + B1
    span = lattice_from_generators(J.ctx, [basis1, basis2])
    assert span == J, "free basis must regenerate the lattice exactly"
    return (basis1, basis2)


def _scaled_pair(e: ExtElem, den):
    x = e.y * den, e.x * den
    assert all(c.denominator == 1 for c in x)
    return [int(x[0]), int(x[1])]


def _find_u0(J: LLattice, x0: ExtElem, frak_a: FracIdealR, frak_b: FracIdealR):
    """u0 in K making the coefficient ideal of x0 + u0 equal to frak_a.

    For each generator k of frak_a pick j in J with theta-part k*x0; then
    u0 must satisfy u0 = proj(j)/k modulo (1/k)(J cap K), an intersection of
    two affine lattices in K.
    """
    base = J.ctx.base
    dens = J.lat.den
    conds = []
    for k in frak_a.elems():
        target = k * x0.y  # required theta-part
        rows = [[r[2], r[3]] for r in J.lat.rows]
        tvec = [target.x * dens, target.y * dens]
        assert all(t.denominator == 1 for t in tvec)
        comb = solve_int(rows, [int(t) for t in tvec])
        assert comb is not None, "frak_a generators are attained on J"
        j = [sum(comb[i] * J.lat.rows[i][c] for i in range(4)) for c in range(4)]
        proj = ExtElem(base, Fraction(j[0], dens), Fraction(j[1], dens))
        w_i = proj / k
        lam = [e / k for e in frak_b.elems()]
        conds.append((w_i, lam))
    (w1, lam1), (w2, lam2) = conds
    diff = w2 - w1
    rows = [[l.x, l.y] for l in lam1] + [[l.x, l.y] for l in lam2]
    den = 1
    for r in rows + [[diff.x, diff.y]]:
        for c in r:
            den = den * c.denominator // gcd(den, c.denominator)
    irows = [[int(c * den) for c in r] for r in rows]
    itarget = [int(diff.x * den), int(diff.y * den)]
    sol = solve_int(irows, itarget)
    assert sol is not None, "a largest-coefficient vector always exists"
    u0 = w1 + sol[0] * lam1[0] + sol[1] * lam1[1]
    # verify: k*(x0 + u0) lies in J for both generators
    for k in frak_a.elems():
        assert J.contains(k * x0 + k * u0)
    return u0


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
    # defining identity theta*(b1, b2) = (b1, b2)*A, entrywise exact
    for j, bj in enumerate(basis):
        rhs = A[0][j] * b1 + A[1][j] * b2
        assert th * bj == rhs
    # char poly check: trace = a, det = -b
    tr = A[0][0] + A[1][1]
    det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
    assert tr == ctx.mp_a and det + ctx.mp_b == ctx.base.zero
    return A
