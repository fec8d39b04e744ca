"""Polynomial arithmetic over K, characteristic polynomials and quadratic factoring.

The factoring decisions the classification depends on:

* over Q              -- exact integer square roots of numerator/denominator;
* over GF(p)(t), p>2  -- a reduced fraction is a square iff num*den is a
  square polynomial, found by exact coefficient recursion;
* over GF(2)(t)       -- squares are exactly GF(2)(t^2); for a separable
  quadratic, substitute x = a*z and solve the additive equation
  z^2 + z = c by GF(2)-linear algebra on coefficients;
* over quadratic extensions -- reduce to base-field square/additive
  decisions through the norm form (see _ext_sqrt / _ext_artin_schreier).

Roots of a monic quadratic over K are integral (R is integrally closed),
which is checked on every reducible outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CharTwo, NotIntegral, UnsupportedRing, invariant
from .fppoly import FpPoly, FpRat
from .rings import ExtElem, FpTLoc, QuadExt, ZLoc, _collect, _terms


class MonicPoly:
    """Monic polynomial with coefficients stored low-to-high."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        coeffs = [ring.coerce(c) for c in coeffs]
        if not coeffs or coeffs[-1] != ring.one:
            raise ValueError("polynomial must be monic")
        self.ring = ring
        self.coeffs = tuple(coeffs)

    @classmethod
    def quadratic(cls, ring, a, b):
        """x^2 - a*x - b."""
        a = ring.coerce(a)
        b = ring.coerce(b)
        return cls(ring, [-b, -a, ring.one])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def a(self):
        """For quadratics x^2 - a*x - b."""
        if self.degree != 2:
            raise ValueError(f"a is defined for quadratics, got degree {self.degree}")
        return -self.coeffs[1]

    @property
    def b(self):
        if self.degree != 2:
            raise ValueError(f"b is defined for quadratics, got degree {self.degree}")
        return -self.coeffs[0]

    def is_over_R(self):
        return all(self.ring.val(c) >= 0 for c in self.coeffs)

    def __call__(self, x):
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return (
            isinstance(other, MonicPoly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def derivative(self):
        """Formal derivative as a low-to-high coefficient list."""
        ring = self.ring
        out = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                continue
            out.append(ring.from_int(i) * c)
        return _strip(out)

    def encode(self):
        ring = self.ring
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c and i != self.degree:
                continue
            cs = ring.encode(c)
            if i == self.degree:
                parts.append("x" if i == 1 else f"x^{i}")
                continue
            xpow = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            neg = cs.startswith("-") and "+" not in cs[1:] and "-" not in cs[1:]
            if neg:
                sign, body = " - ", cs[1:]
            else:
                sign, body = " + ", cs
            if any(ch in body for ch in "+-/") and xpow:
                body = f"({body})"
            if xpow:
                body = f"{body}*{xpow}" if body != "1" else xpow
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self):
        return f"MonicPoly({self.encode()!r})"


@dataclass(frozen=True)
class QuadFactorization:
    """Outcome of factoring a monic quadratic over K."""

    reducible: bool
    lam1: object = None  # root with the larger valuation
    lam2: object = None

    @classmethod
    def irreducible(cls):
        return cls(False)


def _strip(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


def poly_divmod(num, den, ring):
    """Division of coefficient lists over the fraction field."""
    num = list(num)
    den = _strip(den)
    dd = len(den) - 1
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [ring.zero] * (len(num) - dd)
    lead = den[-1]
    for k in range(len(num) - dd - 1, -1, -1):
        c = num[k + dd] / lead
        quot[k] = c
        if c:
            for j, b in enumerate(den):
                num[k + j] = num[k + j] - c * b
    return quot, _strip(num)


def poly_mul(a, b, ring):
    """Product of two coefficient lists."""
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def mul_mod(f: MonicPoly, u, v):
    """u*v mod f as a tuple of deg f coordinates over the power basis."""
    ring = f.ring
    _, r = poly_divmod(poly_mul(u, v, ring), f.coeffs, ring)
    return tuple(r) + (ring.zero,) * (f.degree - len(r))


def poly_gcd(a, b, ring):
    """Monic gcd over K[x] of two coefficient lists."""
    a, b = _strip(a), _strip(b)
    while b:
        _, r = poly_divmod(a, b, ring)
        a, b = b, _strip(r)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def is_separable(f: MonicPoly, ring) -> bool:
    """True iff gcd(f, f') = 1 in K[x]."""
    fp = f.derivative()
    if not fp:
        return False
    g = poly_gcd(list(f.coeffs), fp, ring)
    return len(g) == 1


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


def disc_quad(f: MonicPoly, ring):
    """Delta = a^2/4 + b for f = x^2 - a*x - b.  Needs 2 invertible in K."""
    if f.degree != 2:
        raise ValueError("disc_quad expects a quadratic")
    if ring.char == 2:
        raise CharTwo("a^2/4 + b is undefined in characteristic 2")
    a, b = f.a, f.b
    four = ring.from_int(4)
    return a * a / four + b


# ---------------------------------------------------------------------------
# square roots in each fraction field


def sqrt_in_field(ring, x):
    """Exact square root of x in K = Frac(R), or None."""
    x = ring.coerce(x)
    if isinstance(ring, ZLoc):
        return _rational_sqrt(x)
    if isinstance(ring, FpTLoc):
        return x.sqrt()
    if isinstance(ring, QuadExt):
        if ring.char == 2:
            return _ext_sqrt_char2(ring, x)
        return _ext_sqrt(ring, x)
    raise UnsupportedRing(f"no square-root routine for {ring!r}")


def _rational_sqrt(q: Fraction):
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def _ext_sqrt(ring: QuadExt, d: ExtElem):
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


def _even_odd_parts(r: FpRat):
    """Write r = E(t^2) + t*O(t^2) over GF(2)(t); return (E, O) as functions of t."""
    g = r.num * r.den  # r = (num*den)/den^2 and den^2 = (den)(t^2) over GF(2)
    ge = FpPoly(2, g.coeffs[::2])
    go = FpPoly(2, g.coeffs[1::2])
    return FpRat(ge, r.den), FpRat(go, r.den)


def _ext_sqrt_char2(ring: QuadExt, d: ExtElem):
    """Square root in a quadratic extension of GF(2)(t).

    Squaring is the Frobenius: (c + f*w)^2 = (c^2 + B f^2) + A f^2 * w.
    """
    base = ring.base
    A, B = ring.mp_a, ring.mp_b
    d0, d1 = d.x, d.y
    if A:
        f2 = d1 / A
        f = sqrt_in_field(base, f2)
        if f is None:
            return None
        c = sqrt_in_field(base, d0 + B * f2)
        if c is None:
            return None
        cand = ExtElem(ring, c, f)
        return cand if cand * cand == d else None
    # inseparable extension w^2 = B: squares lie in the base
    if d1:
        return None
    e_part, o_part = _even_odd_parts(d0)
    _, b_odd = _even_odd_parts(B)
    if not b_odd:
        raise UnsupportedRing("degenerate extension: w^2 in GF(2)(t^2)")
    big_d = o_part / b_odd
    big_c = e_part + _even_odd_parts(B)[0] * big_d
    cand = ExtElem(ring, big_c, big_d)
    return cand if cand * cand == d else None


# ---------------------------------------------------------------------------
# the additive (Artin-Schreier type) equation z^2 + z = c over GF(2)(t)


def artin_schreier_solve(ring, c):
    """One solution of z^2 + z = c over K, or None.  char K = 2 only."""
    if isinstance(ring, FpTLoc) and ring.p == 2:
        return _as_solve_f2t(c)
    if isinstance(ring, QuadExt) and ring.char == 2:
        return _as_solve_ext(ring, c)
    raise UnsupportedRing(f"additive equation needs characteristic 2, got {ring!r}")


def _as_solve_f2t(c: FpRat):
    """Solve z^2 + z = c in GF(2)(t) by linear algebra over GF(2).

    A root U/V in lowest terms forces V^2 = den(c); with V fixed the
    equation becomes U^2 + U*V + num(c) = 0, GF(2)-linear in U's
    coefficients because squaring is additive.
    """
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
    u = FpPoly(2, sol)
    z = FpRat(u, v)
    invariant(z * z + z == c, "z^2 + z = c failed for the GF(2)-linear solution")
    return z


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


def _as_solve_ext(ring: QuadExt, c: ExtElem):
    """Solve z^2 + z = c in a quadratic extension of GF(2)(t).

    Writing z = e + f*w reduces to two base-field additive equations.
    """
    base = ring.base
    A, B = ring.mp_a, ring.mp_b
    c0, c1 = c.x, c.y
    f_candidates = []
    if not A:
        f_candidates = [c1]
    else:
        g = _as_solve_f2t(A * c1)
        if g is None:
            return None
        f_candidates = [g / A, (g + 1) / A]
    for f in f_candidates:
        e = _as_solve_f2t(c0 + B * f * f)
        if e is None:
            continue
        cand = ExtElem(ring, e, f)
        if cand * cand + cand == c:
            return cand
    return None


# ---------------------------------------------------------------------------
# quadratic factoring


def quad_factor(f: MonicPoly, ring) -> QuadFactorization:
    """Decide reducibility of f = x^2 - a*x - b over K and return exact roots.

    Reducible output orders the roots with v(lam1) >= v(lam2) (ties broken
    by the deterministic element order) and checks that both are integral roots.
    """
    if f.degree != 2:
        raise ValueError("quad_factor expects a quadratic")
    if not f.is_over_R():
        raise NotIntegral("quad_factor expects coefficients in R")
    a, b = f.a, f.b
    if ring.char != 2:
        disc = a * a + ring.from_int(4) * b
        s = sqrt_in_field(ring, disc)
        if s is None:
            return QuadFactorization.irreducible()
        two = ring.from_int(2)
        r1, r2 = (a + s) / two, (a - s) / two
    else:
        if not a:
            s = sqrt_in_field(ring, b)
            if s is None:
                return QuadFactorization.irreducible()
            r1 = r2 = s
        else:
            z = artin_schreier_solve(ring, b / (a * a))
            if z is None:
                return QuadFactorization.irreducible()
            r1, r2 = a * z, a * z + a
    lam1, lam2 = _order_roots(ring, r1, r2)
    roots = all(ring.val(lam) >= 0 and f(lam) == ring.zero for lam in (lam1, lam2))
    invariant(roots, "quad_factor produced a non-integral root or a non-root")
    return QuadFactorization(True, lam1, lam2)


def _order_roots(ring, r1, r2):
    v1, v2 = ring.val(r1), ring.val(r2)
    if (v1, ring.sort_key(r1)) >= (v2, ring.sort_key(r2)):
        return r1, r2
    return r2, r1


# ---------------------------------------------------------------------------
# polynomial string parsing


def parse_monic(s: str, ring) -> MonicPoly:
    """Parse strings like "x^2 - 5", "x^2 - t*x - (t^2+t^3)", "x^3 - 1"."""
    coeffs = _collect(_terms(s, "x"), ring.parse, ring.zero, ring.one)
    return MonicPoly(ring, [coeffs.get(i, ring.zero) for i in range(max(coeffs) + 1)])


def parse_monic_quadratic(s: str, ring):
    """Return (a, b) with the parsed polynomial equal to x^2 - a*x - b."""
    f = parse_monic(s, ring)
    if f.degree != 2:
        raise ValueError(f"expected a quadratic, got degree {f.degree}")
    return f.a, f.b
