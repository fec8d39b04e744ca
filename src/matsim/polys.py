"""Polynomial arithmetic over K, characteristic polynomials and quadratic factoring.

The factoring decisions the classification depends on:

* over Q              -- exact integer square roots of numerator/denominator;
* over GF(p)(t), p>2  -- a reduced fraction is a square iff num*den is a
  square polynomial, found by exact coefficient recursion;
* over GF(2)(t)       -- squares are exactly GF(2)(t^2); for a separable
  quadratic, substitute x = a*z and solve the additive equation
  z^2 + z = c by a sweep down the degrees of its numerator;
* over quadratic extensions -- reduce to base-field square/additive
  decisions through the norm and trace (see _ext_sqrt / _as_solve_ext).

Roots of a monic quadratic over K are integral (R is integrally closed),
which is checked on every reducible outcome.
"""

from __future__ import annotations

import math
import operator
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
    """det(xI - M) as a MonicPoly, without division (Berkowitz's algorithm).

    With M_r the leading r x r block, M_(r+1) = [[M_r, c], [s, m]], the
    coefficients below the leading 1 of det(xI - M_(r+1)) are those of
    det(xI - M_r) plus their Toeplitz product with
    t = (-m, -s*c, -s*M_r*c, -s*M_r^2*c, ...), O(n^4) products in all.
    Only sums and products of the entries occur, so they keep their own
    type: ints stay ints.
    """
    q = []  # det(xI - M_r) = x^r + q[0]*x^(r-1) + ... + q[r-1]
    for r, row in enumerate(M):
        block = [b[:r] for b in M[:r]]
        s, c = row[:r], [b[r] for b in M[:r]]
        t = [-row[r]]
        for _ in range(r):
            t.append(-_dot(s, c))
            c = [_dot(b, c) for b in block]
        new = []
        for i in range(r + 1):
            x = t[i] + q[i] if i < r else t[i]
            new.append(x + _dot(t[i - 1::-1], q) if i else x)
        q = new
    return MonicPoly(ring, q[::-1] + [ring.one])


def _dot(xs, ys):
    """sum x*y, xs non-empty, in the entries' own type: no zero needed."""
    terms = map(operator.mul, xs, ys)
    return sum(terms, next(terms))


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

    A root z of z^2 = d has a norm n with n^2 = N(d) and a trace t with
    t^2 = tr(d) + 2n, and z*(z + conj z) = d + n gives z = (d + n)/t.  When
    t = 0, z = y*(w - A/2) for w^2 = A*w + B, so d = y^2*(A^2/4 + B) lies
    in the base.
    """
    base, A = ring.base, ring.mp_a
    m = sqrt_in_field(base, d.norm())
    if m is None:
        return None
    for n in (m, -m):
        t = sqrt_in_field(base, d.x + d.x + A * d.y + n + n)
        if t:
            cand = (d + n) / t
            break
    else:  # t = 0 for both n
        if d.y:
            return None
        half = A / base.from_int(2)
        y = sqrt_in_field(base, d.x / (half * half + ring.mp_b))
        if y is None:
            return None
        cand = ExtElem(ring, -half * y, y)
    return cand if cand * cand == d else None


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
    b_even, b_odd = _even_odd_parts(B)
    if not b_odd:
        raise UnsupportedRing("degenerate extension: w^2 in GF(2)(t^2)")
    big_d = o_part / b_odd
    big_c = e_part + b_even * big_d
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
    """Solve z^2 + z = c in GF(2)(t) by a sweep down the degrees.

    A root U/V in lowest terms forces V^2 = den(c), so the equation is
    U^2 + U*V = N with N = num(c).  With e = deg V, adding t^i to U adds
    t^i*(t^i + V) to the left side, of degree 2i for i > e and i + e for
    i < e.  These lead degrees are distinct and miss 2e, so cancelling the
    lead term of the remainder fixes U's coefficients one at a time from
    the top.  U -> U^2 + U*V has kernel {0, V}, so the sweep, which never
    sets u_e, finds the one root with u_e = 0.  Polynomials here are ints,
    bit i the coefficient of t^i.
    """
    v = c.den.sqrt()
    if v is None:
        return None
    e, vbits = v.degree, _bits(v)
    r, u = _bits(c.num), 0
    while (k := r.bit_length() - 1) >= e and k != 2 * e:
        if k > 2 * e:
            if k % 2:
                return None
            i = k // 2
        else:
            i = k - e
        u ^= 1 << i
        r ^= (1 << 2 * i) ^ (vbits << i)
    if r:
        return None
    z = FpRat(FpPoly(2, [(u >> i) & 1 for i in range(u.bit_length())]), v)
    invariant(z * z + z == c, "z^2 + z = c failed for the degree sweep's root")
    return z


def _bits(f: FpPoly):
    """A GF(2) polynomial as an int, bit i the coefficient of t^i."""
    return sum(b << i for i, b in enumerate(f.coeffs))


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
