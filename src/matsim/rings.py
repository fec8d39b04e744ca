"""Exact arithmetic in four concrete discrete valuation rings.

Instances:

* ``ZLoc(p)``       -- Z localized at a prime p; elements are ``Fraction``.
* ``FpTLoc(p)``     -- GF(p)[t] localized at (t); elements are ``FpRat``.
* ``QuadExt(...)``  -- a quadratic extension of either, unramified or
  Eisenstein, with elements ``ExtElem`` storing (x, y) for x + y*w.

``ExtElem`` is the one element type of every quadratic algebra base[w],
w^2 = a*w + b, in the package: its parent (a ``QuadAlgebra``) is a
``QuadExt`` here, or Q(sqrt d) and L = K[theta] in ``lattices``.  The one
string reader (signed terms ``c*var^k``) also lives here.

Every element representation is canonical (fully reduced fractions,
monic denominators), so structural equality is ring equality.  All
values are immutable; operations are pure functions.

Valuations: ZLoc / FpTLoc carry the p-adic / t-adic valuation.  An
unramified extension keeps the base value group, with
v(x + y*w) = min(v(x), v(y)).  An Eisenstein extension by x^2 - a*x - b
(v(a) >= 1, v(b) = 1) doubles the group: the generator w is the
uniformizer, v(w) = 1, v(base uniformizer) = 2, and
v(x + y*w) = min(2*v(x), 2*v(y) + 1).
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

from .errors import NotIntegral, UnsupportedRing
from .fppoly import FpPoly, FpRat

INF = math.inf

_SMALL_PRIME_LIMIT = 10**6


def _is_prime(n):
    if n < 2 or n > _SMALL_PRIME_LIMIT:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Rationals:
    """Q with ``Fraction`` elements: the fraction field of ZLoc and ZZ, and
    the coordinate field of Q(sqrt d)."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def from_int(self, n):
        return Fraction(n)

    def sort_key(self, x):
        x = self.coerce(x)
        return (x.numerator, x.denominator)

    def encode(self, x):
        x = self.coerce(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"

    def parse(self, s):
        return _parse_rational(s)

    def __repr__(self):
        return "QQ"


QQ = Rationals()


class ZLoc(Rationals):
    """Z localized at the prime p.  K = Q, elements are Fractions."""

    kind = "ZLoc"
    pi_name = "p"  # the uniformizer in messages

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not a (small) prime")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, ZLoc) and other.p == self.p

    def __hash__(self):
        return hash(("ZLoc", self.p))

    def __repr__(self):
        return f"ZLoc({self.p})"

    def val(self, x):
        x = self.coerce(x)
        if x == 0:
            return INF
        v = 0
        num, den = x.numerator, x.denominator
        while num % self.p == 0:
            num //= self.p
            v += 1
        while den % self.p == 0:
            den //= self.p
            v -= 1
        return v

    def is_integral(self, x):
        return self.val(x) >= 0

    def uniformizer(self):
        return Fraction(self.p)

    def val_of_two(self):
        return self.val(Fraction(2))

    def levels(self, N):
        return (N,)

    def codes(self, n):
        """The residues mod p^n as integers, in the deterministic order."""
        return range(self.p**n)

    def residue(self, x, N):
        """Canonical representative of x in R/p^N, as an integer in [0, p^N)."""
        x = self.coerce(x)
        if N < 0:
            raise ValueError("N must be >= 0")
        if not self.is_integral(x):
            raise NotIntegral(f"{x} is not in {self!r}")
        m = self.p**N
        return (x.numerator * pow(x.denominator, -1, m)) % m

    def lift(self, rep):
        return Fraction(rep)

    def residues(self, N):
        """Canonical lifts of R/p^N in the deterministic element order."""
        return map(self.lift, self.codes(N))

    def parse(self, s):
        return _parse_rational(s)

    def to_json(self):
        return {"kind": "ZLoc", "p": self.p}


class FpTLoc:
    """GF(p)[t] localized at (t).  K = GF(p)(t), elements are FpRat."""

    kind = "FpTLoc"
    pi_name = "t"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not a (small) prime")
        self.p = p
        self.char = p
        self.zero = FpRat.const(p, 0)
        self.one = FpRat.const(p, 1)

    def __eq__(self, other):
        return isinstance(other, FpTLoc) and other.p == self.p

    def __hash__(self):
        return hash(("FpTLoc", self.p))

    def __repr__(self):
        return f"FpTLoc({self.p})"

    def coerce(self, x):
        if isinstance(x, FpRat):
            if x.p != self.p:
                raise TypeError("wrong characteristic")
            return x
        if isinstance(x, FpPoly):
            return FpRat(x)
        if isinstance(x, int):
            return FpRat.const(self.p, x)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def from_int(self, n):
        return FpRat.const(self.p, n)

    def val(self, x):
        x = self.coerce(x)
        o = x.t_order()
        return INF if o is None else o

    def is_integral(self, x):
        return self.val(x) >= 0

    def uniformizer(self):
        return FpRat.t(self.p)

    def val_of_two(self):
        return self.val(self.from_int(2))

    def levels(self, N):
        return (N,)

    def codes(self, n):
        """The residues mod t^n: FpPolys of degree < n, in the deterministic
        order (base-p digits of 0, 1, ..., p^n - 1, constant digit fastest)."""
        p = self.p
        for digits in itertools.product(range(p), repeat=n):
            yield FpPoly(p, digits[::-1])

    def residue(self, x, N):
        """Canonical representative in R/t^N: an FpPoly of degree < N."""
        x = self.coerce(x)
        if N < 0:
            raise ValueError("N must be >= 0")
        if not self.is_integral(x):
            raise NotIntegral(f"{x!r} is not in {self!r}")
        # den(0) != 0 since x is integral
        return (x.num.truncate(N) * x.den.inverse_mod_t_power(N)).truncate(N)

    def lift(self, rep):
        return FpRat(rep)

    def residues(self, N):
        """Canonical lifts of R/t^N in the deterministic element order."""
        return map(self.lift, self.codes(N))

    def sort_key(self, x):
        x = self.coerce(x)
        return (x.num.coeffs, x.den.coeffs)

    def encode(self, x):
        return self.coerce(x).to_string()

    def parse(self, s):
        """N or N/D with N, D sums of terms c*t^k: a top-level / binds loosest."""
        s = _unwrap(s)
        i = _top_slash(s)
        if i < 0:
            return FpRat(_fppoly(s, self.p))
        return FpRat(_fppoly(s[:i], self.p), _fppoly(s[i + 1 :], self.p))

    def to_json(self):
        return {"kind": "FpTLoc", "p": self.p}


# ---------------------------------------------------------------------------
# the string reader shared by every parser: signed terms c*var^k (the grammar
# is in README.md, "Input grammar").  The coefficient c is handed to the
# caller as a string: a Fraction literal, a GF(p) integer, or an element of
# the base ring in its own syntax.


_PARENS = re.compile(r"[()]")
_OPERATOR = re.compile(r"[-+()]")


def _unwrap(s):
    """s without surrounding whitespace and parentheses around all of it."""
    if not isinstance(s, str):
        raise TypeError(f"expected a string, got {s!r}")
    s = s.strip()
    while s[:1] == "(" and s[-1:] == ")":
        depth = 0
        for m in _PARENS.finditer(s):
            depth += 1 if m[0] == "(" else -1
            if depth == 0:
                break
        if m.end() != len(s):
            break
        s = s[1:-1].strip()
    return s


def _top_slash(s):
    """Index of the first '/' outside parentheses in s, or -1."""
    depth = 0
    for m in re.finditer(r"[()/]", s):
        ch = m[0]
        if ch == "/" and depth == 0:
            return m.start()
        depth += (ch == "(") - (ch == ")")
    return -1


def _signed_terms(s):
    """[(sign, term)] for the top-level terms of s."""
    terms = []
    signs = ""
    start = depth = 0
    for m in _OPERATOR.finditer(s):
        ch = m[0]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        elif depth == 0:
            term = s[start : m.start()].strip()
            if term:
                terms.append((signs, term))
                signs = ""
            signs += ch
            start = m.end()
    term = s[start:].strip()
    if depth or not term:
        raise ValueError(f"unbalanced parentheses or a missing term in {s!r}")
    terms.append((signs, term))
    out = []
    for signs, term in terms:
        # a sign after '-' is rejected: older parsers read "a - -b" two ways
        if len(signs) > 2 or signs[:-1] == "-":
            raise ValueError(f"signs {signs!r} in {s!r}: write a - b or a + -b")
        out.append((-1 if "-" in signs else 1, term))
    return out


def _power(term, var):
    """(c, k) when term is c*var^k, c*var, var^k or var (c '' for 1), else None."""
    if var not in term:
        return None
    body, k = term, 1
    head, caret, exp = term.rpartition("^")
    if caret and exp.strip().isdecimal():
        body, k = head.rstrip(), int(exp)
    if not body.endswith(var):
        return None
    c = body[: -len(var)].rstrip()
    return (c[:-1].rstrip() if c.endswith("*") else c), k


def _terms(s, var):
    """[(sign, c, k)] for the signed terms c*var^k of s; c is '' for c = 1.

    With ``var`` None every term is a constant (k = 0).
    """
    out = []
    for sign, term in _signed_terms(s):
        inner = _unwrap(term) if var and term[0] == "(" and var in term else term
        if inner != term:
            (sg, term), *rest = _signed_terms(inner)
            if rest:
                raise ValueError(f"{inner!r}: a sum in parentheses must not contain {var}")
            sign *= sg
        ck = var and _power(term, var)
        out.append((sign, *ck) if ck else (sign, term, 0))
    return out


def _collect(terms, coef, zero, one):
    """{k: sum of sign*coef(c)} over the terms; an empty c counts as ``one``."""
    coeffs = {}
    for sign, c, k in terms:
        v = coef(c) if c else one
        coeffs[k] = coeffs.get(k, zero) + v if sign > 0 else coeffs.get(k, zero) - v
    return coeffs


def _parse_rational(s):
    """A ``Fraction`` literal, or a signed sum of them, in parentheses or not."""
    s = _unwrap(s)
    try:
        return Fraction(s)
    except ValueError:
        terms = _terms(s, None)
        if len(terms) == 1 and terms[0][1] == s:
            raise
    return _collect(terms, _parse_rational, Fraction(0), None)[0]


def _fppoly(s, p):
    coeffs = _collect(_terms(_unwrap(s), "t"), lambda c: int(_unwrap(c)), 0, 1)
    return FpPoly(p, [coeffs.get(i, 0) for i in range(max(coeffs) + 1)])


# ---------------------------------------------------------------------------
# quadratic algebras base[w], w^2 = mp_a*w + mp_b, and their elements


def _elem(ring, x, y):
    """ExtElem with coordinates already in ring.base (no coercion)."""
    e = object.__new__(ExtElem)
    e.ring = ring
    e.x = x
    e.y = y
    return e


def _scalar(ring, other):
    """other as an element of ring.base, or None."""
    try:
        return ring.base.coerce(other)
    except TypeError:
        return None


def _coords_in(ring, other):
    """(x, y) of other as an element of ring, or None."""
    if type(other) is ExtElem and (other.ring is ring or other.ring == ring):
        return other.x, other.y
    c = _scalar(ring, other)
    return None if c is None else (c, ring.base.zero)


def _lies_below(e, other):
    """True when e is an element of the base of other's ring (K under L).

    Python does not try a reflected operator between two ExtElem, so the
    operators hand such a pair to the element of the larger ring.
    """
    return type(other) is ExtElem and (other.ring.base is e.ring or other.ring.base == e.ring)


class ExtElem:
    """Element x + y*w of a quadratic algebra: x, y in ring.base, and
    w^2 = ring.mp_a*w + ring.mp_b.

    Products with an element of ring.base (or an int) scale both
    coordinates, so an element of K times an element of L = K[theta] works
    in either order.
    """

    __slots__ = ("ring", "x", "y")

    def __init__(self, ring, x, y):
        self.ring = ring
        self.x = ring.base.coerce(x)
        self.y = ring.base.coerce(y)

    def __eq__(self, other):
        xy = _coords_in(self.ring, other)
        if xy is None:
            return other == self if _lies_below(self, other) else NotImplemented
        return self.x == xy[0] and self.y == xy[1]

    def __hash__(self):
        return hash((self.ring, self.x, self.y))

    def __bool__(self):
        return bool(self.x) or bool(self.y)

    def __add__(self, other):
        xy = _coords_in(self.ring, other)
        if xy is None:
            return other + self if _lies_below(self, other) else NotImplemented
        return _elem(self.ring, self.x + xy[0], self.y + xy[1])

    __radd__ = __add__

    def __sub__(self, other):
        xy = _coords_in(self.ring, other)
        if xy is None:
            return -(other - self) if _lies_below(self, other) else NotImplemented
        return _elem(self.ring, self.x - xy[0], self.y - xy[1])

    def __rsub__(self, other):
        xy = _coords_in(self.ring, other)
        if xy is None:
            return NotImplemented
        return _elem(self.ring, xy[0] - self.x, xy[1] - self.y)

    def __neg__(self):
        return _elem(self.ring, -self.x, -self.y)

    def __mul__(self, other):
        ring = self.ring
        if type(other) is ExtElem:
            if other.ring is ring or other.ring == ring:
                x1, y1, x2, y2 = self.x, self.y, other.x, other.y
                x = x1 * x2
                y = x1 * y2 + y1 * x2
                yy = y1 * y2
                if yy:
                    x = x + ring.mp_b * yy
                    if ring.mp_a:
                        y = y + ring.mp_a * yy
                return _elem(ring, x, y)
            if _lies_below(self, other):
                return _elem(other.ring, other.x * self, other.y * self)
        c = _scalar(ring, other)
        if c is None:
            return NotImplemented
        return _elem(ring, self.x * c, self.y * c)

    __rmul__ = __mul__

    def conj(self):
        """Galois conjugate: w -> a - w."""
        a = self.ring.mp_a
        return _elem(self.ring, self.x + a * self.y, -self.y)

    def norm(self):
        """Norm down to the base field: x^2 + a*x*y - b*y^2."""
        a, b = self.ring.mp_a, self.ring.mp_b
        return self.x * self.x + a * self.x * self.y - b * self.y * self.y

    def __truediv__(self, other):
        ring = self.ring
        if type(other) is ExtElem and (other.ring is ring or other.ring == ring):
            if not other:
                raise ZeroDivisionError("division by zero")
            # multiply by the conjugate (x2 + a*y2) - y2*w, divide by the norm
            a, b = ring.mp_a, ring.mp_b
            x1, y1, x2, y2 = self.x, self.y, other.x, other.y
            cx = x2 + a * y2 if a else x2
            n = x2 * cx - b * y2 * y2
            yy = y1 * y2
            x = x1 * cx - b * yy
            y = y1 * cx - x1 * y2
            if a:
                y = y - a * yy
            return _elem(ring, x / n, y / n)
        c = _scalar(ring, other)
        if c is None:
            return NotImplemented
        if not c:
            raise ZeroDivisionError("division by zero")
        return _elem(ring, self.x / c, self.y / c)

    def __rtruediv__(self, other):
        c = _scalar(self.ring, other)
        if c is None:
            return NotImplemented
        return _elem(self.ring, c, self.ring.base.zero) / self

    def coords(self):
        """(x, y), flattened through a tower: (u.x, u.y, v.x, v.y) for u + v*theta."""
        if type(self.x) is ExtElem:
            return self.x.coords() + self.y.coords()
        return (self.x, self.y)

    def encode(self):
        return self.ring.encode(self)

    def __repr__(self):
        return f"ExtElem({self.ring.encode(self)!r})"


class QuadAlgebra:
    """The algebra base[w] with w^2 = mp_a*w + mp_b: the parent of ExtElem."""

    def __init__(self, base, mp_a, mp_b):
        self.base = base
        self.mp_a = base.coerce(mp_a)
        self.mp_b = base.coerce(mp_b)
        self.char = base.char
        self.zero = _elem(self, base.zero, base.zero)
        self.one = _elem(self, base.one, base.zero)

    def _key(self):
        return (type(self).__name__, self.base, self.mp_a, self.mp_b)

    def __eq__(self, other):
        return isinstance(other, QuadAlgebra) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def coerce(self, x):
        if type(x) is ExtElem and (x.ring is self or x.ring == self):
            return x
        return _elem(self, self.base.coerce(x), self.base.zero)

    def embed(self, x):
        """Embed a base-field element."""
        return ExtElem(self, x, self.base.zero)

    def gen(self):
        """The generator w."""
        return _elem(self, self.base.zero, self.base.one)

    def from_int(self, n):
        return self.coerce(n)

    def parse(self, s):
        """x + y*w from signed terms c and c*w, each c in the base's syntax.

        A string without w is a base string.  Otherwise a coefficient with a
        top-level '/' must be the only term without w (GF(p)(t) reads a
        top-level '/' loosest, so "1 + 1/t + w" would be ambiguous).
        """
        base = self.base
        if "w" not in s:
            return self.embed(base.parse(s))
        terms = _terms(_unwrap(s), "w")
        plain = [c for _, c, k in terms if k == 0]
        if len(plain) > 1 and any(_top_slash(c) >= 0 for c in plain):
            raise ValueError(f"{s!r}: put a coefficient with '/' in parentheses")
        if any(k > 1 for _, _, k in terms):
            raise ValueError(f"{s!r}: powers of w above 1 are not read")
        coeffs = _collect(terms, base.parse, base.zero, base.one)
        return ExtElem(self, coeffs.get(0, base.zero), coeffs.get(1, base.zero))


class QuadExt(QuadAlgebra):
    """Quadratic extension of a base DVR by a monic x^2 - a*x - b.

    ``ramification`` is "unramified" (reduction mod the maximal ideal is
    irreducible over the residue field) or "eisenstein" (v(a) >= 1,
    v(b) = 1; the generator is a uniformizer and the value group doubles).
    Nested extensions are out of scope.
    """

    kind = "QuadExt"

    def __init__(self, base, mp_a, mp_b, ramification):
        if isinstance(base, QuadExt):
            raise UnsupportedRing("extensions of extensions are not supported")
        if ramification not in ("unramified", "eisenstein"):
            raise ValueError("ramification must be 'unramified' or 'eisenstein'")
        super().__init__(base, mp_a, mp_b)
        self.ramification = ramification
        self._validate()

    def _validate(self):
        a, b = self.mp_a, self.mp_b
        base = self.base
        if self.ramification == "eisenstein":
            if not (base.val(a) >= 1 and base.val(b) == 1):
                raise ValueError("Eisenstein requires v(a) >= 1 and v(b) = 1")
            return
        # unramified: x^2 - a x - b must have no root in the residue field
        if not (base.val(a) >= 0 and base.val(b) >= 0):
            raise ValueError("minimal polynomial must have integral coefficients")
        abar, bbar = base.residue(a, 1), base.residue(b, 1)
        pi = base.residue(base.uniformizer(), 2)
        if any(not (z * (z - abar) - bbar) % pi for z in base.codes(1)):
            raise ValueError(f"reduction mod {base.pi_name} is not irreducible")

    def _key(self):
        return super()._key() + (self.ramification,)

    def __repr__(self):
        return f"QuadExt({self.base!r}, w^2={self.base.encode(self.mp_a)}*w+{self.base.encode(self.mp_b)}, {self.ramification})"

    @property
    def p(self):
        return self.base.p

    def levels(self, N):
        """Base levels of (x, y) in R/pi^N: both N when unramified; for
        Eisenstein (ceil(N/2), floor(N/2)), as (w^N) = pi^ceil(N/2) R +
        pi^floor(N/2) R w."""
        if self.ramification == "unramified":
            return (N, N)
        return ((N + 1) // 2, N // 2)

    def val(self, x):
        x = self.coerce(x)
        vx, vy = self.base.val(x.x), self.base.val(x.y)
        if self.ramification == "unramified":
            return min(vx, vy)
        return min(2 * vx, 2 * vy + 1)

    def is_integral(self, x):
        return self.val(x) >= 0

    def uniformizer(self):
        if self.ramification == "eisenstein":
            return self.gen()
        return self.embed(self.base.uniformizer())

    def val_of_two(self):
        return self.val(self.from_int(2))

    def residue(self, x, N):
        """Canonical representative in R/pi^N: the pair of base residues of
        (x, y) at ``levels(N)``."""
        x = self.coerce(x)
        if N < 0:
            raise ValueError("N must be >= 0")
        if not self.is_integral(x):
            raise NotIntegral(f"{x!r} is not integral")
        return tuple(map(self.base.residue, (x.x, x.y), self.levels(N)))

    def lift(self, rep):
        return _elem(self, *map(self.base.lift, rep))

    def residues(self, N):
        """Canonical lifts of R/pi^N: x outer, y inner, each in the base order."""
        base = self.base
        lifts = [map(base.lift, base.codes(n)) for n in self.levels(N)]
        for x, y in itertools.product(*lifts):
            yield _elem(self, x, y)

    def sort_key(self, x):
        x = self.coerce(x)
        return (self.base.sort_key(x.x), self.base.sort_key(x.y))

    def encode(self, x):
        x = self.coerce(x)
        xs = self.base.encode(x.x)
        if not x.y:
            return xs
        ys = self.base.encode(x.y)
        if ys == "1":
            wterm = "w"
        else:
            if any(ch in ys for ch in "+-/") or "*" in ys:
                ys = f"({ys})"
            wterm = f"{ys}*w"
        if not x.x:
            return wterm
        return f"{xs} + {wterm}"

    # bound in the class body, where the benchmark's tracer looks it up
    parse = QuadAlgebra.parse

    def to_json(self):
        mp = f"x^2 - {self.base.encode(self.mp_a)}*x - {self.base.encode(self.mp_b)}"
        return {
            "kind": "QuadExt",
            "base": self.base.to_json(),
            "minpoly": mp,
            "ramification": self.ramification,
        }


def ring_from_json(doc):
    """Build a ring instance from its JSON descriptor."""
    if not isinstance(doc, dict):
        raise ValueError("a ring descriptor is a JSON object")
    kind = doc.get("kind")
    if kind == "ZLoc":
        return ZLoc(int(doc["p"]))
    if kind == "FpTLoc":
        return FpTLoc(int(doc["p"]))
    if kind == "QuadExt":
        base = ring_from_json(doc["base"])
        from .polys import parse_monic_quadratic

        a, b = parse_monic_quadratic(doc["minpoly"], base)
        return QuadExt(base, a, b, str(doc["ramification"]).lower())
    raise ValueError(f"unknown ring kind {kind!r}")
