"""Polynomials and rational functions over the prime field GF(p).

An FpPoly stores its coefficients as one ``bytes`` string of fixed-width
little-endian lanes, lane i holding the coefficient of t^i in {0, ..., p-1}.
The storage lane is 1 byte for p <= 256, else 2, 4 or 8 bytes (the primes
up to 10^6 of ``rings`` take 4).  The string has no trailing zero lane, so
the zero polynomial is ``b""`` and equal polynomials have equal strings.

Arithmetic reads the lanes as one Python int and runs on big ints, never
coefficient by coefficient:

* a sum, negation or scalar multiple is one int operation;
* a product is one int multiply (Kronecker substitution), with both
  factors repacked into lanes wide enough for min(len)*(p-1)^2, the
  largest coefficient of the integer product;
* long division adds (p-c)*B << lane*k at each step, so lanes never go
  negative.  A lane it has cleared mod p is never added to again, so the
  cleared lanes are masked off once at the end.  The lanes are sized for
  (p-1) + min(dq+1, len B)*(p-1)^2, dq the degree of the quotient;
* gcd is Euclid on the same packed remainders;
* over GF(2), XOR is subtraction and keeps every lane 0 or 1, so division
  and gcd are shift/XOR loops that find the lead lane by ``bit_length``
  and need no reduction at all.

Every result goes back to storage lanes reduced mod p once: by
``bytes.translate`` when the lanes are one byte wide, else through a
``memoryview`` cast to 2-, 4- or 8-byte lanes.  Wider lanes (p > 2^32)
take a generic path.

No coefficient tuple is built for a result: ``coeffs`` builds one on
demand for the few readers that index coefficients (``rings.sort_key``,
``polys``, ``lm``).  A build that made a tuple for every result left about
four times as many tuples in CPython's free lists between full collections
and raised the peak RSS of the classify/witness benchmark by 11%.

FpRat is a fraction of two FpPolys, always reduced and with a monic
denominator, so structural equality is field equality.
"""

from __future__ import annotations

import sys
from array import array

_new = object.__new__
# array/memoryview codes per lane width; a big-endian host takes the generic
# path, since the packed ints are little-endian
_FMT = {array(c).itemsize: c for c in "BHILQ"} if sys.byteorder == "little" else {}
_REDUCE = {}  # p -> bytes.translate table of i % p, for p <= 256


def _width(bound):
    """Bytes per lane holding 0..bound: 1, 2, 4 or 8, or more past 2^64."""
    if bound < 256:
        return 1
    n = (bound.bit_length() + 7) // 8
    return 2 if n == 2 else 4 if n <= 4 else 8 if n <= 8 else n


def _pack(data, s, k):
    """The int whose k-byte lanes hold the s-byte lanes of ``data``."""
    if s == k:
        return int.from_bytes(data, "little")
    buf = bytearray(len(data) // s * k)
    for j in range(s):
        buf[j::k] = data[j::s]
    return int.from_bytes(buf, "little")


def _lanes(data, k):
    """The k-byte lanes of ``data`` as a sequence of ints."""
    if k == 1:
        return data
    if k in _FMT:
        return memoryview(data).cast(_FMT[k])
    return [int.from_bytes(data[i : i + k], "little") for i in range(0, len(data), k)]


def _store(vals, s):
    """Storage bytes of the coefficient values ``vals`` (each < 256^s), trimmed."""
    if s == 1:
        return bytes(vals).rstrip(b"\0")
    if s in _FMT:
        data = array(_FMT[s], vals).tobytes()
    else:
        data = b"".join(v.to_bytes(s, "little") for v in vals)
    return _trim(data, s)


def _trim(data, s):
    n = len(data.rstrip(b"\0"))
    return data[: n + -n % s]


def _unpack(x, n, k, p):
    """Storage bytes of the first n k-byte lanes of x, reduced mod p."""
    raw = x.to_bytes(n * k, "little")
    if k == 1:
        table = _REDUCE.get(p)
        if table is None:
            table = _REDUCE[p] = bytes(i % p for i in range(256))
        return raw.translate(table).rstrip(b"\0")
    return _store([v % p for v in _lanes(raw, k)], _lane(p))


def _lane(p):
    """Storage lane width for GF(p)."""
    return 1 if p <= 256 else _width(p - 1)


def _ones(n, k):
    return int.from_bytes((b"\1" + bytes(k - 1)) * n, "little")


def _make(p, data):
    f = _new(FpPoly)
    f.p = p
    f._c = data
    return f


def _xor_divide(r, b, want_quotient):
    """GF(2) long division of packed ints whose 1-byte lanes are 0 or 1.

    Subtracting mod 2 is XOR, which keeps every lane 0 or 1, so a step is
    one shift and one XOR and the lead lane is found by ``bit_length``.
    Returns (quotient or 0, remainder) as packed ints.
    """
    nb = b.bit_length()
    q = 0
    while (d := r.bit_length() - nb) >= 0:
        r ^= b << d
        if want_quotient:
            q |= 1 << d
    return q, r


def _int_bytes(x):
    return x.to_bytes((x.bit_length() + 7) // 8, "little")


def _divide(p, a, b, want_quotient):
    """Long division of storage bytes a by b (b nonzero, p odd) on packed ints.

    Returns (quotient values or None, remainder bytes).  A lane above the
    one being cleared is never added to again, so the cleared lanes are
    masked off once at the end instead of at every step.
    """
    s = _lane(p)
    nb = len(b) // s
    dq = len(a) // s - nb
    if dq < 0:
        return [], a
    k = _width((p - 1) + min(dq + 1, nb) * (p - 1) ** 2)
    bits = 8 * k
    lane = (1 << bits) - 1
    low = bits * (nb - 1)  # offset of b's top lane
    r = _pack(a, s, k)
    bp = _pack(b, s, k)
    inv = pow(int.from_bytes(b[-s:], "little"), -1, p)
    quot = [0] * (dq + 1) if want_quotient else None
    for i in range(dq, -1, -1):
        sh = bits * i
        c = (r >> (sh + low) & lane) * inv % p
        if c:
            if want_quotient:
                quot[i] = c
            r += (p - c) * bp << sh
    return quot, _unpack(r & (1 << low) - 1, nb - 1, k, p)


class FpPoly:
    """Dense univariate polynomial over GF(p), packed into one bytes string."""

    __slots__ = ("p", "_c")

    def __init__(self, p, coeffs=()):
        self.p = p
        self._c = _store([c % p for c in coeffs], _lane(p))

    @classmethod
    def const(cls, p, c):
        return cls(p, (c,))

    @classmethod
    def t_power(cls, p, k, c=1):
        f = cls(p, (c,))
        if f._c:
            f._c = bytes(k * _lane(p)) + f._c
        return f

    @property
    def coeffs(self):
        """Coefficients ascending in degree, no trailing zeros (a new tuple)."""
        return tuple(_lanes(self._c, _lane(self.p)))

    @property
    def degree(self):
        """Degree, with the zero polynomial returning -1."""
        return len(self._c) // _lane(self.p) - 1

    def is_zero(self):
        return not self._c

    def is_one(self):
        return int.from_bytes(self._c, "little") == 1

    def lead(self):
        return int.from_bytes(self._c[-_lane(self.p) :], "little")

    def order(self):
        """t-adic order: index of the lowest nonzero coefficient (None if zero)."""
        if not self._c:
            return None
        return (len(self._c) - len(self._c.lstrip(b"\0"))) // _lane(self.p)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        return isinstance(other, FpPoly) and self.p == other.p and self._c == other._c

    def __hash__(self):
        return hash((self.p, self._c))

    def __add__(self, other):
        p = self.p
        s = _lane(p)
        k = _width(2 * (p - 1))
        x = _pack(self._c, s, k) + _pack(other._c, s, k)
        return _make(p, _unpack(x, max(len(self._c), len(other._c)) // s, k, p))

    def __sub__(self, other):
        p = self.p
        s = _lane(p)
        k = _width(2 * p - 1)
        n = len(other._c) // s
        x = _pack(self._c, s, k) + _ones(n, k) * p - _pack(other._c, s, k)
        return _make(p, _unpack(x, max(len(self._c) // s, n), k, p))

    def __neg__(self):
        p = self.p
        s = _lane(p)
        n = len(self._c) // s
        k = _width(p)
        return _make(p, _unpack(_ones(n, k) * p - _pack(self._c, s, k), n, k, p))

    def __mul__(self, other):
        p = self.p
        s = _lane(p)
        a = self._c
        if isinstance(other, int):
            c = other % p
            if c == 1:
                return self
            if not c:
                return _make(p, b"")
            k = _width(c * (p - 1))
            return _make(p, _unpack(_pack(a, s, k) * c, len(a) // s, k, p))
        b = other._c
        if not a or not b:
            return _make(p, b"")
        na, nb = len(a) // s, len(b) // s
        k = _width(min(na, nb) * (p - 1) ** 2)
        return _make(p, _unpack(_pack(a, s, k) * _pack(b, s, k), na + nb - 1, k, p))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not other._c:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        if p == 2:
            q, r = _xor_divide(int.from_bytes(self._c, "little"), int.from_bytes(other._c, "little"), True)
            return _make(2, _int_bytes(q)), _make(2, _int_bytes(r))
        quot, rem = _divide(p, self._c, other._c, True)
        return _make(p, _store(quot, _lane(p))), _make(p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self._c:
            return self
        return self * pow(self.lead(), -1, self.p)

    def gcd(self, other):
        p = self.p
        if p == 2:
            x, y = int.from_bytes(self._c, "little"), int.from_bytes(other._c, "little")
            while y:
                x, y = y, _xor_divide(x, y, False)[1]
            return _make(2, _int_bytes(x))
        s = _lane(p)
        a, b = self._c, other._c
        while len(b) > s:
            a, b = b, _divide(p, a, b, False)[1]
        if b:  # a nonzero constant divides everything
            a = b
        return _make(p, a).monic()

    def truncate(self, n):
        """This polynomial mod t^n."""
        return _make(self.p, _trim(self._c[: n * _lane(self.p)], _lane(self.p)))

    def inverse_mod_t_power(self, n):
        """Inverse modulo t^n (n >= 1) by Newton iteration g <- g*(2 - f*g),
        doubling the precision each step; f(0) must be nonzero."""
        p = self.p
        g = FpPoly.const(p, pow(self.eval_at_zero(), -1, p))
        two = FpPoly.const(p, 2)
        m = 1
        while m < n:
            m = min(2 * m, n)
            g = (g * (two - (self.truncate(m) * g).truncate(m))).truncate(m)
        return g

    def eval_at_zero(self):
        return int.from_bytes(self._c[: _lane(self.p)], "little")

    def __int__(self):
        """The value of a constant polynomial, such as a residue mod t."""
        if self.degree > 0:
            raise TypeError("only a constant FpPoly has an int value")
        return self.eval_at_zero()

    def even_part_only(self):
        """True when every nonzero coefficient sits at an even exponent."""
        return not any(_lanes(self._c, _lane(self.p))[1::2])

    def halve_exponents(self):
        """For g in GF(p)[t^2], return h with h(t^2) = g. GF(2) coefficients only."""
        if self.p != 2 or not self.even_part_only():
            raise ValueError(f"halve_exponents needs a GF(2) polynomial in t^2, got {self!r}")
        return _make(2, self._c[::2])

    def sqrt(self):
        """Exact square root, or None. Works for any p via coefficient recursion."""
        if self.is_zero():
            return self
        if self.p == 2:
            if not self.even_part_only():
                return None
            return self.halve_exponents()
        if self.degree % 2 == 1:
            return None
        lead_rt = _sqrt_mod_p(self.lead(), self.p)
        if lead_rt is None:
            return None
        coeffs = self.coeffs
        m = self.degree // 2
        h = [0] * (m + 1)
        h[m] = lead_rt
        inv2lead = pow(2 * lead_rt, -1, self.p)
        for k in range(1, m + 1):
            # coefficient of t^(2m-k) in h*h, excluding the 2*h[m]*h[m-k] term
            acc = 0
            for i in range(m - k + 1, m):
                j = 2 * m - k - i
                if m - k < j <= m:
                    acc += h[i] * h[j]
            h[m - k] = ((coeffs[2 * m - k] - acc) * inv2lead) % self.p
        cand = FpPoly(self.p, h)
        return cand if cand * cand == self else None

    def to_string(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(_lanes(self._c, _lane(self.p))):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{var}" if c == 1 else f"{c}*{var}")
            else:
                parts.append(f"{var}^{i}" if c == 1 else f"{c}*{var}^{i}")
        return "+".join(parts)

    def __repr__(self):
        return f"FpPoly({self.p}, {self.to_string()})"


def _sqrt_mod_p(a, p):
    """The smaller square root r <= p - r of a modulo a prime p, or None
    (Euler's criterion, then Tonelli-Shanks)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^s, q odd
    q = (p - 1) >> s
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # r^2 = a*t, and t has order 2^i with 0 < i < s
        i = next(i for i in range(1, s) if pow(t, 1 << i, p) == 1)
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


class FpRat:
    """Reduced fraction of FpPoly with monic denominator."""

    __slots__ = ("p", "num", "den")

    def __init__(self, num: FpPoly, den: FpPoly | None = None):
        p = num.p
        self.p = p
        if den is None:
            self.num = num
            self.den = _make(p, _store((1,), _lane(p)))
            return
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_one():
            num = num // g
            den = den // g
        lead_inv = pow(den.lead(), -1, p)
        self.num = num * lead_inv
        self.den = den * lead_inv

    @classmethod
    def const(cls, p, c):
        return cls(FpPoly.const(p, c))

    @classmethod
    def t(cls, p):
        return cls(FpPoly.t_power(p, 1))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = FpRat.const(self.p, other)
        return (
            isinstance(other, FpRat)
            and self.p == other.p
            and self.num._c == other.num._c
            and self.den._c == other.den._c
        )

    def __hash__(self):
        return hash((self.p, self.num._c, self.den._c))

    def __add__(self, other):
        other = self._coerce(other)
        return _sum(self.num, self.den, other.num, other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return _sum(self.num, self.den, -other.num, other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    __radd__ = __add__

    def __neg__(self):
        return _rat(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        inv = pow(other.num.lead(), -1, self.p)
        return _product(self.num, self.den, other.den * inv, other.num * inv)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _coerce(self, other):
        if isinstance(other, FpRat):
            return other
        if isinstance(other, int):
            return FpRat.const(self.p, other)
        if isinstance(other, FpPoly):
            return FpRat(other)
        return NotImplemented

    def t_order(self):
        """t-adic valuation (None for zero)."""
        if self.is_zero():
            return None
        return self.num.order() - self.den.order()

    def sqrt(self):
        """Exact square root in GF(p)(t), or None."""
        if self.is_zero():
            return self
        if self.p == 2:
            # reduced fraction is a square iff both parts lie in GF(2)[t^2]
            if not (self.num.even_part_only() and self.den.even_part_only()):
                return None
            return FpRat(self.num.halve_exponents(), self.den.halve_exponents())
        w = (self.num * self.den).sqrt()
        if w is None:
            return None
        return FpRat(w, self.den)

    def to_string(self, var="t"):
        ns = self.num.to_string(var)
        if self.den.is_one():
            return ns
        ds = self.den.to_string(var)
        if "+" in ns or ns.count("-"):
            ns = f"({ns})"
        if "+" in ds or ds.count("-"):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"FpRat({self.p}, {self.to_string()})"


# Henrici's sum and product of reduced fractions (Knuth, TAOCP vol. 2,
# 4.5.1): cancel through gcds of the operands' parts, which are smaller than
# the gcd of the unreduced result would be.  Both give the reduced fraction
# with a monic denominator that FpRat(num, den) gives.


def _rat(num, den):
    """FpRat of an already reduced num/den with monic den, without a gcd.

    It is built through ``FpRat(num)`` so that every FpRat still passes
    through ``FpRat.__init__``, which the benchmark tracer counts.
    """
    r = FpRat(num)
    r.den = den
    return r


def _sum(a, b, c, d):
    """a/b + c/d for reduced a/b, c/d with monic b, d."""
    g = b.gcd(d)
    if g.is_one():
        return _rat(a * d + c * b, b * d)
    b1, d1 = b // g, d // g
    t = a * d1 + c * b1
    g2 = t.gcd(g)
    if g2.is_one():
        return _rat(t, b1 * d)
    return _rat(t // g2, b1 * d1 * (g // g2))


def _product(a, b, c, d):
    """(a/b) * (c/d) for reduced a/b, c/d with monic b, d."""
    g1, g2 = a.gcd(d), c.gcd(b)
    if not g1.is_one():
        a, d = a // g1, d // g1
    if not g2.is_one():
        c, b = c // g2, b // g2
    return _rat(a * c, b * d)
