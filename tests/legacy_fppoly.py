"""The tuple-of-coefficients FpPoly and FpRat that matsim used before the
packed-lane rewrite, kept as a test oracle for ``test_fppoly.py``.

The bodies are the old ones, from ``matsim/fppoly.py``, plus the old
``rings._poly_inverse_mod_t_power`` at the end.
"""

from __future__ import annotations


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


class FpPoly:
    """Dense univariate polynomial over GF(p)."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=()):
        self.p = p
        self.coeffs = _trim(c % p for c in coeffs)

    @classmethod
    def const(cls, p, c):
        return cls(p, (c,))

    @classmethod
    def t_power(cls, p, k, c=1):
        return cls(p, (0,) * k + (c,))

    @property
    def degree(self):
        """Degree, with the zero polynomial returning -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (1,)

    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    def order(self):
        """t-adic order: index of the lowest nonzero coefficient (None if zero)."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return FpPoly(self.p, (x + y for x, y in zip(a, b)))

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return FpPoly(self.p, (x - y for x, y in zip(a, b)))

    def __neg__(self):
        return FpPoly(self.p, (-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return FpPoly(self.p, (c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return FpPoly(self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FpPoly(self.p, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return FpPoly(p), self
        inv_lead = pow(other.lead(), -1, p)
        quot = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = (rem[k + other.degree] * inv_lead) % p
            quot[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = (rem[k + j] - c * b) % p
        return FpPoly(p, quot), FpPoly(p, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self * pow(self.lead(), -1, self.p)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def eval_at_zero(self):
        return self.coeffs[0] if self.coeffs else 0

    def even_part_only(self):
        """True when every nonzero coefficient sits at an even exponent."""
        return all(c == 0 for i, c in enumerate(self.coeffs) if i % 2 == 1)

    def halve_exponents(self):
        """For g in GF(p)[t^2], return h with h(t^2) = g. GF(2) coefficients only."""
        assert self.p == 2 and self.even_part_only()
        return FpPoly(2, self.coeffs[::2])

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
            target = self.coeffs[2 * m - k] if 2 * m - k < len(self.coeffs) else 0
            h[m - k] = ((target - acc) * inv2lead) % self.p
        cand = FpPoly(self.p, h)
        return cand if cand * cand == self else None

    def to_string(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
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
    """Square root of a modulo a small prime p, or None."""
    a %= p
    for x in range((p + 1) // 2 + 1):
        if (x * x) % p == a:
            return x
    return None


class FpRat:
    """Reduced fraction of FpPoly with monic denominator."""

    __slots__ = ("p", "num", "den")

    def __init__(self, num: FpPoly, den: FpPoly | None = None):
        p = num.p
        if den is None:
            den = FpPoly(p, (1,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = num.gcd(den)
        if not g.is_one():
            num = num // g
            den = den // g
        lead_inv = pow(den.lead(), -1, p)
        self.p = p
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
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.p, self.num.coeffs, self.den.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        return FpRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return FpRat(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    __radd__ = __add__

    def __neg__(self):
        return FpRat(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return FpRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return FpRat(self.num * other.den, self.den * other.num)

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


def _poly_inverse_mod_t_power(den, N):
    """Inverse of den modulo t^N; den(0) must be a unit."""
    p = den.p
    c0 = den.eval_at_zero()
    inv = [pow(c0, -1, p)]
    # Newton-free coefficient recursion: sum_{j<=i} den_j * inv_{i-j} = [i == 0]
    dc = den.coeffs
    for i in range(1, N):
        acc = 0
        for j in range(1, min(i, len(dc) - 1) + 1):
            acc += dc[j] * inv[i - j]
        inv.append((-acc * inv[0]) % p)
    return FpPoly(p, inv)
