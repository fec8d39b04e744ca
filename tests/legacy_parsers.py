"""The string parsers matsim used before the shared term reader, kept as a
test oracle for ``test_parsing.py``.

The bodies are the old ones.  Two mechanical edits were needed now that
the old types are gone: a call ``ring.parse(s)`` became ``parse(ring, s)``
(so coefficients also go through the legacy parsers), and the result
``QuadNum(base, x, y)`` became ``ExtElem(base, x, y)``.
"""

from fractions import Fraction

from matsim.fppoly import FpPoly, FpRat
from matsim.lattices import QuadBase
from matsim.lm import IntegerRing
from matsim.polys import MonicPoly
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc


def parse(ring, s):
    """Legacy parse of one element of ``ring``."""
    if isinstance(ring, (ZLoc, IntegerRing)):
        return Fraction(s.strip().replace("(", "").replace(")", ""))
    if isinstance(ring, FpTLoc):
        return _parse_fprat(s, ring.p)
    if isinstance(ring, QuadExt):
        return quadext_parse(ring, s)
    if isinstance(ring, QuadBase):
        return _parse_quadnum(ring, s)
    raise TypeError(f"no legacy parser for {ring!r}")


# rings.py


def _parse_fppoly(s, p):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(s) - 1:
                ok = False
                break
        if ok:
            s = s[1:-1]
    coeffs = {}
    term = ""
    sign = 1
    terms = []
    for ch in s.replace(" ", ""):
        if ch in "+-" and term:
            terms.append((sign, term))
            sign = 1 if ch == "+" else -1
            term = ""
        elif ch == "-" and not term:
            sign = -sign
        elif ch == "+" and not term:
            pass
        else:
            term += ch
    if term:
        terms.append((sign, term))
    for sg, t in terms:
        t = t.replace("*", "")
        if "t" in t:
            head, _, tail = t.partition("t")
            c = int(head) if head else 1
            k = int(tail[1:]) if tail.startswith("^") else (int(tail) if tail else 1)
        else:
            c = int(t)
            k = 0
        coeffs[k] = coeffs.get(k, 0) + sg * c
    deg = max(coeffs) if coeffs else 0
    return FpPoly(p, [coeffs.get(i, 0) for i in range(deg + 1)])


def _strip_outer_parens(s):
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(s) - 1:
                ok = False
                break
        if not ok:
            break
        s = s[1:-1].strip()
    return s


def _parse_fprat(s, p):
    s = _strip_outer_parens(s)
    depth = 0
    for i, ch in enumerate(s):
        depth += ch == "("
        depth -= ch == ")"
        if ch == "/" and depth == 0:
            return FpRat(_parse_fppoly(s[:i], p), _parse_fppoly(s[i + 1 :], p))
    return FpRat(_parse_fppoly(s, p))


def quadext_parse(self, s):
    """The old ``QuadExt.parse``."""
    s = _strip_outer_parens(s)
    if "w" not in s:
        return self.embed(parse(self.base, s))
    # split on the last top-level '+' or '-' that precedes the w-term
    depth = 0
    split = None
    for i, ch in enumerate(s):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and ch in "+-" and i > 0 and "w" in s[i:]:
            split = i
    if split is None:
        head, ys = "", s
        sign = 1
    else:
        head = s[:split]
        sign = 1 if s[split] == "+" else -1
        ys = s[split + 1 :]
    ys = ys.strip()
    if not ys.endswith("w"):
        raise ValueError(f"cannot parse extension element {s!r}")
    ys = ys[:-1].rstrip()
    if ys.endswith("*"):
        ys = ys[:-1]
    ycoef = self.base.one if not ys.strip() else parse(self.base, ys)
    if sign < 0:
        ycoef = -ycoef
    xcoef = parse(self.base, head) if head.strip() else self.base.zero
    return ExtElem(self, xcoef, ycoef)


# lattices.py


def _parse_quadnum(base, s):
    s = s.strip()
    if "w" not in s:
        return ExtElem(base, Fraction(s.replace("(", "").replace(")", "")), 0)
    depth = 0
    split = None
    for i, ch in enumerate(s):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0 and ch in "+-" and i > 0 and "w" in s[i:]:
            split = i
    if split is None:
        head, sign, ys = "", 1, s
    else:
        head = s[:split]
        sign = 1 if s[split] == "+" else -1
        ys = s[split + 1 :]
    ys = ys.strip()
    assert ys.endswith("w")
    ys = ys[:-1].rstrip()
    if ys.endswith("*"):
        ys = ys[:-1]
    ys = ys.strip().replace("(", "").replace(")", "")
    ycoef = Fraction(1)
    if ys in ("-",):
        ycoef = Fraction(-1)
    elif ys:
        ycoef = Fraction(ys)
    x = Fraction(head.replace("(", "").replace(")", "").strip() or 0)
    return ExtElem(base, x, sign * ycoef)


def _parse_rel_quadratic(base, s):
    """Parse "x^2 - a*x - b" with coefficients in Z[sqrt d] ("w" for sqrt d)."""
    coeffs = {0: base.zero, 1: base.zero, 2: base.zero}
    for sign, term in _split_terms(s):
        if "x" in term:
            head, _, tail = term.partition("x")
            head = head.strip()
            if head.endswith("*"):
                head = head[:-1].strip()
            coef = base.one if not head else parse(base, head)
            k = int(tail[1:]) if tail.strip().startswith("^") else 1
        else:
            coef = parse(base, term)
            k = 0
        coeffs[k] = coeffs[k] + (coef if sign > 0 else -coef)
    if coeffs[2] != base.one:
        raise ValueError("expected a monic quadratic in x")
    return -coeffs[1], -coeffs[0]


# polys.py


def parse_monic(s: str, ring) -> MonicPoly:
    """Parse strings like "x^2 - 5", "x^2 - t*x - (t^2+t^3)", "x^3 - 1"."""
    coeffs = {}
    for sign, term in _split_terms(s):
        if "x" in term:
            head, _, tail = term.partition("x")
            head = head.strip()
            if head.endswith("*"):
                head = head[:-1].strip()
            coef = ring.one if not head else parse(ring, head)
            k = int(tail[1:]) if tail.strip().startswith("^") else 1
        else:
            coef = parse(ring, term)
            k = 0
        cur = coeffs.get(k, ring.zero)
        coeffs[k] = cur + coef if sign > 0 else cur - coef
    deg = max(coeffs)
    return MonicPoly(ring, [coeffs.get(i, ring.zero) for i in range(deg + 1)])


def _split_terms(s: str):
    s = s.strip()
    terms = []
    depth = 0
    sign = 1
    cur = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and cur.strip():
            terms.append((sign, cur.strip()))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif depth == 0 and ch in "+-" and not cur.strip():
            if ch == "-":
                sign = -sign
        else:
            cur += ch
    if cur.strip():
        terms.append((sign, cur.strip()))
    out = []
    for sg, t in terms:
        if t.startswith("(") and t.endswith(")") and _balanced(t[1:-1]):
            t = t[1:-1].strip()
        out.append((sg, t))
    return out


def _balanced(s):
    depth = 0
    for ch in s:
        depth += ch == "("
        depth -= ch == ")"
        if depth < 0:
            return False
    return depth == 0
