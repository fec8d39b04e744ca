"""The residue enumeration and reduction of ``ZLoc``, ``FpTLoc`` and
``QuadExt`` before ``levels(N)`` and ``codes(n)`` described R/pi^N, kept as
a test oracle for ``test_rings.py``.

The bodies are the old methods.  One mechanical edit was needed: a method
``self.residues(N)`` / ``self.residue(x, N)`` became ``residues(ring, N)``
/ ``residue(ring, x, N)``, so an extension reaches its base through the
legacy code too.
"""

from fractions import Fraction

from matsim.errors import NotIntegral
from matsim.fppoly import FpPoly, FpRat
from matsim.rings import ExtElem, FpTLoc, ZLoc


def residues(ring, N):
    if isinstance(ring, ZLoc):
        return _zloc_residues(ring, N)
    if isinstance(ring, FpTLoc):
        return _fptloc_residues(ring, N)
    return _quadext_residues(ring, N)


def residue(ring, x, N):
    if isinstance(ring, ZLoc):
        return _zloc_residue(ring, x, N)
    if isinstance(ring, FpTLoc):
        return _fptloc_residue(ring, x, N)
    return _quadext_residue(ring, x, N)


def _zloc_residue(self, x, N):
    """Canonical representative of x in R/p^N, as an integer in [0, p^N)."""
    x = self.coerce(x)
    if N < 1:
        raise ValueError("N must be >= 1")
    if not self.is_integral(x):
        raise NotIntegral(f"{x} is not in {self!r}")
    m = self.p**N
    return (x.numerator * pow(x.denominator, -1, m)) % m


def _zloc_residues(self, N):
    """Canonical lifts of R/p^N in the deterministic element order."""
    for r in range(self.p**N):
        yield Fraction(r)


def _fptloc_residue(self, x, N):
    """Canonical representative in R/t^N: an FpPoly of degree < N."""
    x = self.coerce(x)
    if N < 1:
        raise ValueError("N must be >= 1")
    if not self.is_integral(x):
        raise NotIntegral(f"{x!r} is not in {self!r}")
    # den(0) != 0 since x is integral
    return (x.num.truncate(N) * x.den.inverse_mod_t_power(N)).truncate(N)


def _fptloc_residues(self, N):
    p = self.p
    for code in range(p**N):
        coeffs = []
        c = code
        for _ in range(N):
            coeffs.append(c % p)
            c //= p
        yield FpRat(FpPoly(p, coeffs))


def _quadext_residue(self, x, N):
    """Canonical representative in R/pi^N as a pair of base residues.

    Unramified: both coordinates mod (base uniformizer)^N.  Eisenstein:
    (x mod pi_base^ceil(N/2), y mod pi_base^floor(N/2)), matching the
    ideal (w^N) = pi^ceil(N/2) R + pi^floor(N/2) R w.
    """
    x = self.coerce(x)
    if N < 1:
        raise ValueError("N must be >= 1")
    if not self.is_integral(x):
        raise NotIntegral(f"{x!r} is not integral")
    if self.ramification == "unramified":
        return (residue(self.base, x.x, N), residue(self.base, x.y, N))
    nx = (N + 1) // 2
    ny = N // 2
    rx = residue(self.base, x.x, nx)
    ry = residue(self.base, x.y, ny) if ny >= 1 else None
    return (rx, ry)


def _quadext_residues(self, N):
    if self.ramification == "unramified":
        for rx in residues(self.base, N):
            for ry in residues(self.base, N):
                yield ExtElem(self, rx, ry)
        return
    nx = (N + 1) // 2
    ny = N // 2
    for rx in residues(self.base, nx):
        if ny == 0:
            yield ExtElem(self, rx, self.base.zero)
        else:
            for ry in residues(self.base, ny):
                yield ExtElem(self, rx, ry)
