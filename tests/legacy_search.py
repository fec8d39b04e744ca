"""The residue searches of ``classify.compute_m`` and
``classify._insep_params`` before digit-by-digit lifting replaced them, kept
as a test oracle for ``test_search.py``.

The bodies are the old ones: each level lists R/pi^(2m) or R/pi^i in the
order of ``residues`` and returns the first element that passes, so they
cost sum q^(2m) and sum q^i residues, where q = |R/pi|.
"""

from matsim.classify import pi_pow
from matsim.polys import disc_quad


def compute_m(ring, f, case):
    """Maximal m with v(b - r(r+a)) >= 2m (case1/char2sep) or
    v(Delta - r^2) >= 2m + v(Delta) with v(r) = v(Delta)/2 (case22),
    together with the least realizing r in the deterministic element order.

    The condition only depends on r modulo pi^(2m), so the search is a
    finite residue enumeration, descending from the case bound.  Case22 is
    the same search for x^2 - u, u = Delta/pi^v(Delta), scaled by
    pi^(v(Delta)/2); for m >= 1 every root of x^2 - u is a unit.
    """
    if case in ("case1", "char2sep"):
        a, b, bound, scale = f.a, f.b, ring.val(f.a), ring.one
    elif case == "case22":
        delta = disc_quad(f, ring)
        if ring.val(delta) % 2:
            raise ValueError("case22 needs an even v(Delta)")
        scale = pi_pow(ring, ring.val(delta) // 2)
        a, b, bound = ring.zero, delta / (scale * scale), ring.val_of_two()
    else:
        raise ValueError(f"unknown case {case!r}")
    for m in range(bound, 0, -1):
        for r in ring.residues(2 * m):
            if ring.val(b - r * (r + a)) >= 2 * m:
                return m, scale * r
    return 0, (None if case == "case22" else ring.zero)


def _insep_params(ring, b, i):
    """Least u mod pi^i with v(b - u^2) >= 2i, and s = (b - u^2)/pi^i."""
    if i == 0:
        return ring.zero, b
    for u in ring.residues(i):
        if ring.val(b - u * u) >= 2 * i:
            return u, (b - u * u) / pi_pow(ring, i)
    return None

