"""The ExtElem paths that ``lattices`` replaced, kept as test oracles for
``test_lattices.py``.

``is_principal`` is the box scan that decided principality before the Gauss
reduction of the norm form replaced it: after scaling to an integral
ideal of norm N it tries y = 0, 1, 2, ... while |d|*y^2 <= N, takes
x = isqrt(N - |d|*y^2) when that is exact, and compares the HNF of
(x + y*w)R, then of (x - y*w)R, with the ideal.  Its first hit is the one
with x >= 0, then the least |y|, then y > 0.  It costs sqrt(N/|d|) steps.

``span``, ``ideal_span``, ``rtheta_closed`` and ``member`` are the spans and
closure checks from before the action of w and theta became integer
matrices: they multiply ExtElems over Fractions one element at a time and
solve one membership per product.

``ideal_mul``, ``ideal_conj`` and ``norm_form`` are the ideal product, the
conjugate ideal and the norm form from before they read integer coordinate
rows: ExtElem products of the two Z-bases, ExtElem conjugates, and three
ExtElem norms with the polarization N(u + v) - N(u) - N(v).

``intersect_base`` and ``default_x0`` are J cap K and the default direction
from before they were read off one Hermite form and one gcd: a left kernel
of the theta-parts, combined with J's rows and put into an HNF again, and
the denominator of a ``QLattice`` of the theta-projection.
"""

from fractions import Fraction
from math import isqrt

from legacy_intlin import left_kernel_int
from matsim.errors import invariant
from matsim.intlin import solve_int
from matsim.lattices import FracIdealR, LLattice, QLattice, lelem
from matsim.rings import ExtElem


def member(lat, vec):
    """vec in (1/den) * (Z-span of rows)."""
    target = [Fraction(c) * lat.den for c in vec]
    if any(t.denominator != 1 for t in target):
        return False
    return solve_int(list(lat.rows), [int(t) for t in target]) is not None


def ideal_contains(ideal, e):
    return member(ideal.lat, (e.y, e.x))


def ideal_span(base, elems):
    """The Z-lattice of the elements and their w-multiples, (w-part, 1-part)."""
    vecs = [(e.y, e.x) for e in elems]
    vecs += [((base.omega * e).y, (base.omega * e).x) for e in elems]
    return QLattice.from_vectors(vecs)


def span(ctx, gens):
    """The Z-lattice of {g, w*g, theta*g, w*theta*g} for each generator."""
    w = ctx.base.omega
    th = ctx.gen()
    vecs = []
    for g in gens:
        if not g:
            continue
        for m in (g, w * g, th * g, w * (th * g)):
            vecs.append(m.coords())
    return QLattice.from_vectors(vecs)


def rtheta_closed(ctx, lat):
    """True when w*e and theta*e lie in lat for every basis element e."""
    w = ctx.base.omega
    th = ctx.gen()
    for v in lat.vectors():
        e = lelem(ctx, v)
        if not (member(lat, (w * e).coords()) and member(lat, (th * e).coords())):
            return False
    return True


def is_principal(base, ideal):
    """Generator of the ideal, or None.  Searches |y| <= sqrt(N/|d|) after
    scaling to an integral ideal; norms are positive definite so the box is
    exhaustive."""
    scale = ideal.den_scalar()
    integral = FracIdealR(base, QLattice(1, ideal.lat.rows))  # scale * ideal
    N = integral.norm_index()
    invariant(N.denominator == 1, "the norm of an integral ideal is an integer")
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


def ideal_mul(I1, I2):
    return FracIdealR.from_elems(I1.base, [a * b for a in I1.elems() for b in I2.elems()], check=False)


def ideal_conj(ideal):
    return FracIdealR.from_elems(ideal.base, [e.conj() for e in ideal.elems()], check=False)


def norm_form(u, v, n):
    """The coefficients of N(x*u + y*v)/n for ExtElems u and v."""
    fa, fc = u.norm() / n, v.norm() / n
    return (fa, (u + v).norm() / n - fa - fc, fc)


def intersect_base(J: LLattice) -> FracIdealR:
    """J cap K: kernel of the projection onto the (theta, w*theta) part."""
    rows, den = J.lat.rows, J.lat.den
    kernel = left_kernel_int([r[2:] for r in rows])
    vecs = [[sum(k * r[j] for k, r in zip(comb, rows)) for j in range(4)] for comb in kernel]
    invariant(all(v[2] == v[3] == 0 for v in vecs), "a kernel vector has a theta-part")
    return FracIdealR.from_vectors(J.ctx.base, [(Fraction(v[1], den), Fraction(v[0], den)) for v in vecs])


def default_x0(J: LLattice) -> ExtElem:
    """theta / D where D clears the denominators of the theta-projection."""
    proj = QLattice.from_vectors([(r[2], r[3]) for r in J.lat.vectors()])
    D = proj.den
    return lelem(J.ctx, (0, 0, Fraction(1, D), 0))
