"""The box scan that decided principality before the Gauss reduction of the
norm form replaced it, kept as a test oracle for ``test_lattices.py``.

The body is the old ``lattices.is_principal``: after scaling to an integral
ideal of norm N it tries y = 0, 1, 2, ... while |d|*y^2 <= N, takes
x = isqrt(N - |d|*y^2) when that is exact, and compares the HNF of
(x + y*w)R, then of (x - y*w)R, with the ideal.  Its first hit is the one
with x >= 0, then the least |y|, then y > 0.  It costs sqrt(N/|d|) steps.
"""

from fractions import Fraction
from math import isqrt

from matsim.errors import invariant
from matsim.lattices import FracIdealR


def is_principal(base, ideal):
    """Generator of the ideal, or None.  Searches |y| <= sqrt(N/|d|) after
    scaling to an integral ideal; norms are positive definite so the box is
    exhaustive."""
    scale = ideal.den_scalar()
    integral = ideal.scaled(Fraction(scale))
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
