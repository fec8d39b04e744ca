"""Shared instances and seeded random generators for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from matsim.fppoly import FpPoly, FpRat
from matsim.classify import Mat2
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc

SEED = 20240817


def all_instances():
    """The concrete rings covering every branch of the classification:
    v(2) = 0 (p odd), v(2) = 1 (p = 2 and the unramified extension),
    v(2) = 2 (Eisenstein over ZLoc(2)), v(2) = infinity (char 2)."""
    return [
        ZLoc(2),
        ZLoc(3),
        FpTLoc(2),
        FpTLoc(3),
        QuadExt(ZLoc(2), 1, 1, "unramified"),
        QuadExt(ZLoc(2), 0, 2, "eisenstein"),
    ]


def instance_ids():
    return ["ZLoc2", "ZLoc3", "FpT2", "FpT3", "Unram", "Eisen"]


def rand_integral(ring, rng, size=30):
    """Random element of R with small valuation."""
    if isinstance(ring, ZLoc):
        dens = [d for d in (1, 3, 5, 7) if d % ring.p]
        return Fraction(rng.randint(-size, size), rng.choice(dens))
    if isinstance(ring, FpTLoc):
        num = FpPoly(ring.p, [rng.randrange(ring.p) for _ in range(4)])
        den = FpPoly(ring.p, [rng.choice(range(1, ring.p))] + [rng.randrange(ring.p) for _ in range(2)])
        return FpRat(num, den)
    return ExtElem(ring, rand_integral(ring.base, rng, size), rand_integral(ring.base, rng, size))


def rand_field_elem(ring, rng):
    """Random element of K (may be non-integral)."""
    x = rand_integral(ring, rng)
    if rng.random() < 0.4:
        pi = ring.uniformizer()
        for _ in range(rng.randint(1, 3)):
            x = x / pi
    return x


def rand_nonzero(ring, rng):
    for _ in range(100):
        x = rand_field_elem(ring, rng)
        if x:
            return x
    raise AssertionError("random source kept producing zero")


def rand_mat(ring, rng):
    return Mat2(ring, [[rand_integral(ring, rng) for _ in range(2)] for _ in range(2)])


def rand_gl2(ring, rng):
    """Random element of GL2(R) as a product of shears and a unit diagonal."""
    x, y = rand_integral(ring, rng), rand_integral(ring, rng)
    lower = Mat2(ring, [[ring.one, ring.zero], [x, ring.one]])
    upper = Mat2(ring, [[ring.one, y], [ring.zero, ring.one]])
    u = _rand_unit(ring, rng)
    diag = Mat2(ring, [[u, ring.zero], [ring.zero, ring.one]])
    V = (lower @ upper) @ diag
    assert ring.val(V.det()) == 0
    return V


def _rand_unit(ring, rng):
    for _ in range(100):
        x = rand_integral(ring, rng)
        if ring.val(x) == 0:
            return x
    raise AssertionError("no unit found")


@pytest.fixture
def rng():
    return random.Random(SEED)


def arith(ring, op, x, y=None):
    """Field arithmetic dispatch: add, sub, mul, div, neg, inv."""
    x = ring.coerce(x)
    if op == "neg":
        return -x
    if op == "inv":
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return ring.one / x
    y = ring.coerce(y)
    if op == "add":
        return x + y
    if op == "sub":
        return x - y
    if op == "mul":
        return x * y
    if op == "div":
        if not y:
            raise ZeroDivisionError("division by zero")
        return x / y
    raise ValueError(f"unknown op {op!r}")


def qmat_mul(base, X, Y):
    """2x2 product over Q(sqrt d) for witness checks at the Dedekind level."""
    return [
        [
            X[0][0] * Y[0][0] + X[0][1] * Y[1][0],
            X[0][0] * Y[0][1] + X[0][1] * Y[1][1],
        ],
        [
            X[1][0] * Y[0][0] + X[1][1] * Y[1][0],
            X[1][0] * Y[0][1] + X[1][1] * Y[1][1],
        ],
    ]


def qmat_det(X):
    return X[0][0] * X[1][1] - X[0][1] * X[1][0]


def run_optimized(source):
    """Run Python source under ``python -O`` (asserts stripped) with src/ importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", source],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
