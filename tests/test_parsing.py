"""The shared term reader against the parsers it replaced.

Every string an old parser accepted must parse to the same element; a
string it rejected may be read or rejected.  Inputs are ``encode()`` of
random elements, as they are and in variants: extra spaces, ``*`` left out,
redundant parentheses, a leading ``+`` and ``^1``.
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_parsers as old
from matsim.fppoly import FpPoly, FpRat
from matsim.lattices import QuadBase, RelExt
from matsim.lm import ZZ
from matsim.polys import MonicPoly, parse_monic
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc

Z2, Z3, F2, F3 = ZLoc(2), ZLoc(3), FpTLoc(2), FpTLoc(3)
UNRAM = QuadExt(Z2, 1, 1, "unramified")
EISEN = QuadExt(Z2, 0, 2, "eisenstein")
UNRAM_F3 = QuadExt(F3, 0, 2, "unramified")
EISEN_F2 = QuadExt(F2, 0, FpRat.t(2), "eisenstein")
K5 = QuadBase(-5)
RINGS = [Z2, Z3, F2, F3, UNRAM, EISEN, UNRAM_F3, EISEN_F2, K5, ZZ]
IDS = ["Z2", "Z3", "F2", "F3", "Unram", "Eisen", "UnramF3", "EisenF2", "Q(-5)", "ZZ"]
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def rand_elem(ring, rng):
    if isinstance(ring, (ZLoc, type(ZZ))):
        return Fraction(rng.randint(-10**4, 10**4), rng.choice((1, 1, 3, 5, 7, 12)))
    if isinstance(ring, FpTLoc):
        p = ring.p
        num = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 8))])
        den = FpPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, 4))] + [1])
        return FpRat(num, den)
    base = Z2 if isinstance(ring, QuadBase) else ring.base
    x, y = (rand_elem(base, rng) if rng.random() < 0.8 else base.zero for _ in range(2))
    return ExtElem(ring, x, y)


def encode(ring, e):
    return e.encode() if isinstance(ring, QuadBase) else ring.encode(e)


VARIANTS = {
    "plain": lambda s, rng: s,
    "spaces": lambda s, rng: re.sub(r"[-+*^()]", lambda m: " " * rng.randint(0, 2) + m[0] + " " * rng.randint(0, 2), s),
    "no star": lambda s, rng: re.sub(r"\*\s*([twx])", r"\1", s),
    "parens": lambda s, rng: (lambda n: "(" * n + s + ")" * n)(rng.randint(1, 2)),
    "plus": lambda s, rng: s if s[:1] in "-(" else "+" + s,
    "pow1": lambda s, rng: re.sub(r"([twx])(?!\s*\^)", r"\1^1", s),
}


def compare(new, legacy, s, accept=True):
    """new(s) equals legacy(s) wherever both read s; with ``accept`` new must read s."""
    try:
        expected = legacy(s)
    except Exception:
        expected = None
    try:
        got = new(s)
    except ValueError:
        if accept:
            raise
        return None
    if expected is not None:
        assert got == expected, s
    return got


def old_misreads(ring, s):
    """The old QuadExt.parse over GF(p)(t) read "-w" and "+w" as 0: the bare
    sign was parsed as the empty polynomial.  That bug is fixed, not kept."""
    return isinstance(ring, QuadExt) and re.fullmatch(r"[\s(]*[+-]\s*w[\s)]*", s) is not None


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@SETTINGS
@given(seed=st.integers(0, 2**32), variant=st.sampled_from(sorted(VARIANTS)))
def test_elements_match_old_parsers(ring, seed, variant):
    rng = random.Random(seed)
    e = rand_elem(ring, rng)
    s = VARIANTS[variant](encode(ring, e), rng)
    legacy = (lambda s: None) if old_misreads(ring, s) else (lambda s: old.parse(ring, s))
    assert compare(ring.parse, legacy, s) == e


POLY_RINGS = [Z2, Z3, F2, F3, UNRAM, EISEN, UNRAM_F3, ZZ]


@pytest.mark.parametrize("ring", POLY_RINGS, ids=["Z2", "Z3", "F2", "F3", "Unram", "Eisen", "UnramF3", "ZZ"])
@SETTINGS
@given(seed=st.integers(0, 2**32), variant=st.sampled_from(sorted(VARIANTS)))
def test_parse_monic_matches_old(ring, seed, variant):
    # a sum in parentheses must not contain x: "(x - 5)", which the old
    # parse_monic read as x, is rejected
    rng = random.Random(seed)
    coeffs = [rand_elem(ring, rng) if rng.random() < 0.7 else ring.zero for _ in range(rng.randint(1, 3))]
    f = MonicPoly(ring, coeffs + [ring.one])
    s = VARIANTS[variant](f.encode(), rng)
    got = compare(lambda s: parse_monic(s, ring), lambda s: old.parse_monic(s, ring), s, variant != "parens")
    assert got in (f, None)


@pytest.mark.parametrize("d", [-1, -2, -5, -6])
@SETTINGS
@given(seed=st.integers(0, 2**32), variant=st.sampled_from(sorted(VARIANTS)))
def test_rel_quadratic_matches_old(d, seed, variant):
    rng = random.Random(seed)
    base = QuadBase(d)
    a, b = rand_elem(base, rng), rand_elem(base, rng)
    s = VARIANTS[variant](MonicPoly.quadratic(base, a, b).encode(), rng)

    def new(s):
        ctx = RelExt.from_poly_string(base, s)
        return ctx.mp_a, ctx.mp_b

    got = compare(new, lambda s: old._parse_rel_quadratic(base, s), s, variant != "parens")
    assert got in ((a, b), None)


@pytest.mark.parametrize("ring", [UNRAM, EISEN, UNRAM_F3, EISEN_F2], ids=["Unram", "Eisen", "UnramF3", "EisenF2"])
def test_minus_w(ring):
    w = ring.gen()
    assert ring.parse("-w") == -w
    assert ring.parse("-2*w") == ring.parse("0 - w") * 2
    assert ring.parse("1 + -w") == ring.one - w


def test_minus_w_in_cli(capsys):
    from matsim.cli import main

    ring = '{"kind":"QuadExt","base":{"kind":"ZLoc","p":2},"minpoly":"x^2 - x - 1","ramification":"unramified"}'
    assert main(["classify", "--ring", ring, "--in", '{"matrix": [["-w", "1"], ["2", "w"]]}']) == 0


def test_slash_binds_loosest_in_fptloc():
    t = F2.parse("t")
    assert F2.parse("1/t+1") == F2.one / (t + 1)
    t3 = F3.parse("t")
    assert F3.parse("(1+2*t)/(1+t^2)") == (1 + 2 * t3) / (1 + t3 * t3)
    assert UNRAM_F3.parse("1/t+1") == UNRAM_F3.embed(F3.one / (F3.parse("t") + 1))
    assert EISEN_F2.parse("t/(1+t) + w") == ExtElem(EISEN_F2, t / (t + 1), 1)


@pytest.mark.parametrize(
    "ring, s",
    [
        (F2, "t2"),  # old: t^2
        (F2, "t^2*3"),  # old: t^23
        (F2, "t - -1"),  # a sign after '-'
        (UNRAM_F3, "1 - -w"),  # old: 1 - w
        (UNRAM_F3, "1 + 1/t + w"),  # old: 2/t + w
        (Z2, "(1)/(2)"),  # old: 1/2 after deleting every parenthesis
        (Z2, "1 -"),
        (Z2, "(1"),
        (UNRAM, "w^2"),
    ],
)
def test_quirks_are_rejected(ring, s):
    with pytest.raises(ValueError):
        ring.parse(s)


def test_parse_monic_reads_x_last():
    # old parse_monic read "x*t" as x
    with pytest.raises(ValueError):
        parse_monic("x^2 + x*t", F2)
    assert parse_monic("x^2 + t*x", F2) == MonicPoly(F2, [0, F2.parse("t"), 1])


def test_tower_products_in_either_order():
    ctx = RelExt.from_poly_string(K5, "x^2 - 2")
    w, th = K5.omega, ctx.gen()
    assert w * th == th * w == ExtElem(ctx, 0, w)
    assert 3 * w == w * 3 == K5.elem(0, 3)
    assert th * th == 2 and th * th == K5.elem(2)
    assert th + w == w + th and th - w == -(w - th)
    with pytest.raises(TypeError):
        UNRAM.gen() * EISEN.gen()
