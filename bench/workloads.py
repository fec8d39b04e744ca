"""The four workloads of the matsim benchmark.

A workload turns a seed into a list of inputs before timing starts, runs one
chain of public library calls per input (one "op"), and checks every answer
with arithmetic of its own.  The checks raise ``CheckFailed`` instead of
using ``assert``, so they still hold under ``python -O``, where the
library's own asserts are gone.

Inputs cycle through fixed slots.  Every seed therefore exercises the same
mix of rings, branches and sizes, and the seed only draws the values; this
keeps the op mix, and with it every end-to-end figure, steady from seed to
seed.  Where the cost of an op hinges on a hidden property of the input (the
valuation of a corner entry, the level of a root, the size of an ideal),
the slot fixes that property and the seed draws the rest.  The slots are
weighted so that the median and the 90th percentile of op latency fall
inside a group of slots of like cost, not on the edge between two groups,
where a one-op shift in the mix would move them.

Each workload has ``SLOTS``, the cycle of input kinds; ``trace_ops``, the
number of ops in the traced pass and under the answer digest; and
``pool_cycles_per_s``, an upper estimate of slot cycles per second that
sizes the input pool.  Library functions are always called through their
module (``C.witness``, not a local name), so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from fractions import Fraction
from typing import NamedTuple

from matsim import lattices as L
from matsim import lm, oracle
from matsim.classify import LowerBound, Mat2
from matsim.fppoly import FpPoly, FpRat
from matsim.polys import MonicPoly, quad_factor
from matsim.rings import ExtElem, FpTLoc, QuadExt, ZLoc

# the package re-exports the function ``classify`` under the submodule's name
C = importlib.import_module("matsim.classify")

ORACLE_BUDGET = 10**6


class CheckFailed(Exception):
    """An answer failed one of the benchmark's own checks."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# exact 2x2 arithmetic of the benchmark's own, on tuples of ring elements


def mat_mul(X, Y):
    return tuple(
        tuple(X[i][0] * Y[0][j] + X[i][1] * Y[1][j] for j in range(2)) for i in range(2)
    )


def det2(X):
    return X[0][0] * X[1][1] - X[0][1] * X[1][0]


def rows(M):
    return tuple(tuple(row) for row in M.rows)


def encode_mat(ring, M):
    return [[ring.encode(x) for x in row] for row in M]


# ---------------------------------------------------------------------------
# random ring elements


def _unit_dens(p):
    return [d for d in (1, 3, 5, 7) if d % p]


def rand_poly(rng, p, deg, low=0, unit_const=False):
    """Polynomial t^low * g with deg g = deg - low exactly; g(0) != 0 when asked."""
    body = [rng.randrange(p) for _ in range(deg - low)] + [rng.randrange(1, p)]
    if unit_const:
        body[0] = rng.randrange(1, p)
    return FpPoly(p, [0] * low + body)


def rand_elem(ring, rng, size, depth=None):
    """Integral element; with ``depth`` it has exactly that valuation.

    ``size`` bounds the numerators over ZLoc (an int bound), or gives the
    exact numerator degree over FpTLoc.
    """
    if isinstance(ring, ZLoc):
        p = ring.p
        den = rng.choice(_unit_dens(p))
        if size > 2**64:
            num = rng.getrandbits(size.bit_length() - 1) | (1 << (size.bit_length() - 2))
        else:
            num = rng.randint(-size, size)
        if depth is not None:
            while num % p == 0:
                num += 1
            num *= p**depth
        return Fraction(num, den)
    if isinstance(ring, FpTLoc):
        p = ring.p
        num = rand_poly(rng, p, size, depth or 0, unit_const=depth is not None)
        den = rand_poly(rng, p, 2, unit_const=True)
        return FpRat(num, den)
    x = rand_elem(ring.base, rng, size, 0 if depth is not None else None)
    y = rand_elem(ring.base, rng, size)
    out = ExtElem(ring, x, y)
    if depth:
        pi = ring.uniformizer()
        for _ in range(depth):
            out = out * pi
    return out


def small_elem(ring, rng):
    if isinstance(ring, FpTLoc):
        return rand_elem(ring, rng, 3)
    return rand_elem(ring, rng, 30)


def rand_unit(ring, rng):
    while True:
        x = small_elem(ring, rng)
        if ring.val(x) == 0:
            return x


def rand_gl2(ring, rng):
    """A product of a lower shear, an upper shear and a unit diagonal."""
    one, zero = ring.one, ring.zero
    lower = Mat2(ring, [[one, zero], [small_elem(ring, rng), one]])
    upper = Mat2(ring, [[one, small_elem(ring, rng)], [zero, one]])
    diag = Mat2(ring, [[rand_unit(ring, rng), zero], [zero, one]])
    return (lower @ upper) @ diag


def conjugate(ring, rng, A, depth=None):
    """V*A*V^-1 for a random V; with ``depth``, V is redrawn until the
    corner of the result has that valuation."""
    while True:
        V = rand_gl2(ring, rng)
        B = (V @ A) @ V.inv()
        if depth is None or ring.val(B[0][1]) == depth:
            return B


def dvr_rings():
    z2 = ZLoc(2)
    return {
        "ZLoc2": z2,
        "ZLoc3": ZLoc(3),
        "FpT2": FpTLoc(2),
        "FpT3": FpTLoc(3),
        "Unram": QuadExt(z2, 1, 1, "unramified"),
        "Eisen": QuadExt(z2, 0, 2, "eisenstein"),
    }


def witness_matrix(ring, rng, size, depth):
    """A random matrix with v(A[0][1]) = depth; in characteristic 2 the
    trace also gets valuation ``depth``, so v(a) stays small."""
    A = [[rand_elem(ring, rng, size) for _ in range(2)] for _ in range(2)]
    A[0][1] = rand_elem(ring, rng, size, depth)
    if ring.char == 2:
        A[1][1] = A[0][0] + rand_elem(ring, rng, size, depth)
    return Mat2(ring, A)


# ---------------------------------------------------------------------------
# one op's input; ``slot`` names its slot in the cycle


class Pair(NamedTuple):
    slot: str
    ring: object
    A: Mat2
    B: Mat2


class ClassCase(NamedTuple):
    slot: str
    kind: str  # "char2sep" or "insep"
    ring: object
    f: MonicPoly
    bound: int | None  # insep_bound
    classes: int  # the number of classes f was built to have


class OracleCase(NamedTuple):
    slot: str
    ring: object
    A: Mat2
    B: Mat2
    N: int
    similar: bool


class LmCase(NamedTuple):
    slot: str
    f: MonicPoly
    A: list
    B: list
    how: str  # "conj": B = V*A*V^-1 over SL2(Z); "div": B from a divisor of f(x)
    tr: int
    det: int


class FreeCase(NamedTuple):
    slot: str
    ctx: object
    gens: list


class Job(NamedTuple):
    slot: str  # the subcommand
    argv: list
    ring_doc: dict | None
    payload: dict


# ---------------------------------------------------------------------------
# classify_witness


class ClassifyWitness:
    """witness(R, A, B) for B = V*A*V^-1 over every DVR instance."""

    name = "classify_witness"
    # ring, entry size (numerator bound, or degree in t), v(A[0][1]) = v(B[0][1]);
    # a corner of positive valuation costs the chain a reflection.  Seven cheap
    # ZLoc ops put the median on the two extension ops with a unit corner; the
    # FpTLoc(3) degree-32 ops are the tail (with v = 1 they would cost 2-3x
    # more and split it in two).
    SLOTS = (
        ("ZLoc2", 30, 0),
        ("ZLoc3", 30, 0),
        ("ZLoc2", 30, 1),
        ("ZLoc3", 30, 1),
        ("ZLoc2", 2**800, 0),
        ("ZLoc2", 2**800, 1),
        ("ZLoc3", 30, 2),
        ("Unram", 30, 0),
        ("Eisen", 30, 0),
        ("Unram", 30, 1),
        ("Eisen", 30, 1),
        ("FpT2", 8, 0),
        ("FpT2", 8, 1),
        ("FpT3", 8, 0),
        ("FpT3", 32, 0),
        ("FpT3", 32, 0),
    )
    trace_ops = 16
    pool_cycles_per_s = 2

    def rings(self):
        return dvr_rings()

    def inputs(self, seed, count):
        rng = random.Random(seed)
        rings = self.rings()
        out = []
        for i in range(count):
            key, size, depth = self.SLOTS[i % len(self.SLOTS)]
            ring = rings[key]
            label = f"{key}_{'big' if size > 10**6 else size}_v{depth}"
            A = witness_matrix(ring, rng, size, depth)
            out.append(Pair(label, ring, A, conjugate(ring, rng, A, depth)))
        return out

    def run(self, x):
        return C.witness(x.ring, x.A, x.B)

    def check(self, x, w):
        ring, A, B = x.ring, x.A, x.B
        require(w is not None, "similar matrices got no witness")
        U = rows(w.U)
        require(mat_mul(U, rows(A)) == mat_mul(rows(B), U), "U*A != B*U")
        require(ring.val(det2(U)) == 0, "det U is not a unit")
        form = C.classify(ring, A)
        require(form == C.classify(ring, B), "classify(A) != classify(B)")
        return json.dumps([form.label(), encode_mat(ring, U)])


# ---------------------------------------------------------------------------
# class_search


class ClassSearch:
    """Class lists and numbers found by residue search, and the mod-pi^N oracle."""

    name = "class_search"
    # ("char2sep", v(a), level m of the least realizing root; m == v(a) is a deep root)
    # ("insep", insep_bound, odd s with b = u0^2 + t^s * unit)
    # ("oracle", ring, N, similar pair?)
    # On the 2-core sandbox: the non-similar oracle pairs and the (2, 0) and
    # (5, 5) searches take 2-7 ms, (3, 1) ~20 ms; the three insep bound-7
    # lists (~40 ms) hold the median; the similar oracle pairs take 45-70 ms;
    # (4, 1), (4, 2) and insep bound 8 (~90 ms) hold the 90th percentile.
    SLOTS = (
        ("oracle", "ZLoc2", 4, False),
        ("char2sep", 2, 0),
        ("insep", 7, 3),
        ("oracle", "ZLoc3", 3, True),
        ("char2sep", 4, 1),
        ("oracle", "ZLoc3", 3, False),
        ("char2sep", 3, 1),
        ("insep", 7, 1),
        ("insep", 8, 5),
        ("char2sep", 5, 5),
        ("oracle", "FpT2", 3, True),
        ("insep", 7, 5),
        ("char2sep", 4, 2),
    )
    trace_ops = 13
    pool_cycles_per_s = 1.2

    def rings(self):
        return {"FpT2": FpTLoc(2), "ZLoc3": ZLoc(3), "ZLoc2": ZLoc(2)}

    def inputs(self, seed, count):
        rng = random.Random(seed)
        rings = self.rings()
        out = []
        for i in range(count):
            spec = self.SLOTS[i % len(self.SLOTS)]
            label = "_".join(str(s) for s in spec)
            if spec[0] == "char2sep":
                out.append(self._char2sep(label, rings["FpT2"], rng, *spec[1:]))
            elif spec[0] == "insep":
                out.append(self._insep(label, rings["FpT2"], rng, *spec[1:]))
            else:
                out.append(self._oracle_pair(label, rings[spec[1]], rng, *spec[2:]))
        return out

    @staticmethod
    def _char2sep(label, ring, rng, k, m):
        """f = x^2 - a*x - b over GF(2)(t) with v(a) = k and exactly m + 1 classes.

        b = r0*(r0 + a) + t^(2m)*c.  With c = 1 + t + ..., no r reaches
        v(b - r(r+a)) >= 2m + 2, because squares have even support; for
        m = k any c keeps the root at the top level.
        """
        p = 2
        a = FpRat(FpPoly(p, [0] * k + [1] + [rng.randrange(p) for _ in range(3)]))
        while True:
            r0 = FpRat(FpPoly(p, [rng.randrange(p) for _ in range(2 * k + 2)]))
            if m == k:
                c = FpRat(FpPoly(p, [rng.randrange(p) for _ in range(4)]))
            else:
                c = FpRat(FpPoly(p, [1, 1] + [rng.randrange(p) for _ in range(3)]))
            b = r0 * (r0 + a) + FpRat(FpPoly.t_power(p, 2 * m)) * c
            f = MonicPoly.quadratic(ring, a, b)
            if not quad_factor(f, ring).reducible:
                return ClassCase(label, "char2sep", ring, f, None, m + 1)

    @staticmethod
    def _insep(label, ring, rng, bound, s):
        """f = x^2 - b with b = u0^2 + t^s*c, s odd, c(0) = 1: levels i <= s/2 exist."""
        p = 2
        u0 = FpPoly(p, [rng.randrange(p) for _ in range(5)])
        c = FpPoly(p, [1] + [rng.randrange(p) for _ in range(3)])
        b = FpRat(u0 * u0 + FpPoly.t_power(p, s) * c)
        return ClassCase(label, "insep", ring, MonicPoly.quadratic(ring, 0, b), bound, min(s // 2, bound) + 1)

    @staticmethod
    def _oracle_pair(label, ring, rng, N, similar):
        """A with a unit corner (cyclic mod pi) and B = V*A'*V^-1.

        For a non-similar pair A' = A + pi^(N-1) * E21 changes det A at
        valuation N - 1, so no unit-determinant solution exists mod pi^N.
        """
        if isinstance(ring, FpTLoc):
            entry = lambda depth=None: FpRat(rand_poly(rng, ring.p, 3, depth or 0, depth is not None))
        else:
            entry = lambda depth=None: rand_elem(ring, rng, 40, depth)
        A = Mat2(ring, [[entry(), entry(0)], [entry(), entry()]])
        A2 = A
        if not similar:
            pi = C.pi_pow(ring, N - 1)
            A2 = Mat2(ring, [[A[0][0], A[0][1]], [A[1][0] + pi, A[1][1]]])
        return OracleCase(label, ring, A, conjugate(ring, rng, A2), N, similar)

    def run(self, x):
        if isinstance(x, OracleCase):
            return oracle.conj_search_mod(x.ring, x.A, x.B, x.N, budget=ORACLE_BUDGET)
        if x.kind == "char2sep":
            return C.class_number(x.ring, x.f), C.class_list(x.ring, x.f)
        return C.class_number(x.ring, x.f, x.bound), C.class_list(x.ring, x.f, x.bound)

    def check(self, x, ans):
        if isinstance(x, OracleCase):
            return self._check_oracle(x, ans)
        ring = x.ring
        n, forms = ans
        if x.kind == "insep":
            require(isinstance(n, LowerBound), "inseparable class number is a lower bound")
            n = n.count
        require(len(forms) == n, "len(class_list) != class_number")
        require(n == x.classes, f"{n} classes, constructed {x.classes}")
        for form in forms:
            require(C.classify(ring, C.canonical_matrix(form)) == form, "canonical matrix misclassified")
        return json.dumps([n, [form.label() for form in forms]])

    @staticmethod
    def _check_oracle(x, found):
        ring, A, B, N = x.ring, x.A, x.B, x.N
        require((found is not None) == x.similar, "oracle answer contradicts the construction")
        if C.similar(ring, A, B):
            require(found is not None, "similar matrices have no witness mod pi^N")
        if found is None:
            return "none"
        require(found.check_mod(ring, A, B), "ResidueWitness.check_mod failed")
        U = rows(found.U)
        UA, BU = mat_mul(U, rows(A)), mat_mul(rows(B), U)
        require(
            all(ring.val(UA[i][j] - BU[i][j]) >= N for i in range(2) for j in range(2)),
            "U*A != B*U mod pi^N",
        )
        require(ring.val(det2(U)) == 0, "det U is not a unit")
        return json.dumps(encode_mat(ring, U))


# ---------------------------------------------------------------------------
# ideal_lattice


def _divisors_between(m, lo, hi):
    out = []
    k = 1
    while k * k <= m:
        if m % k == 0:
            out += [q for q in (k, m // k) if lo <= q <= hi]
        k += 1
    return sorted(set(out))


LATTICE_POLYS = ("x^2 - 2", "x^2 - 3", "x^2 - x + 7", "x^2 - 7")


class IdealLattice:
    """Latimer-MacDuffee round trips over Z and freeness of rank-4 lattices."""

    name = "ideal_lattice"
    # ("lm", entry bound, how the second matrix is made) or
    # ("free", "generic", generator bound) / ("free", "ideal", log10 of N(I))
    # seven ~2.6 ms round trips hold the median; the two N(I) ~ 1e4 lattices
    # hold the 90th percentile
    SLOTS = (
        ("lm", 10, "conj"),
        ("free", "generic", 30),
        ("lm", 10**3, "div"),
        ("lm", 10**6, "conj"),
        ("free", "ideal", 2),
        ("lm", 10, "div"),
        ("free", "ideal", 4),
        ("lm", 10**3, "conj"),
        ("free", "ideal", 3),
        ("lm", 10**6, "div"),
        ("lm", 10**3, "conj"),
        ("free", "ideal", 4),
    )
    trace_ops = 24
    pool_cycles_per_s = 3

    def rings(self):
        return {"ZZ": lm.ZZ, **{f"Q({d})": L.QuadBase(d) for d in (-1, -2, -5, -6)}}

    def inputs(self, seed, count):
        rng = random.Random(seed)
        bases = [L.QuadBase(d) for d in (-1, -2, -5, -6)]
        out = []
        for i in range(count):
            spec = self.SLOTS[i % len(self.SLOTS)]
            label = "_".join(str(s) for s in spec)
            if spec[0] == "lm":
                out.append(LmCase(label, *self._lm_pair(rng, spec[1], spec[2])))
            else:
                base = bases[(i // len(self.SLOTS) + i) % len(bases)]
                ctx = L.RelExt.from_poly_string(base, rng.choice(LATTICE_POLYS))
                out.append(FreeCase(label, ctx, self._generators(rng, ctx, spec[1], spec[2])))
        return out

    @staticmethod
    def _lm_pair(rng, S, how):
        """Integer A with tr^2 - 4 det < 0, and B with the same char poly."""
        while True:
            a, d = rng.randint(-S, S), rng.randint(-S, S)
            b, c = rng.randint(1, S), -rng.randint(1, S)
            if (a - d) ** 2 + 4 * b * c < 0:
                break
        tr, det = a + d, a * d - b * c
        A = [[a, b], [c, d]]
        if how == "conj":
            # V in SL2(Z): B = V*A*V^-1 is in the same ideal class
            s, u = rng.randint(-3, 3), rng.randint(-3, 3)
            V = [[1 + s * u, s], [u, 1]]
            Vi = [[1, -s], [-u, 1 + s * u]]
            B = [[sum(V[i][k] * A[k][l] * Vi[l][j] for k in range(2) for l in range(2))
                  for j in range(2)] for i in range(2)]
        else:
            x = rng.randint(-S, S)
            fx = x * x - tr * x + det
            y = rng.choice([k for k in range(1, 200) if fx % k == 0]) * rng.choice((1, -1))
            B = [[x, y], [-fx // y, tr - x]]
        f = MonicPoly.quadratic(lm.ZZ, tr, -det)
        return (f, A, B, how, tr, det)

    @staticmethod
    def _generators(rng, ctx, kind, size):
        if kind == "generic":
            return [
                L.lelem(ctx, [Fraction(rng.randint(-size, size), rng.choice((1, 2, 3))) for _ in range(4)])
                for _ in range(2)
            ]
        # J = I*R[theta] for the ideal I = (n, r + w) of norm n ~ 10^size, so
        # the Steinitz ideal I^2 has norm ~ 10^(2*size)
        d = ctx.base.d
        while True:
            r = rng.randint(10**size, 3 * 10**size)
            ns = _divisors_between(r * r - d, 10**size, 4 * 10**size)
            if ns:
                n = rng.choice(ns)
                return [L.lelem(ctx, (n, 0, 0, 0)), L.lelem(ctx, (r % n, 1, 0, 0))]

    def run(self, x):
        if isinstance(x, LmCase):
            JA = lm.matrix_to_ideal(x.f, x.A, lm.ZZ)
            F = lm.reduce_form(lm.ideal_to_form(JA))
            M = lm.ideal_to_matrix(x.f, JA)
            eq = lm.equivalent(JA, lm.matrix_to_ideal(x.f, x.B, lm.ZZ))
            return JA, F, M, eq
        J = L.lattice_from_generators(x.ctx, x.gens)
        return J, L.is_free(J)

    def check(self, x, ans):
        if isinstance(x, LmCase):
            tr, det = x.tr, x.det
            JA, F, M, eq = ans
            a, b, c = F.a, F.b, F.c
            require(abs(b) <= a <= c, "form is not reduced")
            require(b >= 0 or (abs(b) != a and a != c), "form is not reduced on a boundary")
            require(b * b - 4 * a * c == tr * tr - 4 * det, "form discriminant != tr^2 - 4 det")
            require(all(v.denominator == 1 for row in M for v in row), "matrix is not integral")
            require(M[0][0] + M[1][1] == tr and det2(M) == det, "char poly of ideal_to_matrix != f")
            if x.how == "conj":
                require(eq, "SL2(Z)-conjugate matrices gave inequivalent ideals")
            return json.dumps([JA.encode(), [a, b, c], [[str(v) for v in row] for row in M], eq])
        J, basis = ans
        if basis is None:
            return "not free"
        require(len(basis) == 2, "a free basis has two elements")
        require(L.lattice_from_generators(x.ctx, list(basis)) == J, "free basis does not regenerate J")
        return json.dumps([b.encode() for b in basis])


# ---------------------------------------------------------------------------
# cli_jobs


def _unram_json():
    return {"kind": "QuadExt", "base": {"kind": "ZLoc", "p": 2}, "minpoly": "x^2 - x - 1",
            "ramification": "unramified"}


def _eisen_json():
    return {"kind": "QuadExt", "base": {"kind": "ZLoc", "p": 2}, "minpoly": "x^2 - 2",
            "ramification": "eisenstein"}


class CliJobs:
    """One in-process ``matsim.cli.main(argv)`` per op, cycling over all subcommands."""

    name = "cli_jobs"
    # (subcommand, v of the corner / depth of the payload).  Six jobs under
    # 3 ms, then four witness jobs (~12 ms) that hold the median; classify
    # and similar (~30 ms) hold the 90th percentile.
    SLOTS = (
        ("lm-to-matrix", 0),
        ("witness", 0),
        ("class-number", 0),
        ("classify", 0),
        ("lm-to-ideal", 0),
        ("witness", 1),
        ("cross-check", 0),
        ("class-list", 0),
        ("lattice-free", 1),
        ("class-number", 1),
        ("witness", 0),
        ("similar", 0),
        ("cross-check", 1),
        ("class-list", 1),
        ("witness", 1),
        ("lattice-free", 0),
        ("classify", 0),
    )
    trace_ops = 17
    pool_cycles_per_s = 3

    def rings(self):
        from matsim import cli  # noqa: F401  (set-up time includes the CLI import)
        from matsim.rings import ring_from_json

        return {
            "FpT2": FpTLoc(2),
            "FpT3": FpTLoc(3),
            "ZLoc2": ZLoc(2),
            "Unram": ring_from_json(_unram_json()),
            "Eisen": ring_from_json(_eisen_json()),
        }

    def inputs(self, seed, count):
        rng = random.Random(seed)
        rings = self.rings()
        make = {
            "classify": self._classify,
            "similar": self._similar,
            "witness": self._witness,
            "class-list": self._class_list,
            "class-number": self._class_number,
            "lm-to-ideal": self._lm_to_ideal,
            "lm-to-matrix": self._lm_to_matrix,
            "lattice-free": self._lattice_free,
            "cross-check": self._cross_check,
        }
        out = []
        for i in range(count):
            cmd, depth = self.SLOTS[i % len(self.SLOTS)]
            ring_doc, payload = make[cmd](rng, rings, depth)
            argv = [cmd, "--in", json.dumps(payload)]
            if ring_doc is not None:
                argv += ["--ring", json.dumps(ring_doc)]
            if cmd == "cross-check":
                argv += ["--oracle-budget", str(ORACLE_BUDGET)]
            out.append(Job(cmd, argv, ring_doc, payload))
        return out

    # payload builders: (ring descriptor, payload)

    @staticmethod
    def _classify(rng, rings, depth):
        R = rings["FpT2"]
        A = witness_matrix(R, rng, 32, depth)
        return R.to_json(), {"matrix": A.encode()}

    @staticmethod
    def _similar(rng, rings, depth):
        R = rings["FpT3"]
        A = witness_matrix(R, rng, 8, depth)
        return R.to_json(), {"A": A.encode(), "B": conjugate(R, rng, A, depth).encode()}

    @staticmethod
    def _witness(rng, rings, depth):
        R = rings["Unram"]
        A = witness_matrix(R, rng, 10**6, depth)
        return _unram_json(), {"A": A.encode(), "B": conjugate(R, rng, A, depth).encode()}

    @staticmethod
    def _class_list(rng, rings, depth):
        R = rings["FpT2"]
        while True:
            a = FpRat(rand_poly(rng, 2, 32, 1 + depth, unit_const=True))
            b = FpRat(rand_poly(rng, 2, 32))
            f = MonicPoly.quadratic(R, a, b)
            if not quad_factor(f, R).reducible:
                return R.to_json(), {"f": f.encode()}

    @staticmethod
    def _class_number(rng, rings, depth):
        R = rings["Eisen"]
        while True:
            f = MonicPoly.quadratic(R, rand_elem(R, rng, 10**6, depth), rand_elem(R, rng, 10**6))
            if not quad_factor(f, R).reducible:
                return _eisen_json(), {"f": f.encode()}

    @staticmethod
    def _lm_to_ideal(rng, rings, depth):
        f, A = IdealLattice._lm_pair(rng, 10**6, "conj")[:2]
        return {"kind": "ZZ"}, {"f": f.encode(), "matrix": [[str(v) for v in row] for row in A]}

    @staticmethod
    def _lm_to_matrix(rng, rings, depth):
        f, A = IdealLattice._lm_pair(rng, 10**6, "conj")[:2]
        J = lm.matrix_to_ideal(f, A, lm.ZZ)
        return {"kind": "ZZ"}, {"f": f.encode(), "basis": J.encode()}

    @staticmethod
    def _lattice_free(rng, rings, depth):
        d = rng.choice((-1, -2, -5, -6))
        fs = rng.choice(LATTICE_POLYS)
        ctx = L.RelExt.from_poly_string(L.QuadBase(d), fs)
        gens = IdealLattice._generators(rng, ctx, "ideal" if depth else "generic", 3 if depth else 30)
        return None, {"d": d, "f": fs, "generators": [g.encode() for g in gens]}

    @staticmethod
    def _cross_check(rng, rings, depth):
        R = rings["ZLoc2"]
        case = ClassSearch._oracle_pair("cross-check", R, rng, 3, not depth)
        return R.to_json(), {"A": case.A.encode(), "B": case.B.encode(), "N": case.N}

    def run(self, x):
        from matsim import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(x.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, x, ans):
        code, stdout, stderr = ans
        require(code == 0, f"exit code {code}: {stderr.strip()}")
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not JSON: {exc}") from exc
        require(doc == self.expected(x.slot, x.ring_doc, x.payload), "CLI output differs from the library result")
        return stdout

    @staticmethod
    def expected(cmd, ring_doc, payload):
        """The library's answer to one CLI job, built from public calls."""
        from matsim.polys import parse_monic
        from matsim.rings import ring_from_json

        if cmd in ("lm-to-ideal", "lm-to-matrix"):
            ring = lm.ZZ
        elif ring_doc is not None:
            ring = ring_from_json(ring_doc)

        def matrix(key):
            return Mat2(ring, [[ring.parse(v) for v in row] for row in payload[key]])

        if cmd == "classify":
            A = matrix("matrix")
            form, U = C.to_canonical(ring, A)
            Cm = C.canonical_matrix(form)
            U_rows = rows(U)
            verified = mat_mul(U_rows, rows(A)) == mat_mul(rows(Cm), U_rows)
            verified = verified and ring.val(det2(U_rows)) == 0
            return {"form": form.label(), "canonical_matrix": Cm.encode(), "witness": U.encode(),
                    "verified": verified}
        if cmd == "similar":
            A, B = matrix("A"), matrix("B")
            forms = [C.classify(ring, A).label(), C.classify(ring, B).label()]
            return {"similar": A.char_poly() == B.char_poly() and forms[0] == forms[1], "forms": forms}
        if cmd == "witness":
            A, B = matrix("A"), matrix("B")
            w = C.witness(ring, A, B)
            if w is None:
                return {"similar": False, "witness": None, "verified": None}
            U = rows(w.U)
            verified = mat_mul(U, rows(A)) == mat_mul(rows(B), U) and ring.val(det2(U)) == 0
            return {"similar": True, "witness": w.U.encode(), "verified": verified}
        if cmd == "class-list":
            f = parse_monic(payload["f"], ring)
            forms = C.class_list(ring, f)
            reps = C.ideal_reps(ring, f)
            enc = ring.encode
            classes = [
                {"form": fo.label(), "matrix": C.canonical_matrix(fo).encode(),
                 "ideal": [[enc(g1), enc(z)], [enc(c), enc(o)]]}
                for fo, ((g1, z), (c, o)) in zip(forms, reps)
            ]
            return {"classes": classes, "count": len(classes)}
        if cmd == "class-number":
            n = C.class_number(ring, parse_monic(payload["f"], ring))
            if isinstance(n, LowerBound):
                return {"class_number_lower_bound": n.count}
            return {"class_number": n}
        if cmd == "lm-to-ideal":
            f = parse_monic(payload["f"], ring)
            J = lm.matrix_to_ideal(f, [[ring.parse(v) for v in row] for row in payload["matrix"]], ring)
            F = lm.reduce_form(lm.ideal_to_form(J))
            return {"basis": J.encode(), "verified": True, "reduced_form": [F.a, F.b, F.c]}
        if cmd == "lm-to-matrix":
            f = parse_monic(payload["f"], ring)
            basis = tuple(tuple(ring.parse(c) for c in u) for u in payload["basis"])
            M = lm.ideal_to_matrix(f, lm.IdealBasis(f, ring, basis))
            return {"matrix": [[ring.encode(v) for v in row] for row in M]}
        if cmd == "lattice-free":
            base = L.QuadBase(payload["d"])
            ctx = L.RelExt.from_poly_string(base, payload["f"])
            J = L.lattice_from_generators(
                ctx, [L.lelem(ctx, [Fraction(c) for c in g]) for g in payload["generators"]])
            x0 = L.default_x0(J)
            frak_a, frak_b = L.coefficient_ideal(J, x0), L.intersect_base(J)
            st = L.ideal_mul(frak_a, frak_b)
            gen = L.is_principal(base, st)
            basis = L.is_free(J, x0)
            doc = {
                "x0": [str(c) for c in x0.coords()],
                "intersect_base": frak_b.encode(),
                "coefficient_ideal": frak_a.encode(),
                "steinitz": st.encode(),
                "steinitz_generator": None if gen is None else gen.encode(),
                "free": basis is not None,
            }
            if basis is not None:
                doc["free_basis"] = [b.encode() for b in basis]
                doc["mult_matrix"] = [[e.encode() for e in row] for row in L.mult_matrix(J, basis)]
            return doc
        if cmd == "cross-check":
            A, B = matrix("A"), matrix("B")
            N = payload["N"]
            found = oracle.conj_search_mod(ring, A, B, N, ORACLE_BUDGET)
            return {"N": N, "witness_mod": None if found is None else found.U.encode(),
                    "similar_mod": found is not None}
        raise ValueError(f"unknown subcommand {cmd!r}")


WORKLOADS = {w.name: w for w in (ClassifyWitness(), ClassSearch(), IdealLattice(), CliJobs())}
