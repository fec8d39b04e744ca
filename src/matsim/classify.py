"""Complete GL2(R)-conjugacy classification of 2x2 matrices over a DVR.

Every matrix is driven to the canonical representative of its class by an
explicit chain of GL2(R) conjugations, so similarity always comes with a
verified witness.  The irreducible case goes through the matrix <-> ideal
correspondence: for A = [[alpha, beta], [gamma, delta]] with irreducible
characteristic polynomial x^2 - a*x - b, the column (beta, theta - alpha)
is a theta-eigenvector, giving the ideal R*beta + R*(theta - alpha); it is
normalized to the standard shape R*pi^n + R*(rho + theta) and then reduced
class by class:

* reflect   -- R*pi^n + R(rho+theta) is equivalent to the level
               v(T)-n ideal (T = b - rho(a+rho)), so push n below v(T)/2;
* saturate  -- levels between v(2*rho+a) and v(T)/2 collapse to
               v(2*rho+a);
* re-target -- the residual parameter rho may be replaced by the canonical
               parameter of the class (independence of the choice of r).

Every branch (reducible, inseparable, irreducible) pushes each of its moves,
an explicit GL2(R) basis change, onto one chain; ``to_canonical`` multiplies
the chain into the witness U and checks it once, with
``GL2Witness(U).check(A, canonical_matrix(form))``, before returning
anything.  A failure raises InvariantViolation, also under ``python -O``.
What depends on the characteristic polynomial f alone is a ``PolyFacts``,
which ``witness`` and ``similar`` work out once for both matrices of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import InsepBoundRequired, InvalidParams, InvariantViolation, NotIntegral, ReduciblePoly, invariant
from .fppoly import FpRat
from .polys import MonicPoly, disc_quad, quad_factor
from .rings import INF, LocalDVR


# ---------------------------------------------------------------------------
# matrices


class Mat2:
    """Immutable 2x2 matrix with entries in the valuation ring R."""

    __slots__ = ("ring", "rows", "_char_poly")

    def __init__(self, ring, rows, check_integral=True):
        rows = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("Mat2 expects a 2x2 array")
        if check_integral:
            for row in rows:
                for x in row:
                    if ring.val(x) < 0:
                        raise NotIntegral(f"entry {ring.encode(x)} is not in R")
        self.ring = ring
        self.rows = rows

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __matmul__(self, other):
        a, b = self.rows, other.rows
        return Mat2(
            self.ring,
            [
                [a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
                [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]],
            ],
            check_integral=False,
        )

    def det(self):
        a = self.rows
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]

    def trace(self):
        return self.rows[0][0] + self.rows[1][1]

    def transpose(self):
        a = self.rows
        return Mat2(self.ring, [[a[0][0], a[1][0]], [a[0][1], a[1][1]]], check_integral=False)

    def inv(self):
        """Inverse; requires a unit determinant to stay over R."""
        d = self.det()
        a = self.rows
        return Mat2(
            self.ring,
            [[a[1][1] / d, -a[0][1] / d], [-a[1][0] / d, a[0][0] / d]],
            check_integral=False,
        )

    def char_poly(self) -> MonicPoly:
        """det(xI - A) = x^2 - trace*x + det, encoded as x^2 - a*x - b;
        computed once, as a Mat2 does not change."""
        try:
            return self._char_poly
        except AttributeError:
            self._char_poly = MonicPoly.quadratic(self.ring, self.trace(), -self.det())
            return self._char_poly

    def is_unit(self):
        return self.ring.val(self.det()) == 0

    def encode(self):
        enc = self.ring.encode
        return [[enc(x) for x in row] for row in self.rows]

    def __repr__(self):
        return f"Mat2({self.encode()})"


def identity(ring):
    return Mat2(ring, [[ring.one, ring.zero], [ring.zero, ring.one]])


@dataclass(frozen=True)
class GL2Witness:
    """Invertible U with U*A = B*U certifying similarity of A and B."""

    U: Mat2

    def check(self, A: Mat2, B: Mat2) -> bool:
        """U*A == B*U, with U in GL2(R): entries in R and a unit determinant.

        With U = U'/u, and A = A'/d and B = B'/d over one shared d, U*A =
        B*U iff U'*A' = B'*U': the products run on the numerators the ring
        splits off (``ring.numerators``), with no gcd after the two lcms.
        """
        U = self.U
        ring = U.ring
        if A.ring != ring or B.ring != ring:
            return False
        _, (u00, u01, u10, u11) = ring.numerators(U.rows[0] + U.rows[1])
        _, (a00, a01, a10, a11, b00, b01, b10, b11) = ring.numerators(A.rows[0] + A.rows[1] + B.rows[0] + B.rows[1])
        dot = ring.num_dot
        return (
            dot(u00, a00, u01, a10) == dot(b00, u00, b01, u10)
            and dot(u00, a01, u01, a11) == dot(b00, u01, b01, u11)
            and dot(u10, a00, u11, a10) == dot(b10, u00, b11, u10)
            and dot(u10, a01, u11, a11) == dot(b10, u01, b11, u11)
            and U.is_unit()
            and min(map(ring.val, U.rows[0] + U.rows[1])) >= 0
        )


# ---------------------------------------------------------------------------
# canonical forms


@dataclass(frozen=True)
class Reducible:
    f: MonicPoly
    lam1: object
    lam2: object
    tau: object

    def label(self):
        enc = self.f.ring.encode
        return f"Reducible{{l1={enc(self.lam1)},l2={enc(self.lam2)},tau={enc(self.tau)}}}"


@dataclass(frozen=True)
class Unit2:
    f: MonicPoly
    k: int

    def label(self):
        return f"Unit2{{k={self.k}}}"


@dataclass(frozen=True)
class Case1:
    f: MonicPoly
    r: object
    i: int

    def label(self):
        return f"Case1{{r={self.f.ring.encode(self.r)},i={self.i}}}"


@dataclass(frozen=True)
class Case21:
    f: MonicPoly
    n: int

    def label(self):
        return f"Case21{{n={self.n}}}"


@dataclass(frozen=True)
class Case22Main:
    f: MonicPoly
    n: int

    def label(self):
        return f"Case22Main{{n={self.n}}}"


@dataclass(frozen=True)
class Case22Extra:
    f: MonicPoly
    r: object
    i: int

    def label(self):
        return f"Case22Extra{{r={self.f.ring.encode(self.r)},i={self.i}}}"


@dataclass(frozen=True)
class Char2Sep:
    f: MonicPoly
    r: object
    i: int

    def label(self):
        return f"Char2Sep{{r={self.f.ring.encode(self.r)},i={self.i}}}"


@dataclass(frozen=True)
class Insep:
    f: MonicPoly
    i: int
    u: object
    s: object

    def label(self):
        enc = self.f.ring.encode
        return f"Insep{{i={self.i},u={enc(self.u)},s={enc(self.s)}}}"


CanonForm = (Reducible, Unit2, Case1, Case21, Case22Main, Case22Extra, Char2Sep, Insep)


@dataclass(frozen=True)
class LowerBound:
    """Inseparable class counts are only bounded below (input-dependent)."""

    count: int


# ---------------------------------------------------------------------------
# small helpers


def pi_pow(ring, k: int):
    """pi^k by binary powering (k >= 0)."""
    if k < 0:
        raise ValueError(f"pi_pow needs k >= 0, got {k}")
    out, sq = ring.one, ring.uniformizer()
    while k:
        if k & 1:
            out = out * sq
        k >>= 1
        if k:
            sq = sq * sq
    return out


def reduce_mod(ring, x, k: int):
    """Canonical representative of x modulo pi^k (k = 0 gives 0)."""
    if k <= 0:
        return ring.zero
    return ring.lift(ring.residue(x, k))


def _lift_chain(ring, a, b, top):
    """[r_0, ..., r_m]: r_0 = 0 and r_k the least r mod pi^k with
    v(b - r(r + a)) >= 2k, tried as r_(k-1) + pi^(k-1)*d over the digits d of
    R/pi; m is top or the last level some digit passes.  Exact when the
    solutions at level k form one class mod pi^k for every k <= top (see
    compute_m and _insep_params, where a = 0).  The test reads a and b only
    mod pi^(2*top): over a base ring the trials run on their codes, where
    each trial is already a canonical code, and the chain is lifted to R at
    the end.  An extension's codes are pairs with no product: it takes
    ``_exact_lift``."""
    if top < 1:
        return [ring.zero]
    if not isinstance(ring, LocalDVR):
        return _exact_lift(ring, a, b, top)
    A, B = ring.residue(a, 2 * top), ring.residue(b, 2 * top)
    pi, digits = ring.residue(ring.uniformizer(), 2), list(ring.codes(1))
    chain, step = [ring.residue(ring.zero, 0)], 1  # step = pi^(k-1)
    for k in range(1, top + 1):
        prev = chain[-1]
        for d in digits:
            r = prev + step * d
            if ring.val(ring.lift(B - r * (r + A))) >= 2 * k:
                chain.append(r)
                break
        else:
            break
        step = step * pi
    return [ring.lift(r) for r in chain]


def _exact_lift(ring, a, b, top):
    """``_lift_chain`` on elements of R.  Below the bounds of
    compute_m and the inseparable chain, adding pi^k*h changes
    v(b - r(r + a)) >= 2k by a term of valuation >= 2k, so a trial is tested
    as it stands and only the r that passes is reduced mod pi^k."""
    digits = list(ring.residues(1))
    pi = ring.uniformizer()
    chain, step = [ring.zero], ring.one  # step = pi^(k-1)
    for k in range(1, top + 1):
        prev = chain[-1]
        for d in digits:
            r = prev + step * d
            if ring.val(b - r * (r + a)) >= 2 * k:
                chain.append(reduce_mod(ring, r, k))
                break
        else:
            break
        step = step * pi
    return chain


def _theta_matrix(ring, f, g1, c):
    """The matrix of multiplication by theta on the basis (g1, c + theta).

    Row 1 holds theta*(c + theta) = (b - c(a+c)) + (a+c)*(c + theta); the
    integrality check of Mat2 is the check that the basis spans an ideal.
    """
    a, b = f.a, f.b
    return Mat2(ring, [[-c, g1], [(b - c * (a + c)) / g1, a + c]])


# ---------------------------------------------------------------------------
# reducible case


def _left_kernel_row(ring, M):
    """A nonzero row w with w*M = 0 for a singular 2x2 array over K."""
    (m11, m12), (m21, m22) = M
    if m21 or m11:
        return (m21, -m11)
    if m22 or m12:
        return (m22, -m12)
    return (ring.one, ring.zero)


def triangularize(ring, A: Mat2, roots):
    """U*A = T*U with T upper triangular, diag (lam1, lam2), U in GL2(R).

    Takes a left lam2-eigenvector, scales it to a primitive vector of R^2,
    and completes it to an R-basis with a unimodular complement.
    """
    lam1, lam2 = roots
    M = [[A[0][0] - lam2, A[0][1]], [A[1][0], A[1][1] - lam2]]
    w1, w2 = _left_kernel_row(ring, M)
    m = min(ring.val(w1), ring.val(w2))
    scale = pi_pow(ring, m) if m >= 0 else ring.one / pi_pow(ring, -m)
    w1, w2 = w1 / scale, w2 / scale
    if ring.val(w1) == 0:
        c1, c2 = ring.zero, -ring.one
    else:
        c1, c2 = ring.one, ring.zero
    U = Mat2(ring, [[c1, c2], [w1, w2]])
    T = (U @ A) @ U.inv()
    shape = (T[0][0], T[1][0], T[1][1]) == (lam1, ring.zero, lam2)
    invariant(U.is_unit() and shape, "U*A*U^-1 is not upper triangular with diagonal (lam1, lam2)")
    return GL2Witness(U), T


def reducible_normalize(ring, lam1, lam2, tau_raw):
    """Canonical tau in {0} union {pi^i} for the triangular class."""
    d = ring.val(lam1 - lam2)
    if lam1 == lam2:
        if not tau_raw:
            return ring.zero
        return pi_pow(ring, ring.val(tau_raw))
    v = ring.val(tau_raw)
    return pi_pow(ring, min(v, d) if v is not INF else d)


def _classify_reducible(ring, A, f, fact, chain):
    lam1, lam2 = fact.lam1, fact.lam2
    w1, T = triangularize(ring, A, (lam1, lam2))
    chain.append(w1.U)
    tau_raw = T[0][1]
    tau = reducible_normalize(ring, lam1, lam2, tau_raw)
    if tau_raw != tau:
        if tau_raw and ring.val(tau_raw) == ring.val(tau):
            # scale the second basis vector by the unit tau_raw / tau
            V = Mat2(ring, [[ring.one, ring.zero], [ring.zero, tau_raw / tau]])
        else:
            # v(tau_raw) >= v(lam1 - lam2) (including tau_raw = 0): shear to pi^d
            V = Mat2(ring, [[ring.one, (tau_raw - tau) / (lam1 - lam2)], [ring.zero, ring.one]])
        chain.append(V)
    return Reducible(f, lam1, lam2, tau)


# ---------------------------------------------------------------------------
# inseparable case (char K = 2, f = x^2 - b)


def _insep_s(ring, b, u, i):
    """s = (b - u^2)/pi^i.  Over GF(p)(t), where the lift gives a polynomial
    u, s is b's numerator minus u^2 times its denominator, shifted down by i."""
    if isinstance(b, FpRat):
        return b.sub_square_shifted(u, i)
    return (b - u * u) / pi_pow(ring, i)


def _insep_params(ring, b, i):
    """Least u mod pi^i with v(b - u^2) >= 2i, and s = (b - u^2)/pi^i.  In
    characteristic 2, (u+h)^2 = u^2 + h^2, so the solutions at level i are
    one class u + pi^i R and lifting finds it."""
    chain = _lift_chain(ring, ring.zero, b, i)
    if len(chain) <= i:
        return None
    u = chain[i]
    return u, _insep_s(ring, b, u, i)


def _classify_insep(ring, A, f, chain):
    # char 2 and trace 0, so A = [[u, s], [t, u]]
    u, s, t = A[0][0], A[0][1], A[1][0]
    if ring.val(t) > ring.val(s):
        # conjugate onto the transpose so the lower-left has minimal valuation
        chain.append(Mat2(ring, [[t / s, ring.one], [ring.one, ring.one]]))
        s, t = t, s
    i = ring.val(t)
    params = _insep_params(ring, f.b, i)
    invariant(params is not None, "the matrix itself witnesses solvability at its level")
    ui, si = params
    pii = pi_pow(ring, i)
    chain.append(Mat2(ring, [[t / pii, (u + ui) / pii], [ring.zero, ring.one]]))
    return Insep(f, i, ui, si)


# ---------------------------------------------------------------------------
# the classification branch and its m-search (maximal collapse level)


def _branch(ring, f: MonicPoly):
    """(name, Delta, v(Delta)) for irreducible f = x^2 - a*x - b.

    The branch is insep (char 2, a = 0), char2sep (char 2, a != 0), unit2
    (v(2) = 0), case1 (v(a) < v(2)), else case21 / case22 by the parity of
    v(Delta), Delta = a^2/4 + b.  Delta and v(Delta) are None where 2 is not
    invertible or the branch does not use them (case1).
    """
    if ring.char == 2:
        return ("char2sep" if f.a else "insep"), None, None
    e = ring.val_of_two()
    if e != 0 and ring.val(f.a) < e:
        return "case1", None, None
    delta = disc_quad(f, ring)
    vd = ring.val(delta)
    if e == 0:
        return "unit2", delta, vd
    return ("case21" if vd % 2 == 1 else "case22"), delta, vd


def compute_m(ring, f: MonicPoly, case: str):
    """Maximal m with v(b - r(r+a)) >= 2m (case1/char2sep) or
    v(Delta - r^2) >= 2m + v(Delta) with v(r) = v(Delta)/2 (case22),
    together with the least realizing r in the deterministic element order.

    With T(r) = b - r(r+a), T(r+h) = T(r) - h(h + a + 2r), and for
    v(h) < bound (v(a), or v(2) in case22) the difference has valuation
    exactly 2v(h).  So up to the bound the solutions at level k are one class
    r + pi^k R, whose least member is its canonical representative, and one
    digit-by-digit lift (``_lift_chain``) finds m and r.  The lift reads a
    and b mod pi^(2*bound) only: over a base ring it runs on their residue
    codes and lifts the chain to R once.  Case22 is the same search for
    x^2 - u, u = Delta/pi^v(Delta), scaled by pi^(v(Delta)/2); for m >= 1
    every root of x^2 - u is a unit.
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
    chain = _lift_chain(ring, a, b, bound)
    m = len(chain) - 1
    return m, (None if m == 0 and case == "case22" else scale * chain[m])


# ---------------------------------------------------------------------------
# the irreducible pipeline


_SEP_FORMS = {"case1": Case1, "char2sep": Char2Sep}
_MAIN_FORMS = {"unit2": Unit2, "case21": Case21, "case22": Case22Main}
_BRANCH_FORMS = {**_SEP_FORMS, **_MAIN_FORMS, "case22": (Case22Main, Case22Extra), "insep": Insep}


def _classify_irreducible(ring, A, facts, chain):
    f = facts.f
    a, b = f.a, f.b
    alpha, beta = A[0][0], A[0][1]
    invariant(beta, "an irreducible characteristic polynomial forces a nonzero corner")

    # present: the ideal R*beta + R*(theta - alpha) in standard shape
    # R*pi^n + R*(rho + theta) (the column (beta, theta - alpha) is a
    # theta-eigenvector of A)
    n = ring.val(beta)
    rho = reduce_mod(ring, -alpha, n)
    eps = beta / pi_pow(ring, n)
    chain.append(Mat2(ring, [[ring.one / eps, ring.zero], [(rho + alpha) / beta, ring.one]]))

    # reflect until n <= v(T)/2
    while True:
        T = b - rho * (a + rho)
        vT = ring.val(T)
        invariant(vT is not INF and vT >= n, "the presented basis must span an ideal: v(T) >= n")
        if 2 * n <= vT:
            break
        n_new = vT - n
        rho_new = reduce_mod(ring, -(a + rho), n_new)
        epsT = T / pi_pow(ring, vT)
        delta = (rho_new + a + rho) / pi_pow(ring, n_new)
        chain.append(Mat2(ring, [[ring.zero, ring.one / epsT], [ring.one, delta / epsT]]))
        n, rho = n_new, rho_new

    # saturate: levels beyond c = v(2*rho + a) collapse to c
    two_rho_a = ring.from_int(2) * rho + a
    c = ring.val(two_rho_a)
    if c < n:
        T = b - rho * (a + rho)
        w = (pi_pow(ring, n) + two_rho_a) / pi_pow(ring, c)
        chain.append(Mat2(ring, [[ring.one, ring.one], [T / pi_pow(ring, c + n), w]]))
        n = c
        rho_new = reduce_mod(ring, rho, n)
        if rho_new != rho:
            chain.append(Mat2(ring, [[ring.one, ring.zero], [(rho_new - rho) / pi_pow(ring, n), ring.one]]))
            rho = rho_new

    # dispatch on the classification branch and move rho to its canonical value
    name, _, vd = facts.branch
    if name in _SEP_FORMS:
        m, rstar = facts.m
        invariant(n <= m, "the reduced level exceeds the maximal collapse level m")
        form = _SEP_FORMS[name](f, rstar, n)
        target = rstar
    else:
        half_a = a / ring.from_int(2)
        v_shift = ring.val(rho + half_a)
        if v_shift >= n:
            invariant(2 * n <= vd, "the reduced level exceeds v(Delta)/2")
            form = _MAIN_FORMS[name](f, n)
            target = -half_a
        else:
            invariant(name == "case22" and 2 * v_shift == vd, "only case22 has the extra family")
            m, rstar = facts.m
            invariant(1 <= n - vd // 2 <= m, "the extra-family index lies outside 1..m")
            form = Case22Extra(f, rstar, n - vd // 2)
            target = rstar - half_a

    # re-target
    dlt = target - rho
    invariant(n == 0 or ring.val(dlt) >= n, "the canonical parameter must agree with rho mod pi^n")
    if dlt != ring.zero:
        chain.append(Mat2(ring, [[ring.one, ring.zero], [dlt / pi_pow(ring, n), ring.one]]))
    return form


# ---------------------------------------------------------------------------
# public interface


class PolyFacts:
    """What classifying a matrix takes from its characteristic polynomial f
    alone, for one call (shared by a pair, or by a class list and its
    matrices): the factorization, the branch, ``compute_m`` on first use,
    and the canonical matrix of the last form."""

    def __init__(self, ring, f: MonicPoly):
        self.ring, self.f, self.fact = ring, f, quad_factor(f, ring)
        self.branch = None if self.fact.reducible else _branch(ring, f)
        self._form = self._C = None

    @cached_property
    def m(self):
        return compute_m(self.ring, self.f, self.branch[0])

    def matrix(self, form):
        if form != self._form:
            self._C, self._form = canonical_matrix(form, self.branch), form
        return self._C


def to_canonical(ring, A: Mat2, _facts=None):
    """(canonical form, witness U with U*A = canonical_matrix*U).

    The branch pushes its moves onto ``chain`` (each a left basis change)
    and returns the form; U is their product, checked here before return.
    ``_facts``: the PolyFacts of A's characteristic polynomial, if at hand.
    """
    facts = PolyFacts(ring, A.char_poly()) if _facts is None else _facts
    chain = []
    try:
        if facts.fact.reducible:
            form = _classify_reducible(ring, A, facts.f, facts.fact, chain)
        elif facts.branch[0] == "insep":
            form = _classify_insep(ring, A, facts.f, chain)
        else:
            form = _classify_irreducible(ring, A, facts, chain)
    except NotIntegral as exc:
        # A is integral, so a move that leaves R is a defect of the library
        raise InvariantViolation(f"a classification move left R: {exc}") from exc
    U = reduce(lambda U, sigma: sigma @ U, chain)
    try:
        C = facts.matrix(form)
    except InvalidParams as exc:
        raise InvariantViolation(f"the classification produced an invalid form: {exc}") from exc
    invariant(GL2Witness(U).check(A, C), "the witness fails U*A = C*U")
    return form, U


def classify(ring, A: Mat2):
    """Canonical form of the GL2(R)-conjugacy class of A."""
    return to_canonical(ring, A)[0]


def similar(ring, A: Mat2, B: Mat2) -> bool:
    """True iff A and B share a characteristic polynomial and a class."""
    if A.char_poly() != B.char_poly():
        return False
    facts = PolyFacts(ring, A.char_poly())
    return to_canonical(ring, A, facts)[0] == to_canonical(ring, B, facts)[0]


def witness(ring, A: Mat2, B: Mat2):
    """A verified GL2Witness with U*A = B*U, or None when not similar."""
    if A.char_poly() != B.char_poly():
        return None
    facts = PolyFacts(ring, A.char_poly())
    form_a, ua = to_canonical(ring, A, facts)
    form_b, ub = to_canonical(ring, B, facts)
    if form_a != form_b:
        return None
    w = GL2Witness(ub.inv() @ ua)
    invariant(w.check(A, B), "the witness fails U*A = B*U")
    return w


def canonical_matrix(form, _branch_of_f=None) -> Mat2:
    """The representative matrix of a canonical form (validated)."""
    f = form.f
    ring = f.ring
    if isinstance(form, Reducible):
        lam1, lam2, tau = form.lam1, form.lam2, form.tau
        if ring.val(lam1) < ring.val(lam2):
            raise InvalidParams("need v(lam1) >= v(lam2)")
        if not tau:
            if lam1 != lam2:
                raise InvalidParams("tau = 0 is reserved for the scalar class")
        elif ring.val(tau) < 0 or tau != pi_pow(ring, ring.val(tau)):
            raise InvalidParams("tau must be a power of the uniformizer")
        out = Mat2(ring, [[lam1, tau], [ring.zero, lam2]])
        if out.char_poly() != f:
            raise InvalidParams("parameters are inconsistent with f")
        return out
    if not isinstance(form, CanonForm):
        raise TypeError(f"not a canonical form: {form!r}")
    name, delta, vd = _branch_of_f or _branch(ring, f)
    if not isinstance(form, _BRANCH_FORMS[name]):
        raise InvalidParams(f"{type(form).__name__} is not a form of the {name} branch of f")
    # every irreducible class is theta on a basis (g1, c + theta)
    if isinstance(form, Insep):
        if form.i < 0 or not form.s or form.u * form.u + form.s * pi_pow(ring, form.i) != f.b:
            raise InvalidParams("need i >= 0, s != 0 and u^2 + s*pi^i = b")
        g1, c = form.s, form.u
    elif isinstance(form, (Case1, Char2Sep)):
        if not 0 <= form.i <= ring.val(f.a) or ring.val(f.b - form.r * (form.r + f.a)) < 2 * form.i:
            raise InvalidParams("need v(b - r(r+a)) >= 2i and 0 <= i <= v(a)")
        g1, c = pi_pow(ring, form.i), form.r
    elif isinstance(form, Case22Extra):
        if not 1 <= form.i <= ring.val_of_two():
            raise InvalidParams("extra family needs 1 <= i <= v(2)")
        if ring.val(delta - form.r * form.r) < vd + 2 * form.i:
            raise InvalidParams("need v(Delta - r^2) >= v(Delta) + 2i")
        g1, c = pi_pow(ring, vd // 2 + form.i), form.r - f.a / ring.from_int(2)
    else:
        n = form.k if isinstance(form, Unit2) else form.n
        if not 0 <= 2 * n <= vd:
            raise InvalidParams("need 0 <= 2n <= v(Delta)")
        g1, c = pi_pow(ring, n), -f.a / ring.from_int(2)
    return _theta_matrix(ring, f, g1, c)


def _need_bound(insep_bound, missing):
    """Check the index bound of an infinite family: given, and >= 0."""
    if insep_bound is None:
        raise InsepBoundRequired(missing)
    if insep_bound < 0:
        raise ValueError(f"the index bound must be >= 0, got {insep_bound}")


def class_list(ring, f: MonicPoly, insep_bound: int | None = None, _facts=None):
    """All conjugacy classes with characteristic polynomial f, in index order.

    Families that are genuinely infinite (inseparable irreducible f, and
    reducible f with a double root) enumerate indices up to ``insep_bound``.
    ``_facts``: the PolyFacts of f, if at hand, so that a caller can build
    each form's matrix from the same branch.
    """
    facts = PolyFacts(ring, f) if _facts is None else _facts
    fact = facts.fact
    if fact.reducible:
        lam1, lam2 = fact.lam1, fact.lam2
        if lam1 == lam2:
            _need_bound(insep_bound, "double root: the tau family is infinite")
            forms = [Reducible(f, lam1, lam2, ring.zero)]
            forms += [Reducible(f, lam1, lam2, pi_pow(ring, i)) for i in range(insep_bound + 1)]
            return forms
        d = ring.val(lam1 - lam2)
        return [Reducible(f, lam1, lam2, pi_pow(ring, i)) for i in range(d + 1)]
    name, _, vd = facts.branch
    if name == "insep":
        _need_bound(insep_bound, "inseparable family needs an index bound")
        chain = _lift_chain(ring, ring.zero, f.b, insep_bound)
        return [Insep(f, i, u, _insep_s(ring, f.b, u, i)) for i, u in enumerate(chain)]
    if name in _SEP_FORMS:
        m, r = facts.m
        return [_SEP_FORMS[name](f, r, i) for i in range(m + 1)]
    out = [_MAIN_FORMS[name](f, n) for n in range(vd // 2 + 1)]
    if name == "case22":
        m, r = facts.m
        out += [Case22Extra(f, r, i) for i in range(1, m + 1)]
    return out


def class_number(ring, f: MonicPoly, insep_bound: int = 10):
    """Closed-form class count for irreducible f (LowerBound when inseparable)."""
    facts = PolyFacts(ring, f)
    if facts.fact.reducible:
        raise ReduciblePoly("class_number expects an irreducible quadratic")
    name, _, vd = facts.branch
    if name == "insep":
        _need_bound(insep_bound, "inseparable family needs an index bound")
        return LowerBound(len(_lift_chain(ring, ring.zero, f.b, insep_bound)))
    if name in _SEP_FORMS:
        return facts.m[0] + 1
    if name == "case22":
        return vd // 2 + facts.m[0] + 1
    return vd // 2 + 1


def ideal_reps(ring, f: MonicPoly, insep_bound: int | None = None):
    """Free R-basis pairs ((g1, 0), (c, 1)) of the ideals matching class_list.

    Each pair means the ideal R*g1 + R*(c + theta) of R[x]/(f); the pairing
    with class_list is index for index.
    """
    facts = PolyFacts(ring, f)
    forms = class_list(ring, f, insep_bound, facts)
    if facts.fact.reducible:
        raise ReduciblePoly("ideal_reps expects an irreducible quadratic")
    out = []
    for form in forms:
        C = canonical_matrix(form, facts.branch)
        out.append(((C[0][1], ring.zero), (-C[0][0], ring.one)))
    return out
