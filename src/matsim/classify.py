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

Each move carries an explicit basis-change matrix; the composition is the
similarity witness, verified exactly before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InsepBoundRequired, InvalidParams, InvariantViolation, NotIntegral, ReduciblePoly
from .polys import MonicPoly, disc_quad, quad_factor
from .rings import INF


# ---------------------------------------------------------------------------
# matrices


class Mat2:
    """Immutable 2x2 matrix with entries in the valuation ring R."""

    __slots__ = ("ring", "rows")

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
        """det(xI - A) = x^2 - trace*x + det, encoded as x^2 - a*x - b."""
        return MonicPoly.quadratic(self.ring, self.trace(), -self.det())

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
        return (self.U @ A) == (B @ self.U) and self.U.is_unit()


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
    out = ring.one
    pi = ring.uniformizer()
    for _ in range(k):
        out = out * pi
    return out


def reduce_mod(ring, x, k: int):
    """Canonical representative of x modulo pi^k (k = 0 gives 0)."""
    if k <= 0:
        return ring.zero
    return ring.lift(ring.residue(x, k))


def _theta_matrix(ring, f, g1, c):
    """The matrix of multiplication by theta on the basis (g1, c + theta).

    Row 1 holds theta*(c + theta) = (b - c(a+c)) + (a+c)*(c + theta); the
    integrality check of Mat2 is the check that the basis spans an ideal.
    """
    a, b = f.a, f.b
    return Mat2(ring, [[-c, g1], [(b - c * (a + c)) / g1, a + c]])


def _presented(ring, f, n, rho):
    return _theta_matrix(ring, f, pi_pow(ring, n), rho)


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
    assert ring.val(U.det()) == 0
    T = (U @ A) @ U.inv()
    assert T[1][0] == ring.zero
    assert T[0][0] == lam1 and T[1][1] == lam2
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


def _classify_reducible(ring, A, f, fact):
    lam1, lam2 = fact.lam1, fact.lam2
    w1, T = triangularize(ring, A, (lam1, lam2))
    tau_raw = T[0][1]
    tau = reducible_normalize(ring, lam1, lam2, tau_raw)
    C = Mat2(ring, [[lam1, tau], [ring.zero, lam2]])
    if tau_raw == tau:
        V = identity(ring)
    elif tau_raw and ring.val(tau_raw) == ring.val(tau):
        n = ring.val(tau)
        V = Mat2(ring, [[ring.one, ring.zero], [ring.zero, tau_raw / pi_pow(ring, n)]])
    else:
        # v(tau_raw) >= v(lam1 - lam2) (including tau_raw = 0): shear to pi^d
        V = Mat2(ring, [[ring.one, (tau_raw - tau) / (lam1 - lam2)], [ring.zero, ring.one]])
    assert (V @ T) == (C @ V) and V.is_unit()
    U = V @ w1.U
    form = Reducible(f, lam1, lam2, tau)
    assert (U @ A) == (C @ U) and U.is_unit()
    return form, U


# ---------------------------------------------------------------------------
# inseparable case (char K = 2, f = x^2 - b)


def _insep_params(ring, b, i):
    """Least u mod pi^i with v(b - u^2) >= 2i, and s = (b - u^2)/pi^i."""
    if i == 0:
        return ring.zero, b
    for u in ring.residues(i):
        if ring.val(b - u * u) >= 2 * i:
            return u, (b - u * u) / pi_pow(ring, i)
    return None


def _classify_insep(ring, A, f):
    b = f.b
    u, s, t = A[0][0], A[0][1], A[1][0]
    assert A[1][1] == u, "char-2 trace-zero matrix must have equal diagonal"
    W = identity(ring)
    cur = A
    if ring.val(t) > ring.val(s):
        # conjugate onto the transpose so the lower-left has minimal valuation
        W = Mat2(ring, [[t / s, ring.one], [ring.one, ring.one]])
        cur = cur.transpose()
        assert (W @ A) == (cur @ W) and W.is_unit()
        u, s, t = cur[0][0], cur[0][1], cur[1][0]
    i = ring.val(t)
    params = _insep_params(ring, b, i)
    assert params is not None, "matrix itself witnesses solvability at its level"
    ui, si = params
    form = Insep(f, i, ui, si)
    C = Mat2(ring, [[ui, si], [pi_pow(ring, i), ui]])
    pii = pi_pow(ring, i)
    V = Mat2(ring, [[t / pii, (u + ui) / pii], [ring.zero, ring.one]])
    assert (V @ cur) == (C @ V) and V.is_unit()
    U = V @ W
    assert (U @ A) == (C @ U) and U.is_unit()
    return form, U


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


# ---------------------------------------------------------------------------
# the irreducible pipeline


class _Chain:
    """Accumulates left basis changes; their product is the witness."""

    def __init__(self, ring, A):
        self.ring = ring
        self.S = identity(ring)
        self.M = A

    def push(self, sigma: Mat2, M_next: Mat2):
        assert (sigma @ self.M) == (M_next @ sigma), "conjugation step failed"
        assert sigma.is_unit()
        self.S = sigma @ self.S
        self.M = M_next

    def witness_to(self, C: Mat2, A: Mat2):
        assert self.M == C
        U = self.S
        assert (U @ A) == (C @ U) and U.is_unit()
        return U


_SEP_FORMS = {"case1": Case1, "char2sep": Char2Sep}
_MAIN_FORMS = {"unit2": Unit2, "case21": Case21, "case22": Case22Main}
_BRANCH_FORMS = {**_SEP_FORMS, **_MAIN_FORMS, "case22": (Case22Main, Case22Extra), "insep": Insep}


def _classify_irreducible(ring, A, f, branch):
    a, b = f.a, f.b
    alpha, beta = A[0][0], A[0][1]
    assert beta, "irreducible characteristic polynomial forces a nonzero corner"
    chain = _Chain(ring, A)

    # present: the ideal R*beta + R*(theta - alpha) in standard shape
    # (the column (beta, theta - alpha) is a theta-eigenvector of A)
    n = ring.val(beta)
    rho = reduce_mod(ring, -alpha, n)
    eps = beta / pi_pow(ring, n)
    sigma0 = Mat2(ring, [[ring.one / eps, ring.zero], [(rho + alpha) / beta, ring.one]])
    chain.push(sigma0, _presented(ring, f, n, rho))

    # reflect until n <= v(T)/2
    while True:
        T = b - rho * (a + rho)
        vT = ring.val(T)
        assert vT is not INF and vT >= n
        if 2 * n <= vT:
            break
        n_new = vT - n
        rho_new = reduce_mod(ring, -(a + rho), n_new)
        epsT = T / pi_pow(ring, vT)
        delta = (rho_new + a + rho) / pi_pow(ring, n_new)
        sigma = Mat2(ring, [[ring.zero, ring.one / epsT], [ring.one, delta / epsT]])
        chain.push(sigma, _presented(ring, f, n_new, rho_new))
        n, rho = n_new, rho_new

    # saturate: levels beyond c = v(2*rho + a) collapse to c
    two_rho_a = ring.from_int(2) * rho + a
    c = ring.val(two_rho_a)
    if c < n:
        T = b - rho * (a + rho)
        w = (pi_pow(ring, n) + two_rho_a) / pi_pow(ring, c)
        sigma = Mat2(ring, [[ring.one, ring.one], [T / pi_pow(ring, c + n), w]])
        chain.push(sigma, _presented(ring, f, c, rho))
        n = c
        rho_new = reduce_mod(ring, rho, n)
        if rho_new != rho:
            sigma = Mat2(
                ring,
                [[ring.one, ring.zero], [(rho_new - rho) / pi_pow(ring, n), ring.one]],
            )
            chain.push(sigma, _presented(ring, f, n, rho_new))
            rho = rho_new

    # dispatch on the classification branch and move rho to its canonical value
    name, _, vd = branch
    if name in _SEP_FORMS:
        m, rstar = compute_m(ring, f, name)
        assert n <= m
        form = _SEP_FORMS[name](f, rstar, n)
        target = rstar
    else:
        half_a = a / ring.from_int(2)
        v_shift = ring.val(rho + half_a)
        if v_shift >= n:
            assert 2 * n <= vd
            form = _MAIN_FORMS[name](f, n)
            target = -half_a
        else:
            assert name == "case22" and 2 * v_shift == vd
            m, rstar = compute_m(ring, f, name)
            assert 1 <= n - vd // 2 <= m
            form = Case22Extra(f, rstar, n - vd // 2)
            target = rstar - half_a

    dlt = target - rho
    assert n == 0 or ring.val(dlt) >= n, "canonical parameter change must fix the class"
    if dlt != ring.zero:
        sigma = Mat2(ring, [[ring.one, ring.zero], [dlt / pi_pow(ring, n), ring.one]])
        chain.push(sigma, _presented(ring, f, n, target))
    C = canonical_matrix(form)
    U = chain.witness_to(C, A)
    return form, U


# ---------------------------------------------------------------------------
# public interface


def to_canonical(ring, A: Mat2):
    """(canonical form, witness U with U*A = canonical_matrix*U)."""
    f = A.char_poly()
    fact = quad_factor(f, ring)
    if fact.reducible:
        return _classify_reducible(ring, A, f, fact)
    branch = _branch(ring, f)
    if branch[0] == "insep":
        return _classify_insep(ring, A, f)
    return _classify_irreducible(ring, A, f, branch)


def classify(ring, A: Mat2):
    """Canonical form of the GL2(R)-conjugacy class of A."""
    return to_canonical(ring, A)[0]


def similar(ring, A: Mat2, B: Mat2) -> bool:
    """True iff A and B share a characteristic polynomial and a class."""
    if A.char_poly() != B.char_poly():
        return False
    return classify(ring, A) == classify(ring, B)


def witness(ring, A: Mat2, B: Mat2):
    """A verified GL2Witness with U*A = B*U, or None when not similar."""
    if A.char_poly() != B.char_poly():
        return None
    form_a, ua = to_canonical(ring, A)
    form_b, ub = to_canonical(ring, B)
    if form_a != form_b:
        return None
    U = ub.inv() @ ua
    w = GL2Witness(U)
    if not w.check(A, B):
        raise InvariantViolation("the witness fails U*A = B*U")
    return w


def canonical_matrix(form) -> Mat2:
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
        elif tau != pi_pow(ring, ring.val(tau)):
            raise InvalidParams("tau must be a power of the uniformizer")
        out = Mat2(ring, [[lam1, tau], [ring.zero, lam2]])
        if out.char_poly() != f:
            raise InvalidParams("parameters are inconsistent with f")
        return out
    if not isinstance(form, CanonForm):
        raise TypeError(f"not a canonical form: {form!r}")
    name, delta, vd = _branch(ring, f)
    if not isinstance(form, _BRANCH_FORMS[name]):
        raise InvalidParams(f"{type(form).__name__} is not a form of the {name} branch of f")
    # every irreducible class is theta on a basis (g1, c + theta)
    if isinstance(form, Insep):
        if not form.s or form.u * form.u + form.s * pi_pow(ring, form.i) != f.b:
            raise InvalidParams("need s != 0 and u^2 + s*pi^i = b")
        g1, c = form.s, form.u
    elif isinstance(form, (Case1, Char2Sep)):
        if ring.val(f.b - form.r * (form.r + f.a)) < 2 * form.i or form.i > ring.val(f.a):
            raise InvalidParams("need v(b - r(r+a)) >= 2i and i <= v(a)")
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


def class_list(ring, f: MonicPoly, insep_bound: int | None = None):
    """All conjugacy classes with characteristic polynomial f, in index order.

    Families that are genuinely infinite (inseparable irreducible f, and
    reducible f with a double root) enumerate indices up to ``insep_bound``.
    """
    fact = quad_factor(f, ring)
    if fact.reducible:
        lam1, lam2 = fact.lam1, fact.lam2
        if lam1 == lam2:
            if insep_bound is None:
                raise InsepBoundRequired("double root: the tau family is infinite")
            forms = [Reducible(f, lam1, lam2, ring.zero)]
            forms += [Reducible(f, lam1, lam2, pi_pow(ring, i)) for i in range(insep_bound + 1)]
            return forms
        d = ring.val(lam1 - lam2)
        return [Reducible(f, lam1, lam2, pi_pow(ring, i)) for i in range(d + 1)]
    name, _, vd = _branch(ring, f)
    if name == "insep":
        if insep_bound is None:
            raise InsepBoundRequired("inseparable family needs an index bound")
        out = []
        for i in range(insep_bound + 1):
            params = _insep_params(ring, f.b, i)
            if params is not None:
                out.append(Insep(f, i, params[0], params[1]))
        return out
    if name in _SEP_FORMS:
        m, r = compute_m(ring, f, name)
        return [_SEP_FORMS[name](f, r, i) for i in range(m + 1)]
    out = [_MAIN_FORMS[name](f, n) for n in range(vd // 2 + 1)]
    if name == "case22":
        m, r = compute_m(ring, f, name)
        out += [Case22Extra(f, r, i) for i in range(1, m + 1)]
    return out


def class_number(ring, f: MonicPoly, insep_bound: int = 10):
    """Closed-form class count for irreducible f (LowerBound when inseparable)."""
    fact = quad_factor(f, ring)
    if fact.reducible:
        raise ReduciblePoly("class_number expects an irreducible quadratic")
    name, _, vd = _branch(ring, f)
    if name == "insep":
        return LowerBound(len(class_list(ring, f, insep_bound)))
    if name in _SEP_FORMS:
        return compute_m(ring, f, name)[0] + 1
    if name == "case22":
        return vd // 2 + compute_m(ring, f, name)[0] + 1
    return vd // 2 + 1


def ideal_reps(ring, f: MonicPoly, insep_bound: int | None = None):
    """Free R-basis pairs ((g1, 0), (c, 1)) of the ideals matching class_list.

    Each pair means the ideal R*g1 + R*(c + theta) of R[x]/(f); the pairing
    with class_list is index for index.
    """
    forms = class_list(ring, f, insep_bound)
    if forms and isinstance(forms[0], Reducible):
        raise ReduciblePoly("ideal_reps expects an irreducible quadratic")
    out = []
    for form in forms:
        C = canonical_matrix(form)
        out.append(((C[0][1], ring.zero), (-C[0][0], ring.one)))
    return out
