from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import legacy_intlin as old
from matsim.intlin import bareiss, field_solve, hnf_int, solve_int

ENTRY = st.integers(-30, 30)
COEFF = st.integers(-3, 3)


@st.composite
def systems(draw):
    """Rows of 1-16 x 1-4 integer matrices, with zero rows and rows that
    combine earlier ones (rank-deficient), and a target: a combination of
    the rows, or one perturbed off it in one coordinate."""
    nr, nc = draw(st.integers(1, 16)), draw(st.integers(1, 4))
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(["zero", "random", "combination"]))
        if kind == "random":
            rows.append(draw(st.lists(ENTRY, min_size=nc, max_size=nc)))
        else:
            coeffs = draw(st.lists(COEFF, min_size=len(rows), max_size=len(rows))) if kind == "combination" else []
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(nc)])
    x = draw(st.lists(COEFF, min_size=nr, max_size=nr))
    target = [sum(c * r[j] for c, r in zip(x, rows)) for j in range(nc)]
    if draw(st.booleans()):
        target[draw(st.integers(0, nc - 1))] += draw(st.integers(1, 5))
    return rows, target


@settings(max_examples=400, deadline=None, derandomize=True)
@given(system=systems())
def test_hnf_and_solve_match_the_transform_path(system):
    # the same HNF and the same x, not only a valid one: the free bases of
    # lattices.free_basis are built from it
    rows, target = system
    assert hnf_int(rows) == old.hnf_with_transform(rows)[0]
    x = solve_int(rows, target)
    assert x == old.solve_int(rows, target)
    if x is not None:
        assert [sum(c * r[j] for c, r in zip(x, rows)) for j in range(len(target))] == target


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(1, 8), k=st.integers(0, 3), data=st.data())
def test_bareiss_matches_gauss_jordan_over_q(n, k, data):
    # [M | B] with zero entries and, now and then, a row that repeats
    # another on M (singular); det and det * M^-1 * B as over Q
    entry = st.one_of(st.just(0), ENTRY, st.integers(-10**12, 10**12))
    m = [data.draw(st.lists(entry, min_size=n + k, max_size=n + k)) for _ in range(n)]
    if n > 1 and data.draw(st.booleans()):
        m[-1][:n] = m[0][:n]
    det, x = bareiss(m)
    q = [[Fraction(v) for v in r] for r in m]
    want, sol = field_solve([r[:n] for r in q], [[r[n + j] for r in q] for j in range(k)])
    assert det == want
    if det:
        assert x == [[det * sol[j][i] for j in range(k)] for i in range(n)]
    else:
        assert x is None
