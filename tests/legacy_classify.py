"""The witness check before it ran on numerators over one denominator, the
integer valuation before it took the lowest set bit for p = 2, and
``witness`` and ``similar`` before a pair shared the facts of its
characteristic polynomial, kept as test oracles for ``test_classify.py`` and
``test_rings.py``.

The bodies are the old ones: ``GL2Witness.check`` compared two ``Mat2``
products of reduced fractions, ``rings._int_val`` divided once per unit of
valuation for every p, and ``witness`` and ``similar`` classified A and B by
two independent ``to_canonical`` calls.
"""

from matsim.classify import GL2Witness, to_canonical
from matsim.errors import invariant


def witness_check(U, A, B):
    return (U @ A) == (B @ U) and U.is_unit()


def int_val(n, p):
    """The p-adic valuation of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def similar(ring, A, B):
    if A.char_poly() != B.char_poly():
        return False
    return to_canonical(ring, A)[0] == to_canonical(ring, B)[0]


def witness(ring, A, B):
    if A.char_poly() != B.char_poly():
        return None
    form_a, ua = to_canonical(ring, A)
    form_b, ub = to_canonical(ring, B)
    if form_a != form_b:
        return None
    w = GL2Witness(ub.inv() @ ua)
    invariant(w.check(A, B), "the witness fails U*A = B*U")
    return w
