"""The witness check before it ran on numerators over one denominator, and
the integer valuation before it took the lowest set bit for p = 2, kept as
test oracles for ``test_classify.py`` and ``test_rings.py``.

The bodies are the old ones: ``GL2Witness.check`` compared two ``Mat2``
products of reduced fractions, and ``rings._int_val`` divided once per unit
of valuation for every p.
"""


def witness_check(U, A, B):
    return (U @ A) == (B @ U) and U.is_unit()


def int_val(n, p):
    """The p-adic valuation of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
