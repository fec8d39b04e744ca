"""``polys._solve_gf2`` before its rows were packed into ints, kept as a test
oracle for ``test_polys.py``.

The body is the old one: each row is a Python list of 0/1, the right-hand
side a separate list, and a row operation XORs two lists entry by entry.
"""


def _solve_gf2(rows, rhs):
    """Gaussian elimination over GF(2); one solution or None."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    aug = [rows[i][:] + [rhs[i]] for i in range(nrows)]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        for i in range(nrows):
            if i != r and aug[i][col]:
                aug[i] = [x ^ y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols]:
            return None
    sol = [0] * ncols
    for i, col in enumerate(pivots):
        sol[col] = aug[i][ncols]
    return sol
