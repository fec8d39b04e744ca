"""The integer eliminations that ``matsim.intlin`` replaced, kept as test
oracles for ``test_intlin.py``.

``hnf_with_transform`` wrote every row operation twice, once on the rows and
once on a separate transform matrix U, then found the pivots again;
``left_kernel_int`` read the left kernel off the zero rows of H, and
``solve_int`` found the pivots a third time.  The bodies are the old ones.
"""


def hnf_with_transform(rows):
    """(H, U) with U unimodular, U * rows = H in canonical row HNF.

    Zero rows of H sink to the bottom; the matching rows of U span the
    left kernel of the input.
    """
    m = [list(map(int, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    row = 0
    for col in range(nc):
        piv = None
        for i in range(row, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        u[row], u[piv] = u[piv], u[row]
        # clear below via gcd steps
        for i in range(row + 1, nr):
            while m[i][col]:
                q = m[row][col] // m[i][col]
                m[row] = [a - q * b for a, b in zip(m[row], m[i])]
                u[row] = [a - q * b for a, b in zip(u[row], u[i])]
                m[row], m[i] = m[i], m[row]
                u[row], u[i] = u[i], u[row]
        if m[row][col] < 0:
            m[row] = [-a for a in m[row]]
            u[row] = [-a for a in u[row]]
        row += 1
        if row == nr:
            break
    # reduce entries above each pivot, left to right: later reductions only
    # touch columns to the right of already-reduced pivots
    pivots = []
    r = 0
    for col in range(nc):
        if r < len(m) and r < nr and m[r][col]:
            pivots.append((r, col))
            r += 1
    for r, col in pivots:
        for i in range(r):
            q = m[i][col] // m[r][col]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
    return m, u


def left_kernel_int(rows):
    """Basis rows x with x * M = 0, over Z."""
    H, U = hnf_with_transform(rows)
    return [U[i] for i in range(len(H)) if not any(H[i])]


def solve_int(rows, target):
    """Integer row x with x * M = target, or None."""
    H, U = hnf_with_transform(rows)
    t = list(map(int, target))
    nc = len(t)
    coeff = [0] * len(H)
    pivots = {}
    r = 0
    for col in range(nc):
        if r < len(H) and H[r][col]:
            pivots[col] = r
            r += 1
    for col in range(nc):
        if t[col] == 0:
            continue
        r = pivots.get(col)
        if r is None or t[col] % H[r][col]:
            return None
        q = t[col] // H[r][col]
        coeff[r] = q
        t = [a - q * b for a, b in zip(t, H[r])]
    if any(t):
        return None
    n = len(U)
    return [sum(coeff[i] * U[i][j] for i in range(n)) for j in range(n)]
