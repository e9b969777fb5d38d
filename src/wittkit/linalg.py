"""Exact linear algebra: echelon forms over F_p, Smith forms over Z and Z/p^n.

Every elimination in the library goes through this module.  Over F_p one
Gauss-Jordan routine gives rank, solutions and canonical span keys.  Over Z
the Smith normal form gives elementary divisors; over Z/p^n the local Smith
form (Storjohann, *Algorithms for Matrix Canonical Forms*, 2000) pivots on
entries of minimal p-adic valuation, so every entry stays in [0, p^n).
"""

from __future__ import annotations


def echelon(rows, p, ncols=None):
    """Reduced row echelon form over F_p (p prime).

    Returns ``(reduced, pivots)``: the reduced rows that carry a pivot, as
    tuples with entries in [0, p), and the column of each row's leading 1.
    Pivots are taken only in the first ``ncols`` columns (default: all);
    later columns, such as the right-hand side of a system, are carried
    along.  The pivot row for a column is the first remaining row with a
    nonzero entry there, so the result is a fixed function of the input
    row order.
    """
    m = [list(r) for r in rows]
    if ncols is None:
        ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        for piv in range(r, len(m)):
            if m[piv][col] % p:
                break
        else:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] % p:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def rank_mod_p(rows, p):
    """Rank of an integer matrix reduced mod the prime p."""
    return len(echelon(rows, p)[1])


def smith_normal_form(mat):
    """Elementary divisors of an integer matrix (no transforms kept)."""
    m = [list(r) for r in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    divisors = []
    top = 0
    while top < min(rows, cols):
        # find a nonzero pivot of minimal absolute value
        piv = None
        best = None
        for i in range(top, rows):
            for jj in range(top, cols):
                v = m[i][jj]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, jj)
        if piv is None:
            break
        i0, j0 = piv
        m[top], m[i0] = m[i0], m[top]
        for r in m:
            r[top], r[j0] = r[j0], r[top]
        again = True
        while again:
            again = False
            for i in range(top + 1, rows):
                if m[i][top]:
                    q = m[i][top] // m[top][top]
                    if q:
                        for jj in range(top, cols):
                            m[i][jj] -= q * m[top][jj]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        again = True
            for jj in range(top + 1, cols):
                if m[top][jj]:
                    q = m[top][jj] // m[top][top]
                    if q:
                        for i in range(top, rows):
                            m[i][jj] -= q * m[i][top]
                    if m[top][jj]:
                        for i in range(rows):
                            m[i][top], m[i][jj] = m[i][jj], m[i][top]
                        again = True
        # clear any residue divisibility failure
        pivval = m[top][top]
        bad = None
        for i in range(top + 1, rows):
            for jj in range(top + 1, cols):
                if m[i][jj] % pivval:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for jj in range(top, cols):
                m[top][jj] += m[bad][jj]
            continue
        divisors.append(abs(pivval))
        top += 1
    return divisors


def _valuation(x, p):
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def local_smith_profile(mat, p, n):
    """Elementary divisor exponents of an integer matrix over Z/p^n.

    Returns the nondecreasing exponents e < n of the divisors p^e; divisors
    that vanish mod p^n are left out.  Each step pivots on an entry of
    minimal valuation v, which divides every other entry of the remaining
    block: its column clears with exact quotients by p^v times the inverse
    of a unit, all mod p^n.  Its row is then dropped, since clearing it by
    column operations would not touch the block.
    """
    mod = p ** n
    m = [[x % mod for x in row] for row in mat]
    out = []
    while m and m[0]:
        best = None
        for i, row in enumerate(m):
            for j, x in enumerate(row):
                if x:
                    v = _valuation(x, p)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, i0, j0 = best
        pv = p ** v
        piv = m.pop(i0)
        inv = pow(piv[j0] // pv, -1, mod)
        for row in m:
            if row[j0]:
                f = (row[j0] // pv) * inv
                for j, y in enumerate(piv):
                    row[j] = (row[j] - f * y) % mod
        for row in m:
            del row[j0]
        out.append(v)
    return out
