"""Exact linear algebra: echelon forms over F_p, Smith forms over Z and Z/p^n.

Every elimination in the library goes through this module.  Over F_p one
Gauss-Jordan routine gives rank, solutions and canonical span keys.  Over Z
the Smith normal form gives elementary divisors, computed modulo a nonzero
maximal minor so that entries stay bounded; over Z/p^n the local Smith
form (Storjohann, *Algorithms for Matrix Canonical Forms*, 2000) pivots on
entries of minimal p-adic valuation, so every entry stays in [0, p^n).
"""

from __future__ import annotations

from math import gcd

from .rings import v_p


def echelon(rows, p):
    """Reduced row echelon form over F_p (p prime).

    Returns ``(reduced, pivots)``: the reduced rows that carry a pivot, as
    tuples with entries in [0, p), and the column of each row's leading 1.
    The pivot row for a column is the first remaining row with a nonzero
    entry there, so the result is a fixed function of the input row order.
    """
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    for col in range(len(m[0]) if m else 0):
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


def _rank_and_minor(mat):
    """Rank r of an integer matrix and |M| for a nonzero r x r minor M.

    Bareiss' fraction-free elimination with full pivoting: each pivot is a
    leading minor of the permuted matrix, and every division is exact.
    """
    m = [list(r) for r in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    prev, rank = 1, 0
    for k in range(min(rows, cols)):
        piv = next(((i, j) for i in range(k, rows) for j in range(k, cols)
                    if m[i][j]), None)
        if piv is None:
            break
        i0, j0 = piv
        m[k], m[i0] = m[i0], m[k]
        for row in m[k:]:
            row[k], row[j0] = row[j0], row[k]
        top = m[k]
        for row in m[k + 1:]:
            for j in range(k + 1, cols):
                row[j] = (row[j] * top[k] - row[k] * top[j]) // prev
        prev, rank = top[k], k + 1
    return rank, abs(prev)


def smith_normal_form(mat):
    """Elementary divisors d_1 | d_2 | ... of an integer matrix, zeros left out.

    Bareiss elimination gives the rank r and a nonzero r x r minor D.  The
    product d_1 ... d_r divides every r x r minor, so each d_i divides D and
    the d_i can be read off the matrix over Z/D, where no entry exceeds D.
    There each step pivots on the least nonzero residue and clears its row
    and column by Euclidean steps; a nonzero remainder, smaller than the
    pivot, becomes the next pivot.  The diagonal left over, padded with D
    for the rows that vanished mod D, is put into divisibility order by
    gcd/lcm exchanges.
    """
    rank, det = _rank_and_minor(mat)
    m = [[x % det for x in row] for row in mat] if rank else []
    diag = []
    while True:
        nonzero = [(x, i, j) for i, row in enumerate(m)
                   for j, x in enumerate(row) if x]
        if not nonzero:
            break
        piv, i0, j0 = min(nonzero)
        prow = m[i0]
        for i, row in enumerate(m):
            if i != i0 and row[j0]:
                f = row[j0] // piv
                m[i] = [(x - f * y) % det for x, y in zip(row, prow)]
        for j, x in enumerate(prow):
            if j != j0 and x:
                f = x // piv
                for row in m:
                    row[j] = (row[j] - f * row[j0]) % det
        rest = [x for j, x in enumerate(prow) if j != j0]
        rest += [row[j0] for i, row in enumerate(m) if i != i0]
        if any(rest):
            continue  # a remainder below piv is the next pivot
        # Z/D has zero divisors, so a pivot that does not divide its block
        # would leave a product of divisors that vanishes mod D: add a row
        # outside the ideal (piv) = (g) to the pivot row, and go on clearing
        g = gcd(piv, det)
        off = next((row for row in m if any(x % g for x in row)), None)
        if off is not None:
            m[i0] = [(x + y) % det for x, y in zip(prow, off)]
            continue
        diag.append(g)
        del m[i0]
        for row in m:
            del row[j0]
    diag += [det] * (rank - len(diag))
    for i in range(rank):
        for j in range(i + 1, rank):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return diag


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
                    v = v_p(x, p)
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
