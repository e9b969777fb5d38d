"""wittkit.linalg against brute-force oracles on small matrices."""

from itertools import combinations, permutations, product
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittkit.linalg import (
    echelon,
    local_smith_profile,
    rank_mod_p,
    smith_normal_form,
)

primes = st.sampled_from([2, 3, 5])


def matrices(lo, hi, max_rows=4, max_cols=4):
    return st.integers(1, max_cols).flatmap(lambda c: st.lists(
        st.lists(st.integers(lo, hi), min_size=c, max_size=c),
        max_size=max_rows))


def _span(rows, p, ncols):
    """Every vector in the F_p row span, by enumerating coefficients."""
    return {
        tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p
              for j in range(ncols))
        for coeffs in product(range(p), repeat=len(rows))
    }


def _det(mat):
    """Integer determinant by the Leibniz formula."""
    size = len(mat)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(1 for i, j in combinations(range(size), 2)
                         if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(size):
            term *= mat[i][perm[i]]
        total += term
    return total


def _determinantal_divisors(mat):
    """Elementary divisors as quotients of gcds of k x k minors."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                g = gcd(g, _det([[mat[i][j] for j in cs] for i in rs]))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def _valuation(x, p):
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


@given(matrices(-6, 6), primes)
@settings(max_examples=150, deadline=None)
def test_rank_is_log_of_span_size(mat, p):
    span = _span(mat, p, len(mat[0]) if mat else 0)
    assert p ** rank_mod_p(mat, p) == len(span)


@given(matrices(0, 4), primes, st.data())
@settings(max_examples=150, deadline=None)
def test_echelon_depends_only_on_span(mat, p, data):
    rows, pivots = echelon(mat, p)
    assert len(rows) == len(pivots)
    for row, col in zip(rows, pivots):
        assert row[col] == 1 and all(0 <= x < p for x in row)
        assert all(other[col] == 0 for other in rows if other is not row)
    assert list(pivots) == sorted(pivots)
    # another generating set of the same span: shuffled, unit-scaled,
    # with one row changed by a multiple of another and a combination added
    other = [[u * x for x in r] for u, r in zip(
        data.draw(st.lists(st.integers(1, p - 1), min_size=len(mat),
                           max_size=len(mat))),
        data.draw(st.permutations(mat)))]
    if len(other) >= 2:
        f = data.draw(st.integers(0, p - 1))
        other[0] = [x + f * y for x, y in zip(other[0], other[1])]
    if mat:
        coeffs = [data.draw(st.integers(0, p - 1)) for _ in mat]
        other.append([sum(c * r[j] for c, r in zip(coeffs, mat))
                      for j in range(len(mat[0]))])
    assert echelon(other, p) == (rows, pivots)
    ncols = len(mat[0]) if mat else 0
    assert _span(rows, p, ncols) == _span(mat, p, ncols)


@given(matrices(-3, 3, max_cols=3), primes, st.data())
@settings(max_examples=150, deadline=None)
def test_solve_by_substitution_and_consistency(mat, p, data):
    if not mat:
        return
    ncols = len(mat[0])
    rhs = [data.draw(st.integers(0, p - 1)) for _ in mat]
    # the augmented system is consistent iff no pivot lies in the last column
    rows, pivots = echelon([r + [b] for r, b in zip(mat, rhs)], p)
    consistent = ncols not in pivots
    x = [0] * (ncols + 1)
    for row, col in zip(rows, pivots):
        x[col] = row[-1]
    solves = [all((sum(a * v for a, v in zip(r, y)) - b) % p == 0
                  for r, b in zip(mat, rhs))
              for y in product(range(p), repeat=ncols)]
    assert consistent == any(solves)
    assert consistent == (
        rank_mod_p([r + [b] for r, b in zip(mat, rhs)], p)
        == rank_mod_p(mat, p))
    assert consistent == all(
        (sum(a * v for a, v in zip(r, x)) - b) % p == 0
        for r, b in zip(mat, rhs))


def dense(rows, cols):
    return st.lists(st.lists(st.integers(-30, 30), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


@given(st.one_of(matrices(-9, 9), dense(5, 5), dense(6, 5)))
# rank 4 with a 4x4 minor 3036 = 3 * 1012: pivots 3 and 1012 multiply to 0
# mod 3036, so the Smith form over Z/3036 must not read them as divisors
@example([[-12, 1, 2, -12, -1], [-12, 1, 2, -12, 21], [1, 2, -12, 21, 0],
          [1, 2, -12, 21, 1], [-1, 0, -1, 0, 1]])
@settings(max_examples=200, deadline=None)
def test_smith_form_matches_determinantal_divisors(mat):
    assert smith_normal_form(mat) == _determinantal_divisors(mat)


def test_smith_form_dense_6x5_finishes():
    # dense input on which unreduced off-pivot entries grow to millions of
    # bits; kept below a nonzero maximal minor, they stay small
    mat = [[20, -22, -9, -3, -17], [-13, 13, -24, 23, -6],
           [29, 5, -8, 28, 26], [23, 13, 4, 1, 19],
           [4, -15, -26, 16, -28], [-25, -22, -20, -20, 28]]
    assert smith_normal_form(mat) == _determinantal_divisors(mat) == [
        1, 1, 1, 1, 17]


@given(matrices(-30, 30), st.sampled_from([2, 3, 5]), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_local_smith_profile_is_valuations_below_n(mat, p, n):
    want = [e for e in (_valuation(x, p)
                        for x in _determinantal_divisors(mat)) if e < n]
    assert local_smith_profile(mat, p, n) == want


def test_edge_shapes():
    assert echelon([], 3) == ((), ())
    assert rank_mod_p([[], []], 2) == 0
    assert rank_mod_p([[0, 3], [6, 0]], 3) == 0
    assert echelon([[2, 4, 1]], 5) == (((1, 2, 3),), (0,))
    assert local_smith_profile([[4, 2], [2, 0]], 2, 3) == [1, 1]
    assert local_smith_profile([[8]], 2, 3) == []
    assert local_smith_profile([], 2, 3) == []
