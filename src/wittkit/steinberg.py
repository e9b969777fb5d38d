"""Generalized Steinberg modules for small GL_(d+1)(F_q).

The parabolic-induction complex

    0 -> Z -> (+)_(|J|=d-1) Ind_(P_J)^G 1 -> ... -> Ind_(P_I)^G 1 -> v -> 0

is built on explicit coset spaces (cosets are enumerated as flags), with the
simplicial Koszul sign on the subsets S = Delta \\ J of removed simple roots;
exactness is certified by Smith normal form over Z and, over Z/p^n, by
module-length counts from the local Smith form (minimal-valuation pivots,
entries kept below p^n).
"""

from __future__ import annotations

from itertools import combinations, product

from .linalg import echelon, local_smith_profile, rank_mod_p, smith_normal_form
from .rings import ScaleExceeded, is_prime


# ----------------------------------------------------------------------
# the finite groups and their parabolic coset spaces
# ----------------------------------------------------------------------

class FiniteGL:
    """GL_size(F_q) by exhaustive enumeration (desk scale only)."""

    def __init__(self, q, size):
        if not is_prime(q):
            raise ValueError("modulus %r is not prime" % (q,))
        if q ** (size * size) > 3 ** 9 + 1:
            if (size, q) not in ((2, 2), (2, 3), (3, 2)):
                raise ScaleExceeded("group too large to enumerate")
        self.q = q
        self.size = size
        self.elements = [
            mat for mat in product(
                *(product(range(q), repeat=size) for _ in range(size))
            )
            if rank_mod_p(mat, q) == size
        ]

    def order(self):
        return len(self.elements)

    def expected_order(self):
        n, q = self.size, self.q
        out = 1
        for i in range(n):
            out *= q ** n - q ** i
        return out


def gaussian_flag_count(q, size, dims):
    """Number of flags with the given subspace dimensions in F_q^size."""
    def gauss_binom(n, k):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (k - i) - 1
        return num // den

    count = 1
    prev = 0
    for dim in dims:
        count *= gauss_binom(size - prev, dim - prev)
        prev = dim
    return count


def flag_of(g, dims, q):
    """The flag (span of the first dim columns of g) for each dim."""
    size = len(g)
    cols = [tuple(g[i][jj] for i in range(size)) for jj in range(size)]
    return tuple(echelon(cols[:dim], q)[0] for dim in dims)


class ParabolicCosets:
    """Cosets G/P_J enumerated as flags of the dimension profile of J.

    ``removed`` is the set S = Delta \\ J of removed simple roots alpha_i
    (0-based); the flag dimensions are {i+1 : alpha_i in S}.
    """

    def __init__(self, group, removed):
        self.group = group
        self.removed = frozenset(removed)
        self.dims = tuple(sorted(i + 1 for i in self.removed))
        seen = {}
        for g in group.elements:
            fl = flag_of(g, self.dims, group.q)
            seen.setdefault(fl, 0)
            seen[fl] += 1
        sizes = set(seen.values())
        if len(sizes) > 1:
            raise ArithmeticError("cosets of unequal size")
        self.flags = sorted(seen)
        self.index = {fl: k for k, fl in enumerate(self.flags)}

    def __len__(self):
        return len(self.flags)

    def coarsen(self, flag, keep_dims):
        """Drop subspaces to land in a coarser flag space."""
        pos = {dim: k for k, dim in enumerate(self.dims)}
        return tuple(flag[pos[dim]] for dim in keep_dims)


# ----------------------------------------------------------------------
# the induction complex
# ----------------------------------------------------------------------

class InductionComplex:
    """The augmented parabolic-induction complex for a subset I of Delta.

    Terms are indexed by the size of S = Delta \\ J, from the augmentation Z
    at S-size 0 through S = Delta \\ I; differentials pull functions back
    along coset projections with the simplicial sign.
    """

    def __init__(self, q, d, removed_target, ring="Z", n=1, p=None):
        if n < 1:  # over Z/p^0, the zero ring, every check holds vacuously
            raise ValueError("need n >= 1, got n = %d" % n)
        if (d + 1, q) not in ((2, 2), (2, 3), (3, 2)):
            raise ScaleExceeded("desk scale: GL_2(F_2), GL_2(F_3), GL_3(F_2)")
        self.q = q
        self.d = d
        self.ring = ring
        self.n = n
        self.p = p if p is not None else q
        self.target = tuple(sorted(removed_target))  # S(I) = Delta \ I
        self.group = FiniteGL(q, d + 1)
        self.levels = []  # list of dicts S -> ParabolicCosets
        for size in range(1, len(self.target) + 1):
            level = {}
            for S in combinations(self.target, size):
                level[S] = ParabolicCosets(self.group, S)
            self.levels.append(level)
        self.matrices = self._build_matrices()

    def _offsets(self, level):
        offs = {}
        total = 0
        for S in sorted(level):
            offs[S] = total
            total += len(level[S])
        return offs, total

    def _build_matrices(self):
        mats = []
        # augmentation: Z -> level 0 terms (constant functions)
        offs0, total0 = self._offsets(self.levels[0])
        aug = [[1] for _ in range(total0)]
        mats.append(aug)
        for k in range(len(self.levels) - 1):
            src_level = self.levels[k]
            tgt_level = self.levels[k + 1]
            offs_s, tot_s = self._offsets(src_level)
            offs_t, tot_t = self._offsets(tgt_level)
            mat = [[0] * tot_s for _ in range(tot_t)]
            for S_t, cos_t in tgt_level.items():
                for pos, beta in enumerate(sorted(S_t)):
                    S_s = tuple(x for x in S_t if x != beta)
                    if S_s not in src_level:
                        continue
                    cos_s = src_level[S_s]
                    sign = (-1) ** pos
                    keep = tuple(sorted(i + 1 for i in S_s))
                    for fl in cos_t.flags:
                        row = offs_t[S_t] + cos_t.index[fl]
                        coarse = cos_t.coarsen(fl, keep)
                        col = offs_s[S_s] + cos_s.index[coarse]
                        mat[row][col] += sign
            mats.append(mat)
        return mats

    def d_squared_is_zero(self):
        for a, b in zip(self.matrices, self.matrices[1:]):
            for col in range(len(a[0])):
                for row in range(len(b)):
                    v = sum(b[row][k] * a[k][col] for k in range(len(a)))
                    if v:
                        return False
        return True

    def term_ranks(self):
        out = [1]
        for level in self.levels:
            out.append(sum(len(c) for c in level.values()))
        return out


def homology_lengths(cx):
    """Length of the homology at each interior node of the complex.

    Over Z the length is the free rank plus the number of nontrivial torsion
    divisors; over Z/p^n it is the module length, computed from elementary
    divisor profiles (ker/im comparisons reduce to length counting once the
    composite is zero, which d_squared_is_zero certifies).
    """
    if not cx.d_squared_is_zero():
        raise ArithmeticError("d o d != 0")
    mats = cx.matrices
    dims = cx.term_ranks()
    out = []
    for node in range(1, len(dims) - 1):
        a = mats[node - 1]  # incoming
        b = mats[node]      # outgoing
        dim = dims[node]
        if cx.ring == "Z":
            da = smith_normal_form(a)
            db = smith_normal_form(b)
            rank_a = len([x for x in da if x])
            rank_b = len([x for x in db if x])
            free_defect = dim - rank_a - rank_b
            # ker(b) is saturated, so the torsion of ker(b)/im(a) equals the
            # torsion of Z^dim/im(a): the divisors of a beyond 1
            torsion = len([x for x in da if x not in (0, 1)])
            out.append((free_defect, torsion, da, db))
        else:
            n, p = cx.n, cx.p
            prof_a = local_smith_profile(a, p, n)
            prof_b = local_smith_profile(b, p, n)
            len_im_a = sum(n - e for e in prof_a)
            len_ker_b = sum(e for e in prof_b) + (dim - len(prof_b)) * n
            out.append((len_ker_b - len_im_a, 0, prof_a, prof_b))
    return out


def acyclicity_check(q, d, removed_target, ring="Z", n=1):
    """Homology vanishing at every interior node, plus cokernel data."""
    cx = InductionComplex(q, d, removed_target, ring=ring, n=n)
    hom = homology_lengths(cx)
    exact = all(h[0] == 0 and h[1] == 0 for h in hom)
    last = cx.matrices[-1]
    divisors = smith_normal_form(last)
    coker_rank = len(last) - len([x for x in divisors if x])
    torsion_free = all(x in (0, 1) for x in divisors)
    return {
        "q": q,
        "d": d,
        "ring": ring if ring == "Z" else "Z/p^%d" % n,
        "terms": cx.term_ranks(),
        "homology": [(h[0], h[1]) for h in hom],
        "exact": exact,
        "cokernel_rank": coker_rank,
        "cokernel_torsion_free": torsion_free,
        "d_squared_zero": True,
    }


def steinberg_rank(q, d, removed_target=None):
    """Rank and freeness of the generalized Steinberg cokernel.

    The rank equals the alternating sum of the coset counts, forced by the
    acyclic complex; freeness comes out of the Smith normal form of the last
    differential.
    """
    if removed_target is None:
        removed_target = tuple(range(d))  # I = empty set
    rep = acyclicity_check(q, d, removed_target, ring="Z")
    terms = rep["terms"]
    alt = 0
    for k, t in enumerate(terms):
        alt += ((-1) ** (len(terms) - 1 - k)) * t
    return {
        "rank": rep["cokernel_rank"],
        "alternating_sum": alt,
        "free": rep["cokernel_torsion_free"],
        "exact": rep["exact"],
        "terms": terms,
    }
