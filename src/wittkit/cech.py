"""Witt line bundles W_n O(a) on P^d and their cohomology.

The computation mirrors the V-filtration induction: the short exact sequence

    0 -> F_* W_{n-1}O(pa) --V--> W_n O(a) --R^{n-1}--> O(a) -> 0

has long exact sequences whose connecting maps vanish, so lengths assemble
as sums of classical layer dimensions (see :func:`witt_cohomology` for why).
Classical slice cohomology is done by honest F_p linear algebra per
multidegree sign pattern.  The sequence is also realized on explicit Cech
cochains for the standard cover; the tests run the Teichmuller-lifted
connecting map out of H^0 on them and check that it is zero.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb

from .linalg import echelon, rank_mod_p
from .rings import LaurentElem, ScaleExceeded, graded_basis, is_prime
from .witt import (
    WittVector,
    witt_add,
    witt_sub,
    witt_sum,
)


class NotACocycle(ValueError):
    pass


class FinLenModule:
    """A finite-length Z/p^n-module reported through its V-filtration layers.

    ``layers[l]`` is the F_p-dimension of the l-th graded piece of the
    natural filtration (for H^0 this coincides with dim p^l M / p^(l+1) M;
    for H^d the extension data is not pinned down and only the layer
    dimensions are asserted).
    """

    __slots__ = ("p", "n", "layers")

    def __init__(self, p, n, layers):
        layers = tuple(layers)
        if len(layers) != n or any(x < 0 for x in layers):
            raise ValueError("need one nonnegative layer dimension per level")
        self.p = p
        self.n = n
        self.layers = layers

    @property
    def length(self):
        return sum(self.layers)

    def is_zero(self):
        return self.length == 0

    def __eq__(self, other):
        return (
            isinstance(other, FinLenModule)
            and (self.p, self.n, self.layers) == (other.p, other.n, other.layers)
        )

    def __repr__(self):
        return "FinLenModule(p=%d, n=%d, layers=%r)" % (self.p, self.n, self.layers)

    def to_json(self):
        return {"p": self.p, "n": self.n, "layers": list(self.layers),
                "length": self.length}


# ----------------------------------------------------------------------
# classical sheaf cohomology of O(m) on P^d
# ----------------------------------------------------------------------

def classical_cohomology(d, m, i):
    """dim_k H^i(P^d, O(m)) by the standard binomial formulas."""
    if i == 0:
        return comb(m + d, d) if m >= 0 else 0
    if i == d:
        return comb(-m - 1, d) if -m - 1 >= d else 0
    return 0


def slice_complex(d, pattern, ground=None):
    """Cochain spaces and differentials of one multidegree slice.

    ``pattern`` is the set of variables with negative exponent; the slice
    complex has a basis vector for each subset S of the ground set (default
    {0..d}) with |S| = q+1 and S containing the pattern, with the simplicial
    Cech differential.
    """
    if ground is None:
        ground = list(range(d + 1))
    top = len(ground) - 1
    pattern = frozenset(pattern)
    spaces = []
    for q in range(top + 1):
        spaces.append(
            [frozenset(S) for S in combinations(ground, q + 1)
             if pattern <= frozenset(S)]
        )
    diffs = []
    for q in range(top):
        src, tgt = spaces[q], spaces[q + 1]
        idx = {S: k for k, S in enumerate(src)}
        mat = [[0] * len(src) for _ in tgt]
        for row, S in enumerate(tgt):
            elems = sorted(S)
            for pos, s in enumerate(elems):
                T = S - {s}
                if T in idx:
                    mat[row][idx[T]] = (-1) ** pos
        diffs.append(mat)
    return spaces, diffs


def slice_cohomology_dims(d, p, pattern, ground=None):
    """h^q of one slice complex over F_p, computed by rank arithmetic.

    A slice depends only on d, p, the pattern and the ground set, and the
    Cech routes ask for few of them many times, so they are computed once
    (:func:`_slice_dims`); every caller gets a list of its own.
    """
    return list(_slice_dims(d, p, frozenset(pattern),
                            None if ground is None else tuple(ground)))


@lru_cache(maxsize=128)
def _slice_dims(d, p, pattern, ground):
    spaces, diffs = slice_complex(d, pattern, ground)
    top = len(spaces) - 1
    dims = [len(s) for s in spaces]
    ranks = [rank_mod_p(mat, p) for mat in diffs]
    hs = []
    for q in range(top + 1):
        rin = ranks[q - 1] if q >= 1 else 0
        rout = ranks[q] if q < top else 0
        hs.append(dims[q] - rout - rin)
    return tuple(hs)


def classical_cohomology_via_cech(d, m, i, p):
    """dim H^i(O(m)) assembled from per-pattern slice linear algebra.

    Only the all-nonnegative and all-negative patterns contribute finitely
    many multidegrees; every slice cohomology is computed over F_p.
    """
    total = 0
    for k in range(d + 2):
        pattern = frozenset(range(k))  # slice dims depend only on |pattern|
        hs = slice_cohomology_dims(d, p, pattern)
        if hs[i] == 0:
            continue
        if k == 0:
            count = comb(m + d, d) if m >= 0 else 0
        elif k == d + 1:
            count = comb(-m - 1, d) if -m - 1 >= d else 0
        else:
            raise ArithmeticError(
                "middle sign pattern with nonzero slice cohomology"
            )
        total += hs[i] * count
    return total


def h0_monomials(d, m):
    """Harmonic basis of H^0(O(m)): exponent vectors >= 0 with sum m."""
    if m < 0:
        return []
    return list(graded_basis(d + 1, m, [(0, m)] * (d + 1)))


def hd_monomials(d, m):
    """Harmonic basis of H^d(O(m)): exponent vectors <= -1 with sum m."""
    if -m - 1 < d:
        return []
    return list(graded_basis(d + 1, m, [(m + d, -1)] * (d + 1)))


# ----------------------------------------------------------------------
# Witt Cech cochains
# ----------------------------------------------------------------------

def _zero_section(p, n, d, S):
    z = LaurentElem._trusted(p, 1, d + 1, {}, S)
    return WittVector(p, n, [z] * n)


def section_valid(x, a, S):
    """Degree homogeneity: coordinate l is homogeneous of degree p^l * a."""
    for l, c in enumerate(x.coords):
        want = (x.p ** l) * a
        if any(sum(e) != want for e in c.terms):
            return False
        if any(
            e[i] < 0 and i not in S for e in c.terms for i in range(len(e))
        ):
            return False
    return True


class WittCochain:
    """A Cech q-cochain of W_n O(a) for the standard cover of P^d."""

    __slots__ = ("p", "n", "d", "a", "q", "comps")

    def __init__(self, p, n, d, a, q, comps):
        self.p = p
        self.n = n
        self.d = d
        self.a = a
        self.q = q
        self.comps = {}
        for S in combinations(range(d + 1), q + 1):
            S = frozenset(S)
            x = comps.get(S)
            if x is None:
                x = _zero_section(p, n, d, S)
            elif not section_valid(x, a, S):
                raise ValueError("section fails degree or support constraints")
            self.comps[S] = x

    def is_zero(self):
        return all(x.is_zero() for x in self.comps.values())


def restrict_section(x, S):
    """Widen the allowed-negative set of all coordinates to S.

    x is a section over a subset of S (a cochain component), so its terms
    are reduced and have negative exponents only in S: the coordinates are
    built trusted, sharing x's terms.
    """
    return WittVector(
        x.p, x.n,
        [LaurentElem._trusted(c.p, 1, c.num_vars, c.terms, S)
         for c in x.coords],
    )


def cech_diff(c):
    """The alternating Witt-sum Cech differential.

    Each component is the sum of the even faces minus the sum of the odd
    ones, so it takes three ghost round trips at most.  A component whose
    faces are all zero is left to the cochain, which fills in zero.
    """
    out = {}
    for S in combinations(range(c.d + 1), c.q + 2):
        Sf = frozenset(S)
        faces = [c.comps[Sf - {s}] for s in S]
        if all(x.is_zero() for x in faces):
            continue
        faces = [restrict_section(x, Sf) for x in faces]
        out[Sf] = witt_sub(witt_sum(faces[0::2]), witt_sum(faces[1::2]))
    return WittCochain(c.p, c.n, c.d, c.a, c.q + 1, out)


def v_map(c):
    """V: C(W_{n-1}O(pa)) -> C(W_n O(a)), prepend a zero coordinate."""
    out = {}
    for S, x in c.comps.items():
        zero = LaurentElem.zero(c.p, 1, c.d + 1, S)
        out[S] = WittVector(c.p, c.n + 1, (zero,) + x.coords)
    return WittCochain(c.p, c.n + 1, c.d, c.a // c.p, c.q, out)


def r_map(c):
    """R^{n-1}: take the first coordinate as a classical O(a)-cochain."""
    return {S: x.coords[0] for S, x in c.comps.items()}


def v_divide(c):
    """Inverse of v_map on cochains with vanishing first coordinates."""
    out = {}
    for S, x in c.comps.items():
        if not x.coords[0].is_zero():
            raise ValueError("cochain is not in the image of V")
        out[S] = WittVector(c.p, c.n - 1, x.coords[1:])
    return WittCochain(c.p, c.n - 1, c.d, c.a * c.p, c.q, out)


def teich_lift(p, n, d, a, classical, q):
    """Coordinatewise Teichmuller lift of a classical cochain."""
    out = {}
    for S, f in classical.items():
        zero = LaurentElem.zero(p, 1, d + 1, frozenset(S))
        g = LaurentElem(p, 1, d + 1, f.terms, frozenset(S))
        out[frozenset(S)] = WittVector(p, n, [g] + [zero] * (n - 1))
    return WittCochain(p, n, d, a, q, out)


def classical_cochain_diff(p, d, classical, q):
    """Classical F_p Cech differential on multidegree dictionaries."""
    out = {}
    for S in combinations(range(d + 1), q + 2):
        Sf = frozenset(S)
        acc = LaurentElem.zero(p, 1, d + 1, Sf)
        for pos, s in enumerate(sorted(S)):
            T = Sf - {s}
            f = classical[T]
            f = LaurentElem(p, 1, d + 1, f.terms, Sf)
            acc = acc + (f if pos % 2 == 0 else -f)
        out[Sf] = acc
    return out


def classical_solve(p, d, q, classical_rhs):
    """Solve the classical Cech equation d(x) = rhs degreewise.

    Returns (solution cochain dict, residual cochain dict); the residual is
    the unsolvable harmonic part.  Each multidegree is one slice system
    solved by elimination on [mat | rhs] with pivots kept out of the rhs
    column; where it is inconsistent, no solution is recorded and the
    residual is rhs - mat * x for the x that elimination reads off.
    """
    multidegrees = set()
    for S, f in classical_rhs.items():
        multidegrees.update(f.terms)
    sol = {
        frozenset(S): {} for S in combinations(range(d + 1), q)
    } if q >= 1 else {}
    residual = {S: {} for S in classical_rhs}
    for e in sorted(multidegrees):
        pattern = frozenset(i for i, v in enumerate(e) if v < 0)
        spaces, diffs = slice_complex(d, pattern)
        tgt = spaces[q]
        res = [classical_rhs[S].terms.get(e, 0) % p for S in tgt]
        src = spaces[q - 1] if q >= 1 else []
        if src:
            mat = diffs[q - 1]
            rows, pivots = echelon(
                [row + [v] for row, v in zip(mat, res)], p, ncols=len(src))
            x = [0] * len(src)
            for row, col in zip(rows, pivots):
                x[col] = row[-1]
            res = [(v - sum(a * b for a, b in zip(row, x))) % p
                   for row, v in zip(mat, res)]
            if not any(res):
                for S, v in zip(src, x):
                    if v:
                        sol[S][e] = v
        for S, v in zip(tgt, res):
            if v:
                residual[S][e] = v
    sol_c = {
        S: LaurentElem(p, 1, d + 1, terms, S) for S, terms in sol.items()
    }
    res_c = {
        S: LaurentElem(p, 1, d + 1, terms, S) for S, terms in residual.items()
    }
    return sol_c, res_c


def witt_cochain_sub(c1, c2):
    out = {}
    for S, x in c1.comps.items():
        out[S] = witt_sub(x, c2.comps[S])
    return WittCochain(c1.p, c1.n, c1.d, c1.a, c1.q, out)


def harmonic_residual_layers(c):
    """Peel a Witt cocycle through the V-filtration.

    Returns a list (one entry per level) of dicts mapping harmonic monomials
    to F_p coefficients; the cocycle is a Cech coboundary modulo higher
    filtration exactly when every entry is empty.  Level l sees the classical
    complex for O(p^l a).
    """
    p, d = c.p, c.d
    layers = []
    cur = c
    for level in range(c.n):
        bottom = r_map(cur)
        sol, res = classical_solve(p, d, cur.q, bottom)
        res_terms = {}
        for S, f in res.items():
            for e, v in f.terms.items():
                res_terms[(tuple(sorted(S)), e)] = v
        layers.append(res_terms)
        # subtract the Cech differential of the Teichmuller-lifted solution
        # and the lift of the residual, then divide by V
        sub = teich_lift(p, cur.n, d, cur.a, sol, cur.q - 1) if cur.q >= 1 else None
        if sub is not None:
            cur = witt_cochain_sub(cur, cech_diff(sub))
        res_lift = teich_lift(p, cur.n, d, cur.a, res, cur.q)
        cur = witt_cochain_sub(cur, res_lift)
        if level < c.n - 1:
            cur = v_divide(cur)
    return layers


def connecting_map(p, n, d, a, i, cocycle_basis):
    """The LES connecting map H^i(O(a)) -> H^(i+1)(W_(n-1)O(pa)).

    Each basis cocycle is Teichmuller-lifted, pushed through the alternating
    Witt Cech differential, divided by V, and its class extracted layer by
    layer.  Returns a column-per-input matrix of layer coordinates.
    """
    if n < 2:
        raise ValueError("need n >= 2 for a nontrivial V-layer")
    columns = []
    for classical in cocycle_basis:
        full = {
            frozenset(S): classical.get(frozenset(S),
                                        LaurentElem.zero(p, 1, d + 1,
                                                         frozenset(S)))
            for S in combinations(range(d + 1), i + 1)
        }
        chk = classical_cochain_diff(p, d, full, i)
        if any(not f.is_zero() for f in chk.values()):
            raise NotACocycle("input class is not a cocycle")
        lifted = teich_lift(p, n, d, a, full, i)
        delta = cech_diff(lifted)
        top = r_map(delta)
        if any(not f.is_zero() for f in top.values()):
            raise NotACocycle("Witt differential does not vanish classically")
        divided = v_divide(delta)
        layers = harmonic_residual_layers(divided)
        columns.append(layers)
    return columns


# ----------------------------------------------------------------------
# assembled cohomology of Witt line bundles
# ----------------------------------------------------------------------

def _check_space(p, d):
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if d < 1:
        raise ValueError("P^d needs d >= 1, got d = %d" % d)


def witt_cohomology(p, d, n, a, verify=True):
    """Per-degree FinLenModules for H^*(P^d, W_n O(a)).

    Lengths are assembled through the V-filtration long exact sequences: the
    layer at level l is the classical H^i(O(p^l a)).  Every connecting map
    vanishes, so the sequences split into short exact ones.  Out of H^0:
    the Teichmuller lift [z^e] is a global section of W_n O(a) lifting z^e,
    so H^0(W_n O(a)) -> H^0(O(a)) is onto.  Out of H^d: there are no
    (d+1)-cochains.  In between, every classical H^i(O(m)) is 0.  With
    ``verify`` set, each layer is cross-checked by per-slice F_p linear
    algebra (:func:`classical_cohomology_via_cech`); the H^0 and H^d lengths
    are always checked against :func:`layer_sums`.
    """
    _check_space(p, d)
    if d > 6 or n > 6 or abs(a) > 12:
        raise ScaleExceeded("witt_cohomology is a desk-scale computation")
    out = {}
    for i in range(d + 1):
        layers = []
        for l in range(n):
            twist = (p ** l) * a
            dim = classical_cohomology(d, twist, i)
            if verify:
                via = classical_cohomology_via_cech(d, twist, i, p)
                if via != dim:
                    raise ArithmeticError("slice assembly disagrees")
            layers.append(dim)
        out[i] = FinLenModule(p, n, layers)
    if (out[0].length, out[d].length) != layer_sums(p, d, n, a):
        raise ArithmeticError("H^0 or H^d length disagrees with layer_sums")
    return out


def layer_sums(p, d, n, a):
    """Closed-form lengths (h0, hd) of H^0, H^d(P^d, W_nO(a)): layer sums."""
    h0 = sum(comb(p ** l * a + d, d) for l in range(n)) if a >= 0 else 0
    hd = sum(comb(-(p ** l) * a - 1, d) for l in range(n)
             if -(p ** l) * a - d - 1 >= 0)
    return h0, hd


def _h0_cocycles(p, d, a):
    """Global-section cocycles of O(a) as constant C^0 cochains."""
    basis = []
    for e in h0_monomials(d, a):
        comp = {}
        for s in range(d + 1):
            S = frozenset([s])
            comp[S] = LaurentElem.monomial(p, 1, d + 1, e, 1, S)
        basis.append(comp)
    return basis


# the 156,566 top-degree monomials of (p, d, n, a) = (2, 3, 4, -12) take
# 1.2-1.9 s on a 2-core x86_64 VM
HD_MONOMIAL_LIMIT = 200_000


def hd_witt_length_by_cech(p, d, n, a):
    """Independent top-degree length: layerwise cokernel of the Cech map.

    Counts, per level l, the dimension of coker(C^(d-1) -> C^d) for O(p^l a)
    as the sum of top slice cohomology dimensions (rank arithmetic through
    :func:`slice_cohomology_dims`) over the finite multidegree box.
    A box of more than ``HD_MONOMIAL_LIMIT`` monomials is refused.
    """
    _check_space(p, d)
    count = layer_sums(p, d, n, a)[1]  # level l lists C(-p^l a - 1, d)
    if count > HD_MONOMIAL_LIMIT:
        raise ScaleExceeded("hd_witt_length_by_cech would list %d monomials"
                            % count)
    total = 0
    layers = []
    for l in range(n):
        twist = (p ** l) * a
        dim = 0
        for e in hd_monomials(d, twist):
            pattern = frozenset(i for i, v in enumerate(e) if v < 0)
            hs = slice_cohomology_dims(d, p, pattern)
            dim += hs[d]
        layers.append(dim)
        total += dim
    return total, layers


def ses_maps_report(p, d, n, a, samples, rng):
    """Spot-check the cochain-level maps V and R^{n-1} on random sections.

    Verifies additivity of V, the ring-map property of R, and R o V = 0.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    failures = []
    cases = 0
    for _ in range(samples):
        S = frozenset(rng.sample(range(d + 1), rng.randrange(1, d + 2)))
        x = _random_section(p, n - 1, d, p * a, S, rng)
        y = _random_section(p, n - 1, d, p * a, S, rng)
        zero = LaurentElem.zero(p, 1, d + 1, S)
        vx = WittVector(p, n, (zero,) + x.coords)
        vy = WittVector(p, n, (zero,) + y.coords)
        vxy = WittVector(p, n, (zero,) + witt_add(x, y).coords)
        cases += 1
        if witt_add(vx, vy) != vxy:
            failures.append("V additivity")
        if vx.coords[0] != zero:
            failures.append("R o V != 0")
        u = _random_section(p, n, d, 0, S, rng)
        w = _random_section(p, n, d, 0, S, rng)
        if witt_add(u, w).coords[0] != u.coords[0] + w.coords[0]:
            failures.append("R additivity")
        from .witt import witt_mul
        if witt_mul(u, w).coords[0] != u.coords[0] * w.coords[0]:
            failures.append("R multiplicativity")
    return {"cases": cases, "failures": failures}


def _random_section(p, n, d, a, S, rng):
    coords = []
    Ss = sorted(S)
    for l in range(n):
        deg = (p ** l) * a
        terms = {}
        for _ in range(rng.randrange(0, 3)):
            e = [0] * (d + 1)
            for idx in range(d + 1):
                if idx in S:
                    e[idx] = rng.randrange(-2, 3)
                else:
                    e[idx] = rng.randrange(0, 3)
            gap = deg - sum(e)
            e[Ss[0]] += gap
            terms[tuple(e)] = rng.randrange(1, p)
        coords.append(LaurentElem(p, 1, d + 1, terms, S))
    return WittVector(p, n, coords)
