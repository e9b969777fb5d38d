"""Local cohomology of projective space along a linear subspace, as monomials.

H~^(d-j) is realized as the span of symbols V^l([z^u]) where u runs over the
index set I (nonnegative exponents on z_0..z_j, strictly negative on the
rest, total degree zero); monomials with a nonnegative exponent in the
inverted block lie in the Cech image and are killed.  A class is held as its
w~ image, a sparse Laurent polynomial over Z/p^n from which one peel reads
the symbols back.  The parabolic P_j and the global divided-power operators
y_{il}^[r] act on that image, substitutions and derivatives before the kill
rule, and the three-step generation algorithm exhausts I from the finite
seed module N.
"""

from __future__ import annotations

from math import prod

from . import sparse
from .rings import (ScaleExceeded, SparseModElem, VariableMismatch,
                    graded_basis, ints, is_prime, read_json, v_p)
from .weyl import _act, gen_binom
from .witt import (_MAX_GENERATION_WORK, _MAX_STABILITY_WORK, _generation_work,
                   _stability_work, teich_scalar)


class CoefficientVanished(ArithmeticError):
    pass


def _degree_zero(d, j, top, lo, hi):
    """Total degree 0, entries 0..j in [0, top], the rest in [lo, hi]."""
    box = [(0, top)] * (j + 1) + [(lo, hi)] * (d - j)
    return graded_basis(d + 1, 0, box)


def enumerate_index(d, j, bound):
    """All of I with every |u_s| <= bound (empty when d = j), sorted."""
    return _degree_zero(d, j, bound, -bound, -1) if j < d else []


def index_seed(d, j):
    """I_j: the elements of I whose inverted entries are all -1."""
    return _degree_zero(d, j, d - j, -1, -1) if j < d else []


class CohClass(SparseModElem):
    """A finite combination of symbols V^l([lambda z^u]) in local cohomology,
    held as its image under w~, the injective map to (Z/p^n)[z^+-1] that
    sends V^l([lambda z^u]) to p^l omega(lambda) z^(p^(n-1-l) u).

    ``terms`` maps d + 1 exponents to residues mod p^n; z_(j+1)..z_d are
    inverted, and killed monomials (a nonnegative exponent in the inverted
    block: the Cech image) are dropped.  The constructor takes integer
    coefficients {(l, u): c}, meaning sum c V^l([z^u]); ``symbols`` reads
    the canonical Teichmuller digits {(l, u): lambda} back.
    """

    __slots__ = ()

    d = property(lambda self: self.num_vars - 1)
    j = property(lambda self: self.num_vars - 1 - len(self.allowed_negative))

    def __init__(self, p, n, d, j, terms):
        image = {}
        for (l, u), c in terms.items():
            if l < 0 or len(u) != d + 1:
                raise VariableMismatch("no symbol V^%r([z^%r])" % (l, u))
            if l < n:
                v = tuple(x * p ** (n - 1 - l) for x in u)
                image[v] = image.get(v, 0) + c * p ** l
        super().__init__(p, n, d + 1, image, range(j + 1, d + 1))

    def _clean_terms(self, terms, q, nv, neg):
        clean = {}
        for v, c in terms.items():
            if any(v[s] >= 0 for s in neg):
                continue  # kill rule: the monomial lies in the Cech image
            if any(v[s] < 0 for s in range(nv - len(neg))):
                raise ValueError("negative numerator exponent in a class")
            if sum(v) != 0:
                raise ValueError("class symbols must have total degree zero")
            c %= q
            if c:
                clean[v] = c
        return clean

    @classmethod
    def symbol(cls, p, n, d, j, l, u, coeff=1):
        return cls(p, n, d, j, {(l, tuple(u)): coeff})

    @classmethod
    def zero(cls, p, n, d, j):
        return cls(p, n, d, j, {})

    def coefficients(self):
        """The constructor's form {(l, u): c}: an image term C z^v at the least
        l with p^(n-1-l) | v, as u = v / p^(n-1-l) and c = C / p^l."""
        p, n = self.p, self.n
        out = {}
        for v, c in self.terms.items():
            l = next(l for l in range(n)
                     if not any(x % p ** (n - 1 - l) for x in v))
            c, r = divmod(c, p ** l)
            assert not r, "w~ image term not divisible by p^l"
            out[(l, tuple(x // p ** (n - 1 - l) for x in v))] = c
        return out

    def symbols(self):
        """The peel: the Teichmuller digits lambda_i of a coefficient c at
        (k, u) give the symbols (k + i, p^i u)."""
        p, n = self.p, self.n
        out = {}
        for (k, u), c in self.coefficients().items():
            for l in range(k, n):
                lam = c % p
                if lam:
                    out[(l, tuple(x * p ** (l - k) for x in u))] = lam
                c = (c - teich_scalar(lam, p, n - l)) // p
        return out

    def to_json(self):
        return {"p": self.p, "n": self.n, "d": self.d, "j": self.j,
                "terms": [{"l": l, "u": list(u), "c": c} for (l, u), c
                          in sorted(self.coefficients().items())]}

    @classmethod
    def from_json(cls, obj):
        ring, terms = read_json(
            obj, cls.__name__,
            lambda o: ints([o["p"], o["n"], o["d"], o["j"]]),
            lambda t, _ring: (ints([t["l"]])[0], ints(t["u"])))
        return cls(*ring, terms)

    def __repr__(self):
        return "CohClass(p=%d, n=%d, d=%d, j=%d, symbols=%r)" % (
            self.p, self.n, self.d, self.j,
            dict(sorted(self.symbols().items())))


def y_action(i, l_idx, r, c):
    """Apply y_{i,l_idx}^[r], the divided derivative along z_(l_idx) / z_i
    in the chart V_i.  On degree-0 monomials it is z_i^r d_(l_idx)^[r], and
    a Witt differential operator acts on w~ images as its lift does
    (``wittdiff.apply_witt``): so ``weyl._act`` on the image, then the kill
    rule."""
    if i == l_idx:
        raise ValueError("y_{ii} is not a root operator")
    e, order = (tuple(r * (s == t) for s in range(c.num_vars))
                for t in (i, l_idx))
    q = c.p ** c.n
    out = _act({(e, order): 1}, c.terms, q)
    return c._with(c._clean_terms(out, q, c.num_vars, c.allowed_negative))


# ----------------------------------------------------------------------
# the generation algorithm
# ----------------------------------------------------------------------

# move kinds: y_{ab}^[s], the corrected p-th power T y_{xa}^[p], and y_{xa}
_Y, _T, _Y1 = range(3)


def _usable_moves(moves, m, floor, p):
    """(name, s, m - s, claim vanished) for each move of one group from the
    lowered value m with m - s >= -floor whose coefficient is or is claimed
    a unit."""
    out = []
    for name, kind, s in moves:
        if m - s < -floor:
            break  # s rises within a group
        if kind == _Y:
            unit = gen_binom(m, s) % p
            claimed = m % p == p - 1
        elif kind == _T:
            unit = gen_binom(m, p) % p
            claimed = p <= m <= 2 * p - 1
        else:
            unit = m % p
            claimed = 1 <= m <= p - 1
        if unit or claimed:
            out.append((name, s, m - s, not unit))
    return tuple(out)


def _box_size(d, j, floor):
    """len(enumerate_index(d, j, floor)), counting sums of j + 1 numerators
    in [0, floor] against negated sums of d - j entries in [-floor, -1]."""
    num = sparse.power({(e,): 1 for e in range(floor + 1)}, j + 1)
    inv = sparse.power({(e,): 1 for e in range(1, floor + 1)}, d - j)
    return sum(c * inv.get(t, 0) for t, c in num.items())


def generation_run(p, d, j, bound, trace=False, strict_claims=None):
    """Run the three-step generation procedure and report coverage.

    The generation theorem reduces to n = 1, so the run is over F_p.
    Starting from the seed vectors I_j, the moves are the proof's operator
    repertoire: y_{ab}^[s] for a <= j < b and 1 <= s <= p, and inside the
    numerator block the corrected p-th powers T_{ax}^(p-1) y_{xa}^[p] and the
    single derivatives y_{xa}.  A move happens only when its binomial
    coefficient is a unit mod p; moves the proof asserts to be units raise
    CoefficientVanished if the assertion fails (under the theorem hypothesis
    p != 2; the experimental p = 2 mode records the falsified claims
    instead).  Each pass records its ``floor``, the size ``box`` of I
    within it and how many of those it ``covered``; ``target`` and
    ``reached`` count the same at the bound.  Sizes are counted, not
    listed: I is enumerated only to list the ``missing`` vectors, if any.

    A move raises a numerator and lowers another entry by the same step; only
    the lowered one is checked, against -floor >= -bound.  A numerator never
    drops below 0 (that move's coefficient is 0) and inverted entries stay in
    [-floor, -1], so at total degree 0 no numerator exceeds floor * (d - j).

    The table is grouped by raised and lowered coordinate.  Whether a move
    applies depends only on its kind, its step and the lowered value m, so
    each pass memoises, per group, m -> the moves that apply or whose claim
    vanished.  Each vector still tries its moves in table order, and each
    pass pops its frontier from list(reached), so ``steps`` and
    ``vanished_claims`` keep their order, repeats included.  A run over the
    work limit (witt._generation_work) is refused before any of it starts.
    """
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if bound < 0:
        raise ValueError("need bound >= 0, got bound = %d" % bound)
    if not 0 <= j < d:
        raise ValueError("need 0 <= j < d, got j = %d, d = %d" % (j, d))
    if strict_claims is None:
        strict_claims = p != 2
    work = _generation_work(p, d, j, bound)
    if work > _MAX_GENERATION_WORK:
        raise ScaleExceeded(
            "the generation walk at p = %d, d = %d, j = %d, bound = %d could"
            " try %d moves, over the limit of %d"
            % (p, d, j, bound, work, _MAX_GENERATION_WORK))
    reached = set(index_seed(d, j))
    steps = []
    vanished = []
    per_iteration = []

    # the move table in the order the moves are tried, one group per raised
    # and lowered coordinate: (hi, lo, [(name, kind, s), ...]) with s rising
    table = [(a, b, [("y[%d]_%d%d" % (s, a, b), _Y, s)
                     for s in range(1, p + 1)])
             for a in range(j + 1) for b in range(j + 1, d + 1)]
    table += [(x, a, [("T^%d y[%d]_%d%d" % (p - 1, p, x, a), _T, 1),
                      ("y_%d%d" % (x, a), _Y1, 1)])
              for a in range(j + 1) for x in range(j + 1) if x != a]

    r_iter = 0
    floor = 1
    while floor < bound:
        r_iter += 1
        floor = min(r_iter * p + 1, bound)
        # per group, lowered value m -> its usable moves at this floor
        walk = [(hi, lo, moves, {}) for hi, lo, moves in table]
        frontier = list(reached)
        while frontier:
            u = frontier.pop()
            w = list(u)
            for hi, lo, moves, memo in walk:
                m = u[lo]
                usable = memo.get(m)
                if usable is None:
                    usable = memo[m] = _usable_moves(moves, m, floor, p)
                for name, s, low, vanished_claim in usable:
                    if vanished_claim:
                        if strict_claims:
                            raise CoefficientVanished(
                                "claimed unit vanished: %s at %r" % (name, u)
                            )
                        vanished.append({"op": name, "at": list(u)})
                        continue
                    w[hi] = u[hi] + s
                    w[lo] = low
                    v = tuple(w)
                    if v not in reached:
                        reached.add(v)
                        frontier.append(v)
                        if trace:
                            steps.append({"op": name, "from": list(u),
                                          "to": list(v)})
                if usable:
                    w[hi] = u[hi]
                    w[lo] = m
        # walked vectors have numerators >= 0 and inverted entries < 0, so
        # those in the box are those with every |u_s| <= floor
        covered = sum(max(u) <= floor >= -min(u) for u in reached)
        per_iteration.append({"iteration": r_iter, "floor": floor,
                              "covered": covered,
                              "box": _box_size(d, j, floor)})
    target = _box_size(d, j, bound)
    covered = sum(max(u) <= bound >= -min(u) for u in reached)
    missing = [list(u) for u in enumerate_index(d, j, bound)
               if u not in reached] if covered < target else []
    report = {
        "p": p, "d": d, "j": j, "bound": bound,
        "target": target, "reached": covered, "missing": missing,
        "iterations": per_iteration,
        "vanished_claims": vanished,
    }
    if trace:
        report["steps"] = steps
    return report


# ----------------------------------------------------------------------
# parabolic action and the finite generator module N
# ----------------------------------------------------------------------

def parabolic_in_pj(kind, args, j, d):
    if kind == "torus":
        return True
    u, v, _c = args
    return not (u <= j < v)


def parabolic_action(g, x):
    """Act by a P_j generator on a CohClass, through its w~ image.

    ``g`` is ("torus", (t_0, ..., t_d)), acting on z^m by the eigenvalue
    prod t_s^(-m_s), or ("unipotent", (u, v, c)), substituting
    z_v -> z_v + c z_u.  w~ commutes with ring maps lifted to the integers,
    so a term C z^m is multiplied by the Teichmuller lift of its eigenvalue,
    or z_v^(m_v) is expanded as sum_k binom(m_v, k) c^k z_v^(m_v-k) z_u^k:
    for m_v < 0, u and v are both inverted and the kill rule ends the series
    at k < -m_u.  It kills after the lift, since [a + b] != [a] + [b].
    """
    kind, args = g
    p, n, d, j = x.p, x.n, x.d, x.j
    if not parabolic_in_pj(kind, args, j, d):
        raise ValueError("generator does not lie in P_j")
    q = p ** n
    if kind == "torus":
        return x._with({m: c * teich_scalar(
            prod(pow(t, -e, p) for t, e in zip(args, m)), p, n) % q
            for m, c in x.terms.items()})
    uu, vv, cc = args
    out = {}
    for m, c in x.terms.items():
        mv = m[vv]
        b = 1  # binom(m_v, k), exact from term to term
        for k in range(mv + 1 if mv >= 0 else max(0, -m[uu])):
            e = m[:vv] + (mv - k,) + m[vv + 1:]
            e = e[:uu] + (m[uu] + k,) + e[uu + 1:]
            out[e] = out.get(e, 0) + c * b * pow(cc, k, q)
            b = b * (mv - k) // (k + 1)
    return x._with(x._clean_terms(out, q, x.num_vars, x.allowed_negative))


class GeneratorModule:
    """The finite W_n(k)-module N spanned by V^l of p-power products of I_j."""

    __slots__ = ("p", "n", "d", "j")

    def __init__(self, p, n, d, j):
        self.p = p
        self.n = n
        self.d = d
        self.j = j

    def generators(self):
        """All symbols (l, w) with w a sum of p^r seed vectors, r <= l < n."""
        seeds = index_seed(self.d, self.j)
        out = set()
        for l in range(self.n):
            for r in range(l + 1):
                for w in _sums_of(seeds, self.p ** r):
                    out.add((l, w))
        return sorted(out)

    def contains_symbol(self, l, u):
        """Unit-coefficient symbol membership in the module span."""
        inv = {u[s] for s in range(self.j + 1, self.d + 1)}
        if len(inv) != 1:
            return False
        val = -next(iter(inv))
        r = v_p(val, self.p)
        if r is None or val != self.p ** r:
            return False
        if r > l:
            return False
        return all(u[s] >= 0 for s in range(self.j + 1))

    def contains(self, x):
        return all(
            self.contains_symbol(l, u) for (l, u) in x.symbols()
        )


def _sums_of(seeds, count):
    """All componentwise sums of ``count`` seed vectors (with repetition)."""
    acc = {tuple(0 for _ in seeds[0])}
    for _ in range(count):
        acc = {
            tuple(a + b for a, b in zip(x, s)) for x in acc for s in seeds
        }
    return acc


def pj_generators(p, d, j):
    """Elementary torus and unipotent generators of P_j over F_p."""
    gens = []
    for t0 in range(1, p):
        t = [1] * (d + 1)
        t[0] = t0
        gens.append(("torus", tuple(t)))
        t = [t0] * (d + 1)
        gens.append(("torus", tuple(t)))
    for u in range(d + 1):
        for v in range(d + 1):
            if u == v or (u <= j < v):
                continue
            for c in range(1, p):
                gens.append(("unipotent", (u, v, c)))
    return gens


def stability_report(p, n, d, j):
    """Check g.N subset N for every elementary P_j generator.

    A run over the work limit (witt._stability_work) is refused before any
    of it starts.
    """
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if n < 1:
        raise ValueError("need n >= 1, got n = %d" % n)
    if not 0 <= j < d:
        raise ValueError("need 0 <= j < d, got j = %d, d = %d" % (j, d))
    work = _stability_work(p, n, d, j)
    if work > _MAX_STABILITY_WORK:
        raise ScaleExceeded(
            "the stability check at p = %d, n = %d, d = %d, j = %d could"
            " expand %d series terms, over the limit of %d"
            % (p, n, d, j, work, _MAX_STABILITY_WORK))
    mod = GeneratorModule(p, n, d, j)
    failures = []
    gens = pj_generators(p, d, j)
    cases = 0
    for (l, w) in mod.generators():
        x = CohClass.symbol(p, n, d, j, l, w)
        for g in gens:
            cases += 1
            img = parabolic_action(g, x)
            if not mod.contains(img):
                failures.append({"generator": repr(g), "symbol": [l, list(w)]})
    return {"p": p, "n": n, "d": d, "j": j, "cases": cases,
            "failures": failures}
