"""Truncated p-typical Witt vectors with exact arithmetic.

Over Z and F_p, arithmetic lifts coordinates to Z, transports them through
ghost components, and inverts the ghost map with exact integer divisions.
Laurent vectors go through the injective ring map w-tilde: W_n(A) ->
(Z/p^n)[z^{+-1}] instead, and back by peeling (:func:`tilde_w_inverse`).
The values so produced coincide with specializations of the universal
addition/multiplication polynomials, which are also constructed explicitly
(and cross-checked in the test suite).

The ghost map and its inverse chain p-th powers across levels (the power
needed at level i is the p-th power of the one used at level i-1) and skip
zero coordinates.  Since both maps are additive, a difference, a sum of
many vectors and a multiple by an integer each take one round trip:
images are combined once and inverted once.

Conventions: a vector of length n >= 1 has coordinates (a_1, ..., a_n);
ghost components are w_i = sum_{j<=i} p^j a_{j+1}^{p^(i-j)} for 0 <= i < n.
"""

from __future__ import annotations


from functools import lru_cache, reduce
from itertools import repeat
from math import comb, prod
from operator import add as _add, mul as _mul

from . import sparse
from .rings import (
    LaurentElem,
    PrimeFieldElem,
    ScaleExceeded,
    VariableMismatch,
    is_prime,
)
from .sparse import (IntegralityFailure, _digits, _half_words, _pmul, _ppow,
                     _unpack, add_into)


class TorsionRing(TypeError):
    pass


class NotInImage(ValueError):
    pass


class LengthUnderflow(ValueError):
    pass


# ----------------------------------------------------------------------
# integer covers: plain ints for Z and F_p; exponent->int dicts for the
# Laurent values of the universal polynomials
# ----------------------------------------------------------------------

def _lift(c):
    if isinstance(c, int):
        return c
    if isinstance(c, PrimeFieldElem):
        return c.value
    if isinstance(c, LaurentElem):
        return c.terms  # shared: specialize never mutates
    raise TypeError("unsupported coordinate type %r" % type(c))


def _reduce_like(cover, template, p):
    """The coordinate in template's ring that the cover reduces to.

    A Laurent cover specialized at coordinates of template's ring has its
    negative exponents inside that ring's region, so it only needs its
    coefficients reduced mod p.
    """
    if isinstance(template, int):
        return cover
    if isinstance(template, PrimeFieldElem):
        return PrimeFieldElem(p, cover % p)
    if isinstance(template, LaurentElem):
        return template._with({e: v for e, c in cover.items()
                               if (v := c % p)})
    raise TypeError("unsupported coordinate type %r" % type(template))


def _vector_from_covers(x, covers):
    """The vector over x's coordinate ring whose coordinates reduce covers."""
    return WittVector._trusted(x.p, x.n, [_reduce_like(c, t, x.p)
                                          for c, t in zip(covers, x.coords)])


def _ghost_from_covers(covers, p):
    """Ghost components of a tuple of integers.

    Powers are chained across levels: at level i the j-th summand needs
    covers[j]^(p^(i-j)), one p-th power beyond its level-(i-1) form.
    Zero covers contribute nothing and are skipped.
    """
    powers = list(covers)
    ws = []
    for i in range(len(covers)):
        acc = 0
        for j in range(i + 1):
            if powers[j]:
                if j < i:
                    powers[j] **= p
                acc += p ** j * powers[j]
        ws.append(acc)
    return ws


def _ghost_inverse(ws, p):
    """Recover integer Witt coordinates from ghost values.

    The p-th powers of the coordinates already found are chained across
    levels as in :func:`_ghost_from_covers`.
    """
    coords = []
    powers = []
    for i, acc in enumerate(ws):
        for j in range(i):
            if powers[j]:
                powers[j] **= p
                acc -= p ** j * powers[j]
        c, r = divmod(acc, p ** i)
        if r:
            raise IntegralityFailure("non-exact division by %d" % p ** i)
        coords.append(c)
        powers.append(c)
    return coords


# ----------------------------------------------------------------------
# universal polynomials, on packed exponents
# ----------------------------------------------------------------------
#
# The universal polynomials are solved, ghost-checked, stored and
# specialized on the Kronecker-packed exponents of wittkit.sparse (base
# 2 p^(n-1) + 1; the module docstring there says why no digit carries).
# X_j sits at place value base^j, Y_j at base^(n+j).  The layout is base
# and the segmentations (Y_0, X_0, 1) and (X_0, X_1, p) of the products.

def _pack_base(p, n):
    return 2 * p ** (n - 1) + 1


def _layout(p, n):
    base = _pack_base(p, n)
    return base, ((base ** n, 1, 1), (1, base, p))


def _poly_ghost(var_offset, p, i, base):
    """Packed ghost polynomial w_i in variables var_offset..var_offset+i."""
    return {(p ** (i - j)) * base ** (var_offset + j): p ** j
            for j in range(i + 1)}


# The largest build allowed, in the units of _poly_cost.  Measured on a
# 2-vCPU x86-64 VM, build and ghost check together: (5, 4) costs 8.5e8 and
# takes 0.2 s, (3, 5) 1.1e9 and 1.0 s, (19, 3) 3.4e9 and 0.6 s; refused are
# (23, 3) at 1.5e10, which takes 5.8 s, (3001, 2) at 2.7e10, 10 s, and
# (29, 3) at 9.3e10, whose build alone takes 65 s.
_MAX_POLY_COST = 5 * 10 ** 9


def _poly_terms_bound(p, n):
    """An upper bound on the terms of the universal polynomials of W_n.

    With X_j and Y_j of weight p^j, the level-i sum polynomial is weighted
    homogeneous of degree p^i in X_0..X_i, Y_0..Y_i, the product polynomial
    is so in the X and in the Y separately, and the negation polynomial in
    the X alone.  So level i holds at most sum_a M(a) M(p^i - a) + M(p^i)^2
    + M(p^i) terms, where M(k) counts the monomials of weighted degree k in
    X_0..X_i; one pass counts them for every k <= p^(n-1).
    """
    top = p ** (n - 1)
    counts = [1] * (top + 1)  # monomials in X_0 alone, by weighted degree
    for i in range(1, n):
        w = p ** i
        for k in range(w, top + 1):
            counts[k] += counts[k - w]
    total = 0
    for i in range(n):
        m = counts[:p ** i + 1]  # weights above p^i do not fit in degree p^i
        total += sum(map(_mul, m, reversed(m))) + m[-1] * m[-1] + m[-1]
    return total


def _poly_cost(p, n):
    """The work of building the universal polynomials of W_n.

    Terms (:func:`_poly_terms_bound`) times the square of p^(n-1).  The
    top level's coefficients include binomials C(p^(n-1), k), about p^(n-1)
    bits long, and a build is mostly products of such polynomials, whose
    integer products cost about the square of that length.  The term
    bound is at least p^(n-1) + 1, its top-level sum over a having that many
    positive summands, so once (p^(n-1) + 1) p^(2(n-1)) passes the limit it
    is returned without counting.
    """
    top = p ** (n - 1)
    if top ** 3 > _MAX_POLY_COST:
        return (top + 1) * top * top
    return _poly_terms_bound(p, n) * top * top


# The basis keys are made one at a time, so the limit bounds time: on a
# 2-vCPU x86-64 VM a million keys (p = 3, n = 2, d = 3, i = 0, bound 99)
# take 11 to 12 s through the six identities of checks.drw_cell, at 14 MiB
# peak RSS.
# Criterion 8's largest cell (p = 3, d = 3, bound 27, degree 1) has 63,504.
_MAX_BASIS_SIZE = 10 ** 6


def _basis_size(d, i, bound):
    """The number of pairs drw.enumerate_basis(p, n, d, i, bound) returns.

    A weight whose support has s elements has C(s, i) partitions in degree
    i (compositions into i and i + 1 parts; one in degree 0), and bound^s
    weights have a given support of size s.  Summed over supports, with the
    i blocks' variables chosen first, that is C(d, i) bound^i (bound+1)^(d-i).
    """
    if i > d:
        return 0
    return comb(d, i) * bound ** i * (bound + 1) ** (d - i)


# The most moves localcoh.generation_run may try, by _generation_work.  On a
# 2-vCPU x86-64 VM, non-strict: (p, d, j, bound) = (5, 4, 1, 11), the
# benchmark's largest cell, is 1.7e6; (5, 4, 1, 16) 1.1e7 takes 0.9 s;
# (2, 3, 1, 60) 8.0e7 takes 1.0 s at 51 MiB peak RSS, since its walk
# reaches 96 vectors and each pass's box is counted, not listed; refused
# is (5, 4, 1, 26) at 1.2e8, 13 s and 161 MiB.
_MAX_GENERATION_WORK = 10 ** 8


def _generation_walk_size(d, j, bound):
    """The number of vectors a full localcoh.generation_run walk reaches.

    The walk reaches the vectors of I whose d - j inverted entries lie in
    [-bound, -1]; with t their negated sum, C(t + j, j) numerator blocks
    complete each.  Summing over one entry w in [1, bound] turns C(x + w, a)
    into C(x + bound + 1, a + 1) - C(x + 1, a + 1); once per inverted entry,
    with k = d - j, that gives sum_i (-1)^(k-i) C(k, i) C(j + k + i bound,
    j + k).  The seeds, which have every inverted entry -1, are kept at
    bound 0 too.  A walk that stops short reaches fewer.
    """
    k, bound = d - j, max(bound, 1)
    return sum((-1) ** (k - i) * comb(k, i) * comb(j + k + i * bound, j + k)
               for i in range(k + 1))


def _generation_work(p, d, j, bound):
    """An upper bound on the moves localcoh.generation_run tries: each of
    its ceil((bound - 1) / p) passes (at least one) revisits every reached
    vector and tries the (j + 1)((d - j) p + 2 j) moves of the table."""
    return (_generation_walk_size(d, j, bound) * max(1, -(-(bound - 1) // p))
            * (j + 1) * ((d - j) * p + 2 * j))


# The most series terms localcoh.stability_report may expand, by
# _stability_work.  On a 2-vCPU x86-64 VM, (p, n, d, j) = (5, 2, 6, 3) at
# 1.8e6 and (2, 4, 7, 6) at 1.6e6 take 6.0 and 7.6 s; refused are
# (7, 3, 4, 1) at 2.9e6, 5.3 s if run, and (7, 4, 6, 0) at 4.7e6, whose
# generator series run to 2,059 terms.
_MAX_STABILITY_WORK = 2 * 10 ** 6


def _stability_work(p, n, d, j):
    """An upper bound on the series terms localcoh.stability_report expands.

    It is |generators of N| * |P_j generators| * the longest series.  N
    holds, for each level l < n and each r <= l, the C(p^r (d - j) + j, j)
    sums of p^r seeds; P_j has 2 (p - 1) torus generators and p - 1
    unipotent ones per root outside the block u <= j < v; and the w~ image
    of a generator has no entry larger than p^(n-1) (d - j) in absolute
    value, so a substituted series has at most one term more.
    """
    gens = sum((n - r) * comb(p ** r * (d - j) + j, j) for r in range(n))
    pj = (p - 1) * (2 + (d + 1) * d - (j + 1) * (d - j))
    return gens * pj * (p ** (n - 1) * (d - j) + 1)


# The most term products wittdiff.check_relation may take, by
# _relation_work.  On a 2-vCPU x86-64 VM, with 5 samples, wdiff verify takes
# 0.3 s on the Frobenius relation at (p, n, d) = (3, 5, 3) and (2, 8, 2),
# 3.0e7 and 1.0e7 per order r; refused are the Frobenius relation at
# (3, 6, 3), 8.2e8, and the restriction at (5, 4, 2), 1.5e11, both still
# running after 25 s, and at (3, 5, 3), 1.9e9, 0.4 s on one seed, over 300 s
# on the next.
_MAX_RELATION_WORK = 2 * 10 ** 8


def _relation_work(which, p, n, samples):
    """An estimate of the term products wittdiff.check_relation takes.

    Each sample restricts d_j^[r] to W_L, L = n + 1, by a w~ round trip,
    and the Teichmuller powers of the peel back dominate.  Measured on
    random draws with d <= 3 and r <= p^2, a sample took at most (p^L)^3 / 6
    of them, and one of the Frobenius relation, whose operator meets p-th
    powers, at most (p^L)^3 / 400: so samples (p^L)^3, over 64 for that one.
    """
    return samples * p ** (3 * n + 3) // (64 if which == "frobenius" else 1)


class UniversalWittPolys:
    """Sum/product/negation polynomials for W_n, built by ghost recursion.

    The recursion solves p^i * S_i = w_i(X) + w_i(Y) - sum_{j<i} p^j S_j^(p^(i-j))
    over Z with a hard exactness assertion, so ghost compatibility holds by
    construction and all coefficients are certified integers.  The stored
    polynomials are dicts on the packed exponents of ``_layout`` in the
    variables X_0..X_{n-1}, Y_0..Y_{n-1} (negation: X only), as the solve
    leaves them; :meth:`unpacked` gives them with exponent tuples.

    Values in F_p are specialized through a reduced form of each list
    (:meth:`fp_polys`), built on first use and kept on the instance, which
    ``build_universal_polys`` shares among its few latest shapes.  On F_p
    Fermat's little theorem gives x^k = x^(1 + (k-1) mod (p-1)) for k >= 1,
    x = 0 included, and coefficients only matter mod p; so the reduced form
    takes the same value at every point of F_p^(2n).  At (5, 4) the sum
    polynomials shrink from 37,902 terms to 1,012.
    """

    def __init__(self, p, n):
        if not is_prime(p) or n < 1:
            raise ValueError("need prime p and n >= 1")
        cost = _poly_cost(p, n)
        if cost > _MAX_POLY_COST:
            raise ScaleExceeded(
                "universal polynomials for p = %d, n = %d would cost %d,"
                " over the limit of %d" % (p, n, cost, _MAX_POLY_COST))
        self.p = p
        self.n = n
        sum_t, prod_t, neg_t = self._ghost_targets()
        self.sum_polys = self._solve(sum_t, p)
        self.prod_polys = self._solve(prod_t, p)
        self.neg_polys = self._solve(neg_t, p)
        self._fp_polys = {}  # name -> reduced form, filled by fp_polys

    def unpacked(self, name):
        """The list ``name`` ("sum_polys", ...) keyed by exponent tuples."""
        nvars = self.n if name == "neg_polys" else 2 * self.n
        return [_unpack(f, _pack_base(self.p, self.n), nvars)
                for f in getattr(self, name)]

    def fp_polys(self, name):
        """The list ``name`` ("sum_polys", ...) reduced for values in F_p.

        Each coefficient is reduced mod p, each exponent k >= 1 becomes
        1 + (k-1) mod (p-1), and the terms that then coincide are merged,
        zeros dropped.  Evaluated mod p at F_p values, each reduced
        polynomial equals the stored one (see the class docstring).
        """
        polys = self._fp_polys.get(name)
        if polys is None:
            p, n = self.p, self.n
            # every exponent is at most the top weighted degree p^(n-1)
            fold = [0] + [1 + k % (p - 1) for k in range(p ** (n - 1))]
            base = _pack_base(p, n)
            nvars = n if name == "neg_polys" else 2 * n
            places = [base ** j for j in range(nvars)]
            split, lows, highs = _half_words(base, nvars, lambda d, first: sum(
                map(_mul, map(fold.__getitem__, d), places[first:])))
            polys = []
            for f in getattr(self, name):
                acc = {}
                for k, c in f.items():
                    if c % p:
                        hi, lo = divmod(k, split)
                        e = lows[lo] + highs[hi]  # the folded packed key
                        acc[e] = acc.get(e, 0) + c
                polys.append({e: v for e, c in acc.items() if (v := c % p)})
            self._fp_polys[name] = polys
        return polys

    def _ghost_targets(self):
        """Packed ghosts of X + Y, X * Y and -X, level by level."""
        p, n = self.p, self.n
        base, segs = _layout(p, n)
        gx = [_poly_ghost(0, p, i, base) for i in range(n)]
        gy = [_poly_ghost(n, p, i, base) for i in range(n)]
        return ([sparse.add(a, b) for a, b in zip(gx, gy)],
                [_pmul(a, b, base, segs) for a, b in zip(gx, gy)],
                [sparse.scale(g, -1) for g in gx])

    @staticmethod
    def _solve(target_ghosts, p):
        # ghost inversion; p-th powers chained across levels, summed in place;
        # the top level's powers are never held: each last product lands in acc
        n = len(target_ghosts)
        base, segs = _layout(p, n)
        coords = []
        powers = []  # powers[j] = coords[j]^(p^(i-1-j)) at level i
        for i in range(n):
            acc = dict(target_ghosts[i])
            for j in range(i):
                if i == n - 1:
                    _ppow(powers[j], p, base, segs, acc, -(p ** j))
                    powers[j] = None
                else:
                    powers[j] = _ppow(powers[j], p, base, segs)
                    add_into(acc, powers[j].items(), -(p ** j))
            coords.append(sparse.divexact(acc, p ** i))
            powers.append(coords[i])
        return coords

    def check_ghost_compat(self):
        """Recompute ghosts of S, P, I symbolically and compare with targets.

        Powers are chained across ghost levels: at level i the j-th summand
        needs polys[j]^(p^(i-j)), one p-th power beyond its level-(i-1) form.
        Every power is recomputed from the stored polynomials, never taken
        from the build.  Level i adds the p^j polys[j]^(p^(i-j)) and minus
        the target into one dict, and holds iff all of it is 0.

        Held at one time, besides the stored polynomials and the targets:
        that dict and the chained powers of one family, whose first power
        is the stored polynomial itself.  At the top level no power is
        held at all: the last squaring or product of each lands in the
        level sum slot by slot, and each group integer of that product is
        dropped once read.  So that level holds the dict, the level-(n-2)
        powers not yet raised and the squarings of one power at a time.
        """
        p, n = self.p, self.n
        base, segs = _layout(p, n)
        jobs = zip(("sum", "product", "negation"),
                   (self.sum_polys, self.prod_polys, self.neg_polys),
                   self._ghost_targets())
        for name, polys, targets in jobs:
            powers = []
            for i in range(n):
                acc = {}
                for j in range(i):
                    if i == n - 1:
                        _ppow(powers[j], p, base, segs, acc, p ** j)
                        powers[j] = None
                    else:
                        powers[j] = _ppow(powers[j], p, base, segs)
                        add_into(acc, powers[j].items(), p ** j)
                powers.append(polys[i])
                add_into(acc, polys[i].items(), p ** i)
                add_into(acc, targets[i].items(), -1)
                if any(acc.values()):
                    raise IntegralityFailure(
                        "%s polynomial ghost mismatch at %d" % (name, i)
                    )
        return True

    def specialize(self, poly, values, q):
        """Evaluate one stored polynomial at integer-cover values, mod q.

        ``values`` are all ints or all tuple-keyed Laurent covers.  With q = 0
        the value is taken over Z.  With q > 0 the values must already be
        reduced mod q and the value is returned reduced mod q: evaluation is
        a ring map, so the pass reduces on the way.

        There are two routes.  Monomial covers, that is ints (c as the cover
        {(): c}, or {} for 0) and Laurent values that are 0 or one term, go
        through :func:`_specialize_one_term`.  Otherwise each distinct half
        of a packed key (``sparse._half_words``) gets its product of powers
        of the values once, and a monomial costs one product of its halves.

        The universal polynomials have no constant term, so a constant that
        does not vanish mod q raises IntegralityFailure.  For values in F_p,
        ``poly`` may be the reduced form from :meth:`fp_polys`: it has the
        same value mod p at every point of F_p, in far fewer terms.
        """
        const = poly.get(0, 0)
        if const % q if q else const:
            raise IntegralityFailure("unexpected constant monomial")
        base, top = _pack_base(self.p, self.n), self.p ** (self.n - 1)
        if isinstance(values[0], int):
            covers = [{(): c} if c else {} for c in values]
            return _specialize_one_term(poly, covers, q, top, base).get((), 0)
        if all(len(v) < 2 for v in values):
            return _specialize_one_term(poly, values, q, top, base)
        one = {(0,) * next(len(e) for v in values for e in v): 1}

        def half(digits, first):
            fs = [sparse.power(v, k, q)
                  for v, k in zip(values[first:], digits) if k]
            return reduce(lambda f, g: sparse.mul(f, g, q), fs) if fs else one

        split, lows, highs = _half_words(base, len(values), half)
        acc = {}
        for k, c in poly.items():
            if q and not (c := c % q):
                continue
            hi, lo = divmod(k, split)
            add_into(acc, sparse.mul(lows[lo], highs[hi], q).items(), c)
        return {e: v for e, c in acc.items() if (v := c % q if q else c)}


def _specialize_one_term(poly, values, q, top, base):
    """A stored polynomial at monomial covers: each value 0 or one term.

    At values c_i z^(e_i), c X^a takes the value c prod c_i^(a_i) z^(sum
    a_i e_i).  Both are taken per distinct half-word of the stored key
    (packed in ``base``), so only the powers that occur are raised: in the
    reduced forms of ``fp_polys`` no exponent exceeds p - 1, in the stored
    polynomials none exceeds ``top`` = p^(n-1).  Exponent sums are linear,
    so each e_i is packed into an integer of signed digits whose base
    exceeds twice every |sum a_i e_i|: sum a_i is at most the weighted
    degree, at most 2 top.  Only the distinct result keys are unpacked.
    Constant covers (e = ()) have no exponents to pack.
    """
    nvars = next((len(e) for v in values for e in v), 0)
    coeffs = list(map(sum, map(dict.values, values)))  # 0 for a zero value
    if nvars:
        span = 2 * top * max(abs(x) for v in values for e in v for x in e)
        zbase = 2 * span + 1
        shifts = [sum(x * zbase ** j for e in v for j, x in enumerate(e))
                  for v in values]
        mods = repeat(q or None)
        value = lambda d, first: (prod(map(pow, coeffs[first:], d, mods)),
                                  sum(map(_mul, shifts[first:], d)))
    else:  # constants: no exponents; powers in fp_polys forms stay small
        span, zbase = 0, 1
        value = lambda d, first: (prod(map(pow, coeffs[first:], d)), 0)
    split, lows, highs = _half_words(base, len(values), value)
    acc = {}
    get = acc.get
    for k, c in poly.items():
        if q and not (c := c % q):
            continue
        hi, lo = divmod(k, split)
        (cl, kl), (ch, kh) = lows[lo], highs[hi]
        key = kl + kh
        acc[key] = get(key, 0) + c * cl * ch
    # digits shifted by span are the unsigned digits of key + offset
    offset = span * sum(zbase ** j for j in range(nvars))
    return {tuple(x - span for x in _digits(k + offset, zbase, nvars)): v
            for k, c in acc.items() if (v := c % q if q else c)}


@lru_cache(maxsize=4)
def build_universal_polys(p, n):
    """The universal polynomials of W_n, shared by the latest few shapes.

    The ``*_via_polys`` functions look the shape up on every call; the
    bound keeps memory flat when many shapes are built in one process.
    """
    return UniversalWittPolys(p, n)


# ----------------------------------------------------------------------
# Witt vectors
# ----------------------------------------------------------------------

def _ring(c):
    """What tells a coordinate's ring apart: its type, and for a Laurent
    coordinate its variables and allowed-negative region."""
    if isinstance(c, LaurentElem):
        return c.num_vars, c.allowed_negative
    return type(c)


class WittVector:
    """A length-n p-typical Witt vector with exact coordinates, n >= 1.

    Coordinates are all plain ints (ring Z), all PrimeFieldElem, or all
    LaurentElem over F_p in one ring (variables and allowed-negative region);
    the constructor raises ValueError unless p is prime and VariableMismatch
    on anything else.  Two vectors combine only over the same coordinate
    ring, as Laurent elements do.  ``_trusted`` checks nothing: its caller
    passes n >= 1 coordinates in the ring of one checked vector or element.
    """

    __slots__ = ("p", "n", "coords")

    @classmethod
    def _trusted(cls, p, n, coords, _new=object.__new__):
        out = _new(cls)
        out.p, out.n, out.coords = p, n, tuple(coords)
        return out

    def __init__(self, p, n, coords):
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        coords = tuple(coords)
        if n < 1 or len(coords) != n:
            raise VariableMismatch("need n >= 1 and n coordinates, got n ="
                                   " %r and %d" % (n, len(coords)))
        self.p, self.n, self.coords = p, n, coords
        first = coords[0]
        kind = type(first)
        if kind is LaurentElem:
            ring = p, 1, first.num_vars, first.allowed_negative
            for c in coords:
                if type(c) is not kind or (
                        c.p, c.n, c.num_vars, c.allowed_negative) != ring:
                    raise VariableMismatch(
                        "coordinates not all Laurent over F_p in one ring")
        elif kind is PrimeFieldElem:
            for c in coords:
                if type(c) is not kind or c.p != p:
                    raise VariableMismatch("coordinates not all in F_p")
        elif kind is not int or any(type(c) is not int for c in coords):
            raise VariableMismatch(
                "coordinates must be all ints, all in F_p or all Laurent")

    # -- helpers --------------------------------------------------------

    def _check(self, other):
        if self.p != other.p or self.n != other.n:
            raise VariableMismatch("incompatible Witt vectors")
        if _ring(self.coords[0]) != _ring(other.coords[0]):
            raise VariableMismatch(
                "Witt vectors over different coordinate rings")

    def _is_char_p(self):
        return not isinstance(self.coords[0], int)

    def zero_coord(self):
        c = self.coords[0]
        if isinstance(c, int):
            return 0
        if isinstance(c, PrimeFieldElem):
            return PrimeFieldElem(self.p, 0)
        return c._with({})  # c is over F_p: __init__ checks c.n == 1

    def is_zero(self):
        return not any(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, WittVector)
            and self.p == other.p
            and self.n == other.n
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.p, self.n, self.coords))

    def __repr__(self):
        return "WittVector(p=%d, %r)" % (self.p, list(self.coords))

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "coords": [
                c.to_json() if isinstance(c, LaurentElem)
                else (c.value if isinstance(c, PrimeFieldElem) else c)
                for c in self.coords
            ],
        }

    @classmethod
    def from_json(cls, obj):
        if not (isinstance(obj, dict) and type(obj.get("p")) is int
                and type(obj.get("n")) is int
                and isinstance(obj.get("coords"), list)):
            raise VariableMismatch(
                "a Witt vector needs int \"p\" and \"n\" and a \"coords\""
                " list, got %r" % (obj,))
        coords = []
        for c in obj["coords"]:
            if isinstance(c, dict):
                coords.append(LaurentElem.from_json(c))
            elif type(c) is int:  # not a bool, a float or a string
                coords.append(PrimeFieldElem(obj["p"], c))
            else:
                raise VariableMismatch("coordinate %r is not an int" % (c,))
        return cls(obj["p"], obj["n"], coords)


def _ghosts(x):
    """x's ghost components over Z or F_p (lifted to Z); for a Laurent
    vector the one-entry list [w-tilde(x)].  Both maps are injective ring
    maps, so + - * and integer multiples act on the entries."""
    if isinstance(x.coords[0], LaurentElem):
        return [tilde_w(x)]
    return _ghost_from_covers([_lift(c) for c in x.coords], x.p)


def _from_ghosts(x, ws):
    """The vector over x's coordinate ring with images ws (see _ghosts)."""
    if isinstance(x.coords[0], LaurentElem):
        return tilde_w_inverse(ws[0])
    return _vector_from_covers(x, _ghost_inverse(ws, x.p))


def _binop(x, y, combine):
    x._check(y)
    return _from_ghosts(x, [combine(a, b)
                            for a, b in zip(_ghosts(x), _ghosts(y))])


def witt_add(x, y):
    return _binop(x, y, _add)


def witt_mul(x, y):
    return _binop(x, y, _mul)


def witt_neg(x):
    return _from_ghosts(x, [-g for g in _ghosts(x)])


def _via_polys(x, polys, vectors):
    """Specialize polys at the coordinates of vectors, reduced like x's."""
    vals = [_lift(c) for v in vectors for c in v.coords]
    q = x.p if x._is_char_p() else 0
    upw = build_universal_polys(x.p, x.n)
    fs = (upw.fp_polys(polys) if isinstance(x.coords[0], PrimeFieldElem)
          else getattr(upw, polys))
    return _vector_from_covers(x, [upw.specialize(f, vals, q) for f in fs])


def witt_add_via_polys(x, y):
    """Addition by direct specialization of the universal sum polynomials."""
    x._check(y)
    return _via_polys(x, "sum_polys", (x, y))


def witt_mul_via_polys(x, y):
    x._check(y)
    return _via_polys(x, "prod_polys", (x, y))


def witt_neg_via_polys(x):
    return _via_polys(x, "neg_polys", (x,))


def ghost(x):
    """Ghost components; only defined over torsion-free coordinate rings."""
    if x._is_char_p():
        raise TorsionRing("ghost components need a ring where p is regular")
    return tuple(_ghost_from_covers(list(x.coords), x.p))


def teichmuller(a, n):
    """[a] = (a, 0, ..., 0)."""
    if not isinstance(a, (PrimeFieldElem, LaurentElem)):
        raise TypeError("teichmuller needs a char-p coordinate")
    return WittVector(a.p, n, [a] + [a * 0] * (n - 1))


def verschiebung(x):
    return WittVector._trusted(x.p, x.n + 1, (x.zero_coord(),) + x.coords)


def restrict(x):
    if x.n == 1:
        raise LengthUnderflow("restriction would produce length 0")
    return WittVector._trusted(x.p, x.n - 1, x.coords[:-1])


def _coord_pow_p(c, p):
    if isinstance(c, PrimeFieldElem):
        return c  # a^p = a in F_p
    if isinstance(c, LaurentElem):
        return c.frobenius()
    raise TorsionRing("char-p Frobenius formula needs char-p coordinates")


def frobenius(x):
    """F: W_n -> W_{n-1}; over char-p coordinate rings F = R o Phi."""
    if x.n == 1:
        raise LengthUnderflow("Frobenius would produce length 0")
    if x._is_char_p():
        return WittVector._trusted(
            x.p, x.n - 1, [_coord_pow_p(c, x.p) for c in x.coords[: x.n - 1]]
        )
    return WittVector(x.p, x.n - 1, _ghost_inverse(_ghosts(x)[1:], x.p))


def witt_phi(x):
    """Phi_A = W_n(sigma): coordinatewise absolute Frobenius."""
    return WittVector._trusted(x.p, x.n,
                               [_coord_pow_p(c, x.p) for c in x.coords])


def witt_scalar_mul(c, x):
    """Multiplication by the scalar image of an integer c.

    The ghost components of c are (c, ..., c), so c x has ghosts c ghost(x);
    0 x is the zero vector of x's ring, with no round trip.
    """
    if c == 0:
        return WittVector._trusted(x.p, x.n, (x.zero_coord(),) * x.n)
    return _from_ghosts(x, [c * g for g in _ghosts(x)])


# ----------------------------------------------------------------------
# the maps w-tilde and F-tilde
# ----------------------------------------------------------------------

def _tilde(x, top, name):
    """sum_i p^i x_(i+1)^(p^(top-i)) in (Z/p^n)[z...], n the length of x.

    Each power is taken mod p^(n-i), all that p^i times it keeps mod p^n.
    """
    if not isinstance(x.coords[0], LaurentElem):
        raise VariableMismatch("%s needs Laurent coordinates" % name)
    p, n = x.p, x.n
    q = p ** n
    acc = {}
    get = acc.get
    for i, c in enumerate(x.coords):
        pi = p ** i
        for e, v in sparse.power(c.terms, p ** (top - i), q // pi).items():
            acc[e] = (get(e, 0) + pi * v) % q
    acc = {e: v for e, v in acc.items() if v}
    f = x.coords[0]
    return LaurentElem._trusted(p, n, f.num_vars, acc, f.allowed_negative)


def tilde_w(x):
    """w-tilde: W_L(A) -> (Z/p^L)[z...], (f_1..f_L) -> sum p^i f_i+1^(p^(L-1-i)).

    Defined on Laurent-coordinate vectors; the value, a LaurentElem over
    Z/p^L, does not depend on the choice of coordinate lifts.
    """
    return _tilde(x, x.n - 1, "tilde_w")


def tilde_w_inverse(f):
    """Invert w-tilde on f over Z/p^L by layer peeling, or raise NotInImage.

    Layer i is rem / p^i mod p; its exponents must be multiples of
    k = p^(L-1-i), and its k-th root is x_(i+1).  One pass over rem takes
    the layer, then p^i x_(i+1)^k is subtracted from rem.  Once rem is
    zero, the coordinates left are zero.  The last layer, k = 1, is taken
    in closed form: rem is reduced mod p^L and divisible by p^(L-1), so
    each residue is p^(L-1) times a unit below p, x_L = rem / p^(L-1), and
    subtracting p^(L-1) x_L would leave nothing: no remainder survives.
    """
    p, L = f.p, f.n
    mod = p ** L
    nv, neg = f.num_vars, f.allowed_negative
    rem = f.terms  # reduced mod p^L
    coords = []
    for i in range(L - 1):
        if not rem:
            break
        k = p ** (L - 1 - i)
        pi = p ** i
        root = {}
        is_power = True
        for e, c in rem.items():
            if i:
                c, r = divmod(c, pi)
                if r:
                    raise NotInImage("stray low p-valuation at layer %d" % i)
            c %= p
            if not c:
                continue
            for v in e:
                if v % k:
                    is_power = False  # raised after the valuation checks
                    break
            else:
                root[tuple([v // k for v in e])] = c
        if not is_power:
            raise NotInImage("layer %d is not a %d-th power" % (i, k))
        coords.append(LaurentElem._trusted(p, 1, nv, root, neg))
        if root:
            sub = sparse.scale(sparse.power(root, k, mod), -pi, mod)
            rem = sparse.add(rem, sub, mod)
    else:  # the last layer, k = 1, unless rem ran out first
        pi = p ** (L - 1)
        if any(c % pi for c in rem.values()):
            raise NotInImage("stray low p-valuation at layer %d" % (L - 1))
        coords.append(LaurentElem._trusted(
            p, 1, nv, {e: c // pi for e, c in rem.items()}, neg))
    coords += [LaurentElem._trusted(p, 1, nv, {}, neg)] * (L - len(coords))
    return WittVector._trusted(p, L, coords)


def tilde_F(x):
    """F-tilde^n: W_n(A) -> (Z/p^n)[z...], (x_1..x_n) -> sum p^i x_i+1^(p^(n-i))."""
    return _tilde(x, x.n, "tilde_F")


# ----------------------------------------------------------------------
# Teichmuller scalars
# ----------------------------------------------------------------------

def teich_scalar(c, p, m):
    """Integer representative of the Teichmuller scalar [c] in W_m(F_p) = Z/p^m."""
    return pow(c % p, p ** (m - 1), p ** m)
