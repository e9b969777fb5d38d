"""The de Rham-Witt complex of affine space in the symbolic weight basis.

Degree-i elements at level n are combinations of basis symbols e_n(1, r, P)
where r is a weight (finitely many fractional exponents r_j = u_j p^{v_j})
with p^{n-1} r integral, and P = (I_0, ..., I_i) an admissible partition of
the support.  F, V and d act by exact case formulas; the ring structure is
out of scope.

A symbol is keyed by its integer weight a = p^(n-1) r, a length-d tuple,
and its partition: F multiplies r by p and lowers n by one, V does the
reverse and d keeps both, so none of them changes a (Langer-Zink 2004, sec. 2).
An element stores its level data and a list of flat (a, t, parts, x) terms
sorted by symbol.  t is the least valuation of the nonzero entries of a,
inf for the zero weight, and x = p^u c mod p^n for the coefficient c of
the symbol, where u = max(0, n-1-t) counts its Verschiebung layers.  As
p^(n-u) kills the symbol, x is the canonical form of c, and every term is
reduced mod the one modulus p^n.  t never changes, and the operators read
  F: to level n-1; x/p when t < n-1 and I_0 is empty; mod p^(n-1)
  V: to level n+1; x p^2 when t < n and I_0 is empty, else x p; mod p^(n+1)
  d: () prepended to P; 0 when I_0 is empty; x p^(t-n+1) mod p^n if t >= n
The list is built once, by the constructor, ``act``, ``+`` or
``scalar_mul``, and never mutated after, so elements may share it.  The
``DRWElement`` constructor and ``terms`` speak {(a, partition): c}; the
JSON form gives r as [u, v] pairs.  No module-level table or cache is kept,
and the basis of a cell is a ``BasisKeys`` sequence that makes each key
when it is asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations, product
from math import comb, gcd, inf
from operator import index

from .rings import (ScaleExceeded, VariableMismatch, ints, is_prime,
                    read_json, v_p)
from .witt import _MAX_BASIS_SIZE, _basis_size


class Inadmissible(ValueError):
    pass


def _partitions(supp, i):
    """All partitions (I_0, ..., I_i) in P^(i)_r of a support in its order.

    Each is the support cut at positions c_1 < ... < c_i below len(supp):
    I_0 = supp[:c_1] may be empty, the later blocks may not.  They come in
    the lexicographic order of the cuts, those with I_0 empty first.
    """
    ends = (len(supp),)
    return [tuple(supp[a:b] for a, b in zip((0,) + cuts, cuts + ends))
            for cuts in combinations(range(len(supp)), i)]


def _valuation(a, p):
    """t of a weight key: v_p of the gcd of its entries; inf for a = 0."""
    g = gcd(*a)
    return v_p(g, p) if g else inf


class DRWElement:
    """A W_n(k)-combination of basis symbols at one level and degree.

    A symbol whose weight needs u = u(r) Verschiebung layers is annihilated
    by p^(n-u): eta * V^u(x) = V^u(F^u(eta) x) and F^u kills p^(n-u) W_n(k).
    Its coefficient c is therefore stored as x = p^u c mod p^n, which makes
    the stored expression the canonical one.

    ``space`` is the tuple (p, n, d, degree) and ``pairs`` the list of
    (a, t, partition, x) terms sorted by symbol.  Symbols are unique within
    an element, so x never decides the order.  The list is never mutated
    once the element is built.  The constructor takes a {(a, partition): c}
    dict and reduces and sorts it in one pass; ``terms`` gives the terms
    back in that form, each c below p^(n-u).  It checks nothing, so its
    keys must come from ``enumerate_basis`` or ``from_json`` (the checked
    reader) at this dimension and degree.
    """

    __slots__ = ("space", "pairs")

    def __init__(self, p, n, d, degree, terms):
        self.space = (p, n, d, degree)
        q = p ** n
        pairs = []
        for (a, parts), c in terms.items():
            t = _valuation(a, p)
            if t < n - 1:
                c *= p ** (n - 1 - t)
            c %= q
            if c:
                pairs.append((a, t, parts, c))
        pairs.sort()
        self.pairs = pairs

    p = property(lambda self: self.space[0])
    n = property(lambda self: self.space[1])
    d = property(lambda self: self.space[2])
    degree = property(lambda self: self.space[3])

    @classmethod
    def from_json(cls, obj):
        """The element of a {p, n, d, terms, degree?} object as ``to_json``
        writes it, checked: besides ``rings.read_json``'s refusals, the
        space (``_check_space``), each term (``_json_symbol``) and one
        degree for the terms and the optional "degree" >= 0.  Terms have
        degrees in 0..d, so only an element with no terms has a degree
        above d, or level n = 0: it is 0, as W_n Omega^i = 0 for i > d and
        W_0 Omega = 0, and ``act`` writes one for each element of degree d
        (d) and of level 1 (F)."""
        (p, n, d), terms = read_json(
            obj, "drw element",
            lambda o: _check_space(*ints([o["p"], o["n"], o["d"]]),
                                   least=1 if o["terms"] else 0),
            _json_symbol)
        degrees = {len(parts) - 1 for _, parts in terms}
        degree = obj.get("degree", min(degrees, default=0))
        if type(degree) is not int or degree < 0 or degrees - {degree}:
            raise VariableMismatch("terms of degrees %s in one element of "
                                   "degree %r at d = %d"
                                   % (sorted(degrees), degree, d))
        return cls(p, n, d, degree, terms)

    def to_json(self):
        """The JSON object, its terms in the order of their weights' sorted
        (j, u, v) triples, then partitions."""
        p, n, d, degree = self.space
        rows = []
        for (a, parts), c in self.terms.items():
            sym = dict(symbol_json(p, n, a, parts), c=c)
            rows.append(([(j, *uv) for j, uv in enumerate(sym["weight"])
                          if uv[0]], parts, sym))
        rows.sort(key=lambda row: row[:2])
        return {"p": p, "n": n, "d": d, "degree": degree,
                "terms": [sym for _, _, sym in rows]}

    @property
    def terms(self):
        p, n = self.space[:2]
        return {(a, parts): x // p ** max(0, n - 1 - t)
                for a, t, parts, x in self.pairs}

    def is_zero(self):
        return not self.pairs

    def __add__(self, other, _new=object.__new__):
        space = self.space
        if space != other.space:
            raise Inadmissible("cannot add across levels or degrees")
        q = space[0] ** space[1]
        acc = {}
        get = acc.get
        for a, t, parts, x in self.pairs + other.pairs:
            sym = a, t, parts
            acc[sym] = get(sym, 0) + x
        pairs = [sym + (x,) for sym, c in acc.items() if (x := c % q)]
        pairs.sort()
        e = _new(DRWElement)
        e.space = space
        e.pairs = pairs
        return e

    def scalar_mul(self, c, _new=object.__new__):
        space = self.space
        q = space[0] ** space[1]
        e = _new(DRWElement)
        e.space = space
        e.pairs = [(a, t, parts, y) for a, t, parts, x in self.pairs
                   if (y := x * c % q)]
        return e

    def __sub__(self, other):
        return self + other.scalar_mul(-1)

    def __eq__(self, other):
        return (
            isinstance(other, DRWElement)
            and self.space == other.space
            and self.pairs == other.pairs
        )

    def __repr__(self):
        return "DRWElement(n=%d, deg=%d, %d terms)" % (
            self.n, self.degree, len(self.pairs)
        )


def _check_space(p, n, d, least=1):
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if n < least:
        raise ValueError("need n >= %d, got n = %d" % (least, n))
    if d < 0:
        raise ValueError("need d >= 0, got d = %d" % d)
    return p, n, d


def _json_symbol(t, space):
    """One JSON term's (a, partition), refused unless its weight is d
    [u, v] pairs, each u positive and prime to p or 0 (off the support),
    with p^(n-1) r integral, and its partition one of ``_partitions`` for
    the support order."""
    p, n, d = space
    pairs = [ints(uv) for uv in t["weight"]]
    if len(pairs) != d or any(len(uv) != 2 for uv in pairs):
        raise VariableMismatch("weight %r is not %d [u, v] pairs"
                               % (t["weight"], d))
    if any(u < 0 or u and u % p == 0 for u, _ in pairs):
        raise ValueError("numerator must be positive and prime to p")
    # the support order: by valuation, ties by index
    order = sorted((v, j) for j, (u, v) in enumerate(pairs) if u)
    if order and order[0][0] < 1 - n:
        raise VariableMismatch("weight %r: p^%d r is not integral"
                               % (t["weight"], n - 1))
    supp = tuple([j for _, j in order])
    parts = tuple([ints(b) for b in t["partition"]])
    # those are the support in order, cut into blocks of which only the
    # first may be empty
    if not (parts and sum(parts, ()) == supp and all(parts[1:])):
        raise VariableMismatch(
            "partition %r does not split the support %r in order"
            % (t["partition"], list(supp)))
    return tuple([u * p ** (v + n - 1) if u else 0 for u, v in pairs]), parts


def symbol_json(p, n, a, parts):
    """A symbol at level n as a JSON term: the weight r = a / p^(n-1) as
    [u, v] pairs, r_j = u p^v ([0, 0] off the support), and the partition's
    blocks as lists."""
    weight = []
    for x in a:
        v = v_p(x, p)
        weight.append([x // p ** v, v - n + 1] if x else [0, 0])
    return {"weight": weight, "partition": [list(b) for b in parts]}


def act(which, elem, _new=object.__new__):
    """Linear extension of the F/V/d case formulas.

    F is semilinear through the residue map Z/p^n -> Z/p^(n-1); V lifts
    coefficients along any integer representative; d is linear.  Each
    operator sends distinct symbols to distinct symbols, so every term gives
    at most one term of the image, reduced on the spot.  With s = t-n+1 the
    least valuation of r, in the coefficients c:

    - F multiplies the weight by p and keeps the partition; the scalar is p
      exactly when I_0 is nonempty and r is not integral (s < 0).  F into
      level 0 is zero, and F of a level-0 element is refused.
    - V divides the weight by p and keeps the partition; the scalar is p
      exactly when the Verschiebung is absorbed through VF = p: with an
      empty I_0 the whole symbol is F of a deeper one, and for p^-1 r
      integral (s >= 1) the e^0 factor satisfies V(T^r) = V(F(T^(r/p))).
      (This orientation is the one forced by FV = VF = p.)
    - d prepends an empty I_0, is zero on a symbol whose I_0 is empty, and
      carries the scalar p^s for a nonzero integral weight.

    In x = p^u c these are the formulas of the module docstring: F lowers
    u by one while u > 0 (t < n-1), V raises it by one while t < n, and d
    keeps it.  Each keeps a and the order of the terms: F and V change
    only x, d prepends () to every partition.
    """
    p, n, d, degree = elem.space
    out = []
    if which == "F":
        if n < 1:
            raise ValueError("F needs n >= 1, got n = %d" % n)
        n -= 1
        q = p ** n
        for a, t, parts, x in elem.pairs:
            if t < n and not parts[0]:  # t < n - 1 at the source level
                x //= p
            x %= q
            if x:
                out.append((a, t, parts, x))
    elif which == "V":
        q = p ** (n + 1)
        for a, t, parts, x in elem.pairs:
            x = x * (p * p if t < n and not parts[0] else p) % q
            if x:
                out.append((a, t, parts, x))
        n += 1
    elif which == "d":
        degree += 1
        q = p ** n
        for a, t, parts, x in elem.pairs:
            if not parts[0]:
                continue
            if t >= n:  # the modulus is unchanged, so only this needs reducing
                x = x * p ** (t - n + 1) % q
                if not x:
                    continue
            out.append((a, t, ((),) + parts, x))
    else:
        raise ValueError("unknown operator %r" % (which,))
    e = _new(DRWElement)
    e.space = (p, n, d, degree)
    e.pairs = out
    return e


def enumerate_basis(p, n, d, i, bound):
    """All (a, partition) keys at level n and degree i within the bound.

    Weights are parametrized by a = p^(n-1) r with componentwise numerators
    0 <= a_j <= bound; the keys, for the DRWElement constructor, are made
    one at a time by a ``BasisKeys``.
    """
    _check_space(p, n, d)
    if i < 0:
        raise ValueError("need degree i >= 0, got i = %d" % i)
    if bound < 0:
        raise ValueError("need bound >= 0, got bound = %d" % bound)
    size = _basis_size(d, i, bound)
    if size > _MAX_BASIS_SIZE:
        raise ScaleExceeded(
            "the basis at d = %d, i = %d, bound = %d has %d elements, over "
            "the limit of %d" % (d, i, bound, size, _MAX_BASIS_SIZE))
    if i > d:
        return BasisKeys(p, d, i, 0, 0)
    return BasisKeys(p, d, i, bound, size)


class BasisKeys(Sequence):
    """The keys of ``enumerate_basis``, in the order of the product of the
    digits a_0, ..., a_(d-1) (last fastest, 0 first), each weight followed
    by its partitions.

    Only the valuations of 0..bound, the partitions of each support order
    met so far and the order of each pattern of valuations met so far are
    kept.  ``keys[k]`` decodes one digit at a time: below a prefix lies
    first the block of the digit 0, then ``bound`` equal blocks, one per
    nonzero digit, and what is left of k indexes the partitions.
    """

    def __init__(self, p, d, i, bound, size):
        self.d, self.i, self.bound, self.size = d, i, bound, size
        self.valuation = [v_p(x, p) for x in range(bound + 1)]
        self.orders = {}  # valuations of a -> the partitions of its order
        self.partitions = {}  # support order -> its partitions; <= sum d!/k!

    def __len__(self):
        return self.size

    def _parts(self, a):
        vals = tuple([self.valuation[x] for x in a])
        parts = self.orders.get(vals)
        if parts is None:
            # the support order: by valuation, ties by index
            supp = tuple([j for _, j in sorted(
                (v, j) for j, v in enumerate(vals) if v is not None)])
            parts = self.partitions.get(supp)
            if parts is None:
                parts = self.partitions[supp] = _partitions(supp, self.i)
            self.orders[vals] = parts
        return parts

    def __iter__(self):
        for a in product(*[range(self.bound + 1)] * self.d):
            for parts in self._parts(a):
                yield a, parts

    def __getitem__(self, k):
        k = index(k)
        if k < 0:
            k += self.size
        if not 0 <= k < self.size:
            raise IndexError("basis index out of range")
        # below[r][t]: the keys under a prefix with t nonzero digits and r
        # free ones, each free digit 0 or one of ``bound`` nonzero values
        below = [[comb(t, self.i) for t in range(self.d + 1)]]
        for r in range(1, self.d):
            below.append([below[r - 1][t] + self.bound * below[r - 1][t + 1]
                          for t in range(self.d + 1 - r)])
        a = []
        nonzero = 0
        for counts in reversed(below[:self.d]):
            zero = counts[nonzero]
            if k >= zero:
                x, k = divmod(k - zero, counts[nonzero + 1])
                a.append(x + 1)
                nonzero += 1
            else:
                a.append(0)
        a = tuple(a)
        return a, self._parts(a)[k]
