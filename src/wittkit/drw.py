"""The de Rham-Witt complex of affine space in the symbolic weight basis.

Degree-i elements at level n are combinations of basis symbols e_n(1, r, P)
where r is a weight (finitely many fractional exponents r_j = u_j p^{v_j})
with p^{n-1} r integral, and P = (I_0, ..., I_i) an admissible partition of
the support.  F, V and d act by exact case formulas; the ring structure is
out of scope.

Inside an element a symbol is the triple (base, shift, parts): ``shift`` is
the minimal valuation of r (0 for the zero weight) and ``base`` the sorted
(j, u, v) triples of r with ``shift`` taken off each v.  F and V multiply and
divide r by p, so they change only ``shift`` and share ``base`` with the
symbol they start from; d changes only ``parts``.  An element stores its
level data and a list of flat (base, shift, parts, coefficient) terms sorted
by symbol, each coefficient reduced mod p^(n-u), u = max(0, -shift).  The
list is built once, by the constructor, ``act``, ``+`` or ``scalar_mul``,
and never mutated after, so elements may share it.  The ``DRWElement``
constructor and ``terms`` speak plain ``Weight.key()`` triples; ``act`` and
``scalar_mul`` reduce only the coefficients they compute and keep the order
of the terms.  No module-level table or cache is kept, and the basis of a
cell is a ``BasisKeys`` sequence that makes each key when it is asked for.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from math import comb
from operator import index, itemgetter

from .rings import (ScaleExceeded, VariableMismatch, ints, is_prime,
                    read_json, v_p)
from .witt import _MAX_BASIS_SIZE, _basis_size

_valuation = itemgetter(2)  # of a (j, u, v) weight-key triple


class Inadmissible(ValueError):
    pass


class Weight:
    """A weight function j -> r_j = u_j * p^(v_j) with p not dividing u_j.

    ``entries`` maps variable index (0-based) to the pair (u, v); absent
    indices carry r_j = 0.  The support order sorts by (v_j, j): ascending
    valuation, ties broken by variable index, which is stable under
    multiplication by powers of p.
    """

    __slots__ = ("p", "d", "entries")

    def __init__(self, p, d, entries):
        self.p = p
        self.d = d
        clean = {}
        for j, (u, v) in entries.items():
            if not (0 <= j < d):
                raise ValueError("variable index out of range")
            if u == 0:
                continue
            if u < 0 or u % p == 0:
                raise ValueError("numerator must be positive and prime to p")
            clean[j] = (u, v)
        self.entries = clean

    def key(self):
        return tuple(sorted((j, u, v) for j, (u, v) in self.entries.items()))

    def support(self):
        """Support in the canonical order (valuation, then index)."""
        return sorted(self.entries, key=lambda j: (self.entries[j][1], j))


def _partitions(supp, i):
    """All partitions (I_0, ..., I_i) in P^(i)_r of a support in its order.

    These correspond to ordered compositions of |supp(r)| into i positive
    parts (I_0 empty) plus compositions into i+1 positive parts.
    """
    L = len(supp)

    def compos(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compos(total - first, parts - 1):
                yield (first,) + rest

    def cut(sizes, with_empty_head):
        blocks = []
        pos = 0
        if with_empty_head:
            blocks.append(())
        for s in sizes:
            blocks.append(supp[pos:pos + s])
            pos += s
        return tuple(blocks)

    if i == 0:
        return [(supp,)]
    return ([cut(sizes, True) for sizes in compos(L, i)]
            + [cut(sizes, False) for sizes in compos(L, i + 1)])


def _triples(base, shift):
    """The weight key of a symbol's (base, shift)."""
    return tuple([(j, u, v + shift) for (j, u, v) in base])


class DRWElement:
    """A W_n(k)-combination of basis symbols at one level and degree.

    A symbol whose weight needs u = u(r) Verschiebung layers is annihilated
    by p^(n-u): eta * V^u(x) = V^u(F^u(eta) x) and F^u kills p^(n-u) W_n(k).
    Coefficients are therefore stored modulo p^(n-u), which makes the stored
    expression the canonical one.

    ``space`` is the tuple (p, n, d, degree) and ``pairs`` the list of
    (base, shift, partition, coefficient) terms sorted by symbol, with
    u = max(0, -shift) and every n + shift >= 1.  Symbols are unique within
    an element, so the coefficient never decides the order.  The list is
    never mutated once the element is built.  The constructor takes a
    {(weight key, partition): coefficient} dict, whose weight keys are
    ``Weight.key()`` triples, and reduces and sorts it in one pass;
    ``terms`` gives the terms back in that form.  It checks nothing, so its
    keys must come from ``enumerate_basis`` or ``from_json`` (the checked
    reader) at this level, dimension and degree.
    """

    __slots__ = ("space", "pairs")

    def __init__(self, p, n, d, degree, terms):
        self.space = (p, n, d, degree)
        pairs = []
        for (base, parts), c in terms.items():  # a key is its base at 0
            s = min(base, key=_valuation)[2] if base else 0
            if s:
                base = tuple([(j, u, v - s) for (j, u, v) in base])
            k = n + s if s < 0 else n
            c = c % p ** k if k > 0 else 0
            if c:
                pairs.append((base, s, parts, c))
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
        above d: it is 0, as W_n Omega^i = 0 for i > d, and ``act("d", .)``
        writes one for each element of degree d."""
        (p, n, d), terms = read_json(
            obj, "drw element",
            lambda o: _check_space(*ints([o["p"], o["n"], o["d"]])),
            _json_symbol)
        degrees = {len(parts) - 1 for _, parts in terms}
        degree = obj.get("degree", min(degrees, default=0))
        if type(degree) is not int or degree < 0 or degrees - {degree}:
            raise VariableMismatch("terms of degrees %s in one element of "
                                   "degree %r at d = %d"
                                   % (sorted(degrees), degree, d))
        return cls(p, n, d, degree, terms)

    def to_json(self):
        p, n, d, degree = self.space
        return {"p": p, "n": n, "d": d, "degree": degree,
                "terms": [dict(symbol_json(d, *key), c=c)
                          for key, c in sorted(self.terms.items())]}

    @property
    def terms(self):
        return {(_triples(base, shift), parts): c
                for base, shift, parts, c in self.pairs}

    def is_zero(self):
        return not self.pairs

    def __add__(self, other, _new=object.__new__):
        space = self.space
        if space != other.space:
            raise Inadmissible("cannot add across levels or degrees")
        p, n = space[0], space[1]
        acc = {}
        get = acc.get
        for base, s, parts, c in self.pairs + other.pairs:
            sym = base, s, parts
            acc[sym] = get(sym, 0) + c
        pairs = []
        for sym, c in acc.items():
            s = sym[1]
            c %= p ** (n + s if s < 0 else n)
            if c:
                pairs.append(sym + (c,))
        pairs.sort()
        e = _new(DRWElement)
        e.space = space
        e.pairs = pairs
        return e

    def scalar_mul(self, c, _new=object.__new__):
        p, n, _, _ = space = self.space
        pairs = []
        for base, s, parts, v in self.pairs:
            v = v * c % p ** (n + s if s < 0 else n)
            if v:
                pairs.append((base, s, parts, v))
        e = _new(DRWElement)
        e.space = space
        e.pairs = pairs
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


def _check_space(p, n, d):
    if not is_prime(p):
        raise ValueError("p = %r is not prime" % (p,))
    if n < 1:
        raise ValueError("need n >= 1, got n = %d" % n)
    if d < 0:
        raise ValueError("need d >= 0, got d = %d" % d)
    return p, n, d


def _json_symbol(t, space):
    """One JSON term's (weight key, partition), refused unless its weight is
    d [u, v] pairs with p^(n-1) r integral (``Weight`` checks each u) and
    its partition one of ``_partitions`` for the support order."""
    p, n, d = space
    pairs = [ints(uv) for uv in t["weight"]]
    if len(pairs) != d or any(len(uv) != 2 for uv in pairs):
        raise VariableMismatch("weight %r is not %d [u, v] pairs"
                               % (t["weight"], d))
    weight = Weight(p, d, dict(enumerate(pairs)))
    wkey = weight.key()
    if wkey and min(wkey, key=_valuation)[2] < 1 - n:
        raise VariableMismatch("weight %r: p^%d r is not integral"
                               % (t["weight"], n - 1))
    parts = tuple([ints(b) for b in t["partition"]])
    # those are the support in order, cut into blocks of which only the
    # first may be empty
    if not (parts and sum(parts, ()) == tuple(weight.support())
            and all(parts[1:])):
        raise VariableMismatch(
            "partition %r does not split the support %r in order"
            % (t["partition"], weight.support()))
    return wkey, parts


def symbol_json(d, wkey, parts):
    """A symbol as a JSON term: d [u, v] pairs ([0, 0] off the support) and
    the partition's blocks as lists."""
    weight = [[0, 0] for _ in range(d)]
    for j, u, v in wkey:
        weight[j] = [u, v]
    return {"weight": weight, "partition": [list(b) for b in parts]}


def act(which, elem, _new=object.__new__):
    """Linear extension of the F/V/d case formulas.

    F is semilinear through the residue map Z/p^n -> Z/p^(n-1); V lifts
    coefficients along any integer representative; d is linear.  Each
    operator sends distinct symbols to distinct symbols, so every term gives
    at most one term of the image, reduced on the spot.

    - F multiplies the weight by p and keeps the partition; the scalar is p
      exactly when I_0 is nonempty and r is not integral.  F into level 0
      is zero.
    - V divides the weight by p and keeps the partition; the scalar is p
      exactly when the Verschiebung is absorbed through VF = p: with an
      empty I_0 the whole symbol is F of a deeper one, and for p^-1 r
      integral the e^0 factor satisfies V(T^r) = V(F(T^(r/p))).  (This
      orientation is the one forced by FV = VF = p.)
    - d prepends an empty I_0, is zero on a symbol whose I_0 is empty, and
      carries the scalar p^(min valuation) for a nonzero integral weight.

    Every stored term has n + shift >= 1 (the constructor drops the rest).
    F lowers n by one and raises the shift of a nonzero weight by one, V
    does the reverse, and the zero weight has shift 0, so their images stay
    admissible.  Each keeps the order of the terms: F and V move only the
    shift, d only prepends () to the partition.
    """
    p, n, d, degree = elem.space
    out = []
    if which == "F":
        n -= 1
        for base, s, parts, c in elem.pairs if n else ():  # W_0 Omega = 0
            if base:
                s += 1  # of p r: r is integral iff s >= 1
                if s < 1 and parts[0]:
                    c *= p
            c %= p ** (n + s if s < 0 else n)
            if c:
                out.append((base, s, parts, c))
    elif which == "V":
        n += 1
        for base, s, parts, c in elem.pairs:
            if base:
                s -= 1  # of r/p
            if s >= 0 or not parts[0]:
                c *= p
            c %= p ** (n + s if s < 0 else n)
            if c:
                out.append((base, s, parts, c))
    elif which == "d":
        degree += 1
        for base, s, parts, c in elem.pairs:
            if not parts[0]:
                continue
            if s > 0:  # the modulus is unchanged, so only this needs reducing
                c = c * p ** s % p ** n
                if not c:
                    continue
            out.append((base, s, ((),) + parts, c))
    else:
        raise ValueError("unknown operator %r" % (which,))
    e = _new(DRWElement)
    e.space = (p, n, d, degree)
    e.pairs = out
    return e


def enumerate_basis(p, n, d, i, bound):
    """All (weight, partition) pairs at level n and degree i within the bound.

    Weights are parametrized by a = p^(n-1) r with componentwise numerators
    0 <= a_j <= bound; the pairs are (weight key, partition) keys for the
    DRWElement constructor, made one at a time by a ``BasisKeys``.
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
        return BasisKeys(d, i, 0, 0, [])
    # entry[j][a]: the key triple (j, u, v) of r_j = a / p^(n-1), None for 0
    entry = [[None] for _ in range(d)]
    for a in range(1, bound + 1):
        v = v_p(a, p)
        for j in range(d):
            entry[j].append((j, a // p ** v, v - (n - 1)))
    return BasisKeys(d, i, bound, size, entry)


class BasisKeys(Sequence):
    """The keys of ``enumerate_basis``, in the order of the product of the
    digits a_0, ..., a_(d-1) (last fastest, 0 first), each weight followed
    by its partitions.

    Only the ``entry`` table and the partitions of each support order met so
    far are kept.  ``keys[k]`` decodes one digit at a time: below a prefix
    lies first the block of the digit 0, then ``bound`` equal blocks, one
    per nonzero digit, and what is left of k indexes the partitions.
    """

    def __init__(self, d, i, bound, size, entry):
        self.d, self.i, self.bound, self.size = d, i, bound, size
        self.entry = entry
        self.partitions = {}  # support order -> its partitions; <= sum d!/k!

    def __len__(self):
        return self.size

    def _parts(self, wkey):
        # support order: by valuation, ties by index (a stable sort of wkey)
        supp = tuple([j for (j, _, _) in sorted(wkey, key=_valuation)])
        parts = self.partitions.get(supp)
        if parts is None:
            parts = self.partitions[supp] = _partitions(supp, self.i)
        return parts

    def __iter__(self):
        for triples in product(*self.entry):
            wkey = tuple([t for t in triples if t])
            if len(wkey) >= self.i:
                for parts in self._parts(wkey):
                    yield wkey, parts

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
        wkey = ()
        for row, counts in zip(self.entry, reversed(below)):
            zero = counts[len(wkey)]
            if k >= zero:
                a, k = divmod(k - zero, counts[len(wkey) + 1])
                wkey += (row[a + 1],)
        return wkey, self._parts(wkey)[k]

