"""Exact base rings: prime fields, sparse Laurent polynomials over Z/p^n.

Elements are immutable after construction and exact (no floats anywhere).
``SparseModElem`` is the one sparse ``{key: residue}`` element over Z/p^n;
its constructor is the ring check (p prime, n >= 1, inverted variables in
the ring), and ``LaurentElem``, ``weyl.WeylElement`` and
``localcoh.CohClass`` subclass it.
Laurent exponent vectors live in Z^m, with negative exponents allowed only
for explicitly inverted variables; the ring arithmetic on their terms is
that of ``wittkit.sparse``.  ``read_json`` is the one JSON reader of every
sparse element, ``drw.DRWElement`` included.  ``graded_basis`` lists the
exponent vectors of one total degree inside a box.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import sparse


class VariableMismatch(ValueError):
    pass


class NegativeExponentViolation(ValueError):
    pass


class ScaleExceeded(ValueError):
    pass


# Trial division runs to sqrt(p).  On a 2-vCPU x86-64 VM it takes 0.10 s at
# the prime 10^12 - 11, 0.11 s at 10^12 + 39 and 1.07 s at 10^14 + 31.
_MAX_PRIME = 10 ** 12


def is_prime(p):
    if p >= _MAX_PRIME:
        raise ScaleExceeded("p = %d is over the primality limit %d"
                            % (p, _MAX_PRIME - 1))
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def v_p(m, p):
    """The p-adic valuation of an integer; None (+infinity) for 0."""
    if m == 0:
        return None
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


class PrimeFieldElem:
    """An element of F_p, stored as a reduced residue."""

    __slots__ = ("p", "value")

    def __init__(self, p, value):
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.value = value % p

    def _check(self, other):
        if not isinstance(other, PrimeFieldElem) or other.p != self.p:
            raise VariableMismatch("incompatible prime field elements")

    def __add__(self, other):
        self._check(other)
        return PrimeFieldElem(self.p, self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return PrimeFieldElem(self.p, self.value - other.value)

    def __neg__(self):
        return PrimeFieldElem(self.p, -self.value)

    def __mul__(self, other):
        if isinstance(other, int):
            return PrimeFieldElem(self.p, self.value * other)
        self._check(other)
        return PrimeFieldElem(self.p, self.value * other.value)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return PrimeFieldElem(self.p, pow(self.value, -1, self.p))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        return PrimeFieldElem(self.p, pow(self.value, k, self.p))

    def __eq__(self, other):
        return (
            isinstance(other, PrimeFieldElem)
            and self.p == other.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.p, self.value))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return "PrimeFieldElem(%d, %d)" % (self.p, self.value)


# one shared frozenset per region, in a least-recently-used table of 64
_region = lru_cache(maxsize=64)(lambda neg: neg)


class SparseModElem:
    """A sparse ``{key: residue}`` element over Z/p^n in ``num_vars``
    variables, those in ``allowed_negative`` inverted: the base of
    ``LaurentElem``, ``weyl.WeylElement`` and ``localcoh.CohClass``.  A
    subclass adds its key validation loop ``_clean_terms`` (which also
    reduces mod q and drops zeros), the per-term JSON hooks
    ``_key_json``/``_json_key`` and its products.

    ``allowed_negative`` is interned by ``_region``, so the elements of
    one ring share one frozenset.  Regions compare by value, so a region
    that left that bounded table and came back as a new object matches.

    The constructor checks and reduces what it is given: user input goes
    through it, and a call that draws or builds many elements checks its
    ring once through it.  The trusted ``_trusted`` (any ring) and
    ``_with`` (this element's ring, or the same one over Z/p^n) check
    nothing and keep the ``terms`` dict; their caller guarantees that the
    keys are valid for the subclass, negative only at indices in
    ``allowed_negative``, and the values residues in [1, p^n).  Such terms
    come from ring arithmetic inside one ring, from an element of a ring
    whose region the new one contains, or from draws made inside a ring
    checked once.
    """

    __slots__ = ("p", "n", "num_vars", "allowed_negative", "terms")

    def __init__(self, p, n, num_vars, terms, allowed_negative=()):
        # the ring check: p prime, n >= 1, inverted variables in the ring
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        if n < 1:
            raise ValueError("need n >= 1")
        self.allowed_negative = neg = _region(frozenset(allowed_negative))
        for i in neg:
            if not 0 <= i < num_vars:
                raise VariableMismatch("inverted variable %d outside 0..%d"
                                       % (i, num_vars - 1))
        self.p, self.n, self.num_vars = p, n, num_vars
        self.terms = (self._clean_terms(terms, p ** n, num_vars, neg)
                      if terms else {})

    @classmethod
    def zero(cls, p, n, num_vars, allowed_negative=()):
        return cls(p, n, num_vars, {}, allowed_negative)

    @classmethod
    def _trusted(cls, p, n, num_vars, terms, allowed_negative,
                 _new=object.__new__):
        out = _new(cls)
        out.p, out.n, out.num_vars = p, n, num_vars
        out.allowed_negative = (
            allowed_negative if type(allowed_negative) is frozenset
            else _region(frozenset(allowed_negative)))
        out.terms = terms
        return out

    def _with(self, terms, n=None, _new=object.__new__):
        out = _new(self.__class__)
        out.p, out.n, out.num_vars = self.p, n or self.n, self.num_vars
        out.allowed_negative = self.allowed_negative
        out.terms = terms
        return out

    def _check(self, other):
        if not (isinstance(other, self.__class__) and other.p == self.p
                and other.n == self.n and other.num_vars == self.num_vars
                and other.allowed_negative == self.allowed_negative):
            raise VariableMismatch("incompatible %s operands"
                                   % self.__class__.__name__)

    def __add__(self, other):
        self._check(other)
        return self._with(sparse.add(self.terms, other.terms, self.p ** self.n))

    def scalar_mul(self, c):
        return self._with(sparse.scale(self.terms, c, self.p ** self.n))

    def __neg__(self):
        return self.scalar_mul(-1)

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (
            isinstance(other, self.__class__)
            and self.p == other.p
            and self.n == other.n
            and self.num_vars == other.num_vars
            and self.allowed_negative == other.allowed_negative
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.n, self.num_vars, self.allowed_negative,
                     tuple(self.sorted_terms())))

    def __bool__(self):
        return bool(self.terms)

    def to_json(self):
        return {
            "p": self.p,
            "n": self.n,
            "vars": self.num_vars,
            "neg": sorted(self.allowed_negative),
            "terms": [dict(self._key_json(k), c=c)
                      for k, c in self.sorted_terms()],
        }

    @classmethod
    def from_json(cls, obj):
        (p, n, nv, neg), terms = read_json(
            obj, cls.__name__,
            lambda o: (*ints([o["p"], o["n"], o["vars"]]),
                       ints(o.get("neg", ()))),
            cls._json_key)
        return cls(p, n, nv, terms, neg)


def ints(values):
    """values as a tuple of plain ints (no bools); TypeError otherwise."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:  # a float, a string or a bool
            raise TypeError("%r is not an int" % (v,))
    return values


def read_json(obj, name, ring_of, json_key):
    """The ring ``ring_of(obj)`` and the terms {json_key(t, ring): c} of a
    sparse element's JSON object.  A missing key, a value that is not a
    plain int (the hooks raise KeyError or TypeError) and a term listed
    twice are refused with VariableMismatch."""
    try:
        ring = ring_of(obj)
        pairs = [(json_key(t, ring), ints([t["c"]])[0]) for t in obj["terms"]]
    except (KeyError, TypeError) as exc:
        raise VariableMismatch("malformed %s object %r (%s: %s)" % (
            name, obj, type(exc).__name__, exc)) from None
    terms = dict(pairs)
    if len(terms) < len(pairs):
        raise VariableMismatch("a term is listed twice in %r" % (obj,))
    return ring, terms


class LaurentElem(SparseModElem):
    """A sparse Laurent polynomial over Z/p^n.

    ``terms`` maps exponent tuples (length ``num_vars``) to nonzero residues in
    [1, p^n).  Indices in ``allowed_negative`` are the only variables permitted
    to carry negative exponents: the constructor raises
    ``NegativeExponentViolation`` for any other, and sums, products and
    powers cannot leave that region.
    """

    __slots__ = ()

    def _clean_terms(self, terms, q, nv, neg):
        # neg lies in the ring, so if it has nv indices no exponent can
        # leave the region
        fixed = len(neg) < nv
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nv:
                raise VariableMismatch("exponent tuple of wrong length")
            if fixed:
                for i, e in enumerate(exps):
                    if e < 0 and i not in neg:
                        raise NegativeExponentViolation(
                            "negative exponent at variable %d" % i)
            c %= q
            if c:
                clean[exps] = c
        return clean

    @staticmethod
    def _key_json(e):
        return {"e": list(e)}

    @staticmethod
    def _json_key(t, _ring):
        return ints(t["e"])

    @classmethod
    def one(cls, p, n, num_vars, allowed_negative=()):
        return cls(p, n, num_vars, {(0,) * num_vars: 1}, allowed_negative)

    @classmethod
    def monomial(cls, p, n, num_vars, exps, coeff=1, allowed_negative=()):
        return cls(p, n, num_vars, {tuple(exps): coeff}, allowed_negative)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check(other)
        return self._with(sparse.mul(self.terms, other.terms, self.p ** self.n))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers of general elements unsupported")
        if k == 0:
            return self._with({(0,) * self.num_vars: 1})
        return self._with(sparse.power(self.terms, k, self.p ** self.n))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mon = "*".join(
                "z%d^%d" % (i, v) for i, v in enumerate(e) if v
            )
            bits.append("%d%s" % (c, "*" + mon if mon else ""))
        return " + ".join(bits)


def graded_basis(d, m, box):
    """Exponent vectors in Z^d with total degree m, inside per-variable bounds.

    ``box`` is a sequence of (lo, hi) pairs, one per variable; the result is
    lexicographically sorted.
    """
    box = [tuple(b) for b in box]
    if len(box) != d:
        raise VariableMismatch("box must give one bound pair per variable")
    out = []

    def rec(i, rest, prefix):
        if i == d:
            if rest == 0:
                out.append(tuple(prefix))
            return
        lo, hi = box[i]
        tail_lo = sum(box[j][0] for j in range(i + 1, d))
        tail_hi = sum(box[j][1] for j in range(i + 1, d))
        for e in range(lo, hi + 1):
            if tail_lo <= rest - e <= tail_hi:
                rec(i + 1, rest - e, prefix + [e])

    rec(0, m, [])
    out.sort()
    return out


def stars_and_bars(d, m):
    """Number of e in N^d with sum m (0 when m < 0)."""
    if m < 0:
        return 0
    return comb(m + d - 1, d - 1)
