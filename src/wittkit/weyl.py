"""The crystalline Weyl algebra: divided-power differential operators.

Elements, ``WeylElement`` on the base ``rings.SparseModElem`` (whose
constructor is the ring check, and which owns sums, comparison and JSON),
are kept in normal form sum c * z^e d^[r] with all z's on the left.
Divided powers d^[r] are primitive symbols; composition goes through the
integral rewrite rules

    d^[r] d^[s] = binom(r+s, r) d^[r+s]
    d^[r] z^e  = sum_k binom(e, k) z^(e-k) d^[r-k]

so the char-p collapse (d^p = 0 while d^[p] != 0) is automatic.

Products and normal forms go through one kernel, ``_times_generator``,
which right-multiplies a normal form by one generator z_i^k or d_i^[k].
``normal_form`` folds a word through it and ``WeylElement.__mul__`` each
term of its right factor; ``apply_word`` and the tests' ``_ref_mul`` are
their references.

Operators act on functions through one kernel, ``_act``:
d^[r] z^u = binom(u, r) z^(u-r).  ``apply`` and ``ChartAtlas.apply_ambient``
call it, and ``wittdiff.apply_witt`` reaches it through ``apply``.
"""

from __future__ import annotations

from math import comb
from operator import add as _add

from .rings import (NegativeExponentViolation, SparseModElem, VariableMismatch,
                    ints)


class RangeError(ValueError):
    pass


def gen_binom(m, k):
    """binom(m, k) = m(m-1)...(m-k+1)/k! for any integer m, k >= 0."""
    if k < 0:
        return 0
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


class WeylElement(SparseModElem):
    """A normal-form element of S_m over Z/p^n.

    ``terms`` maps (exponent tuple e in Z^m, multi-order r in N^m) to a nonzero
    residue; negative z-exponents are allowed only at ``allowed_negative``
    indices.
    """

    __slots__ = ()

    def _clean_terms(self, terms, q, nv, neg):
        clean = {}
        for (e, r), c in terms.items():
            e, r = tuple(e), tuple(r)
            if len(e) != nv or len(r) != nv:
                raise VariableMismatch("term arity mismatch")
            if any(v < 0 for v in r):
                raise RangeError("negative divided-power order")
            for i, v in enumerate(e):
                if v < 0 and i not in neg:
                    raise NegativeExponentViolation(
                        "negative exponent at variable %d" % i
                    )
            c %= q
            if c:
                clean[(e, r)] = c
        return clean

    @staticmethod
    def _key_json(key):
        return {"e": list(key[0]), "order": list(key[1])}

    @staticmethod
    def _json_key(t, _ring):
        return ints(t["e"]), ints(t["order"])

    @classmethod
    def one(cls, p, n, num_vars, allowed_negative=()):
        z = (0,) * num_vars
        return cls(p, n, num_vars, {(z, z): 1}, allowed_negative)

    @classmethod
    def monomial(cls, p, n, num_vars, e, r, coeff=1, allowed_negative=()):
        return cls(p, n, num_vars, {(tuple(e), tuple(r)): coeff}, allowed_negative)

    def __mul__(self, other):
        """Composition self o other: self folded through each term of other."""
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check(other)
        q = self.p ** self.n
        out = {}
        get = out.get
        for (e2, r2), c2 in other.terms.items():
            acc = self.terms
            for kind, powers in (("z", e2), ("d", r2)):
                for i, k in enumerate(powers):
                    if k:
                        acc = _times_generator(acc, kind, i, k, q)
            for key, c in acc.items():
                out[key] = (get(key, 0) + c * c2) % q
        return self._with({t: c for t, c in out.items() if c})

    __rmul__ = SparseModElem.scalar_mul

    def __pow__(self, k):
        out = WeylElement.one(self.p, self.n, self.num_vars,
                              self.allowed_negative)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (e, r), c in self.sorted_terms():
            mon = "".join("z%d^%d" % (i, v) for i, v in enumerate(e) if v)
            dd = "".join("D%d[%d]" % (i, v) for i, v in enumerate(r) if v)
            bits.append("%d%s%s" % (c, mon, dd))
        return " + ".join(bits)


def _times_generator(terms, kind, i, k, q):
    """Right-multiply the normal form {(e, r): c} by z_i^k or d_i^[k] mod q.

    Only variable i moves: d^[r] d_i^[k] = binom(r_i + k, k) d^[r + k e_i],
    and d^[r] z_i^k = sum_m binom(k, m) z_i^(k-m) d^[r - m e_i] over
    m <= min(r_i, k), or m <= r_i when k < 0.  Returns nonzero residues.
    """
    out = {}
    if kind == "d":
        # (e, r) -> (e, r + k e_i) is one-to-one: no two terms meet
        for (e, r), c in terms.items():
            ri = r[i]
            c = c * comb(ri + k, k) % q
            if c:
                out[(e, r[:i] + (ri + k,) + r[i + 1:])] = c
        return out
    get = out.get
    for (e, r), c in terms.items():
        ri, ei = r[i], e[i]
        for m in range(ri + 1 if k < 0 else min(ri, k) + 1):
            b = gen_binom(k, m) % q
            if b:
                key = (e[:i] + (ei + k - m,) + e[i + 1:],
                       r[:i] + (ri - m,) + r[i + 1:])
                out[key] = (get(key, 0) + c * b) % q
    return {t: c for t, c in out.items() if c}


def _token(tok, num_vars, allowed_negative):
    """A word token as (kind, i, k), checked as given, or raise."""
    kind, i, k = tok
    if kind not in ("z", "d"):
        raise ValueError("unknown token %r" % (tok,))
    if not 0 <= i < num_vars:
        raise VariableMismatch("token %r: variable outside 0..%d"
                               % (tok, num_vars - 1))
    if k < 0 and kind == "d":
        raise RangeError("negative divided-power order")
    if k < 0 and i not in allowed_negative:
        raise NegativeExponentViolation("negative exponent at variable %d" % i)
    return kind, i, k


def normal_form(word, p, n, num_vars, allowed_negative=()):
    """Fold a generator word into normal form.

    Tokens are ("z", i, k) for z_i^k and ("d", i, r) for d_i^[r], with
    0 <= i < num_vars.  Each token is checked as given, before it is
    folded in, since z_0^-1 z_0 cancels in the result.  The ring is
    checked once, by building the unit, and the result is built unchecked.
    """
    one = WeylElement.one(p, n, num_vars, allowed_negative)
    terms, q = one.terms, p ** n
    for tok in word:
        kind, i, k = _token(tok, num_vars, one.allowed_negative)
        if k:
            terms = _times_generator(terms, kind, i, k, q)
    return one._with(terms)


def apply_word(word, f):
    """Apply a generator word to f right-to-left (the sequential oracle).

    Tokens are checked as in ``normal_form``.  z_i^k shifts exponent i of
    each term by k; d_i^[r] times it by binom(e_i, r) mod p^n, drops it if
    that is 0, and lowers exponent i by r.  Both maps are one-to-one.
    """
    word = [_token(tok, f.num_vars, f.allowed_negative) for tok in word]
    q, terms = f.p ** f.n, f.terms
    for kind, i, k in reversed(word):
        if not k:
            continue
        out = {}
        shift = k if kind == "z" else -k
        for e, c in terms.items():
            if kind == "d":
                c = c * gen_binom(e[i], k) % q
            if c:
                out[e[:i] + (e[i] + shift,) + e[i + 1:]] = c
        terms = out
    return f._with(terms)


def _act(op_terms, f_terms, q):
    """The divided-power action of {(e, r): c} on {u: c_u} modulo q.

    Each term pair contributes c c_u prod_i binom(u_i, r_i) z^(u - r + e),
    with the generalized binomial; a pair stops at its first binomial that
    is 0 mod q.  Returns a dict of nonzero residues.
    """
    out = {}
    get = out.get
    for (e, r), c in op_terms.items():
        orders = [(i, ri) for i, ri in enumerate(r) if ri]
        shift = [ei - ri for ei, ri in zip(e, r)]
        for u, cu in f_terms.items():
            coeff = c * cu
            for i, ri in orders:
                b = gen_binom(u[i], ri) % q
                if not b:
                    break
                coeff *= b
            else:
                tgt = tuple(map(_add, u, shift))
                out[tgt] = (get(tgt, 0) + coeff) % q
    return {t: c for t, c in out.items() if c}


def apply(op, f):
    """Evaluate a normal-form operator on a Laurent polynomial.

    The divided action is d^[r](z^u) = binom(u, r) z^(u-r) with the
    generalized binomial, reduced in Z/p^n.
    """
    if op.num_vars != f.num_vars or op.p != f.p or op.n != f.n:
        raise VariableMismatch("operator/function ring mismatch")
    q = f.p ** f.n
    out = _act(op.terms, f.terms, q)
    # f's ring is checked already, and _act returns nonzero residues; the
    # image may leave f's region unless every variable is inverted
    if len(f.allowed_negative) < f.num_vars:
        out = f._clean_terms(out, q, f.num_vars, f.allowed_negative)
    return f._with(out)


def theta(p, level, i, j, num_vars=None):
    """The matrix-unit endomorphism z^i d^[p^level-1] z^(p^level-1-j) over F_p."""
    if num_vars is None:
        num_vars = len(i)
    i = tuple(i)
    j = tuple(j)
    top = p ** level
    if len(i) != num_vars or len(j) != num_vars:
        raise RangeError("index arity mismatch")
    if any(not (0 <= v < top) for v in i + j):
        raise RangeError("theta indices must lie in [0, p^level)")
    full = tuple(top - 1 for _ in range(num_vars))
    word = (
        [("z", k, i[k]) for k in range(num_vars) if i[k]]
        + [("d", k, full[k]) for k in range(num_vars)]
        + [("z", k, full[k] - j[k]) for k in range(num_vars) if full[k] - j[k]]
    )
    return normal_form(word, p, 1, num_vars)


# ----------------------------------------------------------------------
# charts on P^d
# ----------------------------------------------------------------------

class ChartOperator:
    """A Weyl element expressed in the coordinates of one standard chart."""

    __slots__ = ("chart", "weyl")

    def __init__(self, chart, weyl):
        self.chart = chart
        self.weyl = weyl

    def __repr__(self):
        return "ChartOperator(chart=%d, %r)" % (self.chart, self.weyl)


class ChartAtlas:
    """The d+1 standard charts of P^d with monomial transition maps.

    Degree-zero monomials in the homogeneous coordinates z_0..z_d are the
    common currency: chart V_c sees the monomial z^u as the chart-coordinate
    exponent vector (u_s)_{s != c}.
    """

    def __init__(self, d):
        self.d = d

    def chart_vars(self, c):
        return [s for s in range(self.d + 1) if s != c]

    def to_chart(self, c, u):
        """Ambient degree-0 exponent vector -> chart exponents."""
        if sum(u) != 0:
            raise VariableMismatch("ambient monomials must have degree 0")
        return tuple(u[s] for s in self.chart_vars(c))

    def from_chart(self, c, e):
        u = [0] * (self.d + 1)
        for slot, s in enumerate(self.chart_vars(c)):
            u[s] = e[slot]
        u[c] = -sum(u)
        return tuple(u)

    def apply_ambient(self, op, u):
        """Apply a ChartOperator to the ambient monomial z^u.

        Returns a dict ambient-exponent-vector -> coefficient (mod p^n).
        """
        c, w = op.chart, op.weyl
        img = _act(w.terms, {self.to_chart(c, u): 1}, w.p ** w.n)
        return {self.from_chart(c, e): v for e, v in img.items()}


def is_global(op, atlas, degree_bound=8):
    """Chart-preservation test for a ChartOperator on P^d.

    True iff the operator maps every chart's polynomial monomials (total
    chart degree up to the bound, plus two extra stabilization levels) into
    that chart's polynomial ring.
    """
    d = atlas.d
    for c in range(d + 1):
        for e in _chart_monomials(d, degree_bound + 2):
            img = atlas.apply_ambient(op, atlas.from_chart(c, e))
            if any(v[s] < 0 for v in img for s in range(d + 1) if s != c):
                return False
    return True


def _chart_monomials(d, bound):
    if d == 0:
        yield ()
        return
    for first in range(bound + 1):
        for rest in _chart_monomials(d - 1, bound - first):
            yield (first,) + rest
