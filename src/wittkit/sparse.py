"""Ring arithmetic on sparse polynomials, the one kernel behind every cover.

A polynomial is a dict {exponent: coefficient} that never holds a zero
coefficient.  ``q = 0`` means arithmetic over Z; any other ``q`` means
arithmetic in Z/q, and then the operands must already be reduced mod q.
The functions never mutate their operands, but may return one of them
(``power(a, 1)`` is ``a``), so results are shared and must not be mutated.

Two exponent formats exist.  Tuple keys (one integer per variable, negative
entries allowed) serve the Laurent covers of Witt vectors, ``LaurentElem``
and the Weyl algebra: their products are small and many, so a per-call
conversion would cost more than it saves.  Kronecker-packed integer keys
serve the universal Witt polynomials: with X_j and Y_j of weight p^j every
exponent met at level i is at most p^i, so with base 2 p^(n-1) + 1 the
exponent vector (e_0, e_1, ...) packs into sum e_k * base^k without carries,
and a product of monomials is a sum of keys.  ``add``, ``scale`` and
``divexact`` do not look at keys and serve both formats.
"""

from __future__ import annotations

from operator import add as _add_exps


class IntegralityFailure(ArithmeticError):
    pass


def add(a, b, q=0):
    """a + b."""
    out = dict(a)
    get = out.get
    for e, c in b.items():
        v = get(e, 0) + c
        if q:
            v %= q
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def scale(a, c, q=0):
    """c * a for an integer c."""
    if q:
        c %= q
        return {e: v for e, c0 in a.items() if (v := c0 * c % q)}
    if not c:
        return {}
    return {e: c0 * c for e, c0 in a.items()}


def mul(a, b, q=0):
    """a * b on tuple exponents."""
    if len(a) < len(b):  # the short factor in the inner loop runs faster
        a, b = b, a
    out = {}
    get = out.get
    terms = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in terms:
            e = tuple(map(_add_exps, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    if q:
        return {e: v for e, c in out.items() if (v := c % q)}
    return {e: c for e, c in out.items() if c}


def power(a, k, q=0):
    """a^k on tuple exponents for k >= 1, by repeated squaring."""
    if k < 1:
        raise ValueError("sparse powers need k >= 1")
    if len(a) == 1:  # a monomial: no products to expand
        (e, c), = a.items()
        c = pow(c, k, q) if q else c ** k
        return {tuple(x * k for x in e): c} if c else {}
    out = None
    while True:
        if k & 1:
            out = a if out is None else mul(out, a, q)
        k >>= 1
        if not k:
            return out
        a = mul(a, a, q)


def divexact(a, k):
    """a / k over Z; raises IntegralityFailure unless k divides a."""
    out = {}
    for e, c in a.items():
        v, r = divmod(c, k)
        if r:
            raise IntegralityFailure("non-exact division by %d" % k)
        out[e] = v
    return out


# ----------------------------------------------------------------------
# packed exponents
# ----------------------------------------------------------------------

def _pack(poly, base):
    """{exponent tuple: c} -> {packed exponent: c}."""
    out = {}
    for e, c in poly.items():
        k = 0
        for x in reversed(e):
            k = k * base + x
        out[k] = c
    return out


def _unpack(poly, base, nvars):
    """{packed exponent: c} -> {exponent tuple: c} in nvars variables."""
    out = {}
    for k, c in poly.items():
        e = []
        for _ in range(nvars):
            k, x = divmod(k, base)
            e.append(x)
        out[tuple(e)] = c
    return out


def _pmul(a, b):
    """Product of two packed polynomials."""
    if len(a) < len(b):  # the short factor in the inner loop runs faster
        a, b = b, a
    out = {}
    get = out.get
    terms = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in terms:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _psquare(a):
    """a * a, each cross product taken once and doubled."""
    terms = list(a.items())
    out = {}
    get = out.get
    for idx, (e1, c1) in enumerate(terms):
        e = e1 + e1
        out[e] = get(e, 0) + c1 * c1
        c1 += c1
        for e2, c2 in terms[idx + 1:]:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ppow(a, k):
    """a^k for a packed polynomial and k >= 1, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else _pmul(out, a)
        k >>= 1
        if not k:
            return out
        a = _psquare(a)
