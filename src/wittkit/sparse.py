"""Ring arithmetic on sparse polynomials, the one kernel behind every cover.

A polynomial is a dict {exponent: coefficient} that never holds a zero
coefficient.  ``q = 0`` means arithmetic over Z; any other ``q`` means
arithmetic in Z/q, and then the operands must already be reduced mod q.
The functions never mutate their operands, but may return one of them
(``power(a, 1)`` is ``a``), so results are shared and must not be mutated.

``power`` has closed forms for short operands, which the Laurent covers
raise to p-th powers by the hundred thousand: zero is returned at once, a
monomial has one term, and a binomial c1 x^e1 + c2 x^e2 is expanded by the
binomial theorem.  Its k-th power has the k + 1 terms
C(k, j) c1^j c2^(k-j) x^(j e1 + (k-j) e2), whose exponents are distinct;
C(k, j) is carried exactly from term to term and the powers of c1 and c2
are reduced mod q.  Three or more terms are raised by repeated squaring.

Two exponent formats exist.  Tuple keys (one integer per variable, negative
entries allowed) serve the Laurent covers of Witt vectors, ``LaurentElem``
and the Weyl algebra: their products are small and many, so a per-call
conversion would cost more than it saves.  Kronecker-packed integer keys
serve the universal Witt polynomials: with X_j and Y_j of weight p^j every
exponent met at level i is at most p^i, so with base 2 p^(n-1) + 1 the
exponent vector (e_0, e_1, ...) packs into sum e_k * base^k without carries,
and a product of monomials is a sum of keys.  ``add``, ``scale`` and
``divexact`` do not look at keys and serve both formats.  ``_unpack`` turns
packed keys back into tuples by half-words: each key is split once at the
middle variable (for the Witt sum and product, below it the X digits,
above it the Y digits), and each half is looked up in a per-call memo of
digit tuples, since the monomials of a universal polynomial share few
distinct X and Y parts.

Packed products are segmented along X_0.  The layout passed with them is
``base`` and ``ystep``, the place value of Y_0: ``base**n`` for the Witt
polynomials, in general ``base**k`` with k >= 1 (past the last variable
there is no Y_0).  X_0 has place value 1.  Each operand is grouped by the key
(its exponent with the X_0 and Y_0 digits zeroed, x_0 + y_0), and each group
becomes one integer whose W-bit signed slots hold its coefficients, the
coefficient of x_0 in slot x_0.  Group pairs multiply as integers, the
products add up per output key, and each sum is cut back into slots from
the bottom, a negative slot borrowing one from the next.  Digits never
carry, since the base exceeds every exponent, and slots never overflow:
each output coefficient is a sum of at most min(#a, #b) products, so
W = bits(max|a|) + bits(max|b|) + bits(min(#a, #b)) + 2 holds it with its
sign.  When grouping does not compress, groups_a * groups_b * 4 > #a * #b,
the product runs term by term; so do the bihomogeneous product
polynomials, whose groups hold one monomial each.
"""

from __future__ import annotations

from operator import add as _add_exps, sub as _sub_exps


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
    """a^k on tuple exponents for k >= 1.

    Zero, a monomial and a binomial have closed forms; longer polynomials
    are raised by repeated squaring.
    """
    if k < 1:
        raise ValueError("sparse powers need k >= 1")
    if not a:
        return {}
    if len(a) == 1:  # a monomial: no products to expand
        (e, c), = a.items()
        c = pow(c, k, q) if q else c ** k
        return {tuple(x * k for x in e): c} if c else {}
    if len(a) == 2:
        return _binomial_power(a, k, q)
    out = None
    while True:
        if k & 1:
            out = a if out is None else mul(out, a, q)
        k >>= 1
        if not k:
            return out
        a = mul(a, a, q)


def _binomial_power(a, k, q):
    """(c1 x^e1 + c2 x^e2)^k by the binomial theorem.

    The term j is C(k, j) c1^j c2^(k-j) x^(k e2 + j (e1 - e2)); its exponents
    differ for distinct j, so no two terms meet.  C(k, j) runs exactly over
    Z, the powers of c1 and c2 are reduced mod q.
    """
    (e1, c1), (e2, c2) = a.items()
    low = [1]  # c2^0, ..., c2^k
    for _ in range(k):
        low.append(low[-1] * c2 % q if q else low[-1] * c2)
    step = tuple(map(_sub_exps, e1, e2))
    e = tuple(x * k for x in e2)
    out = {}
    binom = high = 1  # C(k, j) and c1^j
    for j in range(k + 1):
        v = binom * high * low[k - j]
        if q:
            v %= q
        if v:
            out[e] = v
        e = tuple(map(_add_exps, e, step))
        binom = binom * (k - j) // (j + 1)
        high = high * c1 % q if q else high * c1
    return out


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
    """{packed exponent: c} -> {exponent tuple: c} in nvars variables.

    Each key is split once at the middle variable, and each half is read
    from a per-call memo of digit tuples.
    """
    low = nvars // 2  # the digits below the split
    split = base ** low
    lows, highs = {}, {}
    out = {}
    for k, c in poly.items():
        hi, lo = divmod(k, split)
        el = lows.get(lo)
        if el is None:
            el = lows[lo] = _digits(lo, base, low)
        eh = highs.get(hi)
        if eh is None:
            eh = highs[hi] = _digits(hi, base, nvars - low)
        out[el + eh] = c
    return out


def _digits(k, base, count):
    """The lowest count base-``base`` digits of k, lowest first."""
    e = []
    for _ in range(count):
        k, x = divmod(k, base)
        e.append(x)
    return tuple(e)


def _pmul(a, b, base, ystep):
    """Product of two packed polynomials, segmented when grouping pays."""
    width = _slot_width(a, b)
    ga = _segments(a, base, ystep, width)
    gb = _segments(b, base, ystep, width)
    if 4 * len(ga) * len(gb) > len(a) * len(b):
        return _pmul_terms(a, b)
    return _kronecker(ga, gb, ystep, width)


def _psquare(a, base, ystep):
    """a * a, each cross product taken once and doubled."""
    width = _slot_width(a, a)
    ga = _segments(a, base, ystep, width)
    if 2 * len(ga) > len(a):  # _pmul's test with b = a
        return _psquare_terms(a)
    return _kronecker(ga, None, ystep, width)


def _ppow(a, k, base, ystep):
    """a^k for a packed polynomial and k >= 1, by repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = a if out is None else _pmul(out, a, base, ystep)
        k >>= 1
        if not k:
            return out
        a = _psquare(a, base, ystep)


def _pmul_terms(a, b):
    """a * b term by term."""
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


def _psquare_terms(a):
    """a * a term by term."""
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


def _segments(a, base, ystep, width):
    """Group a packed polynomial by (rest, x_0 + y_0) into one integer each.

    ``rest`` is the exponent with its X_0 digit (place value 1) and its
    Y_0 digit (place value ``ystep``) zeroed; the coefficient of x_0 sits
    in the signed slot x_0 of ``width`` bits.
    """
    out = {}
    get = out.get
    for e, c in a.items():
        x0 = e % base
        y0 = e // ystep % base
        key = (e - x0 - y0 * ystep, x0 + y0)
        out[key] = get(key, 0) + (c << (width * x0))
    return out


def _slot_width(a, b):
    """Bits of a signed slot that holds every coefficient of a * b."""
    def bits(poly):
        return max(map(abs, poly.values()), default=0).bit_length()
    return bits(a) + bits(b) + min(len(a), len(b)).bit_length() + 2


def _kronecker(ga, gb, ystep, width):
    """Product of two segmented polynomials (gb = None squares ga).

    Group pairs multiply as integers and add up per output group, whose
    integer is then cut back into signed slots.
    """
    acc = {}
    get = acc.get
    sa = list(ga.items())
    if gb is None:
        for idx, ((ra, da), va) in enumerate(sa):
            key = (ra + ra, da + da)
            acc[key] = get(key, 0) + va * va
            va += va
            for (rb, db), vb in sa[idx + 1:]:
                key = (ra + rb, da + db)
                acc[key] = get(key, 0) + va * vb
    else:
        sb = list(gb.items())
        for (ra, da), va in sa:
            for (rb, db), vb in sb:
                key = (ra + rb, da + db)
                acc[key] = get(key, 0) + va * vb
    out = {}
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    step = 1 - ystep  # x_0 up by one, y_0 down by one
    for (rest, d), v in acc.items():
        e = rest + d * ystep  # the slot x_0 = 0, y_0 = d
        for _ in range(d + 1):  # x_0 runs from 0 to d
            c = v & mask
            if c >= half:  # a negative slot: borrow one from the next
                c -= mask + 1
            v = (v - c) >> width
            if c:
                out[e] = c
            e += step
    return out
