"""Ring arithmetic on sparse polynomials, the one kernel behind every cover.

A polynomial is a dict {exponent: coefficient} that never holds a zero
coefficient.  ``q = 0`` means arithmetic over Z; any other ``q`` means
arithmetic in Z/q, and then the operands must already be reduced mod q.
The functions never mutate their operands, but may return one of them
(``power(a, 1)`` is ``a``), so results are shared and must not be mutated.
The exceptions are ``add_into``, which adds into its first argument in
place, and the ``acc`` argument of the packed power ``_ppow``, into which
it adds k times the power as ``add_into`` would, instead of returning it:
that dict must be the caller's own, made by it and shared with no one, and
may hold zeros until the caller drops them (``divexact`` does).

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
serve the universal Witt polynomials, also as stored: with X_j and Y_j of
weight p^j every exponent met at level i is at most p^i, so with base
2 p^(n-1) + 1 the exponent vector (e_0, e_1, ...) packs into
sum e_k * base^k without carries, and a product of monomials is a sum of
keys.  ``add``, ``scale``, ``add_into`` and ``divexact`` do not look at
keys and serve both formats.  ``_half_words`` reads packed keys by halves:
each key is split once at the middle variable (for the Witt sum and
product, below it the X digits, above it the Y digits), and each half is
looked up in a memo, since the monomials of a universal polynomial share
few distinct X and Y parts.

Packed powers are raised as segmented Kronecker products along a
segmentation (A, B, w): two variables, by place value, and a weight.  The
base is grouped by the key (its exponent with the A and B digits zeroed,
a + w b), and each group becomes one integer whose W-bit signed slots hold
its coefficients, that of b in slot b.  The form is closed under products:
group pairs multiply as integers, and their products add up per output
key, the sum of the two.  Only the result is cut back into the slots
b = 0..c // w (a = c - w b) of each key c, from the bottom, a negative slot
borrowing one from the next.  Digits never carry, since the base exceeds
every exponent, and the integers are exact, so the cut is exact once each
coefficient of the result fits a slot with its sign.  A power a^k is
segmented once, with W = bits((sum |a|)^k) + 1, raised by repeated
squaring in that form and cut once.  The slots add into a dict the caller
owns ({} for a plain result), and each group is popped as it is cut, so
its integer is freed once read.  Only the compression depends on the
operand, so the layout is ``base`` and a tuple of candidates, and each
power takes the one with the fewest groups.  The Witt polynomials pass
(Y_0, X_0, 1), which gathers the sum polynomials, of weight p^i in X and Y
together, and (X_0, X_1, p), which gathers the bihomogeneous product
polynomials: their X-weight x_0 + p x_1 + ... is p^i in every monomial, so
x_0 + y_0 would leave one monomial per group.  When no candidate
compresses, 4 groups^2 > #a^2, the power runs term by term.
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


def add_into(acc, terms, k):
    """acc += k * terms in place over Z; terms yields (exponent, coeff) pairs.

    No scaled or summed copy is made; coefficients that cancel stay as 0.
    """
    get = acc.get
    for e, c in terms:
        acc[e] = get(e, 0) + k * c


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
    return _raise(a, k, lambda x, y: mul(x, x if y is None else y, q))


def _raise(x, k, mul):
    """x^k for k >= 1 by repeated squaring, mul(x, None) squaring x."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, None)


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
    """a / k over Z, zeros dropped; raises IntegralityFailure unless k | a."""
    out = {}
    for e, c in a.items():
        v, r = divmod(c, k)
        if r:
            raise IntegralityFailure("non-exact division by %d" % k)
        if v:
            out[e] = v
    return out


# ----------------------------------------------------------------------
# packed exponents
# ----------------------------------------------------------------------

def _unpack(poly, base, nvars):
    """{packed exponent: c} -> {exponent tuple: c} in nvars variables."""
    split, lows, highs = _half_words(base, nvars)
    out = {}
    for k, c in poly.items():
        hi, lo = divmod(k, split)
        out[lows[lo] + highs[hi]] = c
    return out


def _half_words(base, nvars, value=lambda digits, first: digits):
    """(split, lows, highs): packed keys in nvars variables read by halves.

    hi, lo = divmod(k, split) splits k at the middle variable; lows[lo] and
    highs[hi] are value(digits, first) of the half's exponent tuple and the
    index of its first variable, made on first lookup (default: the tuple).
    """
    low = nvars // 2  # the digits below the split
    return (base ** low, _HalfWords(base, low, 0, value),
            _HalfWords(base, nvars - low, low, value))


class _HalfWords(dict):
    """The memo of one half of :func:`_half_words`."""

    def __init__(self, *args):
        self.args = args  # base, count, first, value

    def __missing__(self, k):
        base, count, first, value = self.args
        v = self[k] = value(_digits(k, base, count), first)
        return v


def _digits(k, base, count):
    """The lowest count base-``base`` digits of k, lowest first."""
    e = [0] * count
    for i in range(count):
        k, e[i] = divmod(k, base)
    return tuple(e)


def _ppow(a, power, base, segs, acc=None, k=1):
    """a^power for a packed polynomial and power >= 1.

    a is segmented once, along the candidate with the fewest groups, its
    groups are raised in that form and the power is cut once; no
    coefficient of it exceeds (sum of |coefficients|)^power.  Power 1 is
    a itself.  With ``acc``, k times the power is added into acc, as
    add_into(acc, a^power, k) adds it, and acc is returned instead.  A
    candidate stops grouping once it cannot beat the best so far.
    """
    if power == 1:
        return _landed(a, acc, k)
    width = (sum(map(abs, a.values())) ** power).bit_length() + 1
    best = None
    cap = len(a) // 2  # grouping pays while 4 groups^2 <= #a^2
    for seg in segs:
        ga = _segments(a, base, seg, width, cap)
        if ga:
            best, cap = (ga, seg), len(ga) - 1
    if best is None:
        return _landed(_raise(a, power, _terms), acc, k)
    ga, seg = best
    return _cut(_raise(ga, power, _kronecker), seg, width, acc, k)


def _landed(product, acc, k):
    """product itself, or acc after add_into(acc, product, k)."""
    if acc is None:
        return product
    add_into(acc, product.items(), k)
    return acc


def _terms(a, b):
    """a * b term by term (b = None squares a, each cross product taken
    once and doubled), zeros dropped."""
    out = {}
    get = out.get
    if b is None:
        terms = list(a.items())
        for idx, (e1, c1) in enumerate(terms):
            e = e1 + e1
            out[e] = get(e, 0) + c1 * c1
            c1 += c1
            for e2, c2 in terms[idx + 1:]:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    else:
        if len(a) < len(b):  # the short factor in the inner loop runs faster
            a, b = b, a
        terms = list(b.items())
        for e1, c1 in a.items():
            for e2, c2 in terms:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _segments(a, base, seg, width, cap):
    """Group a packed polynomial by (rest, a + w b) into one integer each.

    ``seg`` is (A, B, w), the place values of the variables A and B and the
    weight of B; ``rest`` is the exponent with its A and B digits zeroed,
    and the coefficient of b sits in the signed slot b of ``width`` bits.
    None once there are more than ``cap`` groups.
    """
    aplace, bplace, w = seg
    out = {}
    get = out.get
    for e, c in a.items():
        da = e // aplace % base
        db = e // bplace % base
        key = (e - da * aplace - db * bplace, da + w * db)
        out[key] = get(key, 0) + (c << (width * db))
        if len(out) > cap:
            return None
    return out


def _kronecker(ga, gb):
    """Product of two segmented polynomials (gb = None squares ga), itself
    segmented: group pairs multiply as integers and add up per output group.
    """
    sums = {}
    get = sums.get
    sa = list(ga.items())
    if gb is None:
        for idx, ((ra, da), va) in enumerate(sa):
            key = (ra + ra, da + da)
            sums[key] = get(key, 0) + va * va
            va += va
            for (rb, db), vb in sa[idx + 1:]:
                key = (ra + rb, da + db)
                sums[key] = get(key, 0) + va * vb
    else:
        sb = list(gb.items())
        for (ra, da), va in sa:
            for (rb, db), vb in sb:
                key = (ra + rb, da + db)
                sums[key] = get(key, 0) + va * vb
    return sums


def _cut(groups, seg, width, acc=None, k=1):
    """Cut a segmented polynomial into its signed slots, adding k times
    their coefficients into ``acc`` (by default {}, then the polynomial, as
    no two slots share a key).  Returns acc; ``groups`` is emptied, each
    group's integer dropped once read."""
    aplace, bplace, w = seg
    if acc is None:
        acc = {}
    get = acc.get
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    step = bplace - w * aplace  # b up by one, a down by w
    while groups:
        (rest, d), v = groups.popitem()
        e = rest + d * aplace  # the slot b = 0, a = d
        for _ in range(d // w + 1):  # b runs from 0 to d // w
            c = v & mask
            if c >= half:  # a negative slot: borrow one from the next
                c -= mask + 1
            v = (v - c) >> width
            if c:
                acc[e] = get(e, 0) + k * c
            e += step
    return acc
