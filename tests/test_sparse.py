"""wittkit.sparse against the loops it replaced, kept here as references."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import sparse, witt
from wittkit.rings import LaurentElem


# ----------------------------------------------------------------------
# references: the tuple-exponent loops of witt (over Z) and of LaurentElem
# (over Z/p^n), as they stood before wittkit.sparse replaced them
# ----------------------------------------------------------------------

def _ref_cadd(a, b):
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _ref_cmul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _ref_cscale(k, a):
    if k == 0:
        return {}
    return {e: k * c for e, c in a.items()}


def _ref_cpow(a, k):
    out = None
    base = a
    while k:
        if k & 1:
            out = base if out is None else _ref_cmul(out, base)
        k >>= 1
        if k:
            base = _ref_cmul(base, base)
    return out


def _ref_laurent_add(a, b, q):
    terms = dict(a)
    for e, c in b.items():
        v = (terms.get(e, 0) + c) % q
        if v:
            terms[e] = v
        else:
            terms.pop(e, None)
    return terms


def _ref_laurent_mul(a, b, q):
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            v = (terms.get(e, 0) + c1 * c2) % q
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
    return terms


def _ref_laurent_scalar(a, c, q):
    c %= q
    terms = {}
    for e, c0 in a.items():
        v = (c0 * c) % q
        if v:
            terms[e] = v
    return terms


def _ref_laurent_pow(a, k, q, nvars):
    out = {(0,) * nvars: 1}
    base = a
    while k:
        if k & 1:
            out = _ref_laurent_mul(out, base, q)
        base = _ref_laurent_mul(base, base, q) if k > 1 else base
        k >>= 1
    return out


# ----------------------------------------------------------------------
# strategies: Laurent polynomials with negative exponents
# ----------------------------------------------------------------------

def polys(nvars, coeffs):
    return st.dictionaries(st.tuples(*[st.integers(-3, 3)] * nvars),
                           coeffs, max_size=6)


@st.composite
def rings(draw):
    """(nvars, q): q = 0 for Z, else p^n."""
    nvars = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return nvars, 0
    return nvars, draw(st.sampled_from([2, 3, 5])) ** draw(st.integers(1, 3))


def coefficients(q):
    if q:
        return st.integers(1, q - 1)
    return st.integers(-40, 40).filter(bool)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_reference_loops(data):
    nvars, q = data.draw(rings())
    a = data.draw(polys(nvars, coefficients(q)))
    b = data.draw(polys(nvars, coefficients(q)))
    c = data.draw(st.integers(-50, 50))
    k = data.draw(st.integers(1, 5))
    if q:
        assert sparse.add(a, b, q) == _ref_laurent_add(a, b, q)
        assert sparse.mul(a, b, q) == _ref_laurent_mul(a, b, q)
        assert sparse.scale(a, c, q) == _ref_laurent_scalar(a, c, q)
        assert sparse.power(a, k, q) == _ref_laurent_pow(a, k, q, nvars)
    else:
        assert sparse.add(a, b) == _ref_cadd(a, b)
        assert sparse.mul(a, b) == _ref_cmul(a, b)
        assert sparse.scale(a, c) == _ref_cscale(c, a)
        assert sparse.power(a, k) == _ref_cpow(a, k)
    for poly in (sparse.add(a, b, q), sparse.mul(a, b, q),
                 sparse.scale(a, c, q), sparse.power(a, k, q)):
        assert all(poly.values())
        assert not q or all(0 < v < q for v in poly.values())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_laurent_dunders_match_reference_loops(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    nvars = data.draw(st.integers(1, 3))
    neg = tuple(range(nvars))
    q = p ** n
    f, g = (LaurentElem(p, n, nvars, data.draw(polys(nvars, coefficients(q))),
                        neg) for _ in range(2))
    c = data.draw(st.integers(-50, 50))
    k = data.draw(st.integers(1, 5))

    def ring(terms):
        return LaurentElem(p, n, nvars, terms, neg)

    assert f + g == ring(_ref_laurent_add(f.terms, g.terms, q))
    assert f * g == ring(_ref_laurent_mul(f.terms, g.terms, q))
    assert f * c == ring(_ref_laurent_scalar(f.terms, c, q))
    assert f ** k == ring(_ref_laurent_pow(f.terms, k, q, nvars))
    assert f ** 0 == LaurentElem.one(p, n, nvars, neg)
    zero = f + (-f)
    assert zero.is_zero()
    assert zero == LaurentElem.zero(p, n, nvars, neg)
    assert (zero.p, zero.n, zero.num_vars, zero.allowed_negative) == (
        p, n, nvars, frozenset(neg))


@given(st.dictionaries(st.tuples(st.integers(-2, 2)),
                       st.integers(-30, 30).filter(bool), min_size=1),
       st.integers(2, 9))
@settings(max_examples=100, deadline=None)
def test_divexact_is_exact_or_raises(a, k):
    if all(c % k == 0 for c in a.values()):
        assert sparse.scale(sparse.divexact(a, k), k) == a
    else:
        with pytest.raises(sparse.IntegralityFailure):
            sparse.divexact(a, k)


def test_integrality_failure_is_one_class():
    assert witt.IntegralityFailure is sparse.IntegralityFailure


def test_power_rejects_k_below_one():
    with pytest.raises(ValueError):
        sparse.power({(1,): 1}, 0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_monomial_power_matches_repeated_products(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    q = data.draw(st.sampled_from([0, p ** data.draw(st.integers(1, 3))]))
    nvars = data.draw(st.integers(1, 3))
    e = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
    c = data.draw(coefficients(q))  # multiples of p may vanish mod q
    k = data.draw(st.integers(1, 6))
    want = {e: c}
    for _ in range(k - 1):
        want = sparse.mul(want, {e: c}, q)
    assert sparse.power({e: c}, k, q) == want


def test_monomial_power_vanishing_mod_q():
    p = 3
    assert sparse.power({(1, -2): p}, 2, p ** 2) == {}
    assert sparse.power({(1, -2): p}, 1, p ** 2) == {(1, -2): p}
    assert sparse.power({(1, -2): p}, 2) == {(2, -4): p * p}


# ----------------------------------------------------------------------
# closed-form short powers, against the repeated squaring they replaced
# ----------------------------------------------------------------------

def _ref_power(a, k, q=0):
    """sparse.power as it stood before zero and two-term closed forms."""
    if k < 1:
        raise ValueError("sparse powers need k >= 1")
    if len(a) == 1:
        (e, c), = a.items()
        c = pow(c, k, q) if q else c ** k
        return {tuple(x * k for x in e): c} if c else {}
    out = None
    while True:
        if k & 1:
            out = a if out is None else sparse.mul(out, a, q)
        k >>= 1
        if not k:
            return out
        a = sparse.mul(a, a, q)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_short_power_matches_repeated_products(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    q = data.draw(st.sampled_from([0, p ** data.draw(st.integers(1, 3))]))
    nvars = data.draw(st.integers(1, 3))
    # coefficients(q) draws multiples of p too, whose powers may vanish mod q
    a = data.draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * nvars),
                                  coefficients(q), max_size=2))
    k = data.draw(st.integers(1, 40))
    want = a
    for _ in range(k - 1):
        want = sparse.mul(want, a, q)
    got = sparse.power(a, k, q)
    assert got == want == _ref_power(a, k, q)
    assert all(got.values())
    assert not q or all(0 < v < q for v in got.values())


def test_short_powers_multiply_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a short power took a product")
    monkeypatch.setattr(sparse, "mul", refuse)
    assert sparse.power({}, 7) == {}
    assert sparse.power({}, 1, 9) == {}
    assert sparse.power({(1, -1): 2, (0, 1): 1}, 3) == {
        (3, -3): 8, (2, -1): 12, (1, 1): 6, (0, 3): 1}
    # (x + y)^3 mod 3 is x^3 + y^3; mod 9 the middle terms are 3s
    assert sparse.power({(1,): 1, (-1,): 1}, 3, 3) == {(3,): 1, (-3,): 1}
    assert sparse.power({(1,): 1, (-1,): 1}, 3, 9) == {
        (3,): 1, (1,): 3, (-1,): 3, (-3,): 1}
    # powers of a multiple of p vanish mod p^2 from the square on
    assert sparse.power({(1,): 3, (0,): 1}, 2, 9) == {(0,): 1, (1,): 6}
