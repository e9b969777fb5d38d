import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import sparse, witt
from wittkit.rings import (
    LaurentElem,
    PrimeFieldElem,
    ScaleExceeded,
    VariableMismatch,
)
from wittkit.sparse import (IntegralityFailure, _cut, _kronecker, _pmul,
                            _ppow, _segments, _slot_width, _unpack,
                            add_into)
from wittkit.witt import (
    NotInImage,
    TorsionRing,
    WittVector,
    _binop,
    _from_ghosts,
    _ghost_from_covers,
    _ghosts,
    _ghost_inverse,
    _MAX_POLY_COST,
    _layout,
    _lift,
    _pack_base,
    _poly_cost,
    _poly_terms_bound,
    _reduce_like,
    UniversalWittPolys,
    build_universal_polys,
    frobenius,
    ghost,
    restrict,
    teichmuller,
    tilde_F,
    tilde_w,
    tilde_w_inverse,
    verschiebung,
    witt_add,
    witt_add_via_polys,
    witt_mul,
    witt_mul_via_polys,
    witt_neg,
    witt_neg_via_polys,
    witt_phi,
    witt_scalar_mul,
)


# -- integer images, Witt differences and sums: no library code calls them ----

def witt_from_int(c, p, n, like=None):
    """Image of the integer c in W_n(F_p) (or the like-typed constant ring).

    Over Laurent coordinates it is the vector w-tilde takes to c.
    """
    if isinstance(like, LaurentElem):
        one = LaurentElem.one(p, n, like.num_vars, like.allowed_negative)
        return tilde_w_inverse(one * c)
    template = PrimeFieldElem(p, 0) if like is None else like
    return WittVector(p, n, [_reduce_like(v, template, p)
                             for v in _ghost_inverse([c] * n, p)])


def witt_sub(x, y):
    """x - y in one ghost round trip: the ghost map is additive.

    x - 0 is x itself, with no round trip.
    """
    if y.is_zero():
        x._check(y)
        return x
    return _binop(x, y, lambda a, b: a - b)


def witt_sum(vectors, p=None, n=None, like=None):
    """The Witt sum of vectors: ghosts are summed and inverted once.

    Zero summands are dropped first, and when at most one is left it is
    the sum, the first vector standing for zero; the empty sum is
    ``witt_from_int(0, p, n, like)``.
    """
    it = list(vectors)
    if not it:
        return witt_from_int(0, p, n, like=like)
    x = it[0]
    for v in it[1:]:
        x._check(v)
    it = [v for v in it if not v.is_zero()]
    if len(it) < 2:
        return it[0] if it else x
    total = _ghosts(it[0])
    for v in it[1:]:
        total = [a + b for a, b in zip(total, _ghosts(v))]
    return _from_ghosts(x, total)


def _pack(poly, base):
    """{exponent tuple: c} -> {packed exponent: c}."""
    out = {}
    for e, c in poly.items():
        k = 0
        for x in reversed(e):
            k = k * base + x
        out[k] = c
    return out


def fp_vec(p, n, vals):
    return WittVector(p, n, [PrimeFieldElem(p, v) for v in vals])


def rnd_fp(p, n, rng):
    return fp_vec(p, n, [rng.randrange(p) for _ in range(n)])


def rnd_laurent_vec(p, n, nv, rng, neg=True):
    allowed = tuple(range(nv)) if neg else ()
    coords = []
    for _ in range(n):
        terms = {}
        for _ in range(rng.randrange(0, 3)):
            e = tuple(
                rng.randrange(-2, 3) if neg else rng.randrange(0, 4)
                for _ in range(nv)
            )
            terms[e] = rng.randrange(1, p)
        coords.append(LaurentElem(p, 1, nv, terms, allowed))
    return WittVector(p, n, coords)


# -- the ghost route over integer covers: the reference for Laurent vectors --
#
# Coordinates lift to covers in Z or Z[z^{+-1}] (exponent->int dicts), ghost
# components are combined there and the ghost map is inverted with exact
# divisions.  It never touches w-tilde, so it checks the library's Laurent
# arithmetic, which goes through w-tilde.

def _cadd(a, b):
    return a + b if isinstance(a, int) else sparse.add(a, b)


def _cmul(a, b):
    return a * b if isinstance(a, int) else sparse.mul(a, b)


def _cscale(k, a):
    return k * a if isinstance(a, int) else sparse.scale(a, k)


def _cpow(a, k):
    return a ** k if isinstance(a, int) else sparse.power(a, k)


def _cdivexact(a, k):
    if isinstance(a, int):
        q, r = divmod(a, k)
        if r:
            raise IntegralityFailure("non-exact division by %d" % k)
        return q
    return sparse.divexact(a, k)


def _ref_ghost_from_covers(covers, p):
    """Ghost components of integer or Laurent covers, powers chained."""
    zero = 0 if isinstance(covers[0], int) else {}
    powers = list(covers)
    ws = []
    for i in range(len(covers)):
        acc = None
        for j in range(i + 1):
            if not powers[j]:
                continue
            if j < i:
                powers[j] = _cpow(powers[j], p)
            t = _cscale(p ** j, powers[j])
            acc = t if acc is None else _cadd(acc, t)
        ws.append(zero if acc is None else acc)
    return ws


def _ref_ghost_inverse(ws, p):
    """Integer or Laurent covers with ghost components ws."""
    coords = []
    powers = []
    for i, acc in enumerate(ws):
        for j in range(i):
            if powers[j]:
                powers[j] = _cpow(powers[j], p)
                acc = _cadd(acc, _cscale(-(p ** j), powers[j]))
        coords.append(_cdivexact(acc, p ** i))
        powers.append(coords[-1])
    return coords


def _ref_reduce_like(cover, template, p):
    """The coordinate in template's ring, through the checked constructors."""
    if isinstance(template, int):
        return cover
    if isinstance(template, PrimeFieldElem):
        return PrimeFieldElem(p, cover % p)
    if isinstance(cover, int):
        cover = {(0,) * template.num_vars: cover}
    return LaurentElem(p, 1, template.num_vars, cover,
                       template.allowed_negative)


def _ref_from_ghosts(x, ws):
    covers = _ref_ghost_inverse(ws, x.p)
    return WittVector(x.p, x.n, [_ref_reduce_like(c, t, x.p)
                                 for c, t in zip(covers, x.coords)])


def _ref_ghosts(x):
    return _ref_ghost_from_covers([_lift(c) for c in x.coords], x.p)


def _ref_binop(x, y, combine):
    x._check(y)
    return _ref_from_ghosts(x, list(map(combine, _ref_ghosts(x),
                                        _ref_ghosts(y))))


def _ref_witt_sub(x, y):
    """One ghost round trip, zero or not."""
    return _ref_binop(x, y, lambda a, b: _cadd(a, _cscale(-1, b)))


def _ref_witt_sum(vectors):
    """Every summand through the ghost map."""
    if len(vectors) == 1:
        return vectors[0]
    x = vectors[0]
    total = _ref_ghosts(x)
    for v in vectors[1:]:
        x._check(v)
        total = [_cadd(a, b) for a, b in zip(total, _ref_ghosts(v))]
    return _ref_from_ghosts(x, total)


def _ref_witt_from_int(c, p, n, like):
    return WittVector(p, n, [_ref_reduce_like(v, like, p)
                             for v in _ref_ghost_inverse([c] * n, p)])


def _identical(u, v):
    """Equal, with the same coordinate types and Laurent rings."""
    return (u == v and u.to_json() == v.to_json()
            and [type(c) for c in u.coords] == [type(c) for c in v.coords])


# -- universal polynomials -------------------------------------------------

def test_sum_polys_p2():
    sum_polys = build_universal_polys(2, 2).unpacked("sum_polys")
    assert sum_polys[0] == {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}
    assert sum_polys[1] == {(0, 1, 0, 0): 1, (0, 0, 0, 1): 1,
                            (1, 0, 1, 0): -1}


def test_sum_poly_p3():
    u = build_universal_polys(3, 2)
    assert u.unpacked("sum_polys")[1] == {
        (0, 1, 0, 0): 1, (0, 0, 0, 1): 1,
        (2, 0, 1, 0): -1, (1, 0, 2, 0): -1,
    }


def test_prod_polys_p2():
    prod_polys = build_universal_polys(2, 2).unpacked("prod_polys")
    assert prod_polys[0] == {(1, 0, 1, 0): 1}
    assert prod_polys[1] == {(2, 0, 0, 1): 1, (0, 1, 2, 0): 1,
                             (0, 1, 0, 1): 2}


def test_universal_poly_term_count_p5_n4():
    # a known answer: terms of S, P and I together for W_4 at p = 5
    u = build_universal_polys(5, 4)
    assert sum(len(f) for f in u.sum_polys + u.prod_polys
               + u.neg_polys) == 42016


@pytest.mark.parametrize("cached,calls", [
    (build_universal_polys, [(p, n) for p in (2, 3, 5, 7) for n in (1, 2)]),
])
def test_process_caches_are_bounded(cached, calls):
    bound = cached.cache_parameters()["maxsize"]
    assert len(calls) > bound
    for args in calls:
        first = cached(*args)
        assert cached(*args) is first
        assert cached.cache_info().currsize <= bound
    assert cached.cache_info().currsize == bound


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2)])
def test_ghost_compat_symbolic(p, n):
    assert build_universal_polys(p, n).check_ghost_compat()


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("family,name", [("sum_polys", "sum"),
                                         ("prod_polys", "product"),
                                         ("neg_polys", "negation")])
@pytest.mark.parametrize("where", ["bottom", "middle", "top"])
def test_ghost_check_catches_a_corrupted_coefficient(p, n, family, name,
                                                      where):
    # a fresh instance: the one cached by build_universal_polys stays intact
    u = UniversalWittPolys(p, n)
    assert u.check_ghost_compat()
    i = {"bottom": 0, "middle": n // 2, "top": n - 1}[where]
    poly = getattr(u, family)[i]
    e = min(poly)
    poly[e] += 1
    message = "^%s polynomial ghost mismatch at %d$" % (name, i)
    with pytest.raises(IntegralityFailure, match=message):
        u.check_ghost_compat()


def test_ghost_check_peak_memory_stays_below_the_stored_polys():
    # the check streams its ghost sums and drops the top level's powers:
    # at (2, 5) its transient peak is about 0.7 times the tuple-keyed
    # polynomials, and the packed ones it stores take half their bytes
    tracemalloc.start()
    try:
        u = UniversalWittPolys(2, 5)
        stored = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert u.check_ghost_compat()
        peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        tupled = [u.unpacked(name)
                  for name in ("sum_polys", "prod_polys", "neg_polys")]
        tuple_keyed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, tupled)) == 15
    assert peak - stored <= tuple_keyed
    assert stored <= 0.6 * tuple_keyed


def test_ghost_check_transient_stays_below_the_stored_polys_at_2_6():
    # the top level adds each power's last product into its level sum slot
    # by slot: at (2, 6) the check's transient peak is about 0.9 times the
    # stored polynomials, where building each of those powers whole took
    # 1.4 times them
    tracemalloc.start()
    try:
        u = UniversalWittPolys(2, 6)
        stored = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert u.check_ghost_compat()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - stored < stored


@given(st.sampled_from([(p, n) for p in (2, 3, 5) for n in (1, 2, 3)]),
       st.sampled_from(["sum_polys", "prod_polys", "neg_polys"]))
@settings(max_examples=30, deadline=None)
def test_property_unpacked_reads_the_stored_polys(shape, name):
    """The tuple-keyed accessor is the stored packed polynomials read digit
    by digit, and packs back to them."""
    p, n = shape
    upw = build_universal_polys(p, n)
    stored = getattr(upw, name)
    base = _pack_base(p, n)
    nvars = n if name == "neg_polys" else 2 * n
    got = upw.unpacked(name)
    assert got == [_unpack(f, base, nvars) for f in stored]
    assert got == [_ref_unpack(f, base, nvars) for f in stored]
    assert [_pack(f, base) for f in got] == stored
    assert all(len(e) == nvars for f in got for e in f)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_specialization_matches_ghost_route(p):
    rng = random.Random(17)
    for n in (1, 2, 3):
        for _ in range(10):
            # over F_p, and over Z, where nothing is reduced mod p
            for x, y in ((rnd_fp(p, n, rng), rnd_fp(p, n, rng)),
                         (WittVector(p, n, [rng.randrange(-40, 41)
                                            for _ in range(n)]),
                          WittVector(p, n, [rng.randrange(-40, 41)
                                            for _ in range(n)]))):
                assert witt_add(x, y) == witt_add_via_polys(x, y)
                assert witt_mul(x, y) == witt_mul_via_polys(x, y)
                assert witt_neg(x) == witt_neg_via_polys(x)
        xl = rnd_laurent_vec(p, 2, 1, rng)
        yl = rnd_laurent_vec(p, 2, 1, rng)
        assert witt_add(xl, yl) == witt_add_via_polys(xl, yl)
        assert witt_mul(xl, yl) == witt_mul_via_polys(xl, yl)
    if p == 3:
        # multi-term coordinates, through the half-word route at (3, 4)
        def z(terms):
            return LaurentElem(3, 1, 2, terms, (0, 1))
        xm = WittVector(3, 4, [z({(1, 0): 1, (-1, 2): 2}), z({(0, 1): 1}),
                               z({}), z({(2, -1): 2, (0, 0): 1, (1, 1): 1})])
        ym = WittVector(3, 4, [z({(0, -1): 2}), z({(1, 0): 1, (0, 1): 2}),
                               z({(-2, 0): 1}), z({(1, 1): 1})])
        assert witt_add(xm, ym) == witt_add_via_polys(xm, ym)
        assert witt_mul(xm, ym) == witt_mul_via_polys(xm, ym)
        assert witt_neg(xm) == witt_neg_via_polys(xm)


def test_int_values_take_the_one_term_route():
    """Z and F_p values reach the one-term evaluator as constant covers,
    {(): c} or {} for 0, once per coordinate polynomial."""
    calls = []

    def spy(poly, values, *rest, _f=witt._specialize_one_term):
        calls.append(values)
        return _f(poly, values, *rest)

    rng = random.Random(29)
    z = [WittVector(3, 3, [rng.randrange(-9, 10) for _ in range(3)])
         for _ in range(2)]
    for x, y in ((rnd_fp(3, 3, rng), rnd_fp(3, 3, rng)), z,
                 (fp_vec(3, 3, [0, 2, 0]), fp_vec(3, 3, [1, 0, 0]))):
        covers = [{(): c} if c else {}
                  for c in map(_lift, x.coords + y.coords)]
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(witt, "_specialize_one_term", spy)
            got = (witt_add_via_polys(x, y), witt_mul_via_polys(x, y),
                   witt_neg_via_polys(x))
        assert got == (witt_add(x, y), witt_mul(x, y), witt_neg(x))
        assert calls == [covers] * 6 + [covers[:3]] * 3


def _ref_specialize(poly, values):
    """Evaluate one stored polynomial at integer-cover values.

    The universal polynomials have no constant term, so every monomial
    touches at least one variable.
    """
    powcache = [dict() for _ in values]

    def vpow(i, k):
        cache = powcache[i]
        if k not in cache:
            cache[k] = _cpow(values[i], k)
        return cache[k]

    acc = None
    for exps, c in poly.items():
        term = None
        for i, e in enumerate(exps):
            if e:
                f = vpow(i, e)
                term = f if term is None else _cmul(term, f)
        if term is None:
            raise IntegralityFailure("unexpected constant monomial")
        term = _cscale(c, term)
        acc = term if acc is None else _cadd(acc, term)
    if acc is None:
        return 0 if isinstance(values[0], int) else {}
    return acc


@st.composite
def specialize_cases(draw):
    """A shape, a coordinate ring and values for 2n variables."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["Z", "F_p", "Laurent"]))
    if kind == "Z":
        coords = draw(st.lists(st.integers(-30, 30), min_size=2 * n,
                               max_size=2 * n))
    elif kind == "F_p":
        coords = [PrimeFieldElem(p, v) for v in draw(st.lists(
            st.integers(0, p - 1), min_size=2 * n, max_size=2 * n))]
    else:
        nv = draw(st.integers(1, 2))
        term = st.tuples(st.tuples(*[st.integers(-2, 2)] * nv),
                         st.integers(1, p - 1))
        coords = [LaurentElem(p, 1, nv, dict(terms), tuple(range(nv)))
                  for terms in draw(st.lists(
                      st.lists(term, max_size=3), min_size=2 * n,
                      max_size=2 * n))]
    return p, n, coords


@given(specialize_cases(), st.sampled_from(["sum", "prod", "neg"]))
@settings(max_examples=200, deadline=None)
def test_property_specialize_matches_reference(case, which):
    p, n, coords = case
    upw = build_universal_polys(p, n)
    name = which + "_polys"
    if which == "neg":
        coords = coords[:n]
    values = [_lift(c) for c in coords]
    q = 0 if isinstance(coords[0], int) else p
    for f, ref in zip(getattr(upw, name), upw.unpacked(name)):
        got = upw.specialize(f, values, q)
        want = _ref_specialize(ref, values)
        assert (_reduce_like(got, coords[0], p)
                == _reduce_like(want, coords[0], p))


# -- one-term Laurent values, against the reference evaluation --------------

@st.composite
def one_term_cases(draw):
    """A stored polynomial and Laurent values that are 0 or one term, in 1-3
    variables with negative exponents, over Z or mod p; in small shapes one
    value may have two or three terms, which sends the call to the
    multi-term route."""
    p, n = draw(st.sampled_from([(p, n) for p in (2, 3, 5)
                                 for n in range(1, 5)] + [(2, 6)]))
    which = draw(st.sampled_from(["sum_polys", "prod_polys", "neg_polys"]))
    poly = build_universal_polys(p, n).unpacked(which)[
        draw(st.integers(0, n - 1))]
    q = draw(st.sampled_from([0, p]))
    nv = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * nv)
    coeff = (st.integers(1, p - 1) if q
             else st.integers(-5, 5).filter(bool))
    values = [draw(st.dictionaries(exps, coeff, max_size=1))
              for _ in range(len(next(iter(poly))))]
    if p ** (n - 1) <= 9 and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.dictionaries(exps, coeff, min_size=2, max_size=3))
    return p, n, poly, values, q


@given(one_term_cases())
@settings(max_examples=200, deadline=None)
def test_property_one_term_laurent_specialize_matches_reference(case):
    p, n, poly, values, q = case
    upw = build_universal_polys(p, n)
    calls = []

    def spy(*args, _f=witt._specialize_one_term):
        calls.append(args)
        return _f(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witt, "_specialize_one_term", spy)
        got = upw.specialize(_pack(poly, _pack_base(p, n)), values, q)
    assert len(calls) == all(len(v) < 2 for v in values)
    want = _ref_specialize(poly, values)
    if q:
        want = {e: v for e, c in want.items() if (v := c % q)}
    assert got == want


def test_one_term_specialize_rejects_constant_monomial():
    """Like the general loop, the one-term route raises on a constant
    monomial unless its coefficient vanishes mod q."""
    upw = build_universal_polys(3, 1)
    base = _pack_base(3, 1)
    one, three = (_pack({(0, 0): c, (1, 0): 1}, base) for c in (1, 3))
    one_term, two_terms = {(1,): 2}, {(1,): 2, (-1,): 1}
    for values in ([one_term, {}], [two_terms, {}]):
        with pytest.raises(IntegralityFailure):
            upw.specialize(one, values, 3)
        with pytest.raises(IntegralityFailure):
            upw.specialize(three, values, 0)
        assert upw.specialize(three, values, 3) == values[0]


# -- specialization over F_p through the reduced form, against the full one --

@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5)
                                 for n in (1, 2, 3, 4)])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_fp_via_polys_matches_full_specialization(p, n, data):
    """witt_*_via_polys over F_p, which read the reduced form, equal the
    stored polynomials specialized term by term mod p.  Digits are drawn
    with zeros; from n = 2 on the polynomials have exponents >= p, which
    the reduction folds."""
    upw = build_universal_polys(p, n)
    if n >= 2:
        assert max(max(e) for name in ("sum_polys", "prod_polys", "neg_polys")
                   for f in upw.unpacked(name) for e in f) >= p
    digit = st.one_of(st.just(0), st.integers(0, p - 1))
    x = fp_vec(p, n, [data.draw(digit) for _ in range(n)])
    y = fp_vec(p, n, [data.draw(digit) for _ in range(n)])
    xy = [c.value for c in x.coords + y.coords]
    for got, polys, vals in ((witt_add_via_polys(x, y), upw.sum_polys, xy),
                             (witt_mul_via_polys(x, y), upw.prod_polys, xy),
                             (witt_neg_via_polys(x), upw.neg_polys,
                              xy[:n])):
        assert [c.value for c in got.coords] == \
            [upw.specialize(f, vals, p) for f in polys]


def test_fp_reduced_form_lives_on_cached_instances():
    """Only F_p values build the reduced form, lazily, on the instance
    that the bounded build_universal_polys cache holds."""
    assert build_universal_polys.cache_parameters()["maxsize"] == 4
    assert UniversalWittPolys(3, 2)._fp_polys == {}
    upw = build_universal_polys(3, 2)
    upw._fp_polys.clear()
    rng = random.Random(3)
    xz = WittVector(3, 2, [rng.randrange(-9, 10) for _ in range(2)])
    xl = rnd_laurent_vec(3, 2, 1, rng)
    for x in (xz, xl):
        witt_add_via_polys(x, x)
        witt_mul_via_polys(x, x)
        witt_neg_via_polys(x)
    assert upw._fp_polys == {}
    x = rnd_fp(3, 2, rng)
    witt_add_via_polys(x, x)
    assert list(upw._fp_polys) == ["sum_polys"]
    assert upw.fp_polys("sum_polys") is upw._fp_polys["sum_polys"]
    assert build_universal_polys(3, 2) is upw


def test_fp_reduced_form_sizes():
    # known answers: terms of the reduced forms at (5, 4)
    upw = build_universal_polys(5, 4)
    assert [sum(map(len, upw.fp_polys(name)))
            for name in ("sum_polys", "prod_polys", "neg_polys")] == \
        [1012, 146, 4]
    assert all(0 < c < 5 and all(e < 5 for e in exps)
               for f in upw.fp_polys("sum_polys")
               for exps, c in _unpack(f, _pack_base(5, 4), 8).items())


# -- ghost components ------------------------------------------------------

def test_ghost_teichmuller():
    x = WittVector(3, 3, [2, 0, 0])
    assert ghost(x) == (2, 2 ** 3, 2 ** 9)


def test_ghost_examples():
    assert ghost(WittVector(2, 2, [0, 1])) == (0, 2)
    assert ghost(WittVector(2, 2, [1, 1])) == (1, 3)


def test_ghost_needs_torsion_free():
    with pytest.raises(TorsionRing):
        ghost(fp_vec(2, 2, [1, 0]))


# -- arithmetic ------------------------------------------------------------

def test_one_plus_one_in_w2_f2():
    one = teichmuller(PrimeFieldElem(2, 1), 2)
    assert witt_add(one, one) == fp_vec(2, 2, [0, 1])


def test_additive_identity():
    rng = random.Random(0)
    x = rnd_fp(5, 3, rng)
    zero = witt_from_int(0, 5, 3)
    assert witt_add(x, zero) == x


def test_teichmuller_multiplicative():
    a, b = PrimeFieldElem(5, 2), PrimeFieldElem(5, 3)
    assert witt_mul(teichmuller(a, 3), teichmuller(b, 3)) == teichmuller(
        a * b, 3
    )


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_wn_fp_is_z_mod_pn_exhaustive(p, n):
    """The ghost-of-integer-lift map is an exhaustive ring isomorphism."""
    q = p ** n

    def to_int(x):
        vals = [c.value for c in x.coords]
        return sum(
            (p ** i) * pow(vals[i], p ** (n - 1 - i), q) for i in range(n)
        ) % q

    elems = []

    def fill(i, acc):
        if i == n:
            elems.append(fp_vec(p, n, acc))
            return
        for v in range(p):
            fill(i + 1, acc + [v])

    fill(0, [])
    images = sorted(to_int(x) for x in elems)
    assert images == list(range(q))  # bijective
    for x in elems:
        for y in elems:
            assert to_int(witt_add(x, y)) == (to_int(x) + to_int(y)) % q
            assert to_int(witt_mul(x, y)) == (to_int(x) * to_int(y)) % q


@pytest.mark.parametrize("p,n", [(2, 2), (3, 3), (5, 2)])
def test_structure_identities(p, n):
    rng = random.Random(7)
    for _ in range(30):
        x = rnd_fp(p, n, rng)
        y = rnd_fp(p, n - 1, rng) if n > 1 else None
        assert frobenius(verschiebung(x)) == witt_scalar_mul(p, x)
        assert verschiebung(witt_from_int(0, p, n)) == witt_from_int(0, p, n + 1)
        if y is not None:
            assert witt_mul(x, verschiebung(y)) == verschiebung(
                witt_mul(frobenius(x), y)
            )
        assert frobenius(teichmuller(x.coords[0], n)) == teichmuller(
            x.coords[0] ** p, n - 1
        )
        # char p: V(F(x)) = p x
        assert verschiebung(frobenius(x)) == witt_scalar_mul(p, x)


@pytest.mark.parametrize("p", [2, 3])
def test_exact_sequence(p):
    rng = random.Random(3)
    n, r = 2, 2
    for _ in range(20):
        x = rnd_fp(p, n + r, rng)
        # R^r surjective: restrict twice hits arbitrary targets
        t = rnd_fp(p, n, rng)
        lift = WittVector(p, n + r, list(t.coords) + [PrimeFieldElem(p, 0)] * r)
        assert restrict(restrict(lift)) == t
        # ker R^r == im V^n
        y = rnd_fp(p, r, rng)
        v = y
        for _ in range(n):
            v = verschiebung(v)
        assert restrict(restrict(v)) == witt_from_int(0, p, n)
        if restrict(restrict(x)) == witt_from_int(0, p, n):
            assert all(
                c.value == 0 for c in x.coords[:n]
            )


def test_decompose_identity():
    rng = random.Random(5)
    for p, n in ((2, 3), (3, 2)):
        x = rnd_laurent_vec(p, n, 2, rng)
        parts = list(x.coords)  # x = sum_l V^l([x_(l+1)])
        acc = witt_from_int(0, p, n, like=x.coords[0])
        for l, c in enumerate(parts):
            t = teichmuller(c, n - l)
            for _ in range(l):
                t = verschiebung(t)
            acc = witt_add(acc, t)
        assert acc == x


# -- the w-tilde and F-tilde maps ------------------------------------------

def t_mono(e, p=2, c=1):
    return LaurentElem.monomial(p, 1, 1, (e,), c)


def test_tilde_w_examples():
    zero = LaurentElem.zero(2, 1, 1)
    w = tilde_w(WittVector(2, 2, [t_mono(1), zero]))
    assert w.terms == {(2,): 1}
    w = tilde_w(WittVector(2, 2, [zero, t_mono(1)]))
    assert w.terms == {(1,): 2}
    w = tilde_w(WittVector(2, 2, [t_mono(1), t_mono(3)]))
    assert w.terms == {(2,): 1, (3,): 2}


def _ref_tilde(x, top):
    """sum_i p^i x_(i+1)^(p^(top-i)) mod p^n by power, scale and add."""
    p, n = x.p, x.n
    q = p ** n
    acc = {}
    for i, c in enumerate(x.coords):
        t = sparse.scale(sparse.power(c.terms, p ** (top - i), q), p ** i, q)
        acc = sparse.add(acc, t, q)
    return acc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_tilde_matches_three_pass_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, {2: 4, 3: 3, 5: 2}[p]))
    nv = data.draw(st.integers(1, 2 if p ** n <= 16 else 1))  # keeps it fast
    exps = st.tuples(*[st.integers(-2, 3)] * nv)
    coords = [LaurentElem(p, 1, nv, data.draw(st.dictionaries(
        exps, st.integers(1, p - 1), max_size=4)), tuple(range(nv)))
        for _ in range(n)]
    x = WittVector(p, n, coords)
    assert tilde_w(x).terms == _ref_tilde(x, n - 1)
    assert tilde_F(x).terms == _ref_tilde(x, n)


def test_tilde_w_roundtrip_and_not_in_image():
    rng = random.Random(11)
    for p, n in ((2, 2), (3, 2), (2, 3)):
        for _ in range(25):
            x = rnd_laurent_vec(p, n, 2, rng, neg=False)
            assert tilde_w_inverse(tilde_w(x)) == x
    with pytest.raises(NotInImage):
        tilde_w_inverse(LaurentElem.monomial(2, 2, 1, (1,)))


def test_tilde_w_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        x = rnd_laurent_vec(3, 2, 1, rng, neg=False)
        y = rnd_laurent_vec(3, 2, 1, rng, neg=False)
        # against the ghost route: witt_add and witt_mul go through tilde_w
        assert tilde_w(_ref_binop(x, y, _cadd)) == (
            tilde_w(x) + tilde_w(y)
        )
        assert tilde_w(_ref_binop(x, y, _cmul)) == (
            tilde_w(x) * tilde_w(y)
        )


def test_tilde_w_image_capture_of_v_layers():
    """image cap p^i A = w-tilde of V^i W, both inclusions on samples."""
    rng = random.Random(19)
    p, n = 2, 3
    for _ in range(20):
        x = rnd_laurent_vec(p, n - 1, 1, rng, neg=False)
        v = verschiebung(x)
        w = tilde_w(v)
        assert all(c % p == 0 for c in w.terms.values())
        y = rnd_laurent_vec(p, n, 1, rng, neg=False)
        wy = tilde_w(y)
        divisible = all(c % p == 0 for c in wy.terms.values())
        first_zero = y.coords[0].is_zero()
        assert divisible == first_zero


def test_tilde_F_example_and_closedness():
    zero = LaurentElem.zero(2, 1, 1)
    f = tilde_F(WittVector(2, 2, [t_mono(1), zero]))
    assert f.terms == {(4,): 1}
    rng = random.Random(23)
    for _ in range(20):
        x = rnd_laurent_vec(2, 2, 1, rng, neg=False)
        val = tilde_F(x)
        # d f = 0 in (Z/4)[t]: k * coeff_k == 0 mod 4 for all k
        assert all((e[0] * c) % 4 == 0 for e, c in val.terms.items())


def test_tilde_F_surjective_injective_on_closed_forms_deg6():
    """Exhaustive: F-tilde^2 over F_2[t] hits every closed form of deg <= 6."""
    q = 4
    closed = set()
    for c0 in range(4):
        for c2 in (0, 2):
            for c4 in range(4):
                for c6 in (0, 2):
                    terms = {}
                    for e, c in ((0, c0), (2, c2), (4, c4), (6, c6)):
                        if c:
                            terms[(e,)] = c
                    closed.add(LaurentElem(2, 2, 1, terms))
    images = {}
    polys1 = [LaurentElem(2, 1, 1, {(e,): c for e, c in enumerate(bits) if c})
              for bits in [(a, b) for a in (0, 1) for b in (0, 1)]]
    polys3 = []
    for b0 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                for b3 in (0, 1):
                    terms = {(e,): c for e, c in enumerate((b0, b1, b2, b3))
                             if c}
                    polys3.append(LaurentElem(2, 1, 1, terms))
    for x1 in polys1:
        for x2 in polys3:
            val = tilde_F(WittVector(2, 2, [x1, x2]))
            key = tuple(sorted(val.terms.items()))
            assert key not in images, "F-tilde^2 not injective"
            images[key] = (x1, x2)
    assert len(images) == len(closed) == 64
    got = {LaurentElem(2, 2, 1, dict(k)) for k in images}
    assert got == closed


# -- V-products ------------------------------------------------------------

def _v_product(p, factors):
    """prod_i V^(s_i)([a]^(d_i)) = p^t V^s([a]^dd) with s = max(s_i), t the
    sum of the other s_i and dd = sum p^(s - s_i) d_i, as (t, s, dd)."""
    s_max = max(s for s, _ in factors)
    dd = tuple(sum(p ** (s_max - s) * d[j] for s, d in factors)
               for j in range(len(factors[0][1])))
    return sum(s for s, _ in factors) - s_max, s_max, dd


def test_v_product_normalize():
    # V(x) V(y) = p V(xy)
    assert _v_product(3, [(1, (1,)), (1, (2,))]) == (1, 1, (3,))
    # s = (1, 2): p^1 V^2([a]^(p d1 + d2))
    assert _v_product(2, [(1, (1,)), (2, (3,))]) == (1, 2, (5,))
    # single factor unchanged
    assert _v_product(5, [(2, (4, 1))]) == (0, 2, (4, 1))


def test_v_product_oracle():
    rng = random.Random(29)
    p, n = 3, 4
    a = LaurentElem.monomial(p, 1, 1, (1,))
    for _ in range(15):
        factors = [
            (rng.randrange(0, 2), (rng.randrange(0, 3),)) for _ in range(2)
        ]
        t_pow, s_max, dd = _v_product(p, factors)
        prod = None
        for s, dvec in factors:
            f = teichmuller(a, n - s)
            x = witt_from_int(1, p, n - s, like=a)
            for _ in range(dvec[0]):
                x = witt_mul(x, f)
            for _ in range(s):
                x = verschiebung(x)
            prod = x if prod is None else witt_mul(prod, x)
        rhs = witt_from_int(1, p, n - s_max, like=a)
        f = teichmuller(a, n - s_max)
        for _ in range(dd[0]):
            rhs = witt_mul(rhs, f)
        for _ in range(s_max):
            rhs = verschiebung(rhs)
        rhs = witt_scalar_mul(p ** t_pow, rhs)
        assert prod == rhs


def test_ring_axioms_on_laurent_coordinates():
    rng = random.Random(31)
    for p, n in ((2, 2), (3, 3)):
        for _ in range(20):
            x = rnd_laurent_vec(p, n, 2, rng)
            y = rnd_laurent_vec(p, n, 2, rng)
            z = rnd_laurent_vec(p, n, 2, rng)
            assert witt_add(x, witt_add(y, z)) == witt_add(witt_add(x, y), z)
            assert witt_mul(x, witt_mul(y, z)) == witt_mul(witt_mul(x, y), z)
            assert witt_mul(x, witt_add(y, z)) == witt_add(
                witt_mul(x, y), witt_mul(x, z)
            )
            assert witt_sub(x, x).is_zero()


# -- hypothesis property tests ----------------------------------------------


@st.composite
def witt_vectors(draw, max_n=3):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, max_n))
    coords = [PrimeFieldElem(p, draw(st.integers(0, p - 1))) for _ in range(n)]
    return WittVector(p, n, coords)


@given(witt_vectors())
@settings(max_examples=120, deadline=None)
def test_property_frobenius_verschiebung(x):
    p = x.p
    assert frobenius(verschiebung(x)) == witt_scalar_mul(p, x)
    assert verschiebung(frobenius(x)) == witt_scalar_mul(p, x) if x.n > 1 \
        else witt_scalar_mul(p, x).is_zero()


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_property_projection_formula(data):
    x = data.draw(witt_vectors())
    if x.n < 2:
        return
    y = data.draw(
        st.lists(st.integers(0, x.p - 1), min_size=x.n - 1, max_size=x.n - 1)
    )
    yv = WittVector(x.p, x.n - 1, [PrimeFieldElem(x.p, v) for v in y])
    assert witt_mul(x, verschiebung(yv)) == verschiebung(
        witt_mul(frobenius(x), yv)
    )


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_property_ring_axioms(data):
    x = data.draw(witt_vectors())
    y = WittVector(x.p, x.n, [
        PrimeFieldElem(x.p, data.draw(st.integers(0, x.p - 1)))
        for _ in range(x.n)
    ])
    z = WittVector(x.p, x.n, [
        PrimeFieldElem(x.p, data.draw(st.integers(0, x.p - 1)))
        for _ in range(x.n)
    ])
    assert witt_add(x, y) == witt_add(y, x)
    assert witt_mul(witt_mul(x, y), z) == witt_mul(x, witt_mul(y, z))
    assert witt_mul(x, witt_add(y, z)) == witt_add(
        witt_mul(x, y), witt_mul(x, z)
    )
    assert witt_add(x, witt_neg(x)).is_zero()


def _tuple_mul(a, b):
    """Reference product on exponent tuples, independent of the packed kernel."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _tuple_pow(a, k):
    """a^k by repeated _tuple_mul, k >= 1."""
    power = a
    for _ in range(k - 1):
        power = _tuple_mul(power, a)
    return power


@st.composite
def sparse_polys(draw, nvars, max_exp):
    return draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * nvars),
        st.integers(-9, 9).filter(bool), max_size=8))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_property_packed_kernel_matches_tuple_route(data):
    nvars = data.draw(st.integers(1, 12))
    max_exp = data.draw(st.integers(0, 6))
    k = data.draw(st.integers(1, 5))
    a = data.draw(sparse_polys(nvars, max_exp))
    b = data.draw(sparse_polys(nvars, max_exp))
    base = max(2, k) * max_exp + 1  # above every exponent of a*b and a^k
    w = data.draw(st.sampled_from([2, 3, 5]))
    segs = _segmentations(nvars, (nvars + 1) // 2, base, w)  # Y_0 mid-way
    pa, pb = _pack(a, base), _pack(b, base)
    assert _unpack(pa, base, nvars) == a
    assert _unpack(_pmul(pa, pb, base, segs), base, nvars) == _tuple_mul(a, b)
    assert _ppow(pa, 2, base, segs) == _pmul(pa, pa, base, segs)
    assert _unpack(_ppow(pa, k, base, segs), base, nvars) == _tuple_pow(a, k)


def _ref_unpack(poly, base, nvars):
    """_unpack as it stood: one divmod per digit of every key."""
    out = {}
    for k, c in poly.items():
        e = []
        for _ in range(nvars):
            k, x = divmod(k, base)
            e.append(x)
        out[tuple(e)] = c
    return out


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_property_half_word_unpack_matches_digit_loop(data):
    nvars = data.draw(st.integers(0, 12))
    max_exp = data.draw(st.integers(0, 6))
    base = data.draw(st.integers(max_exp + 1, max_exp + 4))
    # few distinct exponents per variable, so that the halves repeat
    a = data.draw(st.dictionaries(
        st.tuples(*[st.sampled_from([0, max_exp])] * nvars),
        st.integers(-9, 9).filter(bool), max_size=12))
    pa = _pack(a, base)
    want = _ref_unpack(pa, base, nvars)
    assert want == a
    assert _unpack(pa, base, nvars) == want


# -- the segmented (Kronecker) product, whatever the dispatch decides ---------

def _segmentations(nvars, ny, base, w):
    """The two candidates of witt._layout in nvars variables: (Y_0, X_0, 1)
    with Y_0 the variable ny (absent when ny = nvars), and (X_0, X_1, w)."""
    return (base ** ny, 1, 1), (1, base, w)


def _segmented(a, b, base, seg, acc=None, k=1):
    """a * b by the segmented route alone, along seg; b = None squares a."""
    width = _slot_width(a, a if b is None else b)
    ga = _segments(a, base, seg, width, len(a))
    gb = None if b is None else _segments(b, base, seg, width, len(b))
    return _cut(_kronecker(ga, gb), seg, width, acc, k)


# small, negative and >= 2^70 coefficients: the last test the signed slots
# and the borrow out of a negative one
big_coefficients = st.one_of(
    st.integers(-9, 9), st.integers(2 ** 70, 2 ** 90),
    st.integers(-2 ** 90, -2 ** 70)).filter(bool)


@st.composite
def segment_polys(draw, nvars, ny, w, max_exp):
    """Ordinary sparse operands, or ones whose monomials share their other
    exponents and are homogeneous either in X_0 and Y_0 (the variables 0
    and ny) or of weight x_0 + w x_1 in X_0 and X_1 (the variables 0 and
    1), so that groups hold many slots."""
    kind = draw(st.sampled_from(["sparse", "x0 + y0", "x0 + w x1"]))
    if kind == "sparse":
        return draw(st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * nvars), big_coefficients,
            max_size=8))
    d = draw(st.integers(0, max_exp))
    step, other = (1, ny) if kind == "x0 + y0" else (w, 1)
    out = {}
    for rest in draw(st.lists(st.tuples(*[st.integers(0, max_exp)] * nvars),
                              max_size=3)):
        for b in draw(st.sets(st.integers(0, d // step),
                              max_size=d // step + 1)):
            e = list(rest)
            e[0] = d - step * b
            if other < nvars:
                e[other] = b
            elif b:
                continue
            out[tuple(e)] = draw(big_coefficients)
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_property_segmented_product_matches_tuple_route(data):
    nvars = data.draw(st.integers(1, 8))
    ny = data.draw(st.integers(1, nvars))  # ny = nvars: no Y_0, as for -X
    w = data.draw(st.sampled_from([2, 3, 5]))
    max_exp = data.draw(st.integers(0, 6))
    a = data.draw(segment_polys(nvars, ny, w, max_exp))
    b = data.draw(segment_polys(nvars, ny, w, max_exp))
    base = 2 * max_exp + 1  # above every exponent of a*b
    pa, pb = _pack(a, base), _pack(b, base)
    for seg in _segmentations(nvars, ny, base, w):
        assert _unpack(_segmented(pa, pb, base, seg), base, nvars) == \
            _tuple_mul(a, b)
        assert _unpack(_segmented(pa, None, base, seg), base, nvars) == \
            _tuple_mul(a, a)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_property_products_add_into_an_accumulator(data):
    """_pmul and _ppow with an accumulator add k times the product into it
    exactly as add_into does, cancelled terms left as zeros.  The dispatch
    mostly falls back to the term-by-term loops on these operands, so both
    segmentations are also forced, as _segmented does, and _ppow is also
    given one candidate at a time."""
    nvars = data.draw(st.integers(1, 6))
    ny = data.draw(st.integers(1, nvars))
    w = data.draw(st.sampled_from([2, 3, 5]))
    max_exp = data.draw(st.integers(0, 6))
    power = data.draw(st.integers(1, 5))
    a = data.draw(segment_polys(nvars, ny, w, max_exp))
    b = data.draw(segment_polys(nvars, ny, w, max_exp))
    base = max(2, power) * max_exp + 1  # above every exponent of a*b and a^k
    segs = _segmentations(nvars, ny, base, w)
    pa, pb = _pack(a, base), _pack(b, base)
    k = data.draw(st.integers(-30, 30).filter(bool))

    def lands(run, product):
        # terms the product cancels, and others it may meet or miss
        cancelled = data.draw(st.sets(st.sampled_from(sorted(product)))
                              if product else st.just(set()))
        acc = data.draw(st.dictionaries(
            st.integers(0, base ** nvars), big_coefficients, max_size=4))
        acc.update({e: -k * product[e] for e in cancelled})
        want = dict(acc)
        add_into(want, product.items(), k)
        assert run(acc) is acc
        assert acc == want  # zeros included

    for f, args in ((_pmul, (pa, pb)), (_ppow, (pa, 2)),
                    (_ppow, (pa, power))):
        lands(lambda acc: f(*args, base, segs, acc, k), f(*args, base, segs))
    for seg in segs:
        for other in (pb, None):
            lands(lambda acc: _segmented(pa, other, base, seg, acc, k),
                  _segmented(pa, other, base, seg))
        lands(lambda acc: _ppow(pa, power, base, (seg,), acc, k),
              _ppow(pa, power, base, (seg,)))


def test_segmented_product_borrows_from_negative_slots():
    # in X_0, X_1, Y_0 (base 5), each operand one group of x_0 + y_0 = 1:
    # a^2 = 2^160 X_0^2 - 2^81 X_0 Y_0 + Y_0^2 has a negative middle slot,
    # a * b = -2^80 X_0^2 + (2^160 + 1) X_0 Y_0 - 2^80 Y_0^2 negative ends
    base, seg = 5, (25, 1, 1)
    a = {1: 2 ** 80, 25: -1}
    b = {1: -1, 25: 2 ** 80}
    ua, ub = _unpack(a, base, 3), _unpack(b, base, 3)
    assert len(_segments(a, base, seg, _slot_width(a, a), 2)) == 1
    assert _unpack(_segmented(a, None, base, seg), base, 3) == \
        _tuple_mul(ua, ua)
    assert _unpack(_segmented(a, b, base, seg), base, 3) == \
        _tuple_mul(ua, ub)
    assert _segmented(a, {}, base, seg) == {}
    assert _segmented({}, None, base, seg) == {}


def _one_group_power(a, k, base, seg):
    """a^k through _ppow along seg alone, a being one group of it: the
    segmented route is taken whatever the dispatch would pick."""
    pa = _pack(a, base)
    assert len(pa) >= 2 and len(_segments(pa, base, seg, 1, 1)) == 1
    return _unpack(_ppow(pa, k, base, (seg,)), base, 3)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_property_power_slots_are_wide_enough_at_their_edge(data):
    """A power's slots hold its largest coefficient with its sign.

    In X_0, X_1, Y_0 the operand is one group along the forced candidate:
    one dominant coefficient, whose k-th power nearly fills the slot, and
    small ones of either sign."""
    w = data.draw(st.sampled_from([2, 3, 5]))
    along_y0 = data.draw(st.booleans())  # (Y_0, X_0, 1), else (X_0, X_1, w)
    k = data.draw(st.integers(1, 7))
    step = 1 if along_y0 else w
    d = data.draw(st.integers(step, 3 * step - 1))  # one or two slots above 0
    slots = sorted(data.draw(st.sets(st.integers(0, d // step), min_size=2)))
    small = st.integers(-3, 3).filter(bool)
    coeffs = [data.draw(small) for _ in slots]
    coeffs[data.draw(st.integers(0, len(slots) - 1))] = \
        data.draw(st.sampled_from([1, -1])) * (
            2 ** data.draw(st.integers(0, 90)) + data.draw(st.integers(0, 3)))
    a = {(d - step * b, 0, b) if along_y0 else (d - step * b, b, 0): c
         for b, c in zip(slots, coeffs)}
    base = max(11, k * d + 1)
    seg = _segmentations(3, 2, base, w)[0 if along_y0 else 1]
    assert _one_group_power(a, k, base, seg) == _tuple_pow(a, k)


@pytest.mark.parametrize("a, k", [
    ({(1, 0, 0): 1000, (0, 0, 1): 1}, 2),
    ({(1, 0, 0): -(2 ** 40 + 1), (0, 0, 1): 3}, 3),
    ({(1, 0, 0): 2 ** 64 + 1, (0, 0, 1): -1}, 5),
])
def test_power_slot_keeps_its_sign_bit(a, k):
    # base 11 in X_0, X_1, Y_0, one group of x_0 + y_0 = 1: a^k's largest
    # coefficient needs every bit of bits((sum |a|)^k) and a sign bit too
    base = 11
    assert _one_group_power(a, k, base, (base ** 2, 1, 1)) == _tuple_pow(a, k)


def test_segmented_routes_of_sum_and_product_polys(monkeypatch):
    """Both candidate segmentations are taken where they compress.

    At (5, 4) S_2 is homogeneous in X and Y together, so grouping by
    x_0 + y_0 gathers its monomials.  The product polynomials P_2 at (5, 4)
    and P_4 at (2, 6) are bihomogeneous, one monomial per x_0 + y_0 group,
    and are gathered by x_0 + p x_1 instead.  A p-th power segments its
    base once per candidate, takes its squarings and products in segmented
    form and is cut once.  An operand that compresses under neither still
    runs term by term."""
    routes = []
    for name, seg_arg in (("_segments", 2), ("_kronecker", None),
                          ("_cut", 1), ("_terms", None)):
        def spy(*args, _name=name, _i=seg_arg, _f=getattr(sparse, name)):
            routes.append((_name,) if _i is None else (_name, args[_i]))
            return _f(*args)
        monkeypatch.setattr(sparse, name, spy)
    for (p, n), poly, i, seg in (((5, 4), "sum_polys", 2, 0),
                                 ((5, 4), "prod_polys", 2, 1),
                                 ((2, 6), "prod_polys", 4, 1)):
        base, segs = _layout(p, n)
        a = getattr(build_universal_polys(p, n), poly)[i]
        products = 3 if p == 5 else 1  # a^5 = a * (a^2)^2
        routes.clear()
        _ppow(a, p, base, segs)
        assert routes == [("_segments", s) for s in segs] + \
            [("_kronecker",)] * products + [("_cut", segs[seg])]
        routes.clear()
        _ppow(a, 2, base, segs)
        _pmul(a, a, base, segs)
        assert [r for r in routes if r[0] != "_segments"] == \
            [("_kronecker",), ("_cut", segs[seg])] * 2
    # X_2^k for k = 1..4: each monomial is a group of its own under both
    base, segs = _layout(5, 4)
    a = {k * base ** 2: 1 for k in range(1, 5)}
    routes.clear()
    _ppow(a, 5, base, segs)
    assert routes == [("_segments", s) for s in segs] + [("_terms",)] * 3
    routes.clear()
    _ppow(a, 2, base, segs)
    _pmul(a, a, base, segs)
    assert [r for r in routes if r[0] != "_segments"] == [("_terms",)] * 2


# -- one ghost round trip per operation, against the routes it replaced --------

@st.composite
def gate_rings(draw):
    """(p, n, coordinate strategy) over F_p, Z or F_p[z^+-1]."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["Fp", "Z", "Laurent"]))
    if kind == "Fp":
        coord = st.builds(lambda v: PrimeFieldElem(p, v), st.integers(0, p - 1))
    elif kind == "Z":
        coord = st.integers(-20, 20)
    else:
        # the ghost route raises coordinates to p^(n-1)-th powers, so deep
        # vectors keep to one variable
        nv = 1 if p ** (n - 1) > 9 else draw(st.integers(1, 2))
        coord = st.builds(
            lambda terms: LaurentElem(p, 1, nv, terms, tuple(range(nv))),
            st.dictionaries(st.tuples(*[st.integers(-2, 2)] * nv),
                            st.integers(1, p - 1), max_size=2))
    return p, n, coord


def gate_vector(data, p, n, coord):
    return WittVector(p, n, [data.draw(coord) for _ in range(n)])


def _direct_ghosts(covers, p):
    """w_i = sum_j p^j a_j^(p^(i-j)), each power by repeated products."""
    ws = []
    for i in range(len(covers)):
        acc = 0 if isinstance(covers[0], int) else {}
        for j in range(i + 1):
            if isinstance(covers[j], int):
                acc += p ** j * covers[j] ** (p ** (i - j))
                continue
            power = {(0,) * len(next(iter(covers[j]), ())): 1}
            for _ in range(p ** (i - j)):
                power = _tuple_mul(power, covers[j])
            for e, c in power.items():
                acc[e] = acc.get(e, 0) + p ** j * c
        if not isinstance(acc, int):
            acc = {e: c for e, c in acc.items() if c}
        ws.append(acc)
    return ws


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sub_is_add_of_negative(data):
    p, n, coord = data.draw(gate_rings())
    x, y = gate_vector(data, p, n, coord), gate_vector(data, p, n, coord)
    assert witt_sub(x, y) == witt_add(x, witt_neg(y))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sum_is_left_fold_of_add(data):
    p, n, coord = data.draw(gate_rings())
    vs = [gate_vector(data, p, n, coord)
          for _ in range(data.draw(st.integers(1, 4)))]
    acc = vs[0]
    for v in vs[1:]:
        acc = witt_add(acc, v)
    assert witt_sum(vs) == acc


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_mul_is_product_with_integer_image(data):
    p, n, coord = data.draw(gate_rings())
    x = gate_vector(data, p, n, coord)
    c = data.draw(st.integers(-p ** n, p ** n))
    scalar = witt_from_int(c, p, n, like=x.coords[0])
    assert witt_scalar_mul(c, x) == witt_mul(scalar, x)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_chained_ghost_map_matches_direct_formula(data):
    p, n, coord = data.draw(gate_rings())
    x = gate_vector(data, p, n, coord)
    covers = [_lift(c) for c in x.coords]
    direct = _direct_ghosts(covers, p)
    assert _ref_ghost_from_covers(covers, p) == direct
    assert _ref_ghost_inverse(direct, p) == covers
    if isinstance(covers[0], int):  # the library's ghost route
        assert _ghost_from_covers(covers, p) == direct
        assert _ghost_inverse(direct, p) == covers


# -- zero shortcuts and trusted coordinates, against the routes they replaced --

def gate_vector_or_zero(data, p, n, coord):
    x = gate_vector(data, p, n, coord)
    if data.draw(st.integers(0, 2)):
        return x
    return WittVector(p, n, [x.zero_coord()] * n)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sub_and_sum_with_zeros_match_ghost_route(data):
    p, n, coord = data.draw(gate_rings())
    x, y = (gate_vector_or_zero(data, p, n, coord) for _ in range(2))
    assert _identical(witt_sub(x, y), _ref_witt_sub(x, y))
    vs = [gate_vector_or_zero(data, p, n, coord)
          for _ in range(data.draw(st.integers(1, 4)))]
    assert _identical(witt_sum(vs), _ref_witt_sum(vs))


def test_zero_summands_take_no_round_trip():
    p, n = 3, 2
    z = LaurentElem.zero(p, 1, 2, (0,))
    x = WittVector(p, n, [z, z])
    y = WittVector(p, n, [LaurentElem(p, 1, 2, {(-1, 1): 2}, (0,)), z])
    assert witt_sub(y, x) is y
    assert witt_sum([x, x]) is x
    for vs in ([x, y, x], [y, x], [x, x, y]):
        assert witt_sum(vs) is y
        assert _identical(y, _ref_witt_sum(vs))


def test_vectors_over_different_coordinate_rings_are_rejected():
    p = 3
    f = LaurentElem(p, 1, 2, {(1, 0): 1}, (0,))
    g = LaurentElem(p, 1, 2, {(1, 0): 1}, ())
    h = LaurentElem(p, 1, 1, {(1,): 1}, ())
    for coords in ([f, g], [g, h]):
        with pytest.raises(VariableMismatch):
            WittVector(p, 2, coords)
    x = WittVector(p, 2, [f, f])
    for other in (WittVector(p, 2, [g, g]), WittVector(p, 2, [h, h]),
                  fp_vec(p, 2, [1, 2])):
        for op in (witt_add, witt_sub, witt_mul):
            with pytest.raises(VariableMismatch):
                op(x, other)
    zero_y = WittVector(p, 2, [g * 0, g * 0])
    with pytest.raises(VariableMismatch):
        witt_sub(x, zero_y)
    with pytest.raises(VariableMismatch):
        witt_sum([zero_y, x])
    with pytest.raises(VariableMismatch):
        witt_add(fp_vec(p, 2, [1, 2]), WittVector(p, 2, [1, 2]))


def test_vectors_refuse_a_modulus_that_is_not_prime():
    f2 = LaurentElem(2, 1, 1, {(1,): 1}, (0,))
    for p, coords in ((4, [1, 2]), (1, [0, 0]), (0, [1, 1]),
                      (4, [PrimeFieldElem(2, 1)] * 2), (6, [f2, f2])):
        with pytest.raises(ValueError, match="modulus %d is not prime" % p):
            WittVector(p, 2, coords)
    for coords in ([1, 2], [f2.to_json()] * 2):
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            WittVector.from_json({"p": 4, "n": 2, "coords": coords})
    with pytest.raises(ValueError, match="modulus 1 is not prime"):
        WittVector.from_json({"p": 1, "n": 1, "coords": [f2.to_json()]})


def test_mixed_coordinates_are_rejected():
    p = 3
    f = LaurentElem(p, 1, 1, {(1,): 1}, (0,))
    over_z9 = LaurentElem(p, 2, 1, {(1,): 1}, (0,))
    over_f5 = LaurentElem(5, 1, 1, {(1,): 1}, (0,))
    one = PrimeFieldElem(p, 1)
    for coords in ([one, 5], [5, one], ["x", 1], [1, "x"], ["x", "x"],
                   [f, 1], [1, f], [f, one], [one, f], [1.0, 1.0],
                   [one, PrimeFieldElem(5, 1)], [f, over_z9],
                   [over_z9, over_z9], [over_f5, over_f5]):
        with pytest.raises(VariableMismatch):
            WittVector(p, 2, coords)
    for coords in ([1, 5], [one, one], [f, f * 0]):
        assert WittVector(p, 2, coords).coords == tuple(coords)
    x = fp_vec(p, 2, [1, 5])
    assert witt_add(x, x) == witt_add_via_polys(x, x) == fp_vec(p, 2, [2, 2])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_trusted_reduce_like_matches_constructor(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    nv = data.draw(st.integers(1, 3))
    region = data.draw(st.sets(st.integers(0, nv - 1)))
    template = LaurentElem.zero(p, 1, nv, region)
    exps = st.tuples(*[st.integers(-3, 3) if i in region
                       else st.integers(0, 3) for i in range(nv)])
    cover = data.draw(st.one_of(
        st.integers(-50, 50),
        st.dictionaries(exps, st.integers(-50, 50).filter(bool), max_size=5)))
    if isinstance(cover, int):  # a constant: witt_from_int peels tilde_w
        got = witt_from_int(cover, p, 1, like=template).coords[0]
    else:
        got = _reduce_like(cover, template, p)
    want = _ref_reduce_like(cover, template, p)
    assert got == want
    assert got.allowed_negative == want.allowed_negative == frozenset(region)
    assert (got.p, got.n, got.num_vars) == (want.p, want.n, want.num_vars)
    if isinstance(cover, int):
        for t in (PrimeFieldElem(p, 0), 0):
            assert _reduce_like(cover, t, p) == _ref_reduce_like(cover, t, p)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_trusted_tilde_maps_match_constructor(data):
    p = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(1, 3))
    nv = data.draw(st.integers(1, 2))
    region = data.draw(st.sets(st.integers(0, nv - 1)))
    exps = st.tuples(*[st.integers(-2, 2) if i in region
                       else st.integers(0, 2) for i in range(nv)])
    x = WittVector(p, n, [
        LaurentElem(p, 1, nv, data.draw(st.dictionaries(
            exps, st.integers(1, p - 1), max_size=2)), region)
        for _ in range(n)])
    for f in (tilde_w(x), tilde_F(x)):
        assert f == LaurentElem(p, n, nv, f.terms, region)
    back = tilde_w_inverse(tilde_w(x))
    assert back == WittVector(p, n, [
        LaurentElem(p, 1, nv, c.terms, region) for c in back.coords])
    assert tilde_w(back) == tilde_w(x)


# -- one-pass w-tilde inversion and the zero scalar, against the old routes --

def _ref_tilde_w_inverse(f):
    """tilde_w_inverse as it stood: separate passes per layer."""
    p, L = f.p, f.n
    mod = p ** L
    rem = f.terms  # reduced mod p^L
    coords = []
    for i in range(L):
        k = p ** (L - 1 - i)
        pi = p ** i
        try:
            layer = sparse.scale(sparse.divexact(rem, pi), 1, p)
        except IntegralityFailure:
            raise NotInImage("stray low p-valuation at layer %d" % i) from None
        root = {}
        for e, c in layer.items():
            if any(v % k for v in e):
                raise NotInImage("layer %d is not a %d-th power" % (i, k))
            root[tuple(v // k for v in e)] = c
        coords.append(LaurentElem._trusted(p, 1, f.num_vars, root,
                                           f.allowed_negative))
        sub = sparse.scale(sparse.power(root, k, mod), -pi, mod)
        rem = sparse.add(rem, sub, mod)
    if rem:
        raise NotInImage("nonzero remainder after peeling")
    return WittVector(p, L, coords)


def _outcome(fn, y):
    """fn(y) as JSON, or the type and message of what it raised."""
    try:
        return fn(y).to_json()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def tilde_w_targets(draw):
    """w-tilde images, and images with a term added: of valuation j >= 1,
    a unit at an exponent off the p^(L-1) lattice, or p^(L-1) times a unit
    (seen by the last layer only).  Only the off-lattice kind leaves the
    image: a full peel of layers 0..i-1 leaves rem divisible by p^i, the
    k-th power of a root being its Frobenius twist mod p, so the two other
    messages cannot be reached from a reduced input."""
    p = draw(st.sampled_from([2, 3, 5]))
    L = draw(st.integers(1, 3 if p == 5 else 4))
    nv = draw(st.integers(1, 2))
    region = draw(st.sets(st.integers(0, nv - 1)))
    exps = st.tuples(*[st.integers(-2, 2) if v in region
                       else st.integers(0, 2) for v in range(nv)])
    x = WittVector(p, L, [
        LaurentElem(p, 1, nv, draw(st.dictionaries(
            exps, st.integers(1, p - 1), max_size=2)), region)
        for _ in range(L)])
    f = tilde_w(x)
    kind = draw(st.sampled_from(["image", "valuation", "power", "remainder"]))
    if kind == "image":
        return f
    e = draw(exps)
    unit = draw(st.integers(1, p - 1))
    if kind == "valuation":
        c = p ** draw(st.integers(1, L - 1)) * unit if L > 1 else unit
    elif kind == "power":
        e = tuple(v * p ** (L - 1) for v in e)
        e = (e[0] + draw(st.integers(1, p - 1)),) + e[1:]
        c = unit
    else:
        c = p ** (L - 1) * unit
    g = LaurentElem(p, L, nv, {e: c}, region)
    return f + g


@given(tilde_w_targets())
@settings(max_examples=300, deadline=None)
def test_one_pass_tilde_w_inverse_matches_reference(y):
    assert _outcome(tilde_w_inverse, y) == _outcome(_ref_tilde_w_inverse, y)


def test_tilde_w_inverse_fills_zeros_after_an_empty_remainder():
    p, L = 3, 3
    z = LaurentElem.zero(p, 1, 1, (0,))
    u = LaurentElem.monomial(p, 1, 1, (-1,), 2, (0,))
    for coords in ([z, z, z], [u, z, z], [z, u, z], [u, u, z]):
        x = WittVector(p, L, coords)
        back = tilde_w_inverse(tilde_w(x))
        assert _identical(back, x)
        assert _identical(back, _ref_tilde_w_inverse(tilde_w(x)))
    y = LaurentElem.monomial(2, 3, 1, (3,))
    with pytest.raises(NotInImage, match="^layer 0 is not a 4-th power$"):
        tilde_w_inverse(y)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_zero_scalar_matches_ghost_round_trip(data):
    p, n, coord = data.draw(gate_rings())
    x = gate_vector_or_zero(data, p, n, coord)
    want = _ref_from_ghosts(x, [_cscale(0, g) for g in _ref_ghosts(x)])
    assert _identical(witt_scalar_mul(0, x), want)
    assert witt_scalar_mul(0, x).is_zero()


@st.composite
def laurent_op_cases(draw):
    """Laurent vectors over one ring with an inverted region, 1-2 variables,
    a list of summands and an integer scalar."""
    p, n = draw(st.sampled_from([(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2)]))
    nv = draw(st.integers(1, 2))
    region = draw(st.sets(st.integers(0, nv - 1)))
    exps = st.tuples(*[st.integers(-2, 2) if i in region
                       else st.integers(0, 2) for i in range(nv)])
    coord = st.builds(lambda terms: LaurentElem(p, 1, nv, terms, region),
                      st.dictionaries(exps, st.integers(1, p - 1),
                                      max_size=2))
    vector = st.builds(lambda cs: WittVector(p, n, cs),
                       st.lists(coord, min_size=n, max_size=n))
    return (draw(vector), draw(vector), draw(st.lists(vector, min_size=1,
                                                      max_size=3)),
            draw(st.integers(-p ** n, p ** n)))


@given(laurent_op_cases())
@settings(max_examples=150, deadline=None)
def test_laurent_ops_match_ghost_reference(case):
    x, y, vs, c = case
    p, n = x.p, x.n
    gx = _ref_ghosts(x)
    pairs = [
        (witt_add(x, y), _ref_binop(x, y, _cadd)),
        (witt_mul(x, y), _ref_binop(x, y, _cmul)),
        (witt_sub(x, y), _ref_witt_sub(x, y)),
        (witt_neg(x), _ref_from_ghosts(x, [_cscale(-1, g) for g in gx])),
        (witt_scalar_mul(c, x),
         _ref_from_ghosts(x, [_cscale(c, g) for g in gx])),
        (witt_sum(vs), _ref_witt_sum(vs)),
        (witt_from_int(c, p, n, like=x.coords[0]),
         _ref_witt_from_int(c, p, n, x.coords[0])),
    ]
    for got, want in pairs:
        assert _identical(got, want)


# -- vectors built unchecked from coordinates that come checked ----------------

@given(st.data())
@settings(max_examples=200, deadline=None)
def test_trusted_vectors_match_the_checked_constructor(data):
    """Each call site of WittVector._trusted gives what the checked
    constructor gives on the same coordinates: equal, hashing alike, with
    the same coordinate types and rings, and accepted by it."""
    if data.draw(st.booleans()):
        p, n, coord = data.draw(gate_rings())
        x, y = gate_vector(data, p, n, coord), gate_vector(data, p, n, coord)
    else:  # Laurent vectors with none, some or all variables inverted
        x, y, _, _ = data.draw(laurent_op_cases())
    # over Z and F_p witt_add and witt_neg end in _vector_from_covers, over
    # Laurent coordinates in tilde_w_inverse
    outs = [verschiebung(x), witt_scalar_mul(0, x), witt_add(x, y),
            witt_neg(x)]
    if x.n > 1:
        outs.append(restrict(x))
    if not isinstance(x.coords[0], int):
        outs.append(witt_phi(x))
        if x.n > 1:
            outs.append(frobenius(x))
    if isinstance(x.coords[0], LaurentElem):
        outs.append(tilde_w_inverse(tilde_w(x)))
    for got in outs:
        want = WittVector(got.p, got.n, list(got.coords))
        assert type(got.coords) is tuple
        assert _identical(got, want)
        assert hash(got) == hash(want)


# -- refusing oversized universal-polynomial builds ----------------------------

@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4),
                                 (5, 3), (5, 4), (7, 2), (7, 3), (11, 3)])
def test_poly_terms_bound_holds_the_built_terms(p, n):
    u = build_universal_polys(p, n)
    terms = sum(len(f) for f in u.sum_polys + u.prod_polys + u.neg_polys)
    assert terms <= _poly_terms_bound(p, n) < 2 * terms


def test_every_used_shape_is_under_the_build_limit():
    shapes = ([(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)]
              + [(5, n) for n in range(1, 5)] + [(7, n) for n in range(1, 4)])
    for p, n in shapes:
        assert _poly_cost(p, n) <= _MAX_POLY_COST, (p, n)


@pytest.mark.parametrize("p,n", [(7, 4), (2, 7), (5, 5), (23, 3), (3001, 2),
                                 (101, 40)])
def test_oversized_builds_are_refused_before_any_work(monkeypatch, p, n):
    assert _poly_cost(p, n) > _MAX_POLY_COST

    def work(self):
        raise AssertionError("the build started")
    monkeypatch.setattr(UniversalWittPolys, "_ghost_targets", work)
    with pytest.raises(ScaleExceeded, match="p = %d, n = %d" % (p, n)):
        UniversalWittPolys(p, n)
    with pytest.raises(ScaleExceeded):
        build_universal_polys(p, n)
