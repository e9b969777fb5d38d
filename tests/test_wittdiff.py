import random

import pytest

from wittkit import checks, sparse
from wittkit.rings import LaurentElem, ScaleExceeded, VariableMismatch, v_p
from wittkit.weyl import RangeError, WeylElement, apply as weyl_apply, gen_binom
from wittkit.witt import (
    _MAX_RELATION_WORK,
    NotInImage,
    WittVector,
    restrict,
    teichmuller,
    verschiebung,
    witt_scalar_mul,
    _relation_work,
)
from wittkit.wittdiff import (
    apply_witt,
    check_relation,
    i_star,
    lift_operator,
    partial_op,
    random_witt_vector,
)


def t_mono(e, p=2, neg=True):
    return LaurentElem.monomial(p, 1, 1, (e,),
                                allowed_negative=(0,) if neg else ())


# -- lifting ---------------------------------------------------------------

def test_lift_of_partial_is_partial():
    base = WeylElement.monomial(2, 1, 1, (0,), (1,))
    op = lift_operator(base, 2)
    assert op == WeylElement.monomial(2, 2, 1, (0,), (1,))


def test_lift_coefficients():
    base = WeylElement.monomial(3, 1, 1, (1,), (2,))  # z d^[2]
    op = lift_operator(base, 2)
    assert op.terms == {((1,), (2,)): 1}


def test_lift_refuses_a_shorter_length():
    base = WeylElement.monomial(3, 3, 1, (1,), (2,), 10)
    assert lift_operator(base, 3).terms == {((1,), (2,)): 10}
    with pytest.raises(ValueError, match="cannot lift from n = 3"):
        lift_operator(base, 2)


def test_apply_witt_spec_examples():
    # p = 2, n = 1 (operators over Z/4 on W_2)
    x = verschiebung(teichmuller(t_mono(3), 1))
    op = partial_op(2, 1, 0, 1, 2)
    assert apply_witt(op, x) == verschiebung(teichmuller(t_mono(2), 1))
    x2 = teichmuller(t_mono(2), 2)
    op2 = partial_op(2, 1, 0, 2, 2)
    assert apply_witt(op2, x2) == verschiebung(teichmuller(t_mono(2), 1))
    ident = WeylElement.one(2, 2, 1, (0,))
    assert apply_witt(ident, x2) == x2


def test_apply_witt_is_linear_over_wn():
    rng = random.Random(3)
    p, L, d = 3, 3, 2
    op = partial_op(p, d, 0, p, L)
    for _ in range(15):
        x = random_witt_vector(p, L, d, rng)
        y = random_witt_vector(p, L, d, rng)
        c = rng.randrange(p ** L)
        from wittkit.witt import witt_add
        lhs = apply_witt(op, witt_add(witt_scalar_mul(c, x), y))
        rhs = witt_add(witt_scalar_mul(c, apply_witt(op, x)),
                       apply_witt(op, y))
        assert lhs == rhs


# Two draws per seed, (p, length, d, first_zero, poly_only, seed) ->
# [[[(e, c), ...] per coordinate] per draw], then the generator's next
# random(): taken from random_witt_vector as it stood when each drawn
# coordinate still went through the checked constructor.
_GOLDEN_DRAWS = {
    (3, 2, 1, 0, False, 7): (
        [[[([-1], 2)], [([-2], 1), ([2], 1)]],
         [[([2], 1)], [([-2], 2), ([-1], 1)]]], 0.41817215137075947),
    (2, 3, 2, 1, False, 11): (
        [[[], [([2, 1], 1)], [([2, -1], 1), ([2, 1], 1)]],
         [[], [], [([0, -1], 1)]]], 0.5386935085776785),
    (5, 2, 2, 0, True, 13): (
        [[[([2, 1], 2)], [([1, 0], 2), ([1, 1], 2)]],
         [[([1, 0], 3), ([2, 0], 4)], []]], 0.08495073669615927),
    (3, 3, 2, 2, True, 17): (
        [[[], [], [([2, 1], 2), ([3, 2], 2)]], [[], [], []]],
        0.917493030629581),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_DRAWS))
def test_random_witt_vector_draws_are_pinned(case):
    p, length, d, first_zero, poly_only, seed = case
    draws, after = _GOLDEN_DRAWS[case]
    neg = [] if poly_only else list(range(d))
    rng = random.Random(seed)
    for coords in draws:
        x = random_witt_vector(p, length, d, rng, first_zero=first_zero,
                               poly_only=poly_only)
        assert x.to_json() == {"p": p, "n": length, "coords": [
            {"p": p, "n": 1, "vars": d, "neg": neg,
             "terms": [{"e": e, "c": c} for e, c in terms]}
            for terms in coords]}
        assert x == WittVector(p, length, [
            LaurentElem(p, 1, d, c.terms, neg) for c in x.coords])
    assert rng.random() == after


def test_random_witt_vector_checks_its_ring_once():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="modulus 4 is not prime"):
        random_witt_vector(4, 2, 1, rng)
    with pytest.raises(VariableMismatch, match="length >= 1"):
        random_witt_vector(3, 0, 1, rng)
    assert rng.random() == random.Random(0).random()  # nothing drawn


# -- the section-3 relations -------------------------------------------------

@pytest.mark.parametrize("which", ["restriction", "frobenius",
                                   "verschiebung", "filtration"])
@pytest.mark.parametrize("p,n,d", [(2, 1, 1), (2, 2, 2), (3, 2, 1)])
def test_relations_sampled(which, p, n, d):
    rng = random.Random(5)
    for r in (1, p, p * p):
        rep = check_relation(which, p, n, d, r, 10, rng)
        assert not rep["failures"], rep


def test_check_relation_builds_each_operator_once(monkeypatch):
    import wittkit.wittdiff as wd
    built = []

    def counting(*args):
        built.append(args)
        return partial_op(*args)
    monkeypatch.setattr(wd, "partial_op", counting)
    for which, r, ops in (("restriction", 2, 2), ("restriction", 1, 1),
                          ("frobenius", 4, 2), ("verschiebung", 3, 2),
                          ("filtration", 2, 1)):
        built.clear()
        rep = check_relation(which, 2, 2, 1, r, 4, random.Random(3))
        assert rep["cases"] == 4 and not rep["failures"]
        assert len(built) == ops, (which, r, built)


def test_unknown_relation_is_refused_before_any_operator(monkeypatch):
    import wittkit.wittdiff as wd

    def work(*args):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(wd, "partial_op", work)
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="unknown relation 'restr'"):
        check_relation("restr", 2, 1, 1, 2, 3, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("d,j", [(0, 0), (2, 2), (2, -1)])
def test_variable_outside_the_chart_is_refused_before_any_operator(
        monkeypatch, d, j):
    import wittkit.wittdiff as wd

    def work(*args):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(wd, "partial_op", work)
    with pytest.raises(ValueError,
                       match="need 0 <= j < d, got j = %d, d = %d" % (j, d)):
        check_relation("restriction", 3, 1, d, 1, 1, random.Random(0), j=j)


def test_relation_work_bounds_the_term_products(monkeypatch):
    """witt._relation_work bounds the term products check_relation's
    products take, on every relation and order r <= p^2 of small cells."""
    counted = [0]

    def counting(a, b, q=0, _mul=sparse.mul):
        counted[0] += len(a) * len(b)
        return _mul(a, b, q)
    monkeypatch.setattr(sparse, "mul", counting)
    for which in checks.RELATIONS:
        for p, n, d in ((2, 1, 2), (2, 3, 3), (3, 2, 2), (3, 3, 3),
                        (2, 5, 2)):
            for r in range(1, p * p + 1):
                counted[0] = 0
                check_relation(which, p, n, d, r, 5, random.Random(r))
                assert counted[0] <= _relation_work(which, p, n, 5), \
                    (which, p, n, d, r, counted[0])


def test_oversized_relation_check_is_refused_before_any_sample(monkeypatch):
    import wittkit.wittdiff as wd

    def work(*args):
        raise AssertionError("an operator was built")
    monkeypatch.setattr(wd, "partial_op", work)
    rng = random.Random(1)
    state = rng.getstate()
    for which, p, n, d in (("frobenius", 3, 6, 3), ("restriction", 5, 4, 2),
                           ("restriction", 3, 5, 3)):
        with pytest.raises(ScaleExceeded, match="p = %d, n = %d" % (p, n)):
            checks.wdiff_relation(which, p, n, d, 5, rng)
    assert rng.getstate() == state
    # what runs in 0.3 s stays under the limit, and so do criterion 5
    # (100 samples, p <= 3, n <= 3), verify wdiff-relations at its default
    # p = 3, n = 3 and 100 samples, and the benchmark (50 samples)
    assert _relation_work("frobenius", 3, 5, 5) <= _MAX_RELATION_WORK
    assert _relation_work("frobenius", 2, 8, 5) <= _MAX_RELATION_WORK
    for which in checks.RELATIONS:
        for p in (2, 3):
            assert _relation_work(which, p, 3, 100) <= _MAX_RELATION_WORK


def test_restriction_kills_coprime_orders():
    # p does not divide r: R o d^[r] = 0
    rng = random.Random(7)
    p, n, d = 3, 2, 1
    op = partial_op(p, d, 0, 1, n + 1)
    for _ in range(10):
        x = random_witt_vector(p, n + 1, d, rng)
        out = restrict(apply_witt(op, x))
        assert out.is_zero()


def monomial_case_split(p, length, j, r, level, scalar, u):
    """The explicit case formula on scalar * V^level([z^u]).

    With k = length-1-level, the image monomial
    p^level * binom(u_j p^k, r) z^(u p^k - r e_j) reenters the Witt vectors
    at layer length-1-v_p(r) when v_p(r) <= k, and at the original layer
    otherwise.  Returns (layer, unit, root exponent vector) or None when the
    image vanishes.  It is the second route for ``apply_witt`` on a
    monomial here, and ``localcoh.y_action``'s reference in
    tests/test_localcoh.py.
    """
    k = length - 1 - level
    n_coef = scalar * (p ** level) * gen_binom(u[j] * (p ** k), r)
    n_coef %= p ** length
    if n_coef == 0:
        return None
    exps = tuple(
        u[s] * (p ** k) - (r if s == j else 0) for s in range(len(u))
    )
    vr = v_p(r, p)  # None for r = 0: v_p(0) is +infinity
    layer = length - 1 - vr if vr is not None and vr <= k else level
    step = p ** (length - 1 - layer)
    if any(e % step for e in exps):
        raise NotInImage("case formula produced a non-split monomial")
    if n_coef % (p ** layer):
        raise NotInImage("case formula coefficient valuation too small")
    unit = n_coef // (p ** layer)
    root = tuple(e // step for e in exps)
    return (layer, unit, root)


def apply_witt_monomial(p, length, j, r, level, scalar, u, num_vars):
    """Second-route evaluation returning an honest WittVector."""
    res = monomial_case_split(p, length, j, r, level, scalar, u)
    if res is None:
        zero = LaurentElem.zero(p, 1, num_vars,
                                allowed_negative=range(num_vars))
        return WittVector(p, length, [zero] * length)
    layer, unit, root = res
    mono = LaurentElem.monomial(p, 1, num_vars, root, 1,
                                allowed_negative=range(num_vars))
    out = witt_scalar_mul(unit, teichmuller(mono, length - layer))
    for _ in range(layer):
        out = verschiebung(out)
    return out


def test_monomial_cross_route():
    rng = random.Random(9)
    for _ in range(150):
        p = rng.choice([2, 3])
        L = rng.choice([2, 3])
        d = rng.choice([1, 2])
        j = rng.randrange(d)
        r = rng.randrange(0, p * p + 1)
        lvl = rng.randrange(0, L)
        sc = rng.randrange(1, p ** (L - lvl))
        u = tuple(rng.randrange(-3, 4) for _ in range(d))
        mono = LaurentElem.monomial(p, 1, d, u, 1,
                                    allowed_negative=range(d))
        x = witt_scalar_mul(sc, teichmuller(mono, L - lvl))
        for _ in range(lvl):
            x = verschiebung(x)
        a = apply_witt(partial_op(p, d, j, r, L), x)
        b = apply_witt_monomial(p, L, j, r, lvl, sc, u, d)
        assert a == b


def test_lift_independence():
    rng = random.Random(11)
    for p, n, d, r in ((2, 1, 1, 2), (3, 2, 2, 3), (2, 2, 1, 4)):
        rep = checks.lift_independence_check(p, n, d, r, 10, rng)
        assert not rep["failures"]


def test_frobenius_power_compatibility():
    # d^[r/p](f)^p = d^[r](f^p) over F_p
    rng = random.Random(13)
    for p in (2, 3):
        for _ in range(20):
            nv = 1
            f = LaurentElem(
                p, 1, nv,
                {(rng.randrange(0, 5),): rng.randrange(1, p)
                 for _ in range(2)},
            )
            for r in range(1, p * p + 1):
                rr = (r // p,)
                lhs = (
                    weyl_apply(WeylElement.monomial(p, 1, nv, (0,), rr), f)
                    ** p if r % p == 0 else LaurentElem.zero(p, 1, nv)
                )
                rhs = weyl_apply(
                    WeylElement.monomial(p, 1, nv, (0,), (r,)), f ** p
                )
                assert lhs == rhs


# -- valuations ---------------------------------------------------------------

def legendre_factorial_valuation(m, p):
    """v_p(m!) = sum_i floor(m / p^i)."""
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def valuation_binom(w, z, p):
    """Exact v_p(binom(w, z)) together with the lower bound v_p(w) - v_p(z).

    The inequality v_p(binom(w,z)) >= v_p(w) - v_p(z) is asserted.
    """
    if not (0 < z <= w):
        raise RangeError("need 0 < z <= w")
    val = (
        legendre_factorial_valuation(w, p)
        - legendre_factorial_valuation(z, p)
        - legendre_factorial_valuation(w - z, p)
    )
    bound = v_p(w, p) - v_p(z, p)
    if val < bound:
        raise ArithmeticError("valuation lemma violated")
    return val, bound


def image_valuation_check(p, n, d, q_order, samples, rng, j=0):
    """Images of an order-q operator land in V^(n - v_p(q)) W_(n+1)(A)."""
    L = n + 1
    vq = v_p(q_order, p)
    if vq is None or vq > n:
        raise ValueError("need v_p(q) <= n")
    op = partial_op(p, d, j, q_order, L)
    failures = []
    for _ in range(samples):
        x = random_witt_vector(p, L, d, rng)
        out = apply_witt(op, x)
        if any(not out.coords[s].is_zero() for s in range(n - vq)):
            failures.append(x.to_json())
    return {"order": q_order, "cases": samples, "failures": failures}


def test_valuation_binom_examples():
    assert valuation_binom(4, 2, 2) == (1, 1)
    assert valuation_binom(8, 2, 2) == (2, 2)
    assert valuation_binom(5, 5, 2) == (0, 0)
    with pytest.raises(RangeError):
        valuation_binom(2, 3, 2)


def test_valuation_binom_inequality_sweep():
    for p in (2, 3, 5):
        for w in range(1, 60):
            for z in range(1, w + 1):
                val, bound = valuation_binom(w, z, p)
                assert val >= bound


def test_legendre():
    assert legendre_factorial_valuation(10, 2) == 8
    assert legendre_factorial_valuation(9, 3) == 4
    assert v_p(12, 2) == 2 and v_p(0, 2) is None


def test_image_valuation():
    rng = random.Random(17)
    rep = image_valuation_check(2, 2, 1, 1, 15, rng)
    assert not rep["failures"]
    rep = image_valuation_check(2, 2, 1, 2, 15, rng)
    assert not rep["failures"]
    rep = image_valuation_check(3, 2, 1, 9, 10, rng)  # v_p(q) = n: no constraint
    assert not rep["failures"]


# -- Teichmuller lifts of operators -------------------------------------------

def teichmuller_lift_op(base, length):
    """The Teichmuller lift [sum b_r d^[r]] = sum [b_r] d^[r].

    The Witt scalar [b_r] acts through w-tilde as the p^(length-1)-th power
    of a coefficient lift, so the realized operator has coefficients
    lift(b_r)^(p^(length-1)).
    """
    p = base.p
    by_order = {}
    for (e, r), c in base.terms.items():
        by_order.setdefault(r, {})[e] = c
    terms = {}
    for r, coeff_terms in by_order.items():
        poly = LaurentElem(p, length, base.num_vars, coeff_terms,
                           base.allowed_negative)
        realized = poly ** (p ** (length - 1))
        terms.update(((e, r), c) for e, c in realized.terms.items())
    return WeylElement._trusted(p, length, base.num_vars, terms,
                                base.allowed_negative)


def test_teichmuller_lift_identity_order_zero():
    base = WeylElement.monomial(3, 1, 1, (0,), (1,))
    op = teichmuller_lift_op(base, 2)
    assert op == WeylElement.monomial(3, 2, 1, (0,), (1,))


def test_teichmuller_lift_coefficient_realization():
    # [z d]: the Witt scalar [z] realizes through w-tilde as z^(p^(L-1))
    p, L = 2, 3
    base = WeylElement.monomial(p, 1, 1, (1,), (1,))
    op = teichmuller_lift_op(base, L)
    assert op.terms == {((p ** (L - 1),), (1,)): 1}


def test_teichmuller_lift_reduction_is_identity():
    """i_star o [.] = id on 30 random operators."""
    rng = random.Random(19)
    for _ in range(30):
        p = rng.choice([2, 3])
        L = rng.choice([2, 3])
        d = rng.choice([1, 2])
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            e = tuple(rng.randrange(0, 3) for _ in range(d))
            r = tuple(rng.randrange(0, 3) for _ in range(d))
            terms[(e, r)] = rng.randrange(1, p)
        base = WeylElement(p, 1, d, terms)
        op = teichmuller_lift_op(base, L)
        assert i_star(op) == base


def test_teichmuller_lift_restriction_exists():
    """The restriction through w-tilde never escapes the Witt vectors."""
    rng = random.Random(21)
    p, L, d = 3, 2, 2
    for _ in range(10):
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            e = tuple(rng.randrange(0, 3) for _ in range(d))
            r = tuple(rng.randrange(0, 3) for _ in range(d))
            terms[(e, r)] = rng.randrange(1, p)
        base = WeylElement(p, 1, d, terms)
        op = teichmuller_lift_op(base, L)
        x = random_witt_vector(p, L, d, rng, poly_only=True)
        apply_witt(op, x)  # NotInImage would be a theorem violation


def test_never_not_in_image():
    rng = random.Random(23)
    for _ in range(60):
        p = rng.choice([2, 3])
        L = rng.choice([2, 3])
        d = rng.choice([1, 2])
        op = partial_op(p, d, rng.randrange(d), rng.randrange(1, p * p + 1), L)
        x = random_witt_vector(p, L, d, rng)
        apply_witt(op, x)  # must not raise NotInImage
