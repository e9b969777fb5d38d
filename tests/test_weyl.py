import itertools
import operator
import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.rings import (
    LaurentElem,
    NegativeExponentViolation,
    VariableMismatch,
)
from wittkit.weyl import (
    ChartAtlas,
    ChartOperator,
    RangeError,
    WeylElement,
    _chart_monomials,
    apply,
    apply_word,
    gen_binom,
    is_global,
    normal_form,
    theta,
)


# -- test-only operators: (z^2 d)^[s] and the y-operators in two charts ------

def z2d_divided_power(p, n, s, var=0, num_vars=1, allowed_negative=()):
    """(z^2 d)^[s] = sum_i binom(s-1, i) z^(2s-i) d^[s-i] in one variable."""
    terms = {}
    for i in range(s):
        e = [0] * num_vars
        r = [0] * num_vars
        e[var] = 2 * s - i
        r[var] = s - i
        terms[(tuple(e), tuple(r))] = comb(s - 1, i)
    if s == 0:
        return WeylElement.one(p, n, num_vars, allowed_negative)
    return WeylElement(p, n, num_vars, terms, allowed_negative)


def y_operator(i, j, r, d, p, n=1):
    """The divided power y_{ij}^[r], raising z_i and lowering z_j.

    Expressed as the plain divided derivative d^[r] with respect to the
    coordinate z_{j,i} of the chart V_i, where its action on monomials is
    z^u -> binom(u_j, r) z^(u + r e_i - r e_j).
    """
    if not (0 <= i <= d and 0 <= j <= d) or i == j:
        raise RangeError("invalid root indices")
    atlas = ChartAtlas(d)
    slot = atlas.chart_vars(i).index(j)
    rr = [0] * d
    rr[slot] = r
    return ChartOperator(i, WeylElement.monomial(p, n, d, (0,) * d, rr))


def y_operator_dual(i, j, r, p, n=1):
    """y_{ij}^[r] written in the chart V_j of the (i, j)-line (P^1 picture).

    For r = 1 this is -z^2 d/dz in the coordinate z_{ij}; higher divided
    powers expand through (z^2 d)^[s].
    """
    return ChartOperator(
        j, z2d_divided_power(p, n, r).scalar_mul((-1) ** r)
    )


def D(p, nv, var, r, n=1):
    rr = [0] * nv
    rr[var] = r
    return WeylElement.monomial(p, n, nv, (0,) * nv, rr)


def Z(p, nv, var, k, n=1):
    e = [0] * nv
    e[var] = k
    return WeylElement.monomial(p, n, nv, e, (0,) * nv)


def test_commutator_relation():
    # d z = 1 + z d
    nf = normal_form([("d", 0, 1), ("z", 0, 1)], 5, 1, 1)
    assert nf == WeylElement(5, 1, 1, {((0,), (0,)): 1, ((1,), (1,)): 1})


def test_divided_square_against_rational_oracle():
    # d^[2] z^2 = 1 + 2 z d + z^2 d^[2], the (1/2) d^2 z^2 expansion
    nf = normal_form([("d", 0, 2), ("z", 0, 2)], 7, 1, 1)
    assert nf == WeylElement(
        7, 1, 1, {((0,), (0,)): 1, ((1,), (1,)): 2, ((2,), (2,)): 1}
    )


def test_divided_power_composition():
    nf = normal_form([("d", 0, 1), ("d", 0, 1)], 5, 1, 1)
    assert nf == WeylElement(5, 1, 1, {((0,), (2,)): 2})


def test_char_p_collapse():
    # d^p = 0 but d^[p] != 0
    p = 3
    word = [("d", 0, 1)] * p
    assert normal_form(word, p, 1, 1).is_zero()
    assert not D(p, 1, 0, p).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_normal_form_application_equivalence(p):
    rng = random.Random(41)
    for _ in range(60):
        nv = rng.randrange(1, 3)
        word = []
        for _ in range(rng.randrange(1, 6)):
            if rng.random() < 0.5:
                word.append(("z", rng.randrange(nv), rng.randrange(0, 3)))
            else:
                word.append(("d", rng.randrange(nv), rng.randrange(0, 4)))
        f = LaurentElem(
            p, 1, nv,
            {tuple(rng.randrange(0, 5) for _ in range(nv)):
             rng.randrange(1, p) for _ in range(2)},
        )
        nf = normal_form(word, p, 1, nv)
        assert apply(nf, f) == apply_word(word, f)


def test_apply_identity_and_examples():
    f = LaurentElem(3, 1, 2, {(2, 1): 2, (0, 0): 1})
    one = WeylElement.one(3, 1, 2)
    assert apply(one, f) == f
    # y_{01}^{[1]}(z0^2 z1^-1 z2^-1) = -z0^3 z1^-2 z2^-1 at p=3, via binom(-1,1)
    img = ChartAtlas(2).apply_ambient(y_operator(0, 1, 1, 2, 3), (2, -1, -1))
    assert img == {(3, -2, -1): 3 - 1}  # -1 = 2 mod 3
    # d^[p](z^p) = 1
    p = 5
    g = LaurentElem.monomial(p, 1, 1, (p,))
    assert apply(D(p, 1, 0, p), g) == LaurentElem.one(p, 1, 1)


def test_generalized_leibniz():
    rng = random.Random(43)
    p = 3
    for _ in range(40):
        f = LaurentElem(p, 1, 2, {(rng.randrange(4), rng.randrange(4)):
                                  rng.randrange(1, p) for _ in range(2)})
        g = LaurentElem(p, 1, 2, {(rng.randrange(4), rng.randrange(4)):
                                  rng.randrange(1, p) for _ in range(2)})
        r = rng.randrange(0, 5)
        lhs = apply(D(p, 2, 0, r), f * g)
        rhs = LaurentElem.zero(p, 1, 2)
        for i in range(r + 1):
            rhs = rhs + apply(D(p, 2, 0, i), f) * apply(D(p, 2, 0, r - i), g)
        assert lhs == rhs


# -- theta endomorphisms -----------------------------------------------------

def test_theta_examples():
    th = theta(2, 1, (0,), (1,))
    assert th == D(2, 1, 0, 1)
    z = LaurentElem.monomial(2, 1, 1, (1,))
    one = LaurentElem.one(2, 1, 1)
    th10 = theta(2, 1, (1,), (0,))
    assert apply(th10, one) == z and apply(th10, z).is_zero()
    th22 = theta(3, 1, (2,), (2,))
    z2 = LaurentElem.monomial(3, 1, 1, (2,))
    assert apply(th22, z2) == z2
    assert apply(th22, LaurentElem.monomial(3, 1, 1, (1,))).is_zero()


def test_theta_range_error():
    with pytest.raises(RangeError):
        theta(2, 1, (2,), (0,))


@pytest.mark.parametrize("p,level", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_theta_matrix_units_one_variable(p, level):
    top = p ** level
    for i in range(top):
        for jj in range(top):
            th = theta(p, level, (i,), (jj,))
            for s in range(top):
                zs = LaurentElem.monomial(p, 1, 1, (s,))
                out = apply(th, zs)
                if s == jj:
                    assert out == LaurentElem.monomial(p, 1, 1, (i,))
                else:
                    assert out.is_zero()


@pytest.mark.parametrize("p,level", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_theta_two_variables_factorizes(p, level):
    """theta in m = 2 variables is the product of one-variable thetas."""
    top = p ** level
    rng = random.Random(47)
    pairs = [(i, jj) for i in range(top) for jj in range(top)]
    for i1, j1 in pairs:
        for i2, j2 in rng.sample(pairs, min(4, len(pairs))):
            th = theta(p, level, (i1, i2), (j1, j2))
            a = theta(p, level, (i1,), (j1,))
            b = theta(p, level, (i2,), (j2,))
            lift = {}
            for (e1, r1), c1 in a.terms.items():
                for (e2, r2), c2 in b.terms.items():
                    lift[(e1 + e2, r1 + r2)] = c1 * c2
            assert th == WeylElement(p, 1, 2, lift)
    # matrix-unit action spot checks through the factorization
    for _ in range(25):
        i = (rng.randrange(top), rng.randrange(top))
        jj = (rng.randrange(top), rng.randrange(top))
        s = (rng.randrange(top), rng.randrange(top))
        th = theta(p, level, i, jj)
        zs = LaurentElem.monomial(p, 1, 2, s)
        out = apply(th, zs)
        if s == jj:
            assert out == LaurentElem.monomial(p, 1, 2, i)
        else:
            assert out.is_zero()


# -- chart operators and globality -------------------------------------------

def rational_z2d_power(s, m):
    """Oracle: coefficient of (1/s!)(z^2 d/dz)^s on z^m, over Q.

    Returns (coefficient, exponent) of the single resulting monomial.
    """
    coeff = Fraction(1)
    e = m
    for _ in range(s):
        coeff *= e
        e += 1
    return coeff / factorial(s), m + s


def test_z2d_divided_powers_match_rational_oracle():
    assert z2d_divided_power(5, 1, 2) == WeylElement(
        5, 1, 1, {((4,), (2,)): 1, ((3,), (1,)): 1}
    )
    for p in (3, 7):
        for s in range(1, 5):
            ws = z2d_divided_power(p, 1, s)
            for m in range(0, 3 * s + 3):
                coeff, e = rational_z2d_power(s, m)
                assert coeff.denominator == 1
                f = LaurentElem.monomial(p, 1, 1, (m,))
                want_c = int(coeff) % p
                want = (
                    LaurentElem.monomial(p, 1, 1, (e,), want_c)
                    if want_c else LaurentElem.zero(p, 1, 1)
                )
                assert apply(ws, f) == want


def test_y_operator_forms():
    # y_{-alpha}^[r] is the plain divided derivative in the opposite chart
    op = y_operator(1, 0, 2, 2, 3)
    assert op.chart == 1
    assert op.weyl == D(3, 2, 0, 2)
    # y_alpha = -z^2 d in the P^1-style chart
    dual = y_operator_dual(0, 1, 1, 3)
    assert dual.weyl == WeylElement(3, 1, 1, {((2,), (1,)): -1})


def test_atlas_transitions():
    """Sampled monomials round-trip through every triple of charts."""
    atlas = ChartAtlas(2)
    for u in [(0, 0, 0), (2, -1, -1), (1, 2, -3), (-2, 1, 1)]:
        for a, b, c in itertools.product(range(3), repeat=3):
            v = u
            for chart in (b, c, a):
                v = atlas.from_chart(chart, atlas.to_chart(chart, v))
            assert v == u


def test_globality_examples():
    atlas = ChartAtlas(1)
    zd = ChartOperator(0, WeylElement.monomial(3, 1, 1, (1,), (1,)))
    assert is_global(zd, atlas, 10)
    z3d = ChartOperator(0, WeylElement.monomial(3, 1, 1, (3,), (1,)))
    assert not is_global(z3d, atlas, 10)
    # z^(p-1) d^[p] is global (on P^1 and on P^2)
    for p in (2, 3):
        op1 = ChartOperator(
            0, WeylElement.monomial(p, 1, 1, (p - 1,), (p,))
        )
        assert is_global(op1, ChartAtlas(1), 2 * p + 4)
        zq = Z(p, 2, 0, p - 1)
        opd = ChartOperator(0, zq * y_operator(0, 1, p, 2, p).weyl)
        assert is_global(opd, ChartAtlas(2), 6)


def test_globality_classification_on_p1_honest():
    """Monomials z^r d^[s] (s >= 1) are global iff 0 <= r <= s+1.

    The often-quoted range 0 <= r <= 2s overcounts: z^4 d^[2] applied to
    z^-1 gives binom(-1,2) z = z, a pole at infinity, and binom(-1,s) never
    vanishes mod p; the sums (z^2 d)^[s] ARE global, their stray monomials
    cancel.  See the README.
    """
    atlas = ChartAtlas(1)
    for p in (2, 3):
        for s in range(0, 7):
            for r in range(0, 7):
                op = ChartOperator(0, WeylElement.monomial(p, 1, 1, (r,), (s,)))
                want = (0 <= r <= s + 1) if s >= 1 else (r == 0)
                assert is_global(op, atlas, 16) == want, (p, r, s)
        for s in range(1, 7):
            assert is_global(
                ChartOperator(0, z2d_divided_power(p, 1, s)), atlas, 16
            )


def test_gen_binom():
    assert gen_binom(-1, 1) == -1
    assert gen_binom(-1, 2) == 1
    assert gen_binom(-3, 2) == 6
    assert gen_binom(4, 2) == 6
    assert gen_binom(1, 5) == 0


# -- the action kernel against the loops it replaced ---------------------------
#
# _ref_apply and _ref_apply_ambient are weyl.apply and ChartAtlas.apply_ambient
# as they stood before weyl._act, kept as the reference: renamed, and
# without their docstrings.

def _ref_apply(op, f):
    if op.num_vars != f.num_vars or op.p != f.p or op.n != f.n:
        raise VariableMismatch("operator/function ring mismatch")
    q = f.p ** f.n
    terms = {}
    for (e, r), c in op.terms.items():
        for u, cu in f.terms.items():
            coeff = c * cu
            ok = True
            for i in range(op.num_vars):
                b = gen_binom(u[i], r[i])
                if b % q == 0:
                    ok = False
                    break
                coeff *= b
            if not ok:
                continue
            tgt = tuple(u[i] - r[i] + e[i] for i in range(op.num_vars))
            v = (terms.get(tgt, 0) + coeff) % q
            if v:
                terms[tgt] = v
            else:
                terms.pop(tgt, None)
    return LaurentElem(f.p, f.n, f.num_vars, terms, f.allowed_negative)


def _ref_apply_ambient(atlas, op, u):
    c = op.chart
    w = op.weyl
    q = w.p ** w.n
    e_in = atlas.to_chart(c, u)
    out = {}
    for (e, r), coeff in w.terms.items():
        val = coeff
        ok = True
        for i in range(w.num_vars):
            b = gen_binom(e_in[i], r[i])
            if b % q == 0:
                ok = False
                break
            val *= b
        if not ok:
            continue
        tgt = tuple(e_in[i] - r[i] + e[i] for i in range(w.num_vars))
        amb = atlas.from_chart(c, tgt)
        v = (out.get(amb, 0) + val) % q
        if v:
            out[amb] = v
        else:
            out.pop(amb, None)
    return out


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _operators(draw, p, n, nv, neg=None, max_terms=4):
    """A Weyl element with negative z-exponents at its allowed variables
    (``neg``, drawn when None) and orders up to p^2 + 1, so that binomials
    vanish mod p^n."""
    if neg is None:
        neg = draw(st.sets(st.integers(0, nv - 1)))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(-3 if i in neg else 0, 3))
                  for i in range(nv))
        r = tuple(draw(st.sampled_from([0, 0, 1, 2, p, p * p + 1]))
                  for _ in range(nv))
        terms[(e, r)] = draw(st.integers(1, p ** n - 1))
    return WeylElement(p, n, nv, terms, neg)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_apply_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    nv = data.draw(st.integers(1, 3))
    op = data.draw(_operators(p, n, nv))
    # mostly the operator's ring; otherwise a ring whose negative region
    # differs (an image may leave it) or whose level differs (refused)
    neg = data.draw(st.sampled_from(
        [op.allowed_negative, frozenset(), frozenset(range(nv))]))
    fn = data.draw(st.sampled_from([n] * 4 + [n % 3 + 1]))
    terms = {}
    for _ in range(data.draw(st.integers(1, 4))):
        u = tuple(data.draw(st.integers(-4 if i in neg else 0, 2 * p + 1))
                  for i in range(nv))
        terms[u] = data.draw(st.integers(1, p ** fn - 1))
    f = LaurentElem(p, fn, nv, terms, neg)
    assert _outcome(apply, op, f) == _outcome(_ref_apply, op, f)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_apply_ambient_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    atlas = ChartAtlas(d)
    op = ChartOperator(data.draw(st.integers(0, d)),
                       data.draw(_operators(p, n, d)))
    u = [data.draw(st.integers(-2 * p, 2 * p)) for _ in range(d)]
    # degree 0 unless the draw says otherwise (refused by to_chart)
    u.append(data.draw(st.sampled_from([0] * 5 + [1])) - sum(u))
    u = tuple(u)
    assert (_outcome(atlas.apply_ambient, op, u)
            == _outcome(_ref_apply_ambient, atlas, op, u))


# _ref_is_global is weyl.is_global as it stood before its one-pass form:
# three passes at the bound plus 0, 1 and 2, each revisiting every lower
# degree.  Kept (renamed, without its docstring) as the reference.

def _ref_is_global(op, atlas, degree_bound=8):
    d = atlas.d
    for extra in (0, 1, 2):
        bound = degree_bound + extra
        for c in range(d + 1):
            for e in _chart_monomials(d, bound):
                u = atlas.from_chart(c, e)
                img = atlas.apply_ambient(op, u)
                for v in img:
                    if any(v[s] < 0 for s in range(d + 1) if s != c):
                        return False
    return True


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_is_global_matches_three_pass_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 2))
    d = data.draw(st.integers(1, 3))
    c = data.draw(st.integers(0, d))
    if data.draw(st.booleans()):
        weyl = data.draw(_operators(p, n, d))
    else:
        # a chart monomial times a divided power y_{cj}^[r]: often global
        j = data.draw(st.integers(0, d).filter(lambda j: j != c))
        r = data.draw(st.integers(0, p * p + 1))
        e = tuple(data.draw(st.integers(0, 2)) for _ in range(d))
        weyl = (WeylElement.monomial(p, n, d, e, (0,) * d)
                * y_operator(c, j, r, d, p, n).weyl)
    op = ChartOperator(c, weyl)
    atlas = ChartAtlas(d)
    bound = data.draw(st.integers(0, 4))
    assert (_outcome(is_global, op, atlas, bound)
            == _outcome(_ref_is_global, op, atlas, bound))


# -- products through the one-generator kernel --------------------------------
#
# _ref_mul is WeylElement.__mul__ as it stood before the one-generator fold:
# every term pair at once, d^[r1] commuted past z^e2 on all variables
# together.  Kept (renamed, without its docstring) as the reference.

def _ref_mul(self, other):
    if isinstance(other, int):
        return self.scalar_mul(other)
    self._check(other)
    q = self.p ** self.n
    out = {}
    for (e1, r1), c1 in self.terms.items():
        for (e2, r2), c2 in other.terms.items():
            # commute d^[r1] past z^e2, one variable at a time
            base = c1 * c2
            choices = []
            for i in range(self.num_vars):
                ch = []
                top = min(r1[i], e2[i]) if e2[i] >= 0 else r1[i]
                for k in range(0, top + 1):
                    b = gen_binom(e2[i], k) % q
                    if b:
                        ch.append((k, b))
                choices.append(ch)
            stack = [((), 1)]
            for ch in choices:
                stack = [
                    (ks + (k,), cc * b) for ks, cc in stack for k, b in ch
                ]
            for ks, cc in stack:
                e = tuple(a + b - k for a, b, k in zip(e1, e2, ks))
                coeff = base * cc
                rr = []
                for i in range(self.num_vars):
                    ra = r1[i] - ks[i]
                    coeff = (coeff * comb(ra + r2[i], ra)) % q
                    rr.append(ra + r2[i])
                if not coeff:
                    continue
                key = (e, tuple(rr))
                v = (out.get(key, 0) + coeff) % q
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
    return WeylElement(self.p, self.n, self.num_vars, out,
                       self.allowed_negative)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mul_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    nv = data.draw(st.integers(1, 3))
    a = data.draw(_operators(p, n, nv))
    b = data.draw(_operators(p, n, nv, a.allowed_negative))
    assert _outcome(operator.mul, a, b) == _outcome(_ref_mul, a, b)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pow_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    nv = data.draw(st.integers(1, 3))
    a = data.draw(_operators(p, n, nv, max_terms=2))
    k = data.draw(st.integers(0, 3))
    want = WeylElement.one(p, n, nv, a.allowed_negative)
    for _ in range(k):
        want = _ref_mul(want, a)
    assert a ** k == want


@pytest.mark.parametrize("i", [1, 2, -1])
def test_normal_form_refuses_a_variable_outside_the_ring(i):
    for kind in ("z", "d"):
        with pytest.raises(VariableMismatch, match="outside 0..0"):
            normal_form([("z", 0, 1), (kind, i, 1)], 3, 1, 1)


def test_normal_form_checks_each_token_before_folding():
    # z0^-1 z0 cancels in the result, but z0 is not inverted
    with pytest.raises(NegativeExponentViolation, match="variable 0"):
        normal_form([("z", 0, -1), ("z", 0, 1)], 3, 1, 1)
    with pytest.raises(RangeError, match="negative divided-power order"):
        normal_form([("d", 1, -1)], 3, 1, 2)
    assert normal_form([("z", 0, -1), ("z", 0, 1)], 3, 1, 1, (0,)) == (
        WeylElement.one(3, 1, 1, (0,)))


@pytest.mark.parametrize("tok,exc", [
    (("d", 5, 1), VariableMismatch),  # was a raw IndexError
    (("z", 5, 2), VariableMismatch),  # was the identity
    (("q", 0, 1), ValueError),  # was read as a derivative
    (("d", 0, -1), RangeError),  # was 0
    (("z", 1, -1), NegativeExponentViolation),
])
def test_apply_word_refuses_what_normal_form_refuses(tok, exc):
    f = LaurentElem(3, 1, 2, {(1, 2): 1, (-1, 0): 2}, (0,))
    want = _outcome(normal_form, [tok], 3, 1, 2, (0,))
    assert want[0] is exc
    assert _outcome(apply_word, [tok], f) == want
    # every token is checked before any is applied
    assert _outcome(apply_word, [tok, ("z", 0, 1)], f) == want


# -- the word oracle on raw terms, against the route it replaced ---------------
#
# _ref_apply_word is apply_word as it stood before it worked on f's term
# dict: a z token a product with a checked monomial, a d token a checked
# LaurentElem.

def _ref_apply_word(word, f):
    """Apply a generator word to f right-to-left (the sequential oracle)."""
    out = f
    for tok in reversed(word):
        kind, i, k = tok
        if kind == "z":
            mono = LaurentElem.monomial(f.p, f.n, f.num_vars,
                                        tuple(k if j == i else 0
                                              for j in range(f.num_vars)),
                                        1, f.allowed_negative)
            out = mono * out
        else:
            terms = {}
            q = f.p ** f.n
            for e, c in out.terms.items():
                b = gen_binom(e[i], k) % q
                if not b:
                    continue
                e2 = tuple(v - k if j == i else v for j, v in enumerate(e))
                v = (terms.get(e2, 0) + c * b) % q
                if v:
                    terms[e2] = v
            out = LaurentElem(f.p, f.n, f.num_vars, terms, f.allowed_negative)
    return out


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_apply_word_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    nv = data.draw(st.integers(1, 3))
    neg = data.draw(st.sampled_from([set(), set(range(nv))])
                    | st.sets(st.integers(0, nv - 1)))
    var = st.integers(0, nv - 1)
    tokens = [st.tuples(st.just("z"), var, st.integers(0, 3)),
              st.tuples(st.just("d"), var, st.integers(0, p * p + 1))]
    if neg:
        tokens.append(st.tuples(st.just("z"), st.sampled_from(sorted(neg)),
                                st.integers(-3, -1)))
    word = data.draw(st.lists(st.one_of(*tokens), max_size=6))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(-3 if i in neg else 0, 2 * p + 1)
                    for i in range(nv)]),
        st.integers(1, p ** n - 1), max_size=4))
    f = LaurentElem(p, n, nv, terms, neg)
    got = apply_word(word, f)
    assert got == _ref_apply_word(word, f)
    assert all(got.terms.values())


@pytest.mark.parametrize("cls", [LaurentElem, WeylElement])
@pytest.mark.parametrize("neg", [(5, -2), (1,), (0, -1)])
def test_inverted_variables_outside_the_ring_are_refused(cls, neg):
    with pytest.raises(VariableMismatch, match="outside 0..0"):
        cls(3, 1, 1, {}, neg)


# -- the shared sparse base against the checked constructor it replaced --------
#
# _ref_weyl_terms is the term loop of WeylElement.__init__ as it stood before
# WeylElement became a subclass of rings.SparseModElem, kept as the reference.

def _ref_weyl_terms(p, n, num_vars, terms, allowed_negative=()):
    allowed_negative = frozenset(allowed_negative)
    q = p ** n
    clean = {}
    for (e, r), c in terms.items():
        e = tuple(e)
        r = tuple(r)
        if len(e) != num_vars or len(r) != num_vars:
            raise VariableMismatch("term arity mismatch")
        if any(v < 0 for v in r):
            raise RangeError("negative divided-power order")
        for i, v in enumerate(e):
            if v < 0 and i not in allowed_negative:
                raise NegativeExponentViolation(
                    "negative exponent at variable %d" % i
                )
        c %= q
        if c:
            clean[(e, r)] = c
    return clean


@st.composite
def _raw_terms(draw, p, n, nv, neg):
    """A term dict as a caller might pass it: coefficients outside [0, p^n)
    and multiples of p^n, and now and then a key the ring refuses (a
    negative order, a negative exponent at a variable that is not
    inverted, or the wrong arity)."""
    q = p ** n
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        bad = draw(st.sampled_from([None] * 12 + ["r", "e", "arity"]))
        e = [draw(st.integers(-3 if i in neg else 0, 3)) for i in range(nv)]
        r = [draw(st.integers(0, p + 1)) for _ in range(nv)]
        slot = draw(st.integers(0, nv - 1))
        if bad == "r":
            r[slot] = -1
        elif bad == "e":
            e[slot] = -1
        elif bad == "arity":
            r.append(0)
        terms[(tuple(e), tuple(r))] = draw(
            st.sampled_from([0, q, -q, 1, -1])
            | st.integers(-2 * q, 2 * q))
    return terms


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_weyl_element_matches_reference_terms(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    nv = data.draw(st.integers(1, 3))
    neg = data.draw(st.sets(st.integers(0, nv - 1)))
    raws, refs = [], []
    for _ in range(2):
        raw = data.draw(_raw_terms(p, n, nv, neg))
        ref = _outcome(_ref_weyl_terms, p, n, nv, raw, neg)
        assert _outcome(lambda: WeylElement(p, n, nv, raw, neg).terms) == ref
        raws.append(raw)
        refs.append(ref)
    if not all(isinstance(ref, dict) for ref in refs):
        return
    ref_a, ref_b = refs
    a, b = (WeylElement(p, n, nv, raw, neg) for raw in raws)
    keys = set(ref_a) | set(ref_b)
    assert (a + b).terms == _ref_weyl_terms(
        p, n, nv, {k: ref_a.get(k, 0) + ref_b.get(k, 0) for k in keys}, neg)
    c = data.draw(st.integers(-2 * p ** n, 2 * p ** n))
    assert a.scalar_mul(c).terms == _ref_weyl_terms(
        p, n, nv, {k: c * v for k, v in ref_a.items()}, neg)
    assert (a - b).terms == _ref_weyl_terms(
        p, n, nv, {k: ref_a.get(k, 0) - ref_b.get(k, 0) for k in keys}, neg)
    assert (a == b) == (ref_a == ref_b)
    same = WeylElement(p, n, nv, ref_a, neg)
    assert a == same and hash(a) == hash(same)
    doc = a.to_json()
    assert doc == {"p": p, "n": n, "vars": nv, "neg": sorted(neg),
                   "terms": [{"e": list(e), "order": list(r), "c": v}
                             for (e, r), v in sorted(ref_a.items())]}
    back = WeylElement.from_json(doc)
    assert back == a and hash(back) == hash(a)
