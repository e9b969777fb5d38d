import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.rings import (
    LaurentElem,
    NegativeExponentViolation,
    PrimeFieldElem,
    ScaleExceeded,
    VariableMismatch,
    graded_basis,
    is_prime,
    stars_and_bars,
)


def mono(p, n, nv, exps, c=1, neg=()):
    return LaurentElem.monomial(p, n, nv, exps, c, neg)


def test_inverse_monomial():
    a = mono(3, 1, 1, (1,), neg=(0,))
    b = mono(3, 1, 1, (-1,), neg=(0,))
    assert a * b == LaurentElem.one(3, 1, 1, (0,))


def test_char_two_square_of_binomial():
    f = LaurentElem(2, 1, 1, {(1,): 1, (0,): 1})
    assert f * f == LaurentElem(2, 1, 1, {(2,): 1, (0,): 1})


def test_exponent_addition():
    a = mono(5, 1, 2, (2, -1), neg=(1,))
    b = mono(5, 1, 2, (0, -1), neg=(1,))
    assert (a * b) == mono(5, 1, 2, (2, -2), neg=(1,))


def test_is_prime_refuses_moduli_past_its_limit():
    # 10^12 - 11 is the largest prime below the limit, 10^12 + 39 the
    # smallest above it; the second is refused before any trial division
    assert is_prime(10 ** 12 - 11)
    assert not is_prime(10 ** 12 - 1)
    with pytest.raises(ScaleExceeded, match="primality limit"):
        is_prime(10 ** 12 + 39)


def test_negative_exponent_rejected():
    with pytest.raises(NegativeExponentViolation):
        mono(3, 1, 2, (1, -1))


def test_variable_mismatch():
    a = mono(3, 1, 1, (1,))
    b = mono(3, 1, 2, (1, 0))
    with pytest.raises(VariableMismatch):
        a + b


laurents = st.builds(
    lambda terms, p: LaurentElem(
        p, 1, 2, {e: c % p for e, c in terms.items()}, (1,)
    ),
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(-3, 3)),
        st.integers(1, 6),
        max_size=4,
    ),
    st.sampled_from([2, 3, 5]),
)


@given(st.data(), st.sampled_from([2, 3, 5]))
@settings(max_examples=150, deadline=None)
def test_ring_axioms(data, p):
    def rnd():
        terms = data.draw(
            st.dictionaries(
                st.tuples(st.integers(0, 3), st.integers(-2, 2)),
                st.integers(1, p - 1) if p > 2 else st.just(1),
                max_size=3,
            )
        )
        return LaurentElem(p, 1, 2, terms, (1,))

    a, b, c = rnd(), rnd(), rnd()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + (-a)).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_frobenius_is_identity_on_prime_field(p):
    for v in range(p):
        a = PrimeFieldElem(p, v)
        assert a ** p == a


def test_prime_field_ops():
    a = PrimeFieldElem(5, 3)
    assert (a * a.inverse()).value == 1
    assert (a + PrimeFieldElem(5, 4)).value == 2
    with pytest.raises(ValueError):
        PrimeFieldElem(6, 1)


def test_graded_basis_examples():
    assert list(graded_basis(2, 1, [(0, 1)] * 2)) == [(0, 1), (1, 0)]
    assert list(graded_basis(2, 0, [(-1, 1)] * 2)) == [(-1, 1), (0, 0), (1, -1)]
    assert len(graded_basis(3, 2, [(0, 2)] * 3)) == 6  # C(2+2, 2)


@pytest.mark.parametrize("d,m", [(2, 3), (3, 4), (4, 2)])
def test_graded_basis_stars_and_bars(d, m):
    # non-binding box
    slice_ = graded_basis(d, m, [(0, m)] * d)
    assert len(slice_) == stars_and_bars(d, m)
    assert slice_ == sorted(slice_)


def test_graded_slice_invariant():
    s = graded_basis(2, 3, [(0, 2)] * 2)
    assert all(sum(e) == 3 for e in s)


def test_json_roundtrip():
    f = LaurentElem(3, 2, 2, {(1, -2): 7, (0, 0): 4}, (1,))
    assert LaurentElem.from_json(f.to_json()) == f
    assert f.to_json()["terms"] == sorted(f.to_json()["terms"],
                                          key=lambda t: t["e"])


def test_elements_of_one_ring_share_their_region():
    a = LaurentElem(3, 1, 3, {(1, -1, 0): 1}, (1, 2))
    b = LaurentElem(3, 2, 3, {(0, 0, -2): 2}, [2, 1])
    c = LaurentElem._trusted(3, 1, 3, {}, range(1, 3))
    assert a.allowed_negative is b.allowed_negative is c.allowed_negative
    assert (a * a).allowed_negative is a.allowed_negative


def test_region_table_stays_bounded():
    from wittkit.rings import _region
    cap = _region.cache_info().maxsize
    # every subset of 0..6 is a region of the ring in 7 variables
    for mask in range(2 * cap):
        neg = [i for i in range(7) if mask >> i & 1]
        LaurentElem.zero(5, 1, 7, neg)
    assert _region.cache_info().currsize == cap
