import pytest

from wittkit.rings import ScaleExceeded
from wittkit.steinberg import (
    FiniteGL,
    InductionComplex,
    ParabolicCosets,
    acyclicity_check,
    gaussian_flag_count,
    smith_normal_form,
    steinberg_rank,
)


def test_group_orders():
    assert FiniteGL(2, 2).order() == 6
    assert FiniteGL(3, 2).order() == 48
    assert FiniteGL(2, 3).order() == 168
    for q, size in ((2, 2), (3, 2), (2, 3)):
        g = FiniteGL(q, size)
        assert g.order() == g.expected_order()


def test_scale_guard():
    with pytest.raises(ScaleExceeded):
        FiniteGL(5, 4)


@pytest.mark.parametrize("q", [4, 6, 1])
def test_non_prime_modulus_rejected(q):
    with pytest.raises(ValueError, match="modulus %d is not prime" % q):
        FiniteGL(q, 2)


def test_coset_counts_match_gaussian_binomials():
    g22 = FiniteGL(2, 2)
    assert len(ParabolicCosets(g22, (0,))) == 3
    g23 = FiniteGL(3, 2)
    assert len(ParabolicCosets(g23, (0,))) == 4
    g32 = FiniteGL(2, 3)
    assert len(ParabolicCosets(g32, (0,))) == 7
    assert len(ParabolicCosets(g32, (1,))) == 7
    assert len(ParabolicCosets(g32, (0, 1))) == 21
    for removed in ((0,), (1,), (0, 1)):
        dims = tuple(i + 1 for i in removed)
        assert len(ParabolicCosets(g32, removed)) == \
            gaussian_flag_count(2, 3, dims)


def test_smith_normal_form_basics():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4], [4, 8]]) == [2]
    assert smith_normal_form([[1, 2], [2, 4], [3, 6]]) == [1]  # rank 1
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_d_squared_zero():
    cx = InductionComplex(2, 2, (0, 1))
    assert cx.d_squared_is_zero()
    assert cx.term_ranks() == [1, 14, 21]


@pytest.mark.parametrize("q,d", [(2, 1), (3, 1), (2, 2)])
def test_acyclicity_over_z(q, d):
    rep = acyclicity_check(q, d, tuple(range(d)), ring="Z")
    assert rep["exact"]
    assert rep["cokernel_torsion_free"]


@pytest.mark.parametrize("q,d", [(2, 1), (3, 1), (2, 2)])
@pytest.mark.parametrize("n", [1, 2])
def test_acyclicity_over_zpn(q, d, n):
    rep = acyclicity_check(q, d, tuple(range(d)), ring="Zpn", n=n)
    assert rep["exact"]


@pytest.mark.parametrize("n", [0, -1])
def test_complex_below_level_one_is_refused_before_any_work(n, monkeypatch):
    # over Z/p^0, the zero ring, exactness and freeness would hold vacuously
    import wittkit.steinberg as steinberg

    def work(*args):
        raise AssertionError("the group was built")
    monkeypatch.setattr(steinberg, "FiniteGL", work)
    with pytest.raises(ValueError, match="need n >= 1, got n = %d" % n):
        acyclicity_check(2, 2, (0, 1), ring="Zpn", n=n)


@pytest.mark.parametrize("q,d,rank", [(2, 1, 2), (3, 1, 3), (2, 2, 8)])
def test_steinberg_ranks(q, d, rank):
    rep = steinberg_rank(q, d)
    assert rep["rank"] == rank
    assert rep["alternating_sum"] == rank
    assert rep["free"] and rep["exact"]


def test_intermediate_parabolic_complex():
    # GL_3(F_2) with I = {alpha_0}: 0 -> Z -> Ind_{P_(0)} -> v -> 0
    rep = steinberg_rank(2, 2, removed_target=(1,))
    assert rep["terms"] == [1, 7]
    assert rep["rank"] == 6 and rep["free"] and rep["exact"]


def test_euler_characteristic_zero():
    """chi of the augmented complex including the cokernel vanishes."""
    for q, d in ((2, 1), (3, 1), (2, 2)):
        rep = steinberg_rank(q, d)
        terms = rep["terms"] + [rep["rank"]]
        signs = sum(((-1) ** k) * t for k, t in enumerate(terms))
        assert signs == 0


def test_flatness_layers_over_zpn():
    """v tensor Z/p^n has layer dimensions (rank, ..., rank)."""
    for q, d, rank in ((2, 1, 2), (3, 1, 3), (2, 2, 8)):
        cx = InductionComplex(q, d, tuple(range(d)), ring="Zpn", n=2)
        last = cx.matrices[-1]
        divisors = smith_normal_form(last)
        # all divisors are units: the cokernel is free, so each p-layer of
        # v tensor Z/p^2 has dimension equal to the rank
        assert all(x == 1 for x in divisors)
        assert len(last) - len(divisors) == rank
