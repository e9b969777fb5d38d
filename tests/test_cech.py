import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittkit.cech as cech
from wittkit.cech import (
    HD_MONOMIAL_LIMIT,
    FinLenModule,
    NotACocycle,
    WittCochain,
    _h0_cocycles,
    _random_section,
    _slice_dims,
    _zero_section,
    cech_diff,
    classical_cohomology,
    classical_cohomology_via_cech,
    classical_solve,
    connecting_map,
    h0_monomials,
    harmonic_residual_layers,
    hd_monomials,
    hd_witt_length_by_cech,
    layer_sums,
    r_map,
    restrict_section,
    ses_maps_report,
    slice_cohomology_dims,
    teich_lift,
    v_divide,
    v_map,
    witt_cohomology,
)
from wittkit.checks import cohomology_point
from wittkit.rings import LaurentElem, ScaleExceeded
from wittkit.witt import WittVector, witt_sub, witt_sum


def test_classical_examples():
    assert classical_cohomology(1, 2, 0) == 3
    assert classical_cohomology(2, -3, 2) == 1
    for i in range(3):
        assert classical_cohomology(2, -1, i) == 0


@pytest.mark.parametrize("p", [2, 3])
def test_classical_matches_slice_assembly(p):
    for d in (1, 2, 3):
        for m in range(-6, 5):
            for i in range(d + 1):
                assert classical_cohomology(d, m, i) == \
                    classical_cohomology_via_cech(d, m, i, p)


def test_slice_cohomology_patterns():
    # empty pattern: constants in degree 0; full pattern: top degree only
    for d in (1, 2, 3):
        hs = slice_cohomology_dims(d, 2, frozenset())
        assert hs == [1] + [0] * d
        hs = slice_cohomology_dims(d, 2, frozenset(range(d + 1)))
        assert hs == [0] * d + [1]
        for k in range(1, d + 1):
            hs = slice_cohomology_dims(d, 3, frozenset(range(k)))
            assert hs == [0] * (d + 1)


def test_slice_cache_is_bounded_and_hands_out_fresh_lists():
    assert _slice_dims.cache_info().maxsize is not None
    first = slice_cohomology_dims(2, 3, {0, 1, 2})
    first.append(99)
    first[0] = 7
    assert slice_cohomology_dims(2, 3, [2, 1, 0]) == [0, 0, 1]


@pytest.mark.parametrize("p", [2, 3])
def test_cached_slices_match_uncached(p):
    uncached = _slice_dims.__wrapped__
    for d in range(1, 5):
        grounds = [None, list(range(d + 1)), list(range(1, d + 1)),
                   [d - 1, d]]
        for ground in grounds:
            points = range(d + 1) if ground is None else ground
            for k in range(len(points) + 1):
                for pattern in combinations(points, k):
                    key = (d, p, frozenset(pattern),
                           None if ground is None else tuple(ground))
                    want = list(uncached(*key))
                    assert slice_cohomology_dims(d, p, set(pattern),
                                                 ground) == want
                    assert slice_cohomology_dims(d, p, pattern,
                                                 ground) == want


def test_finlen_module():
    m = FinLenModule(2, 2, (1, 3))
    assert m.length == 4 and not m.is_zero()
    with pytest.raises(ValueError):
        FinLenModule(2, 2, (1,))


def test_witt_cohomology_spec_values():
    res = witt_cohomology(2, 1, 2, -1)
    assert res[1].layers == (0, 1) and res[1].length == 1
    res = witt_cohomology(2, 1, 2, -2)
    assert res[1].layers == (1, 3) and res[1].length == 4
    res = witt_cohomology(2, 2, 2, -1)
    assert res[2].length == 0  # d > -p a - 1 = 1
    assert res[1].length == 0
    # O(-2) and O(-4) have h^1 = 1 and 3 on P^1; O(1) and O(2) have h^0 = 2, 3
    assert layer_sums(2, 1, 2, -2) == (0, 4)
    assert layer_sums(2, 1, 2, 1) == (5, 0)


@pytest.mark.parametrize("p,n,d", [(2, 2, 1), (3, 2, 2), (2, 3, 2)])
def test_witt_cohomology_vanishing_patterns(p, n, d):
    for a in range(-4, 5):
        lengths, ok = cohomology_point(p, d, n, a)
        assert ok, (a, lengths)
        # H^0 vanishes for a < 0 and H^d for a >= 0
        assert lengths[0 if a < 0 else d] == 0


def test_independent_top_length_route():
    total, layers = hd_witt_length_by_cech(2, 1, 2, -2)
    assert (total, layers) == (4, [1, 3])
    total, layers = hd_witt_length_by_cech(3, 2, 2, -2)
    res = witt_cohomology(3, 2, 2, -2)
    assert total == res[2].length and layers == list(res[2].layers)


def test_independent_top_length_route_scale_guard():
    # (2, 6, 6, -12) passes witt_cohomology's guard, but its box holds
    # 4.3e12 top-degree monomials
    with pytest.raises(ScaleExceeded, match="4277896229313 monomials"):
        hd_witt_length_by_cech(2, 6, 6, -12)
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        hd_witt_length_by_cech(4, 1, 1, -2)
    with pytest.raises(ValueError, match="d = 0"):
        hd_witt_length_by_cech(2, 0, 1, -2)
    # the largest box timed, and every point of the laurent-checks sweep
    assert layer_sums(2, 3, 4, -12)[1] <= HD_MONOMIAL_LIMIT
    points = [(p, d, n, a) for p in (2, 3) for d in (1, 2, 3)
              for n in (1, 2, 3) for a in range(-4, 5)] + [(2, 4, 4, 6)]
    for p, d, n, a in points:
        total, layers = hd_witt_length_by_cech(p, d, n, a)
        assert total == sum(layers) == layer_sums(p, d, n, a)[1]


def test_witt_cohomology_never_runs_the_connecting_map(monkeypatch):
    # the connecting maps vanish by construction (see witt_cohomology), so
    # the assembly must not spend time computing them
    def compute(*args):
        raise AssertionError("witt_cohomology ran connecting_map")
    monkeypatch.setattr(cech, "connecting_map", compute)
    res = witt_cohomology(3, 2, 3, 4)
    assert res[0].layers == (15, 91, 703)
    assert res[1].length == res[2].length == 0


def test_structure_sheaf():
    # H^*(P^d, W_n O) is W_n(k) in degree 0 and zero above
    res = witt_cohomology(2, 1, 3, 0)
    assert res[0].layers == (1, 1, 1) and res[1].length == 0
    res = witt_cohomology(3, 2, 2, 0)
    assert res[0].length == 2 and res[1].length == 0 and res[2].length == 0
    # n = 1 is the classical case
    res = witt_cohomology(5, 2, 1, 0)
    assert res[0].layers == (1,)


def test_ses_maps_properties():
    rng = random.Random(7)
    rep = ses_maps_report(3, 2, 2, -1, 25, rng)
    assert rep["cases"] == 25 and not rep["failures"]
    rep = ses_maps_report(2, 1, 3, 1, 25, rng)
    assert not rep["failures"]


def test_v_then_r_is_zero_on_cochains():
    p, n, d = 2, 2, 1
    # V of a Teichmuller cochain of W_(n-1)O(pa), then R^(n-1), is zero
    inner = _h0_cocycles(p, d, 4)  # sections of O(pa) with a = 2
    c = teich_lift(p, n - 1, d, 4, inner[0], 0)
    lifted = v_map(c)
    assert lifted.a == 2
    assert all(f.is_zero() for f in r_map(lifted).values())
    # R^{n-1} of a Teichmuller cochain is its top coordinate
    c2 = teich_lift(p, n, d, 2, _h0_cocycles(p, d, 2)[0], 0)
    assert r_map(c2) == {S: x.coords[0] for S, x in c2.comps.items()}
    # V of a Teichmuller section is the shifted section (0, g)
    for S, x in lifted.comps.items():
        assert x.coords[0].is_zero()
        assert x.coords[1] == c.comps[S].coords[0]


def test_connecting_zero_on_global_sections():
    # witt_cohomology relies on this vanishing without computing it: the
    # lift [z^e] is the same vector on every chart, so its differential is 0
    for (p, d, a, n) in ((2, 1, 2, 2), (2, 2, 2, 2), (2, 3, 1, 2),
                         (3, 1, 3, 2), (3, 2, 1, 2), (3, 3, 2, 2),
                         (2, 1, 0, 3)):
        basis = _h0_cocycles(p, d, a)
        cols = connecting_map(p, n, d, a, 0, basis)
        for col in cols:
            assert all(not layer for layer in col)


def test_connecting_rejects_non_cocycles():
    p, d = 2, 1
    bad = {
        frozenset([0]): LaurentElem.monomial(p, 1, d + 1, (2, 0), 1,
                                             frozenset([0])),
        frozenset([1]): LaurentElem.zero(p, 1, d + 1, frozenset([1])),
    }
    with pytest.raises(NotACocycle):
        connecting_map(p, 2, d, 2, 0, [bad])


def test_coboundary_reduces_to_zero():
    # the Teichmuller lift of a genuine coboundary peels away completely
    p, n, d, a = 2, 2, 1, 1
    f = LaurentElem.monomial(p, 1, d + 1, (1, 0), 1, frozenset([0]))
    c0 = {frozenset([0]): f,
          frozenset([1]): LaurentElem.zero(p, 1, d + 1, frozenset([1]))}
    lifted = teich_lift(p, n, d, a, c0, 0)
    delta = cech_diff(lifted)
    layers = harmonic_residual_layers(delta)
    assert all(not layer for layer in layers)


def test_classical_solve_inconsistent_slice():
    # z^(1,-3) is d of a C^0 term; z^(-1,-1) lies in an empty C^0 slice
    p, d = 2, 1
    S = frozenset([0, 1])
    rhs = {S: LaurentElem(p, 1, d + 1, {(-1, -1): 1, (1, -3): 1}, S)}
    sol, residual = classical_solve(p, d, 1, rhs)
    assert {tuple(sorted(T)): f.terms for T, f in sol.items()} == \
        {(0,): {}, (1,): {(1, -3): 1}}
    assert {tuple(sorted(T)): f.terms for T, f in residual.items()} == \
        {(0, 1): {(-1, -1): 1}}


def test_harmonic_monomials():
    assert h0_monomials(2, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert hd_monomials(1, -2) == [(-1, -1)]
    assert hd_monomials(2, -3) == [(-1, -1, -1)]
    assert hd_monomials(1, 0) == []


def test_scale_guard():
    with pytest.raises(ScaleExceeded):
        witt_cohomology(2, 9, 2, -1)
    # P^0 is refused before any work
    with pytest.raises(ValueError, match="d = 0"):
        witt_cohomology(2, 0, 1, -1)


def test_les_rank_consistency():
    """Length additivity along the tower of short exact sequences."""
    for p in (2, 3):
        for d in (1, 2):
            for a in range(-3, 3):
                for n in (2, 3):
                    low = witt_cohomology(p, d, n - 1, p * a, verify=False)
                    high = witt_cohomology(p, d, n, a, verify=False)
                    for i in range(d + 1):
                        assert high[i].length == (
                            low[i].length + classical_cohomology(d, a, i)
                        )


def test_witt_cochain_refuses_bad_section():
    p, n, d, a = 2, 2, 1, -2
    S = frozenset({0, 1})
    good = WittVector(p, n, [
        LaurentElem.monomial(p, 1, d + 1, (-1, -1), 1, S),
        LaurentElem.monomial(p, 1, d + 1, (-3, -1), 1, S),
    ])
    assert WittCochain(p, n, d, a, 1, {S: good}).comps[S] == good
    bad = WittVector(p, n, [
        LaurentElem.monomial(p, 1, d + 1, (-1, -1), 1, S),
        LaurentElem.monomial(p, 1, d + 1, (-1, -1), 1, S),  # wrong degree
    ])
    with pytest.raises(ValueError):
        WittCochain(p, n, d, a, 1, {S: bad})


def test_v_divide_inverts_v_map():
    rng = random.Random(17)
    for p, d, n, a in ((2, 1, 2, -1), (3, 2, 3, 1)):
        for q in range(d + 1):
            comps = {}
            for S in combinations(range(d + 1), q + 1):
                S = frozenset(S)
                comps[S] = _random_section(p, n - 1, d, p * a, S, rng)
            c = WittCochain(p, n - 1, d, p * a, q, comps)
            lifted = v_map(c)
            assert (lifted.n, lifted.a) == (n, a)
            assert all(f.is_zero() for f in r_map(lifted).values())
            back = v_divide(lifted)
            assert (back.n, back.a, back.comps) == (c.n, c.a, c.comps)
    c = teich_lift(2, 2, 1, 2, _h0_cocycles(2, 1, 2)[0], 0)
    with pytest.raises(ValueError):
        v_divide(c)


# -- trusted sections, against the checked constructors they replaced ----------

def _ref_restrict_section(x, S):
    return WittVector(
        x.p, x.n,
        [LaurentElem(c.p, 1, c.num_vars, c.terms, S) for c in x.coords])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_trusted_sections_match_constructor(data):
    p = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    a = data.draw(st.integers(-2, 2))
    T = data.draw(st.sets(st.integers(0, d), min_size=1))
    S = frozenset(T | data.draw(st.sets(st.integers(0, d))))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    x = _random_section(p, n, d, a, frozenset(T), rng)
    got, want = restrict_section(x, S), _ref_restrict_section(x, S)
    assert got == want
    assert [c.allowed_negative for c in got.coords] == [S] * n
    zero = _zero_section(p, n, d, S)
    assert zero == WittVector(p, n, [LaurentElem.zero(p, 1, d + 1, S)] * n)
    # the checked section test passes on the trusted section and zeros
    assert WittCochain(p, n, d, a, len(S) - 1, {S: got}).comps[S] == got


def _ref_cech_diff(c):
    """cech_diff as it stood: every component summed, zero faces too."""
    out = {}
    for S in combinations(range(c.d + 1), c.q + 2):
        Sf = frozenset(S)
        faces = [_ref_restrict_section(c.comps[Sf - {s}], Sf) for s in S]
        out[Sf] = witt_sub(witt_sum(faces[0::2]), witt_sum(faces[1::2]))
    return WittCochain(c.p, c.n, c.d, c.a, c.q + 1, out)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cech_diff_with_zero_faces_matches_full_sums(data):
    p = data.draw(st.sampled_from([2, 3]))
    n = data.draw(st.integers(1, 3))
    d = data.draw(st.integers(1, 3))
    q = data.draw(st.integers(0, d - 1))
    a = data.draw(st.integers(-2, 2))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    comps = {}
    for S in combinations(range(d + 1), q + 1):
        if data.draw(st.booleans()):  # left out: the cochain fills in zero
            comps[frozenset(S)] = _random_section(p, n, d, a, frozenset(S),
                                                  rng)
    c = WittCochain(p, n, d, a, q, comps)
    dc = cech_diff(c)
    assert dc.comps == _ref_cech_diff(c).comps
    if q + 2 <= d:
        assert cech_diff(dc).is_zero()
