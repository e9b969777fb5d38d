import random
from itertools import combinations

import pytest

from wittkit import rings, witt
from wittkit.cech import (
    HD_MONOMIAL_LIMIT,
    FinLenModule,
    _slice_dims,
    classical_cohomology,
    classical_cohomology_via_cech,
    hd_monomials,
    hd_witt_length_by_cech,
    layer_sums,
    slice_cohomology_dims,
    witt_cohomology,
)
from wittkit.checks import cohomology_point
from wittkit.rings import LaurentElem, ScaleExceeded
from wittkit.witt import WittVector, restrict, verschiebung, witt_add, witt_mul


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
    # the assembly must not build the Witt cochains that computing them needs
    def build(*args, **kwargs):
        raise AssertionError("witt_cohomology built a Witt cochain")
    monkeypatch.setattr(witt.WittVector, "__init__", build)
    monkeypatch.setattr(rings.SparseModElem, "__init__", build)
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


def _random_section(p, n, d, a, S, rng):
    """A Witt vector whose level-l coordinate has degree p^l a on chart S."""
    coords = []
    Ss = sorted(S)
    for l in range(n):
        terms = {}
        for _ in range(rng.randrange(0, 3)):
            e = [rng.randrange(-2, 3) if i in S else rng.randrange(0, 3)
                 for i in range(d + 1)]
            e[Ss[0]] += (p ** l) * a - sum(e)
            terms[tuple(e)] = rng.randrange(1, p)
        coords.append(LaurentElem(p, 1, d + 1, terms, S))
    return WittVector(p, n, coords)


def test_ses_maps_properties():
    # the maps of 0 -> W_(n-1)O(pa) -V-> W_nO(a) -R^(n-1)-> O(a) -> 0 on
    # sections: V is additive, R^(n-1) o V = 0, and R^(n-1) (the first
    # coordinate) is additive and multiplicative
    rng = random.Random(7)
    for p, d, n, a in ((3, 2, 2, -1), (2, 1, 3, 1)):
        for _ in range(25):
            S = frozenset(rng.sample(range(d + 1), rng.randrange(1, d + 2)))
            x = _random_section(p, n - 1, d, p * a, S, rng)
            y = _random_section(p, n - 1, d, p * a, S, rng)
            vx = verschiebung(x)
            assert vx.n == n
            assert witt_add(vx, verschiebung(y)) == verschiebung(witt_add(x, y))
            assert vx.coords[0] == LaurentElem.zero(p, 1, d + 1, S)
            r = vx
            for _ in range(n - 1):
                r = restrict(r)
            assert r.is_zero()
            u = _random_section(p, n, d, 0, S, rng)
            w = _random_section(p, n, d, 0, S, rng)
            assert witt_add(u, w).coords[0] == u.coords[0] + w.coords[0]
            assert witt_mul(u, w).coords[0] == u.coords[0] * w.coords[0]


def test_harmonic_monomials():
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
