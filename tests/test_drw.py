import json
import random
import tracemalloc
from collections.abc import Sequence
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.drw import (
    DRWElement,
    Inadmissible,
    Weight,
    act,
    enumerate_basis,
    _partitions,
    _triples,
)
from wittkit.rings import ScaleExceeded, VariableMismatch, v_p
from wittkit.witt import _MAX_BASIS_SIZE, _basis_size


def W(p, d, **entries):
    return Weight(p, d, {int(k[1:]): v for k, v in entries.items()})


# -- weight helpers and the checked constructor of one basis symbol ---------

class SupportTooSmall(ValueError):
    pass


def enumerate_partitions(weight, i):
    """All partitions (I_0, ..., I_i) of supp(r) in P^(i)_r."""
    supp = weight.support()
    if len(supp) < i:
        raise SupportTooSmall("support smaller than the target degree")
    return _partitions(tuple(supp), i)


def scale_p(weight, k):
    """The weight p^k * r."""
    return Weight(weight.p, weight.d,
                  {j: (u, v + k) for j, (u, v) in weight.entries.items()})


def restrict(weight, subset):
    return Weight(weight.p, weight.d,
                  {j: uv for j, uv in weight.entries.items() if j in subset})


def t_and_u(weight, subset=None):
    """t(I) = -min valuation over I (0 for the zero weight); u = max(0, t)."""
    w = weight if subset is None else restrict(weight, subset)
    if not w.entries:
        return 0, 0
    t = -min(v for (_, v) in w.entries.values())
    return t, max(0, t)


def partition_valid(weight, parts):
    """Check conditions i)-iv) for a candidate partition."""
    supp = weight.support()
    flat = [j for blk in parts for j in blk]
    if sorted(flat) != sorted(supp):
        return False
    if any(len(blk) == 0 for blk in parts[1:]):
        return False
    order = {j: k for k, j in enumerate(supp)}
    pos = [order[j] for j in flat]
    return pos == sorted(pos) and pos == list(range(len(supp)))


def basis_element(p, n, d, wkey, parts):
    """The symbol e_n(1, r, P) of a weight key and a partition, refused
    unless p^(n-1) r is integral and P is valid."""
    weight = Weight(p, d, {j: (u, v) for (j, u, v) in wkey})
    if wkey and min(v for (_, _, v) in wkey) < -(n - 1):
        raise Inadmissible("p^(n-1) r is not integral")
    if not partition_valid(weight, parts):
        raise Inadmissible("invalid partition")
    # the degree equals the number of e^1 factors, i.e. len(parts) - 1
    return DRWElement(p, n, d, len(parts) - 1, {(weight.key(), parts): 1})


def test_t_and_u_examples():
    assert t_and_u(Weight(2, 1, {0: (1, 0)})) == (0, 0)    # r = 1
    assert t_and_u(Weight(2, 1, {0: (1, -1)})) == (1, 1)   # r = 1/p
    assert t_and_u(Weight(2, 1, {0: (1, 2)})) == (-2, 0)   # r = p^2


def test_support_order():
    w = Weight(3, 3, {0: (1, 1), 1: (2, 0), 2: (1, 0)})
    assert w.support() == [1, 2, 0]
    # stable under multiplication by p
    assert scale_p(w, 5).support() == [1, 2, 0]


def test_partitions_counts():
    w2 = Weight(3, 2, {0: (1, 0), 1: (1, 0)})
    # compositions of 2 into 1 part (I_0 empty) plus into 2 parts
    parts = enumerate_partitions(w2, 1)
    assert len(parts) == comb(1, 0) + comb(1, 1)
    assert ((), (0, 1)) in parts and ((0,), (1,)) in parts
    w3 = Weight(3, 3, {0: (1, 0), 1: (1, 0), 2: (1, 0)})
    assert enumerate_partitions(w3, 3) == [((), (0,), (1,), (2,))]
    assert enumerate_partitions(w3, 0) == [((0, 1, 2),)]
    for i in (1, 2, 3):
        got = enumerate_partitions(w3, i)
        assert len(got) == comb(2, i - 1) + comb(2, i)
        assert all(partition_valid(w3, parts) for parts in got)
    with pytest.raises(SupportTooSmall):
        enumerate_partitions(w2, 3)


def test_act_d_with_empty_head_is_zero():
    w = Weight(2, 2, {0: (1, 0), 1: (1, 0)})
    e = basis_element(2, 2, 2, w.key(), ((), (0,), (1,)))
    assert act("d", e).is_zero()


def test_act_v_case():
    # p=2, n=2, d=1, r=1: V(e^0(1,1)) = e^0(1, 1/2): the scalar-1 branch
    w = Weight(2, 1, {0: (1, 0)})
    e = basis_element(2, 2, 1, w.key(), ((0,),))
    out = act("V", e)
    want_w = Weight(2, 1, {0: (1, -1)})
    assert out.terms == {(want_w.key(), ((0,),)): 1}
    assert out.n == 3


def test_act_v_scalar_p_branch():
    # V(T^r) = p T^(r/p) when r/p stays integral
    w = Weight(3, 1, {0: (1, 1)})  # r = p
    e = basis_element(3, 2, 1, w.key(), ((0,),))
    out = act("V", e)
    want_w = Weight(3, 1, {0: (1, 0)})
    assert out.terms == {(want_w.key(), ((0,),)): 3}


def test_act_f_case():
    # p=2, n=2, r=1 integral: F(e^1(1,1)) = e^1(1,2), scalar 1
    w = Weight(2, 1, {0: (1, 0)})
    e = basis_element(2, 2, 1, w.key(), ((), (0,)))
    out = act("F", e)
    want_w = Weight(2, 1, {0: (1, 1)})
    assert out.terms == {(want_w.key(), ((), (0,))): 1}


def test_act_f_scalar_p_branch():
    # I_0 nonempty and r not integral: F e = p e(1, pr, P): dies at level 1
    w = Weight(2, 1, {0: (1, -1)})
    e = basis_element(2, 2, 1, w.key(), ((0,),))
    assert act("F", e).is_zero()  # p * (level-1 coefficient) = 0 mod 2


def test_enumerate_basis_shape():
    empty = enumerate_basis(2, 1, 1, 2, 4)  # i > d
    assert len(empty) == 0 and list(empty) == []
    keys = enumerate_basis(2, 2, 1, 0, 4)
    # weights r with 2r integral, numerator of 2r up to 4: r in {0,1/2,1,3/2,2}
    assert len(keys) == 5
    # uniqueness of the (weight, partition) keys
    assert len(set(keys)) == len(keys)
    # at d = 0 the one key is the empty weight in degree 0
    assert list(enumerate_basis(3, 1, 0, 0, 4)) == [((), ((),))]


@pytest.mark.parametrize("d,i,bound", [(1, 0, 4), (1, 1, 4), (2, 1, 3),
                                       (2, 2, 3)])
def test_enumerate_basis_n1_matches_classical_count(d, i, bound, p=3):
    """At n = 1 the basis is the classical z^a dz_J basis, degree-shifted."""
    keys = enumerate_basis(p, 1, d, i, bound)
    classical = 0
    for jset in _subsets(range(d), i):
        box = [bound - (1 if v in jset else 0) for v in range(d)]

        def count(vals):
            total = 1
            for b in vals:
                total *= b + 1
            return total

        classical += count(box)
    assert len(keys) == classical


def test_basis_size_counts_enumerate_basis():
    for p in (2, 3):
        for n in (1, 2):
            for d in range(4):
                for i in range(d + 2):
                    for bound in (0, 1, 2, 5):
                        keys = enumerate_basis(p, n, d, i, bound)
                        assert _basis_size(d, i, bound) == len(keys) \
                            == len(list(keys)), (p, n, d, i, bound)


def _ref_enumerate_basis(p, n, d, i, bound):
    """The whole key list, built as enumerate_basis did before it returned
    a lazy sequence: the reference for its keys and their order."""
    if i > d:
        return []
    entry = [[None] for _ in range(d)]
    for a in range(1, bound + 1):
        v = v_p(a, p)
        for j in range(d):
            entry[j].append((j, a // p ** v, v - (n - 1)))
    partitions = {}
    out = []
    for triples in product(*entry):
        wkey = tuple([t for t in triples if t])
        if len(wkey) < i:
            continue
        order = sorted(wkey, key=lambda t: t[2])
        supp = tuple([j for (j, _, _) in order])
        parts_list = partitions.get(supp)
        if parts_list is None:
            parts_list = partitions[supp] = _partitions(supp, i)
        out += [(wkey, parts) for parts in parts_list]
    return out


def test_basis_keys_match_the_list_builder():
    """Every key, by iteration and at every index, negative ones included,
    on p in {2, 3, 5}, n <= 3, d <= 3, i <= d + 1 and five bounds."""
    for p in (2, 3, 5):
        for n, d, bound in product((1, 2, 3), range(4),
                                   sorted({0, 1, 2, p, 2 * p + 1})):
            for i in range(d + 2):
                cell = (p, n, d, i, bound)
                want = _ref_enumerate_basis(*cell)
                keys = enumerate_basis(*cell)
                assert isinstance(keys, Sequence)
                assert len(keys) == len(want), cell
                assert list(keys) == want, cell
                assert [keys[k] for k in range(len(want))] == want, cell
                assert [keys[-1 - k] for k in range(len(want))] \
                    == want[::-1], cell
                for k in (len(want), -len(want) - 1):
                    with pytest.raises(IndexError):
                        keys[k]


_REF_CELLS = {}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_property_basis_keys_index_like_the_list(i, data):
    cell = (3, 2, 3, i, 22)
    if cell not in _REF_CELLS:
        _REF_CELLS[cell] = _ref_enumerate_basis(*cell)
    want = _REF_CELLS[cell]
    k = data.draw(st.integers(-len(want), len(want) - 1))
    # a fresh sequence each time, so each index is decoded from scratch
    assert enumerate_basis(*cell)[k] == want[k]


def test_enumerating_a_large_cell_keeps_no_keys():
    # the list of the 34,914 keys alone took about 2.9 MiB at peak
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_basis(3, 2, 3, 1, 22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 34914
    assert peak < 256 * 1024


def test_used_drw_cells_are_under_the_basis_limit():
    # criterion 8 (numerators <= 3p^2), the verify suite at p <= 13 and the
    # benchmark's cells (numerators <= 22)
    cells = [(d, 3 * p * p) for p in (2, 3, 5, 7, 11, 13) for d in (1, 2)]
    cells += [(3, 27), (3, 22), (3, 6)]
    for d, bound in cells:
        for i in range(d + 1):
            assert _basis_size(d, i, bound) <= _MAX_BASIS_SIZE, (d, i, bound)


def test_oversized_basis_is_refused_before_any_work(monkeypatch):
    import wittkit.drw as drw

    def work(*args):
        raise AssertionError("the enumeration started")
    monkeypatch.setattr(drw, "product", work)
    with pytest.raises(ScaleExceeded, match="d = 2, i = 0, bound = 2883"):
        enumerate_basis(31, 1, 2, 0, 3 * 31 * 31)
    assert _basis_size(2, 1, 2883) > _MAX_BASIS_SIZE
    with pytest.raises(ValueError, match="i = -1"):
        enumerate_basis(3, 1, 2, -1, 4)
    with pytest.raises(ValueError, match="need d >= 0, got d = -1"):
        enumerate_basis(3, 1, -1, 0, 4)


@pytest.mark.parametrize("bound", [-1, -3])
def test_negative_bound_is_refused(bound):
    # numerators 0 <= a_j <= bound admit no weight, not even the zero one
    with pytest.raises(ValueError,
                       match="need bound >= 0, got bound = %d" % bound):
        enumerate_basis(2, 2, 1, 0, bound)


@pytest.mark.parametrize("n", [0, -1])
def test_basis_below_level_one_is_refused(n):
    # W_0 Omega is 0: a basis of it would be checked vacuously
    with pytest.raises(ValueError, match="need n >= 1, got n = %d" % n):
        enumerate_basis(2, n, 1, 0, 4)


def _subsets(items, size):
    items = list(items)
    if size == 0:
        return [()]
    out = []

    def rec(start, acc):
        if len(acc) == size:
            out.append(tuple(acc))
            return
        for k in range(start, len(items)):
            rec(k + 1, acc + [items[k]])

    rec(0, [])
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_all_identities_small(p):
    for n in (1, 2):
        for d in (1, 2):
            for i in range(d + 1):
                for wkey, parts in enumerate_basis(p, n, d, i, p * p):
                    e = basis_element(p, n, d, wkey, parts)
                    assert act("d", act("d", e)).is_zero()
                    assert act("F", act("V", e)) == e.scalar_mul(p)
                    assert act("V", act("F", e)) == e.scalar_mul(p)
                    assert act("F", act("d", act("V", e))) == act("d", e)
                    assert act("V", act("d", e)) == act(
                        "d", act("V", e)).scalar_mul(p)
                    assert act("d", act("F", e)) == act(
                        "F", act("d", e)).scalar_mul(p)


@pytest.mark.parametrize("p", [2, 3])
def test_act_is_linear_on_combinations(p):
    # combinations of enumerated keys against sums of basis elements built
    # from plain Weight.key() tuples, coefficients beyond p^(n-u) included
    rng = random.Random(p)
    n, d = 2, 2
    for i in range(d + 1):
        keys = enumerate_basis(p, n, d, i, 2 * p)
        for _ in range(20):
            picks = rng.sample(keys, min(len(keys), 4))
            coeffs = [rng.randrange(-p ** (n + 1), p ** (n + 1))
                      for _ in picks]
            combo = DRWElement(p, n, d, i, dict(zip(picks, coeffs)))
            summands = [basis_element(p, n, d, wkey, parts).scalar_mul(c)
                        for (wkey, parts), c in zip(picks, coeffs)]
            for which in "FVd":
                # summed in reverse order, so equality cannot rest on the
                # order in which terms were given
                images = [act(which, e) for e in reversed(summands)]
                total = images[0]
                for e in images[1:]:
                    total = total + e
                assert act(which, combo) == total


def test_admissibility_enforced():
    w = Weight(2, 1, {0: (1, -2)})  # r = 1/4 needs n >= 3
    with pytest.raises(Inadmissible):
        basis_element(2, 2, 1, w.key(), ((0,),))
    e = basis_element(2, 3, 1, w.key(), ((0,),))
    assert e.terms


def test_partition_validation():
    w = Weight(2, 2, {0: (1, 0), 1: (1, 0)})
    with pytest.raises(Inadmissible):
        basis_element(2, 1, 2, w.key(), ((1,), (0,)))  # order violated
    with pytest.raises(Inadmissible):
        basis_element(2, 1, 2, w.key(), ((0,), ()))  # empty later block


def test_coefficient_annihilation():
    # 2 * V(T) = 0 in W_2 over F_2: stored coefficients live mod p^(n-u)
    w = Weight(2, 1, {0: (1, -1)})
    e = basis_element(2, 2, 1, w.key(), ((0,),))
    assert e.scalar_mul(2).is_zero()


def test_json_round_trip_over_every_key():
    """to_json then from_json gives back each basis symbol of one cell per
    (p, n, d, i), and their sum, through JSON text."""
    for p, n, d in product((2, 3), (1, 2), (0, 1, 2)):
        for i in range(d + 1):
            keys = enumerate_basis(p, n, d, i, p + 1)
            elems = [DRWElement(p, n, d, i, {key: k + 1})
                     for k, key in enumerate(keys)]
            elems.append(DRWElement(p, n, d, i, {key: 1 for key in keys}))
            for e in elems:
                doc = json.loads(json.dumps(e.to_json()))
                assert DRWElement.from_json(doc) == e
                assert DRWElement.from_json(doc).to_json() == doc


def test_json_round_trip_above_the_top_degree():
    """d of an element of top degree d is the zero element of degree d + 1,
    since W_n Omega^(d+1) = 0; it reads back, and so do F and d of it."""
    key = (((0, 1, 0),), ((), (0,)))
    x = DRWElement(3, 2, 1, 1, {key: 1})
    assert DRWElement.from_json(x.to_json()) == x
    for which, degree, n in (("d", 2, 2), ("F", 2, 1), ("d", 3, 1)):
        x = act(which, x)
        assert (x.degree, x.n, x.is_zero()) == (degree, n, True)
        doc = json.loads(json.dumps(x.to_json()))
        assert doc["terms"] == [] and DRWElement.from_json(doc) == x


_TERM = {"weight": [[1, 0], [2, -1]], "partition": [[1], [0]], "c": 1}


def _doc(d=2, degree=None, **term):
    doc = {"p": 3, "n": 2, "d": d, "terms": [dict(_TERM, **term)]}
    return doc if degree is None else dict(doc, degree=degree)


@pytest.mark.parametrize("doc,error,needle", [
    # the inputs that drw act used to read without a word
    (_doc(weight=[[1, 0], [2, -0.5]]), VariableMismatch, "-0.5 is not an int"),
    (_doc(weight=[[1.0, 0], [2, -1]]), VariableMismatch, "1.0 is not an int"),
    (_doc(c=1.0), VariableMismatch, "1.0 is not an int"),
    (_doc(weight=[[1, True], [2, -1]]), VariableMismatch, "True is not an int"),
    (dict(_doc(), p=4), ValueError, "p = 4 is not prime"),
    (dict(_doc(), n=0), ValueError, "need n >= 1, got n = 0"),
    (_doc(d=1, degree=7, weight=[[1, 0]], partition=[[], [0]]),
     VariableMismatch, "of degree 7 at d = 1"),
    (_doc(d=1), VariableMismatch, "is not 1 [u, v] pairs"),
    (_doc(d=1, weight=[[1]], partition=[[0]]), VariableMismatch,
     "is not 1 [u, v] pairs"),
    # the space, the weight and the degree
    (dict(_doc(), d=-1, terms=[]), ValueError, "need d >= 0"),
    (_doc(weight=[[3, 0], [2, -1]]), ValueError, "prime to p"),
    (_doc(weight=[[1, 0], [2, -2]]), VariableMismatch, "p^1 r is not integral"),
    (_doc(partition=[[1], [5]]), VariableMismatch, "does not split"),
    (_doc(degree=0), VariableMismatch, "terms of degrees [1]"),
    (_doc(degree="1"), VariableMismatch, "terms of degrees [1]"),
    ([1], VariableMismatch, "malformed drw element"),
    # with no terms a degree may exceed d, but not be negative
    (dict(_doc(), degree=-1, terms=[]), VariableMismatch, "of degree -1"),
])
def test_from_json_refuses_bad_input(doc, error, needle):
    with pytest.raises(error) as info:
        DRWElement.from_json(doc)
    assert needle in str(info.value)


# -- the case formulas over plain {(triples, parts): c} dicts ---------------

def _ref_min_v(triples):
    return min([v for (_, _, v) in triples], default=0)


def _ref_reduce(p, n, terms):
    """Each coefficient mod p^(n-u), u = max(0, -min valuation); no zeros."""
    out = {}
    for (triples, parts), c in terms.items():
        k = n - max(0, -_ref_min_v(triples))
        c %= p ** k if k > 0 else 1
        if c:
            out[(triples, parts)] = c
    return out


def _ref_act(which, p, n, terms):
    """The level and terms of F, V or d, written from the case formulas."""
    terms = _ref_reduce(p, n, terms)
    out = {}
    if which == "F":
        level = n - 1
        for (triples, parts), c in terms.items():
            r_integral = _ref_min_v(triples) >= 0
            image = tuple((j, u, v + 1) for (j, u, v) in triples)
            if image and _ref_min_v(image) < -(level - 1):
                raise Inadmissible("F image")
            scalar = p if parts[0] and not r_integral else 1
            out[(image, parts)] = scalar * c
    elif which == "V":
        level = n + 1
        for (triples, parts), c in terms.items():
            image = tuple((j, u, v - 1) for (j, u, v) in triples)
            if image and _ref_min_v(image) < -(level - 1):
                raise Inadmissible("V image")
            scalar = p if _ref_min_v(image) >= 0 or not parts[0] else 1
            out[(image, parts)] = scalar * c
    else:
        level = n
        for (triples, parts), c in terms.items():
            if parts[0]:
                scalar = p ** max(0, _ref_min_v(triples))
                out[(triples, ((),) + parts)] = scalar * c
    if level < 1:
        return level, {}
    return level, _ref_reduce(p, level, out)


@st.composite
def drw_combinations(draw):
    """A level, a degree and a {(triples, parts): c} dict of basis keys.

    Keys come from enumerate_basis at the level or one above it (so some are
    inadmissible), half the degree-0 draws add the zero weight, and
    coefficients run past p^(n-u) and below zero.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    i = draw(st.integers(0, d))
    keys = enumerate_basis(p, n + draw(st.integers(0, 1)), d, i, p + 1)
    picks = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6))
    if i == 0 and draw(st.booleans()):
        picks.append(((), ((),)))
    big = p ** (n + 2)
    terms = {key: draw(st.integers(-big, big)) for key in picks}
    return p, n, d, i, terms


@settings(max_examples=300, deadline=None)
@given(drw_combinations(), st.sampled_from("FVd"))
def test_property_act_matches_case_formulas(cell, which):
    p, n, d, i, terms = cell
    elem = DRWElement(p, n, d, i, terms)
    assert elem.terms == _ref_reduce(p, n, terms)
    try:
        want = _ref_act(which, p, n, terms)
    except Inadmissible:
        with pytest.raises(Inadmissible):
            act(which, elem)
        return
    out = act(which, elem)
    assert (out.n, out.terms) == want
    assert out.degree == i + (which == "d")
    # the same symbols, in the same order, as the constructor makes of them
    assert out == DRWElement(p, out.n, d, out.degree, want[1])


@settings(max_examples=200, deadline=None)
@given(drw_combinations(), st.lists(st.sampled_from("FVd+*"), max_size=5),
       st.integers(-30, 30))
def test_property_stored_pairs_are_admissible(cell, word, c):
    """Every pair built by the constructor, act, + or scalar_mul has
    shift >= 1 - n, so act needs no admissibility check of its images."""
    p, n, d, i, terms = cell
    elem = DRWElement(p, n, d, i, terms)
    for op in word + [None]:
        assert all(shift >= 1 - elem.n for _, shift, _, _c in elem.pairs)
        if op == "+":
            elem = elem + elem.scalar_mul(c)
        elif op == "*":
            elem = elem.scalar_mul(c)
        elif op:
            elem = act(op, elem)


@settings(max_examples=200, deadline=None)
@given(drw_combinations(), st.data())
def test_property_sum_matches_plain_dicts(cell, data):
    p, n, d, i, terms = cell
    other = dict(zip(terms, data.draw(
        st.lists(st.integers(-p ** 4, p ** 4), min_size=len(terms),
                 max_size=len(terms)))))
    total = DRWElement(p, n, d, i, terms) + DRWElement(p, n, d, i, other)
    merged = {k: terms[k] + other[k] for k in terms}
    assert total.terms == _ref_reduce(p, n, merged)
    assert total == DRWElement(p, n, d, i, merged)


def _stored_symbol(triples):
    """The (base, shift) the constructor stores for a weight key, at a
    level just high enough to keep it."""
    n = max(1, 1 - _ref_min_v(triples))
    (base, s, _, _), = DRWElement(2, n, 5, 0, {(triples, ((),)): 1}).pairs
    return base, s


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 4),
                       st.tuples(st.integers(1, 50), st.integers(-4, 4)),
                       max_size=4),
       st.integers(-6, 6))
def test_property_symbol_round_trip(entries, shift):
    triples = tuple((j, u, v) for j, (u, v) in sorted(entries.items()))
    base, s = _stored_symbol(triples)
    assert _triples(base, s) == triples
    assert s == _ref_min_v(triples)
    if base:
        assert _ref_min_v(base) == 0
        assert _stored_symbol(_triples(base, shift)) == (base, shift)
    else:
        assert (base, s) == ((), 0)


def test_f_and_v_share_the_base_of_a_symbol():
    w = Weight(3, 2, {0: (2, -1), 1: (1, 0)})
    e = basis_element(3, 3, 2, w.key(), ((0,), (1,)))
    base, shift, _, _ = e.pairs[0]
    assert shift == -1
    for image in (act("V", e), act("F", act("V", e)), act("d", e)):
        image_base, _, _, _ = image.pairs[0]
        assert image_base is base


# -- the nested-pair kernel that the flat terms replaced ---------------------
#
# An element was (space, pairs) with pairs a tuple of ((base, shift, parts),
# c) sorted by symbol; these are its constructor, act, scalar_mul and +,
# kept as the reference the flat (base, shift, parts, c) terms must match.

def _ref_symbol(triples):
    shift = min([v for (_, _, v) in triples], default=0)
    if not shift:
        return triples, 0
    return tuple([(j, u, v - shift) for (j, u, v) in triples]), shift


def _ref_reduced(p, n, items):
    out = []
    for sym, c in items:
        k = n + sym[1] if sym[1] < 0 else n
        c = c % p ** k if k > 0 else 0
        if c:
            out.append((sym, c))
    out.sort()
    return tuple(out)


def _ref_new(p, n, d, degree, terms):
    return (p, n, d, degree), _ref_reduced(
        p, n, [(_ref_symbol(triples) + (parts,), c)
               for (triples, parts), c in terms.items()])


def _ref_add(x, y):
    (space, pairs), (other_space, other_pairs) = x, y
    assert space == other_space
    acc = dict(pairs)
    for sym, c in other_pairs:
        acc[sym] = acc.get(sym, 0) + c
    return space, _ref_reduced(*space[:2], acc.items())


def _ref_scalar_mul(x, c):
    (p, n, d, degree), pairs = x
    pn = p ** n
    out = []
    for sym, v in pairs:
        v = v * c % (p ** (n + sym[1]) if sym[1] < 0 else pn)
        if v:
            out.append((sym, v))
    return x[0], tuple(out)


def _ref_drw_act(which, x):
    (p, n, d, degree), pairs = x
    out = []
    if which == "F":
        n -= 1
        pn = p ** n
        for (base, s, parts), c in pairs if n else ():
            if base:
                s += 1
                if s < 1 and parts[0]:
                    c *= p
            c %= p ** (n + s) if s < 0 else pn
            if c:
                out.append(((base, s, parts), c))
    elif which == "V":
        n += 1
        pn = p ** n
        for (base, s, parts), c in pairs:
            if base:
                s -= 1
            if s >= 0 or not parts[0]:
                c *= p
            c %= p ** (n + s) if s < 0 else pn
            if c:
                out.append(((base, s, parts), c))
    else:
        degree += 1
        pn = p ** n
        for (base, s, parts), c in pairs:
            if not parts[0]:
                continue
            if s > 0:
                c = c * p ** s % pn
                if not c:
                    continue
            out.append(((base, s, ((),) + parts), c))
    return (p, n, d, degree), tuple(out)


def _assert_same(elem, ref):
    space, pairs = ref
    assert elem.space == space
    assert elem.terms == {(_triples(base, shift), parts): c
                          for (base, shift, parts), c in pairs}
    assert elem.pairs == [sym + (c,) for sym, c in pairs]  # order too


@settings(max_examples=300, deadline=None)
@given(drw_combinations(), st.data(),
       st.lists(st.sampled_from("FVd+-*"), max_size=6))
def test_property_flat_terms_match_the_nested_pairs(cell, data, word):
    """Constructor, F/V/d words, sums, differences and scalar multiples
    agree with the nested-pair kernel on space, terms and stored order."""
    p, n, d, i, terms = cell
    elem, ref = DRWElement(p, n, d, i, terms), _ref_new(p, n, d, i, terms)
    _assert_same(elem, ref)
    for op in word:
        if op in "+-":
            # a second element on the current symbols and a few other keys
            # of the current cell, with its own coefficients; its first term
            # cancels against elem's, so sums merge, drop and insert terms
            now = elem.terms
            keys = (enumerate_basis(p, elem.n, d, elem.degree, p + 1)
                    if elem.n >= 1 else ())
            picks = data.draw(st.lists(st.sampled_from(keys), max_size=3)
                              if len(keys) else st.just([]))
            mine = {key: data.draw(st.integers(-p ** 4, p ** 4))
                    for key in [*now, *picks]}
            if now:
                key = next(iter(now))
                mine[key] = -now[key] if op == "+" else now[key]
            other = DRWElement(p, elem.n, d, elem.degree, mine)
            other_ref = _ref_new(p, elem.n, d, elem.degree, mine)
            _assert_same(other, other_ref)
            if op == "+":
                elem, ref = elem + other, _ref_add(ref, other_ref)
            else:
                elem = elem - other
                ref = _ref_add(ref, _ref_scalar_mul(other_ref, -1))
        elif op == "*":
            c = data.draw(st.integers(-p ** 4, p ** 4))
            elem, ref = elem.scalar_mul(c), _ref_scalar_mul(ref, c)
        else:
            elem, ref = act(op, elem), _ref_drw_act(op, ref)
        _assert_same(elem, ref)
