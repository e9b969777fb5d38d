import json
import random
import tracemalloc
from collections.abc import Sequence
from functools import reduce
from itertools import product
from math import comb, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit import witt
from wittkit.drw import (
    DRWElement,
    Inadmissible,
    act,
    enumerate_basis,
    _partitions,
)
from wittkit.rings import LaurentElem, ScaleExceeded, VariableMismatch, v_p
from wittkit.witt import _MAX_BASIS_SIZE, _basis_size


class Weight:
    """A weight function j -> r_j = u_j * p^(v_j) with p not dividing u_j.

    ``entries`` maps variable index (0-based) to the pair (u, v); absent
    indices carry r_j = 0.  The support order sorts by (v_j, j): ascending
    valuation, ties broken by variable index, which is stable under
    multiplication by powers of p.
    """

    __slots__ = ("p", "d", "entries")

    def __init__(self, p, d, entries):
        self.p = p
        self.d = d
        clean = {}
        for j, (u, v) in entries.items():
            if not (0 <= j < d):
                raise ValueError("variable index out of range")
            if u == 0:
                continue
            if u < 0 or u % p == 0:
                raise ValueError("numerator must be positive and prime to p")
            clean[j] = (u, v)
        self.entries = clean

    def key(self):
        return tuple(sorted((j, u, v) for j, (u, v) in self.entries.items()))

    def support(self):
        """Support in the canonical order (valuation, then index)."""
        return sorted(self.entries, key=lambda j: (self.entries[j][1], j))


# -- the integer weight a = p^(n-1) r and the (j, u, v) triples of r -------

def _triples_of(p, n, a):
    """The ``Weight.key()`` triples of r = a / p^(n-1)."""
    out = []
    for j, x in enumerate(a):
        if x:
            v = v_p(x, p)
            out.append((j, x // p ** v, v - (n - 1)))
    return tuple(out)


def _a_of(p, n, d, triples):
    """The integer weight a = p^(n-1) r of an admissible weight key."""
    a = [0] * d
    for j, u, v in triples:
        a[j] = u * p ** (v + n - 1)
    return tuple(a)


def _as_triples(p, n, terms):
    """{(a, parts): c} as {(triples, parts): c} at level n."""
    return {(_triples_of(p, n, a), parts): c
            for (a, parts), c in terms.items()}


def _as_a(p, n, d, terms):
    """{(triples, parts): c} as {(a, parts): c} at level n."""
    return {(_a_of(p, n, d, triples), parts): c
            for (triples, parts), c in terms.items()}


def _triple_terms(elem):
    return _as_triples(elem.p, elem.n, elem.terms)


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
    return DRWElement(p, n, d, len(parts) - 1,
                      {(_a_of(p, n, d, weight.key()), parts): 1})


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


# _ref_partitions is drw._partitions as it stood before the support cut:
# compositions of |supp| into i parts behind an empty I_0, then into i + 1
# parts.  Kept (renamed) as the reference.

def _ref_partitions(supp, i):
    L = len(supp)

    def compos(total, parts):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(1, total - parts + 2):
            for rest in compos(total - first, parts - 1):
                yield (first,) + rest

    def cut(sizes, with_empty_head):
        blocks = []
        pos = 0
        if with_empty_head:
            blocks.append(())
        for s in sizes:
            blocks.append(supp[pos:pos + s])
            pos += s
        return tuple(blocks)

    if i == 0:
        return [(supp,)]
    return ([cut(sizes, True) for sizes in compos(L, i)]
            + [cut(sizes, False) for sizes in compos(L, i + 1)])


@pytest.mark.parametrize("size", range(8))
def test_partitions_match_the_composition_reference(size):
    """The support cut gives the compositions' lists in the same order, for
    every degree up to 8, on a support in index order and on a shuffled one."""
    for supp in (tuple(range(size)), tuple(random.Random(size).sample(
            range(2 * size), size))):
        for i in range(9):
            assert _partitions(supp, i) == _ref_partitions(supp, i), (supp, i)


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
    assert _triple_terms(out) == {(want_w.key(), ((0,),)): 1}
    assert out.n == 3


def test_act_v_scalar_p_branch():
    # V(T^r) = p T^(r/p) when r/p stays integral
    w = Weight(3, 1, {0: (1, 1)})  # r = p
    e = basis_element(3, 2, 1, w.key(), ((0,),))
    out = act("V", e)
    want_w = Weight(3, 1, {0: (1, 0)})
    assert _triple_terms(out) == {(want_w.key(), ((0,),)): 3}


def test_act_f_case():
    # p=2, n=2, r=1 integral: F(e^1(1,1)) = e^1(1,2), scalar 1
    w = Weight(2, 1, {0: (1, 0)})
    e = basis_element(2, 2, 1, w.key(), ((), (0,)))
    out = act("F", e)
    want_w = Weight(2, 1, {0: (1, 1)})
    assert _triple_terms(out) == {(want_w.key(), ((), (0,))): 1}


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
    a lazy sequence and spoke integer weights: the reference for its keys
    and their order."""
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
        out += [(_a_of(p, n, d, wkey), parts) for parts in parts_list]
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
                for a, parts in enumerate_basis(p, n, d, i, p * p):
                    e = basis_element(p, n, d, _triples_of(p, n, a), parts)
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
    # from their Weight.key() triples, coefficients beyond p^(n-u) included
    rng = random.Random(p)
    n, d = 2, 2
    for i in range(d + 1):
        keys = enumerate_basis(p, n, d, i, 2 * p)
        for _ in range(20):
            picks = rng.sample(keys, min(len(keys), 4))
            coeffs = [rng.randrange(-p ** (n + 1), p ** (n + 1))
                      for _ in picks]
            combo = DRWElement(p, n, d, i, dict(zip(picks, coeffs)))
            summands = [basis_element(p, n, d, _triples_of(p, n, a),
                                      parts).scalar_mul(c)
                        for (a, parts), c in zip(picks, coeffs)]
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
    key = ((3,), ((), (0,)))  # r = 1 at p = 3, n = 2
    x = DRWElement(3, 2, 1, 1, {key: 1})
    assert DRWElement.from_json(x.to_json()) == x
    for which, degree, n in (("d", 2, 2), ("F", 2, 1), ("d", 3, 1)):
        x = act(which, x)
        assert (x.degree, x.n, x.is_zero()) == (degree, n, True)
        doc = json.loads(json.dumps(x.to_json()))
        assert doc["terms"] == [] and DRWElement.from_json(doc) == x


def test_level_zero_reads_back_and_refuses_f():
    """F of a level-1 element is the zero element of level 0, as
    W_0 Omega = 0: it reads back, V and d apply to it, and F is refused."""
    x = act("F", DRWElement(3, 1, 1, 0, {((1,), ((0,),)): 1}))
    assert (x.n, x.is_zero()) == (0, True)
    assert DRWElement.from_json(json.loads(json.dumps(x.to_json()))) == x
    assert act("V", x) == DRWElement(3, 1, 1, 0, {})
    assert act("d", x) == DRWElement(3, 0, 1, 1, {})
    with pytest.raises(ValueError, match="F needs n >= 1, got n = 0"):
        act("F", x)


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
    # with no terms the level may be 0 (W_0 Omega = 0), but not negative
    (dict(_doc(), n=-1, terms=[]), ValueError, "need n >= 0, got n = -1"),
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
    """A level, a degree and a {(a, parts): c} dict of basis keys.

    Keys come from enumerate_basis, each a scaled by p^k for some k <= n + 1
    (which keeps its support order), so t runs past the thresholds n - 1
    and n; half the degree-0 draws add the zero weight, and coefficients
    run past p^(n-u) and below zero.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(1, 3))
    i = draw(st.integers(0, d))
    keys = enumerate_basis(p, n, d, i, p + 1)
    picks = [(tuple([x * p ** draw(st.integers(0, n + 1)) for x in a]
                    if draw(st.booleans()) else a), parts)
             for a, parts in draw(st.lists(st.sampled_from(keys),
                                           min_size=1, max_size=6))]
    if i == 0 and draw(st.booleans()):
        picks.append(((0,) * d, ((),)))
    big = p ** (n + 2)
    terms = {key: draw(st.integers(-big, big)) for key in picks}
    return p, n, d, i, terms


@settings(max_examples=300, deadline=None)
@given(drw_combinations(), st.sampled_from("FVd"))
def test_property_act_matches_case_formulas(cell, which):
    p, n, d, i, terms = cell
    elem = DRWElement(p, n, d, i, terms)
    ref = _as_triples(p, n, terms)
    assert _triple_terms(elem) == _ref_reduce(p, n, ref)
    level, want = _ref_act(which, p, n, ref)
    out = act(which, elem)
    assert (out.n, _triple_terms(out)) == (level, want)
    assert out.degree == i + (which == "d")
    # the same symbols, in the same order, as the constructor makes of them
    assert out == DRWElement(p, level, d, out.degree, _as_a(p, level, d, want))


def _ops(elem, word, c):
    """elem and what the constructor, act, + and scalar_mul make of it
    along the word, F of a level-0 element refused."""
    yield elem
    for op in word:
        if op == "+":
            elem = elem + elem.scalar_mul(c)
        elif op == "*":
            elem = elem.scalar_mul(c)
        elif op == "F" and elem.n == 0:
            with pytest.raises(ValueError, match="F needs n >= 1"):
                act(op, elem)
        else:
            elem = act(op, elem)
        yield elem


@settings(max_examples=200, deadline=None)
@given(drw_combinations(), st.lists(st.sampled_from("FVd+*"), max_size=5),
       st.integers(-30, 30))
def test_property_stored_values_are_canonical(cell, word, c):
    """Every term built by the constructor, act, + or scalar_mul holds the
    least valuation t of a and a value 0 < x < p^n divisible by p^u,
    u = max(0, n-1-t), and the terms are sorted, one per symbol."""
    p, n, d, i, terms = cell
    for elem in _ops(DRWElement(p, n, d, i, terms), word, c):
        q = p ** elem.n
        for a, t, parts, x in elem.pairs:
            assert t == min([v_p(y, p) for y in a if y], default=inf)
            assert 0 < x < q and x % p ** max(0, elem.n - 1 - t) == 0
        assert elem.pairs == sorted(elem.pairs)
        assert len({(a, parts) for a, _, parts, _ in elem.pairs}) \
            == len(elem.pairs)


@settings(max_examples=200, deadline=None)
@given(drw_combinations(), st.data())
def test_property_sum_matches_plain_dicts(cell, data):
    p, n, d, i, terms = cell
    other = dict(zip(terms, data.draw(
        st.lists(st.integers(-p ** 4, p ** 4), min_size=len(terms),
                 max_size=len(terms)))))
    total = DRWElement(p, n, d, i, terms) + DRWElement(p, n, d, i, other)
    merged = {k: terms[k] + other[k] for k in terms}
    assert _triple_terms(total) == _ref_reduce(p, n,
                                               _as_triples(p, n, merged))
    assert total == DRWElement(p, n, d, i, merged)


@settings(max_examples=200, deadline=None)
@given(drw_combinations(), st.lists(st.sampled_from("FV"), min_size=1,
                                    max_size=4))
def test_property_f_and_v_return_the_same_key_objects(cell, word):
    """F and V keep each surviving term's a, t and partition as the very
    objects of the term they start from."""
    p, n, d, i, terms = cell
    elem = DRWElement(p, n, d, i, terms)
    keys = {(id(a), id(parts)): t for a, t, parts, _ in elem.pairs}
    for op in word:
        if op == "F" and elem.n == 0:
            continue
        elem = act(op, elem)
        for a, t, parts, _ in elem.pairs:
            assert keys[id(a), id(parts)] is t


@settings(max_examples=200, deadline=None)
@given(drw_combinations())
def test_property_d_only_prepends_an_empty_block(cell):
    """d keeps a and t, prepends () to the partition, and drops exactly the
    terms whose I_0 is empty or whose value p^(t-n+1) x vanishes."""
    p, n, d, i, terms = cell
    elem = DRWElement(p, n, d, i, terms)
    out = act("d", elem)
    assert all(parts[0] == () for _, _, parts, _ in out.pairs)
    assert [(a, t, parts[1:]) for a, t, parts, _ in out.pairs] == [
        (a, t, parts) for a, t, parts, x in elem.pairs
        if parts[0] and x * p ** max(0, t - n + 1) % p ** n]


def _weight_pairs(d, triples):
    pairs = [[0, 0] for _ in range(d)]
    for j, u, v in triples:
        pairs[j] = [u, v]
    return pairs


def test_to_json_sorts_by_the_weight_triples():
    """to_json lists terms by (Weight.key() triples, partition), as it did
    when those were the keys, not by a: a = (0, 1) sorts before (1, 0), but
    its triples ((1, 1, 0),) sort after ((0, 1, 0),)."""
    x = DRWElement(3, 1, 2, 0, {((0, 1), ((1,),)): 1, ((1, 0), ((0,),)): 2})
    assert [a for a, _, _, _ in x.pairs] == [(0, 1), (1, 0)]
    assert x.to_json()["terms"] == [
        {"weight": [[1, 0], [0, 0]], "partition": [[0]], "c": 2},
        {"weight": [[0, 0], [1, 0]], "partition": [[1]], "c": 1}]
    for p, n, d, i in product((2, 3), (1, 3), (2, 3), (0, 1)):
        keys = enumerate_basis(p, n, d, i, p + 1)
        x = DRWElement(p, n, d, i, {key: k + 1 for k, key in enumerate(keys)})
        want = sorted(_triple_terms(x).items())
        assert [(t["weight"], t["partition"], t["c"])
                for t in x.to_json()["terms"]] == [
            (_weight_pairs(d, triples), [list(b) for b in parts], c)
            for (triples, parts), c in want]


# -- degree 0 through Witt vectors: c e(r) = c V^u([T^(p^u r)]) ------------

@st.composite
def degree_zero(draw):
    """A degree-0 {(a, parts): c} dict over F_p[T_1..T_d], d <= 3, n <= 4,
    the zero weight among its keys, coefficients past p^n and below 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, 3))
    keys = enumerate_basis(p, n, d, 0, p * p + 1)
    picks = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4))
    big = p ** (n + 1)
    return p, n, d, {key: draw(st.integers(-big, big)) for key in picks}


def _witt_vector(p, n, d, terms):
    """The sum of c V^u([T^(p^u r)]), u = max(0, n-1-t), in W_n, each
    summand built from its coordinates: T^(p^u r) in slot u."""
    zero = LaurentElem(p, 1, d, {})
    vectors = [witt.WittVector(p, n, [zero] * n)]
    for (a, _), c in terms.items():
        u = max(0, n - 1 - min([v_p(x, p) for x in a if x], default=n))
        coords = [zero] * n
        coords[u] = LaurentElem(
            p, 1, d, {tuple([x // p ** (n - 1 - u) for x in a]): 1})
        vectors.append(witt.witt_scalar_mul(c, witt.WittVector(p, n, coords)))
    return reduce(witt.witt_add, vectors)


def _images(elem):
    return {a: x for a, _, _, x in elem.pairs}


@settings(max_examples=300, deadline=None)
@given(degree_zero())
def test_property_degree_zero_is_the_witt_image(cell):
    """A degree-0 element's {a: x} is w~ of its Witt vector, since
    w~(V^u [T^(p^u r)]) = p^u T^a; and act's F and V agree with
    witt.frobenius and witt.verschiebung through w~."""
    p, n, d, terms = cell
    elem = DRWElement(p, n, d, 0, terms)
    w = _witt_vector(p, n, d, terms)
    assert _images(elem) == witt.tilde_w(w).terms
    assert _images(act("V", elem)) \
        == witt.tilde_w(witt.verschiebung(w)).terms
    if n >= 2:
        assert _images(act("F", elem)) \
            == witt.tilde_w(witt.frobenius(w)).terms
    else:  # F into W_0 = 0
        assert act("F", elem).is_zero()


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


def _ref_triples(base, shift):
    """The weight key of a symbol's (base, shift)."""
    return tuple([(j, u, v + shift) for (j, u, v) in base])


def _assert_same(elem, ref):
    space, pairs = ref
    assert elem.space == space
    assert _triple_terms(elem) == {(_ref_triples(base, shift), parts): c
                                   for (base, shift, parts), c in pairs}
    assert elem.pairs == sorted(elem.pairs)


@settings(max_examples=300, deadline=None)
@given(drw_combinations(), st.data(),
       st.lists(st.sampled_from("FVd+-*"), max_size=6))
def test_property_flat_terms_match_the_nested_pairs(cell, data, word):
    """Constructor, F/V/d words, sums, differences and scalar multiples
    agree with the nested-pair kernel on space and terms, and keep their
    terms sorted; F of a level-0 element is refused."""
    p, n, d, i, terms = cell
    elem = DRWElement(p, n, d, i, terms)
    ref = _ref_new(p, n, d, i, _as_triples(p, n, terms))
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
            other_ref = _ref_new(p, elem.n, d, elem.degree,
                                 _as_triples(p, elem.n, mine))
            _assert_same(other, other_ref)
            if op == "+":
                elem, ref = elem + other, _ref_add(ref, other_ref)
            else:
                elem = elem - other
                ref = _ref_add(ref, _ref_scalar_mul(other_ref, -1))
        elif op == "*":
            c = data.draw(st.integers(-p ** 4, p ** 4))
            elem, ref = elem.scalar_mul(c), _ref_scalar_mul(ref, c)
        elif op == "F" and elem.n == 0:
            with pytest.raises(ValueError, match="F needs n >= 1"):
                act(op, elem)
        else:
            elem, ref = act(op, elem), _ref_drw_act(op, ref)
        _assert_same(elem, ref)
