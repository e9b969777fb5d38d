import json
import random
from itertools import product
from math import comb, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_witt import witt_sub, witt_sum
from test_wittdiff import monomial_case_split
from wittkit import sparse
from wittkit.cech import slice_cohomology_dims
from wittkit.localcoh import (
    CoefficientVanished,
    _box_size,
    _degree_zero,
    CohClass,
    GeneratorModule,
    enumerate_index,
    generation_run,
    index_seed,
    parabolic_action,
    parabolic_in_pj,
    pj_generators,
    stability_report,
    y_action,
)
from wittkit.rings import LaurentElem, ScaleExceeded, VariableMismatch
from wittkit.weyl import (
    ChartAtlas,
    ChartOperator,
    WeylElement,
    gen_binom,
    is_global,
)
from wittkit.witt import (
    teich_scalar,
    teichmuller,
    tilde_w,
    verschiebung,
    witt_mul,
    witt_scalar_mul,
    _MAX_GENERATION_WORK,
    _MAX_STABILITY_WORK,
    _generation_walk_size,
    _generation_work,
    _stability_work,
)
from wittkit.wittdiff import apply_witt, partial_op


# -- index sets --------------------------------------------------------------

def test_index_seed_examples():
    assert index_seed(2, 0) == [(2, -1, -1)]
    assert index_seed(2, 1) == [(0, 1, -1), (1, 0, -1)]
    # d = j: the module is zero and the index set empty
    assert index_seed(2, 2) == []
    assert enumerate_index(2, 2, 3) == []


def test_enumerate_index():
    got = enumerate_index(2, 1, 2)
    assert (1, 1, -2) in got and (0, 1, -1) in got
    assert all(sum(u) == 0 for u in got)
    assert set(index_seed(2, 1)) <= set(got)


def test_enumerate_index_and_seeds_match_brute_force():
    for d in range(1, 5):
        for j in range(d):
            for bound in range(6):
                want = [
                    u for u in product(range(-bound, bound + 1), repeat=d + 1)
                    if sum(u) == 0 and min(u[:j + 1]) >= 0
                    and max(u[j + 1:]) < 0
                ]
                assert enumerate_index(d, j, bound) == want, (d, j, bound)
                if bound >= d - j:  # every seed numerator is at most d - j
                    assert index_seed(d, j) == [
                        u for u in want if set(u[j + 1:]) == {-1}]


# -- classes ------------------------------------------------------------------

def test_kill_rule():
    c = CohClass(3, 2, 2, 0, {(0, (1, 0, -1)): 1})
    assert c.is_zero()
    c = CohClass(3, 2, 2, 0, {(0, (2, -1, -1)): 1})
    assert not c.is_zero()


def test_identity_on_index_region():
    c = CohClass(3, 2, 2, 0, {(0, (2, -1, -1)): 1})
    assert c.symbols() == {(0, (2, -1, -1)): 1}
    assert c.terms == {(6, -3, -3): 1}  # the w~ image z^(p^(n-1) u)


def test_p_rescale():
    c = CohClass.symbol(3, 2, 2, 0, 0, (2, -1, -1)).scalar_mul(3)
    assert c.symbols() == {(1, (6, -3, -3)): 1}
    # p^n * anything dies
    assert CohClass.symbol(3, 2, 2, 0, 0, (2, -1, -1)).scalar_mul(9).is_zero()


def test_digit_canonical_form():
    # 3 [M] = [M] + V([M^2]) over F_2
    a = CohClass.symbol(2, 2, 2, 1, 0, (3, 0, -3)).scalar_mul(3)
    b = CohClass(2, 2, 2, 1, {(0, (3, 0, -3)): 1, (1, (6, 0, -6)): 1})
    assert a == b


def test_cohclass_json_round_trip():
    # the constructor's form: each image term at its least level
    x = CohClass.symbol(3, 2, 2, 0, 0, (2, -1, -1))
    assert x.to_json() == {"p": 3, "n": 2, "d": 2, "j": 0, "terms": [
        {"l": 0, "u": [2, -1, -1], "c": 1}]}
    y = CohClass(3, 3, 2, 0, {(0, (2, -1, -1)): 5, (1, (4, -1, -3)): 7,
                              (2, (3, -2, -1)): 2, (1, (6, -3, -3)): 3})
    assert y.coefficients() == {(0, (2, -1, -1)): 5 + 3 * 3,
                                (1, (4, -1, -3)): 7, (2, (3, -2, -1)): 2}
    images = [parabolic_action(g, y) for g in pj_generators(3, 2, 0)]
    for c in [x, y, CohClass.zero(2, 3, 3, 1), *images]:
        back = CohClass.from_json(json.loads(json.dumps(c.to_json())))
        assert back == c and back.symbols() == c.symbols()


@pytest.mark.parametrize("bad", [
    {"p": 3, "n": 2, "d": 2, "terms": []},  # no j
    {"p": 3, "n": 2, "d": 2, "j": 0, "terms": [{"l": 0, "u": [2, -1, -1]}]},
    {"p": 3, "n": 2, "d": 2, "j": 0,
     "terms": [{"l": 0, "u": [2, -1, -1], "c": 1.5}]},
    {"p": 3, "n": 2, "d": 2, "j": 0,
     "terms": [{"l": True, "u": [2, -1, -1], "c": 1}]},
    {"p": 3, "n": 2, "d": 2, "j": 0,
     "terms": [{"l": -1, "u": [2, -1, -1], "c": 1}]},
    {"p": 3, "n": 2, "d": 2, "j": 0,
     "terms": [{"l": 0, "u": [1, -1], "c": 1}]},
    {"p": 3, "n": 2, "d": 2, "j": 0,
     "terms": [{"l": 0, "u": [2, -1, -1], "c": 1}] * 2},
])
def test_cohclass_from_json_refuses_malformed_input(bad):
    with pytest.raises(VariableMismatch):
        CohClass.from_json(bad)


def test_cohclass_repr_shows_ring_and_symbols():
    x = CohClass.symbol(3, 2, 2, 0, 0, (2, -1, -1)).scalar_mul(4)
    assert repr(x) == ("CohClass(p=3, n=2, d=2, j=0, symbols="
                       "{(0, (2, -1, -1)): 1, (1, (6, -3, -3)): 1})")


def test_class_addition_matches_witt_arithmetic():
    from wittkit.witt import witt_add, witt_scalar_mul
    rng = random.Random(2)
    for _ in range(40):
        p, n, d, j = rng.choice([2, 3]), rng.choice([2, 3]), 2, rng.randrange(2)
        chart = 0
        chart_vars = [s for s in range(d + 1) if s != chart]
        cl = CohClass.zero(p, n, d, j)
        w = None
        for _ in range(2):
            u = rng.choice(enumerate_index(d, j, 2))
            l = rng.randrange(0, n)
            c = rng.randrange(1, p ** (n - l))
            cl = cl + CohClass.symbol(p, n, d, j, l, u).scalar_mul(c)
            ce = tuple(u[s] for s in chart_vars)
            mono = LaurentElem.monomial(p, 1, d, ce, 1,
                                        allowed_negative=range(d))
            x = witt_scalar_mul(c, teichmuller(mono, n - l))
            for _ in range(l):
                x = verschiebung(x)
            w = x if w is None else witt_add(w, x)
        # evaluate the canonical class back and compare
        parts = []
        for (l, u), lam in sorted(cl.symbols().items()):
            ce = tuple(u[s] for s in chart_vars)
            mono = LaurentElem.monomial(p, 1, d, ce, lam,
                                        allowed_negative=range(d))
            x = teichmuller(mono, n - l)
            for _ in range(l):
                x = verschiebung(x)
            parts.append(x)
        if parts:
            assert witt_sum(parts) == w
        else:
            assert w.is_zero()


# -- the y operators -----------------------------------------------------------

def test_y_action_classical_example():
    x = CohClass.symbol(3, 1, 2, 0, 0, (2, -1, -1))
    out = y_action(0, 1, 1, x)
    assert out.symbols() == {(0, (3, -2, -1)): 2}  # binom(-1,1) = -1 = 2 mod 3


def test_y_action_order_zero_is_identity():
    """y^[0] is the identity at every level, including n - l >= 2, where
    v_p(0) must read as +infinity in the case split."""
    for p in (2, 3):
        for n in (1, 2, 3):
            for l in range(n):
                for coeff in (1, p + 1):
                    x = CohClass.symbol(p, n, 2, 0, l, (2, -1, -1), coeff)
                    assert y_action(0, 1, 0, x) == x, (p, n, l, coeff)
                    assert y_action(2, 0, 0, x) == x, (p, n, l, coeff)


def test_y_action_commutes_with_v():
    # y(V([z^u])) = V(y([z^u])) through the derversch relation
    for p, n in ((2, 2), (3, 3)):
        x1 = CohClass.symbol(p, n, 2, 0, 1, (2, -1, -1))
        x0 = CohClass.symbol(p, n - 1, 2, 0, 0, (2, -1, -1))
        lhs = y_action(0, 1, 1, x1)
        rhs = y_action(0, 1, 1, x0)
        assert lhs.symbols() == {(l + 1, u): c
                                 for (l, u), c in rhs.symbols().items()}


def test_y_action_cross_oracle():
    """Symbolwise action equals the full w-tilde conjugation route.

    The coefficient runs over [1, p^(n-l)), so a symbol may carry a digit
    other than 1 and spill into deeper levels; the oracle acts on the
    coefficient-1 symbol and multiplies its image by the coefficient.
    Reading a stored digit as an integer coefficient first fails this
    test between the 200th and the 300th draw.
    """
    rng = random.Random(2)
    for _ in range(400):
        d = rng.choice([2, 3])
        j = rng.randrange(0, d)
        p = rng.choice([2, 3])
        n = rng.choice([1, 2, 3])
        u = rng.choice(enumerate_index(d, j, 3))
        l = rng.randrange(0, n)
        i = rng.randrange(0, j + 1)
        li = rng.choice([s for s in range(d + 1) if s != i])
        r = rng.randrange(0, p * p + 1)
        coeff = rng.randrange(1, p ** (n - l))
        cls = CohClass.symbol(p, n, d, j, l, u, coeff)
        got = y_action(i, li, r, cls)
        chart_vars = [s for s in range(d + 1) if s != i]
        ce = tuple(u[s] for s in chart_vars)
        mono = LaurentElem.monomial(p, 1, d, ce, 1, allowed_negative=range(d))
        xw = teichmuller(mono, n - l)
        op = partial_op(p, d, chart_vars.index(li), r, n - l)
        out = apply_witt(op, xw)  # then shift by V^l (derversch)
        raw = {}
        for lev, coord in enumerate(out.coords):
            for e, cc in coord.terms.items():
                amb = [0] * (d + 1)
                for k, s in enumerate(chart_vars):
                    amb[s] = e[k]
                amb[i] = -sum(amb)
                key = (l + lev, tuple(amb))
                raw[key] = (raw.get(key, 0)
                            + coeff * teich_scalar(cc, p, n - l - lev))
        assert got == CohClass(p, n, d, j, raw)
        # and term by term on the image, where w~(V^l(y)) = p^l w~(y)
        want = {}
        for e, cc in tilde_w(out).terms.items():
            v = ChartAtlas(d).from_chart(i, e)
            cc = coeff * p ** l * cc % p ** n
            if cc and max(v[j + 1:]) < 0:
                want[v] = cc
        assert got.terms == want


def _random_class(rng, p, n, d, j, symbols=3):
    """A sum of a few symbols with coefficients in [1, p^(n-l))."""
    terms = {}
    for _ in range(symbols):
        l = rng.randrange(0, n)
        u = rng.choice(enumerate_index(d, j, 3))
        terms[(l, u)] = terms.get((l, u), 0) + rng.randrange(1, p ** (n - l))
    return CohClass(p, n, d, j, terms)


@pytest.mark.parametrize("n", [2, 3])
def test_y_action_is_linear(n):
    """y(c x) = c y(x) over W_n(F_p), where stored digits differ from
    their Teichmuller lifts (p = 3, n >= 2)."""
    p = 3
    rng = random.Random(31 + n)
    for _ in range(150):
        d = rng.choice([2, 3])
        j = rng.randrange(0, d)
        x = _random_class(rng, p, n, d, j)
        c = rng.randrange(1, p ** n)
        i = rng.randrange(0, j + 1)
        li = rng.choice([s for s in range(d + 1) if s != i])
        r = rng.randrange(1, p * p + 1)
        assert (y_action(i, li, r, x.scalar_mul(c))
                == y_action(i, li, r, x).scalar_mul(c)), (d, j, c, i, li, r)


@pytest.mark.parametrize("n", [2, 3])
def test_parabolic_action_is_linear(n):
    """g(c x) = c g(x) for torus and unipotent generators of P_j."""
    p = 3
    rng = random.Random(41 + n)
    for _ in range(60):
        d = rng.choice([2, 3])
        j = rng.randrange(0, d)
        x = _random_class(rng, p, n, d, j)
        c = rng.randrange(1, p ** n)
        g = rng.choice(pj_generators(p, d, j))
        assert (parabolic_action(g, x.scalar_mul(c))
                == parabolic_action(g, x).scalar_mul(c)), (d, j, c, g)


# -- generation ---------------------------------------------------------------

@pytest.mark.parametrize("d,j,p", [(2, 0, 3), (2, 1, 3), (3, 1, 3), (2, 0, 5)])
def test_generation_full_coverage(d, j, p):
    rep = generation_run(p, d, j, 2 * p + 1)
    assert rep["missing"] == []
    assert rep["reached"] == rep["target"]
    # iteration r covers everything with |m| <= rp + 1
    for it in rep["iterations"]:
        assert it["covered"] == it["box"]


def test_box_size_counts_the_index_set():
    for d in range(1, 5):
        for j in range(d):
            for floor in range(13):
                assert _box_size(d, j, floor) == \
                    len(enumerate_index(d, j, floor)), (d, j, floor)


def test_generation_iteration_growth():
    rep = generation_run(3, 2, 0, 7)
    floors = [it["floor"] for it in rep["iterations"]]
    assert floors == [4, 7]
    boxes = [it["box"] for it in rep["iterations"]]
    assert boxes[0] < boxes[1]


def test_generation_p2_experimental():
    rep = generation_run(2, 2, 0, 5)
    assert rep["missing"] == []
    # the char != 2 hypothesis is visible: claimed units genuinely vanish
    assert rep["vanished_claims"]
    with pytest.raises(CoefficientVanished):
        generation_run(2, 2, 0, 5, strict_claims=True)


def test_y_move_unit_claim_is_falsified_at_p3_bound10():
    # The y_ab^[s] move claims binom(m, s) is a unit mod p whenever
    # m = p - 1 mod p.  By Lucas' theorem binom(m, p) mod p is the next
    # p-adic digit of m, so the claim fails at s = p when that digit is 0:
    # m = -7 = 2 + 0*3 + ... in base 3, and binom(-7, 3) = -84 = -28 * 3.
    p, m = 3, -7
    assert m % p == p - 1 and (m // p) % p == 0
    assert gen_binom(m, p) == -84 and gen_binom(m, p) % p == 0
    with pytest.raises(CoefficientVanished,
                       match=r"y\[3\]_02 at \(8, -1, -7\)"):
        generation_run(3, 2, 0, 10, strict_claims=True)


def test_generation_operators_are_global():
    """Every operator the algorithm applies is a global section of D."""
    from test_weyl import y_operator
    for p, d in ((3, 2), (5, 2)):
        atlas = ChartAtlas(d)
        # y_{ab}^[s] for s <= p: plain divided derivatives in the chart V_a
        for s in range(1, p + 1):
            assert is_global(y_operator(0, 1, s, d, p), atlas)
        # the corrected p-th power T_{ax}^(p-1) y_{xa}^[p], one chart variable
        e = [0] * d
        e[0] = p - 1
        r = [0] * d
        r[0] = p
        op = ChartOperator(0, WeylElement.monomial(p, 1, d, e, r))
        assert is_global(op, atlas)
        # single derivatives y_{xa}
        op = ChartOperator(0, WeylElement.monomial(p, 1, d, [0] * d,
                                                   [1] + [0] * (d - 1)))
        assert is_global(op, atlas)


# -- the move-table search against the generator search it replaced ------------
#
# _ref_generation_run is the generator-based search as it stood before the
# move table, kept verbatim (renamed) as the reference, except that its
# per-pass records no longer list their missing vectors.  It still builds
# the target and each pass's box as sets, so its counts are an independent
# check of the closed-form ones.

def _ref_generation_run(p, d, j, bound, n=1, trace=False, strict_claims=None):
    """Run the three-step generation procedure and report coverage.

    Starting from the seed vectors I_j, the moves are the proof's operator
    repertoire: y_{ab}^[s] for a <= j < b and 1 <= s <= p, and inside the
    numerator block the corrected p-th powers T_{ax}^(p-1) y_{xa}^[p] and the
    single derivatives y_{xa}.  A move happens only when its binomial
    coefficient is a unit mod p; moves the proof asserts to be units raise
    CoefficientVanished if the assertion fails (under the theorem hypothesis
    p != 2; the experimental p = 2 mode records the falsified claims
    instead).  Coverage is compared against the brute-force enumeration of I
    within the bound after each iteration.
    """
    if n != 1:
        raise ValueError("the generation theorem reduces to n = 1")
    if strict_claims is None:
        strict_claims = p != 2
    seeds = index_seed(d, j)
    num_cap = bound * (d - j) + p + 1
    reached = set(seeds)
    steps = []
    vanished = []
    target_all = set(enumerate_index(d, j, bound))
    per_iteration = []

    def in_work_box(u):
        return all(-bound <= v <= num_cap for v in u)

    def moves(u):
        for a in range(j + 1):
            for b in range(j + 1, d + 1):
                for s in range(1, p + 1):
                    coeff = gen_binom(u[b], s) % p
                    claimed = (u[b] % p == p - 1)
                    yield ("y[%d]_%d%d" % (s, a, b), coeff, claimed,
                           _ref_move(u, a, b, s))
        for a in range(j + 1):
            for x in range(j + 1):
                if x == a:
                    continue
                coeff = gen_binom(u[a], p) % p
                claimed = p <= u[a] <= 2 * p - 1
                yield ("T^%d y[%d]_%d%d" % (p - 1, p, x, a), coeff, claimed,
                       _ref_move(u, x, a, 1))
                coeff1 = u[a] % p
                claimed1 = 1 <= u[a] <= p - 1
                yield ("y_%d%d" % (x, a), coeff1, claimed1,
                       _ref_move(u, x, a, 1))

    r_iter = 0
    floor = 1
    while floor < bound:
        r_iter += 1
        floor = min(r_iter * p + 1, bound)
        frontier = list(reached)
        while frontier:
            u = frontier.pop()
            for name, coeff, claimed, v in moves(u):
                if not in_work_box(v):
                    continue
                if max(-min(v), 0) > floor:
                    continue
                if coeff == 0:
                    if claimed:
                        if strict_claims:
                            raise CoefficientVanished(
                                "claimed unit vanished: %s at %r" % (name, u)
                            )
                        vanished.append({"op": name, "at": list(u)})
                    continue
                if v not in reached:
                    reached.add(v)
                    frontier.append(v)
                    if trace:
                        steps.append({"op": name, "from": list(u),
                                      "to": list(v)})
        box_r = {
            u for u in target_all if all(abs(x) <= floor for x in u)
        }
        missing_r = box_r - reached
        per_iteration.append(
            {"iteration": r_iter, "floor": floor,
             "covered": len(box_r) - len(missing_r), "box": len(box_r)}
        )
    missing = sorted(target_all - reached)
    report = {
        "p": p, "d": d, "j": j, "bound": bound,
        "target": len(target_all),
        "reached": len(target_all) - len(missing),
        "missing": [list(u) for u in missing],
        "iterations": per_iteration,
        "vanished_claims": vanished,
    }
    if trace:
        report["steps"] = steps
    return report


def _ref_move(u, raise_idx, lower_idx, s):
    v = list(u)
    v[raise_idx] += s
    v[lower_idx] -= s
    return tuple(v)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_generation_matches_reference_search(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    d = data.draw(st.integers(1, 3))
    j = data.draw(st.integers(0, d - 1))
    bound = data.draw(st.integers(0, 2 * p + 3))
    trace = data.draw(st.booleans())
    strict = data.draw(st.sampled_from([None, True, False]))
    outcomes = []
    for run in (generation_run, _ref_generation_run):
        try:
            outcomes.append(run(p, d, j, bound, trace=trace,
                                strict_claims=strict))
        except CoefficientVanished as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("cell,kwargs", [
    ((3, 4, 1, 7), {"trace": True, "strict_claims": False}),
    ((2, 4, 1, 5), {}),
    ((5, 4, 1, 11), {}),  # the benchmark's heaviest cell
])
def test_generation_matches_reference_search_at_d4(cell, kwargs):
    assert generation_run(*cell, **kwargs) == \
        _ref_generation_run(*cell, **kwargs)


def _walk_reached(p, d, j, bound):
    """The vectors a non-strict walk reaches: its seeds and traced steps."""
    rep = generation_run(p, d, j, bound, trace=True, strict_claims=False)
    return len(index_seed(d, j)) + len(rep["steps"])


def test_generation_walk_size_counts_the_walk():
    # full walks reach exactly the estimate
    for cell, size in (((3, 2, 0, 7), 49), ((3, 3, 1, 9), 891),
                       ((5, 3, 1, 11), 1573)):
        assert _generation_walk_size(*cell[1:]) == size
        assert _walk_reached(*cell) == size, cell
    # elsewhere it is an upper bound
    assert _generation_walk_size(3, 1, 10) == 1200
    assert _walk_reached(3, 3, 1, 10) == 891
    for p in (2, 3):
        for d in range(1, 4):
            for j in range(d):
                for bound in range(2 * p + 2):
                    assert (_walk_reached(p, d, j, bound)
                            <= _generation_walk_size(d, j, bound)), \
                        (p, d, j, bound)


def test_used_generation_cells_are_under_the_walk_limit():
    # criterion 10, verify localgen at p <= 31 (d = 2, bound 2p + 1) and the
    # benchmark's cells
    cells = [(3, 2, 0, 7), (3, 2, 1, 7), (3, 3, 1, 7), (5, 2, 0, 11)]
    cells += [(p, 2, 0, 2 * p + 1) for p in (2, 3, 5, 7, 11, 13, 31)]
    cells += [(3, 2, 0, 9), (3, 2, 1, 9), (3, 3, 0, 9), (3, 3, 1, 9),
              (5, 3, 0, 11), (5, 3, 1, 11), (5, 4, 1, 11)]
    for cell in cells:
        assert _generation_work(*cell) <= _MAX_GENERATION_WORK, cell


def test_oversized_generation_run_is_refused_before_any_work(monkeypatch):
    import wittkit.localcoh as localcoh

    def work(*args):
        raise AssertionError("the walk started")
    monkeypatch.setattr(localcoh, "index_seed", work)
    monkeypatch.setattr(localcoh, "enumerate_index", work)
    with pytest.raises(ScaleExceeded,
                       match="p = 3, d = 4, j = 1, bound = 200"):
        generation_run(3, 4, 1, 200)
    assert _generation_work(5, 4, 1, 26) > _MAX_GENERATION_WORK


# -- the parabolic action -------------------------------------------------------

def test_torus_eigenvector():
    x = CohClass.symbol(3, 1, 2, 0, 0, (2, -1, -1))
    out = parabolic_action(("torus", (2, 1, 1)), x)
    # eigenvalue prod t_i^(-m_i) = 2^(-2) = 1 mod 3
    assert out == x
    out = parabolic_action(("torus", (2, 2, 1)), x)
    # 2^(-2) * 2^(1) = 2 mod 3
    assert out == x.scalar_mul(2)


def test_unipotent_truncated_geometric_series():
    # n=1: z_2^(-1) expands as a kill-rule-truncated geometric series;
    # multiplying the expansion back by (z_2 + c z_1) recovers the numerator
    # z_0^3 z_1^-2 modulo killed monomials
    p, d, j = 3, 2, 0
    c = 2
    x = CohClass.symbol(p, 1, d, j, 0, (3, -2, -1))
    out = parabolic_action(("unipotent", (1, 2, c)), x)
    assert len(out.symbols()) == 2  # truncation at k < -m_1 = 2
    prod = {}
    for (l, u), lam in out.symbols().items():
        assert l == 0
        for add_idx, mult in ((2, 1), (1, c)):
            v = list(u)
            v[add_idx] += 1
            key = tuple(v)
            prod[key] = (prod.get(key, 0) + lam * mult) % p
    prod = {k: v for k, v in prod.items() if v}
    assert prod.pop((3, -2, 0)) == 1
    # every remaining discrepancy lies in the killed region
    assert all(any(k[s] >= 0 for s in (1, 2)) for k in prod)


def test_unipotent_char_two_guard():
    # (z_0 + z_1)^3 over F_2 has four odd binomials: the image of [z^(3,0,-3)]
    # is [sum_k z^(3-k,k,-3)] in W_2, a Teichmuller lift of four summands at
    # p = 2; no exponent is killed, so the class is that whole Witt vector
    x = CohClass.symbol(2, 2, 2, 1, 0, (3, 0, -3))
    img = parabolic_action(("unipotent", (1, 0, 1)), x)
    q = _laurent(2, {(3 - k, k, -3): 1 for k in range(4)})
    assert _witt_value(2, 2, img.symbols()) == teichmuller(q, 2)


def test_pj_membership_guard():
    x = CohClass.symbol(3, 1, 2, 0, 0, (2, -1, -1))
    with pytest.raises(ValueError):
        parabolic_action(("unipotent", (0, 2, 1)), x)  # u <= j < v forbidden


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (5, 2), (2, 2), (2, 3)])
def test_pj_group_law(p, n):
    """On every level-0 symbol [z^u] of I with entries up to 2p at d = 2,
    j = 0: x(a) x(b) = x(a + b) for x(c): z_2 -> z_2 + c z_1, and the GL_2
    Weyl relation, x_12(1) x_21(-1) x_12(1) sends [z^u] to
    -(-1)^(p^(n-1) u_1) [z^(u_0,u_2,u_1)].

    The sign is that of the integer matrix on the w~ image z^(p^(n-1) u),
    times the -1 of swapping the two inverted coordinates of the Cech
    class; for odd p it is -(-1)^(u_1), and at p = 2 it is -1 in W_n(F_2)
    from n = 2 on.  An action that cuts the series before the Teichmuller
    lift breaks both laws from n = 2 on: at (p, n) = (3, 2) the Weyl
    relation held on 7 of the 15 symbols.
    """
    d, j = 2, 0

    def x(c, cls, root=(1, 2)):
        return parabolic_action(("unipotent", root + (c,)), cls)

    for u in enumerate_index(d, j, 2 * p):
        cls = CohClass.symbol(p, n, d, j, 0, u)
        for a in range(1, p):
            for b in range(1, p):
                assert x(a, x(b, cls)) == x((a + b) % p, cls), (u, a, b)
        sign = -(-1) ** (p ** (n - 1) * u[1] % 2)
        want = CohClass.symbol(p, n, d, j, 0, (u[0], u[2], u[1]), sign)
        assert x(1, x(-1, x(1, cls), (2, 1))) == want, u


def test_generator_module_membership():
    mod = GeneratorModule(3, 2, 2, 0)
    gens = mod.generators()
    assert (0, (2, -1, -1)) in gens
    assert (1, (6, -3, -3)) in gens
    assert mod.contains_symbol(1, (2, -1, -1))
    assert not mod.contains_symbol(0, (5, -2, -3))
    assert not mod.contains_symbol(0, (6, -3, -3))  # r=1 needs l >= 1


def test_stability_levi_and_torus():
    """N is closed under the torus and both Levi blocks at n = 1, and under
    the torus at n = 2; the Levi block GL_2 of z_1, z_2 escapes N at
    (p, n, d, j) = (3, 2, 2, 0).

    z_2 -> z_2 + c z_1 on [z^(2,-1,-1)] expands z_2^(-3) in the w~ image
    z^(6,-3,-3); its level-1 cross terms V([2 z^(6,-2,-4)]) and
    V([2 z^(6,-1,-5)]) (c = 1) have inverted entries that are not all
    equal, so they lie outside N.  Swapping z_1 and z_2 gives the same for
    z_1 -> z_1 + c z_2.
    """
    escapes = set()
    for j in (0, 1):
        for n in (1, 2):
            mod = GeneratorModule(3, n, 2, j)
            gens = [
                g for g in pj_generators(3, 2, j)
                if g[0] == "torus"
                or not (g[1][0] > j >= g[1][1])  # exclude the radical
            ]
            for (l, w) in mod.generators():
                x = CohClass.symbol(3, n, 2, j, l, w)
                for g in gens:
                    if not mod.contains(parabolic_action(g, x)):
                        escapes.add((j, n, g, l, w))
    assert escapes == {(0, 2, ("unipotent", g), 0, (2, -1, -1))
                       for g in ((1, 2, 1), (1, 2, 2), (2, 1, 1), (2, 1, 2))}
    x = CohClass.symbol(3, 2, 2, 0, 0, (2, -1, -1))
    img = parabolic_action(("unipotent", (1, 2, 1)), x)
    assert {(1, (6, -2, -4)): 2, (1, (6, -1, -5)): 2}.items() <= (
        img.symbols().items())


def test_stability_full_at_n1():
    for j in (0, 1):
        rep = stability_report(3, 1, 2, j)
        assert not rep["failures"]


def test_stability_radical_defect_at_n2():
    """The unipotent radical escapes N at n = 2 (see the README).

    g: z_0 -> z_0 + z_1 on [z^(2,-1,-1)] produces the Verschiebung cross
    term V([z^(5,-2,-3)]), whose level-1 digit lies in neither chart
    subring, hence is a nonzero class outside N.
    """
    x = CohClass.symbol(3, 2, 2, 0, 0, (2, -1, -1))
    img = parabolic_action(("unipotent", (1, 0, 1)), x)
    mod = GeneratorModule(3, 2, 2, 0)
    assert not mod.contains(img)
    assert (1, (5, -2, -3)) in img.symbols()
    rep = stability_report(3, 2, 2, 0)
    assert rep["failures"]
    assert all("unipotent" in f["generator"] for f in rep["failures"])


@pytest.mark.parametrize("cell", [
    (3, 1, 2, 0), (3, 2, 2, 0), (3, 2, 2, 1), (3, 3, 2, 0), (5, 2, 2, 0),
    (2, 2, 3, 0), (2, 2, 3, 1), (2, 3, 3, 2), (3, 2, 4, 1), (5, 1, 3, 1),
])
def test_stability_work_bounds_the_series_expanded(monkeypatch, cell):
    """witt._stability_work bounds the series terms stability_report
    expands, and is within a factor 4 of them on these cells.

    A substitution on a one-term class gives one exponent per series term,
    so the terms are counted as the exponents handed to the kill rule, less
    the one term of each generator symbol of N; torus generators add none.
    """
    seen = []
    clean = CohClass._clean_terms

    def counted(self, terms, *args):
        seen.append(len(terms))
        return clean(self, terms, *args)
    monkeypatch.setattr(CohClass, "_clean_terms", counted)
    stability_report(*cell)
    series = sum(seen) - len(GeneratorModule(*cell).generators())
    assert 0 < series <= _stability_work(*cell) <= 4 * series, series


def test_oversized_stability_report_is_refused_before_any_work(monkeypatch):
    def work(*args):
        raise AssertionError("the check started")
    monkeypatch.setattr(GeneratorModule, "generators", work)
    with pytest.raises(ScaleExceeded, match="p = 7, n = 4, d = 6, j = 0"):
        stability_report(7, 4, 6, 0)
    # criterion 11 and every stability run of the tests stay under the limit
    cells = [(3, n, 2, j) for n in (1, 2, 3) for j in (0, 1)]
    cells += [(5, 2, 2, 0), (2, 2, 3, 0), (3, 2, 4, 1), (5, 1, 3, 1)]
    for cell in cells:
        assert _stability_work(*cell) <= _MAX_STABILITY_WORK, cell


# -- the class actions against independent routes -------------------------------
#
# _ref_y_action is y_action as it stood before classes were held as their w~
# image, kept as the reference: the case formula of monomial_case_split on
# each symbol, renamed, and without its docstring and comments.
# _ref_parabolic_action is route (b), Witt arithmetic in W_n of the Laurent
# ring over F_p: each symbol V^l([lambda z^u]) goes to V^l([g(lambda z^u)]),
# where a series in an inverted coordinate is cut at
# K = p^(n-1) (sum |u_neg| + 1) + 2 terms, far past the last term that
# reaches an unkilled monomial of the image; the Witt sum is then peeled
# into symbols level by level with witt_sub and witt_sum, and the kill rule
# comes last, so nothing is cut before the Teichmuller lift.

def _ref_y_action(i, l_idx, r, c):
    p, n, d, j = c.p, c.n, c.d, c.j
    out = {}
    for (l, u), lam in c.symbols().items():
        coeff = teich_scalar(lam, p, n - l)
        rem = n - l
        chart_vars = [s for s in range(d + 1) if s != i]
        slot = chart_vars.index(l_idx)
        chart_u = tuple(u[s] for s in chart_vars)
        if rem == 1:
            b = gen_binom(u[l_idx], r) % p
            if b == 0:
                continue
            v = list(u)
            v[i] += r
            v[l_idx] -= r
            key = (l, tuple(v))
            out[key] = out.get(key, 0) + coeff * b
            continue
        res = monomial_case_split(p, rem, slot, r, 0, coeff, chart_u)
        if res is None:
            continue
        layer, unit, root = res
        amb = [0] * (d + 1)
        for k, s in enumerate(chart_vars):
            amb[s] = root[k]
        amb[i] = -sum(amb)
        key = (l + layer, tuple(amb))
        out[key] = out.get(key, 0) + unit
    return CohClass(p, n, d, j, out)


def _laurent(p, terms):
    nv = len(next(iter(terms)))
    return LaurentElem(p, 1, nv, terms, tuple(range(nv)))


def _lifted(p, m, k, q):
    """V^k([q]) in W_m for q = {exponent: coefficient} over F_p."""
    x = teichmuller(_laurent(p, q), m - k)
    for _ in range(k):
        x = verschiebung(x)
    return x


def _witt_value(p, m, symbols):
    """sum V^k([lambda z^w]) over the symbols {(k, w): lambda}, in W_m of
    the Laurent ring over F_p, by Witt arithmetic alone."""
    return witt_sum([_lifted(p, m, k, {w: lam})
                     for (k, w), lam in symbols.items()])


def _ref_parabolic_action(g, x):
    kind, args = g
    p, n, d, j = x.p, x.n, x.d, x.j
    if not parabolic_in_pj(kind, args, j, d):
        raise ValueError("generator does not lie in P_j")
    parts = []
    for (l, u), lam in x.symbols().items():
        if kind == "torus":
            q = {u: lam * prod(pow(t, -e, p) for t, e in zip(args, u))}
        else:
            uu, vv, cc = args
            mv = u[vv]
            cut = p ** (n - 1) * (sum(-e for e in u if e < 0) + 1) + 2
            q = {}
            for k in range(mv + 1 if mv >= 0 else cut):
                e = list(u)
                e[vv] -= k
                e[uu] += k
                q[tuple(e)] = lam * gen_binom(mv, k) * cc ** k
        parts.append(_lifted(p, n, l, q))
    terms = {}
    if parts:
        total = witt_sum(parts)
        for l in range(n):
            coord = total.coords[l].terms
            if coord:
                total = witt_sub(total, witt_sum(
                    [_lifted(p, n, l, {e: c}) for e, c in coord.items()]))
            for e, c in coord.items():
                terms[(l, e)] = teich_scalar(c, p, n - l)
    return CohClass(p, n, d, j, terms)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@st.composite
def _classes(draw):
    """A class of one to three symbols with coefficients in [1, p^(n-l)),
    so that digits other than 1 and carries to deeper levels occur."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    d = draw(st.integers(2, 3))
    j = draw(st.integers(0, d - 1))
    index = enumerate_index(d, j, 3)
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        l = draw(st.integers(0, n - 1))
        u = draw(st.sampled_from(index))
        terms[(l, u)] = (terms.get((l, u), 0)
                         + draw(st.integers(1, p ** (n - l) - 1)))
    return CohClass(p, n, d, j, terms)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_y_action_matches_reference(data):
    x = data.draw(_classes())
    i = data.draw(st.integers(0, x.d))
    li = data.draw(st.sampled_from([s for s in range(x.d + 1) if s != i]))
    r = data.draw(st.integers(0, x.p * x.p + 1))
    assert (_outcome(y_action, i, li, r, x)
            == _outcome(_ref_y_action, i, li, r, x))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_parabolic_action_matches_reference(data):
    x = data.draw(_classes())
    g = data.draw(st.sampled_from(pj_generators(x.p, x.d, x.j)))
    # at p = 5, n = 3 a generator mixing two inverted coordinates sends the
    # reference through Witt sums of series of about 100 terms raised to the
    # 25th power: 30-90 s a draw on a 2-vCPU VM.  Every other draw is kept.
    assume(not (x.p ** (x.n - 1) == 25 and g[0] == "unipotent"
                and g[1][1] > x.j))
    assert (_outcome(parabolic_action, g, x)
            == _outcome(_ref_parabolic_action, g, x))


def test_teich_sum_lone_summand_lifts_its_digit():
    """A lone summand b z^e below the top level is V^l([b z^e]), whose
    image carries the Teichmuller lift of b: [2] = 8 in Z/9 and 26 in Z/27
    at p = 3, not 2; the peel reads the digit 2 back."""
    q = {(1, -1, 0): 2}
    assert sparse.power(q, 3, 9) == {(3, -3, 0): 8}
    assert sparse.power(q, 9, 27) == {(9, -9, 0): 26}
    for m in (2, 3):
        assert _assert_teich_sum(3, m, q) == {(0, (1, -1, 0)): 2}


# -- Teichmuller sums read off w~ by the peel, against Witt arithmetic -----------

def _peel(p, m, image):
    """CohClass's peel on a w~ image in W_m of a Laurent ring with every
    variable inverted, where nothing is killed."""
    nv = len(next(iter(image)))
    return CohClass._trusted(p, m, nv, image, range(nv)).symbols()


def _assert_teich_sum(p, m, q):
    """The peel of [q]'s image q^(p^(m-1)) mod p^m against Witt arithmetic."""
    symbols = _peel(p, m, sparse.power(q, p ** (m - 1), p ** m))
    want = teichmuller(_laurent(p, q), m)
    assert _witt_value(p, m, symbols) == want, (p, m, q)
    return symbols


def test_teich_sum_two_summands_p2():
    # [a + b] = [a] + [b] + V([ab]) in W_2 over F_2
    assert _assert_teich_sum(2, 2, {(1, 0): 1, (0, 1): 1}) == {
        (0, (1, 0)): 1, (0, (0, 1)): 1, (1, (1, 1)): 1}


@pytest.mark.parametrize("i,n", [(1, 2), (2, 2), (1, 3)])
def test_teich_sum_three_summands_oracle(i, n):
    # [z_0 + z_1 + z_2]^i = [(z_0 + z_1 + z_2)^i] over F_3
    s = _laurent(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    terms = _peel(3, n, sparse.power((s ** i).terms, 3 ** (n - 1), 3 ** n))
    assert all(sum(w) == 3 ** k * i for (k, w) in terms)
    t = acc = teichmuller(s, n)
    for _ in range(i - 1):
        acc = witt_mul(acc, t)
    assert _witt_value(3, n, terms) == acc


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_teich_sum_terms_witt_oracle(p, m):
    rng = random.Random(100 * p + m)
    for r in (1, 2, 3, 3, 4):
        q = {}
        while len(q) < r:
            e = tuple(rng.randrange(-2, 3) for _ in range(3))
            q[e] = rng.randrange(1, p)
        _assert_teich_sum(p, m, q)


def test_teich_sum_of_a_long_substitution():
    # z_0 -> z_0 + z_1 on [z^(8,-4,-4)] at p = 5, n = 3: eight summands
    # binom(8, k) z^(8-k, k-4, -4) raised to the 25th power mod 125
    q = {(8 - k, k - 4, -4): comb(8, k) % 5 for k in range(9)
         if comb(8, k) % 5}
    assert len(q) == 8
    _assert_teich_sum(5, 3, q)
    x = CohClass.symbol(5, 3, 2, 0, 0, (8, -4, -4))
    assert len(parabolic_action(("unipotent", (1, 0, 1)), x).symbols()) == 93


# -- cross-checks ----------------------------------------------------------------

def small_case_crosscheck(p, d, j, n, bound):
    """Compare symbol counts with the complement-cover Cech computation.

    For d - j in {1, 2} the complement P^d minus P^j is covered by the charts
    D_+(z_s), s > j.  Every V-layer of W_n O on the complement sees the same
    untwisted classical complex, so the level-l symbol count in a box must
    equal the top cohomology of the chart-cover slice complexes, computed
    degree by degree with honest F_p rank arithmetic (minus the constants
    when d - j = 1, where H~ is a cokernel of W_n(k)).
    """
    if d == j:
        return {"match": True, "symbols_per_level": [], "cech_per_level": [],
                "note": "zero module"}
    if d - j not in (1, 2):
        raise ValueError("crosscheck is desk-scale: d - j in {1, 2}")
    # box: inverted exponents in [-bound, ..); numerators are then forced
    # into [0, bound*(d-j)] by homogeneity, so nothing is clipped
    symbols = _degree_zero(d, j, bound * (d - j), -bound, -1)
    per_level_symbols = [len(symbols)] * n
    charts = list(range(j + 1, d + 1))
    top = d - j - 1
    cech_dim = 0
    for e in _degree_zero(d, j, bound * (d - j), -bound, bound):
        pattern = frozenset(s for s, v in enumerate(e) if v < 0)
        if not pattern <= frozenset(charts):
            continue
        hs = slice_cohomology_dims(d, p, pattern, ground=charts)
        cech_dim += hs[top]
    if d - j == 1:
        cech_dim -= 1  # quotient by the constants W_n(k)
    cech_per_level = [cech_dim] * n
    return {
        "match": cech_per_level == per_level_symbols,
        "symbols_per_level": per_level_symbols,
        "cech_per_level": cech_per_level,
    }


@pytest.mark.parametrize("p,d,j,n,bound", [
    (3, 1, 0, 2, 4), (2, 2, 0, 2, 3), (3, 2, 1, 1, 3), (2, 3, 1, 1, 2),
])
def test_small_case_crosscheck(p, d, j, n, bound):
    rep = small_case_crosscheck(p, d, j, n, bound)
    assert rep["match"], rep


def test_crosscheck_zero_module():
    assert small_case_crosscheck(3, 2, 2, 1, 3)["match"]
