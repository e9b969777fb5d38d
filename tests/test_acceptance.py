"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Criteria 7 and 11 are implemented exactly as stated and are marked
as strict expected failures: the underlying claims are falsified by direct
computation (see the README and tests below for the counterexamples).
"""

import random
import time

import pytest

from wittkit import cech, checks, localcoh, steinberg, weyl, witt
from wittkit.rings import LaurentElem, PrimeFieldElem


def _report(num, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print("ACCEPTANCE criterion %02d: %s — %s (%.2fs)"
          % (num, status, detail, time.time() - t0), flush=True)
    return ok


def test_criterion_01_universal_polynomials():
    t0 = time.time()
    rng = random.Random(101)
    for p in (2, 3, 5):
        upw = witt.build_universal_polys(p, 4)  # integrality asserted inside
        upw.check_ghost_compat()                # symbolic identity over Z
        for n in range(1, 5):
            assert checks.witt_axioms(p, n, 200, rng)["failures"] == [], \
                (p, n)
        elapsed = time.time() - t0
    assert _report(1, elapsed < 10,
                   "universal polynomials integral+ghost-compatible, "
                   "ring axioms 200 triples/case", t0)


def test_criterion_02_wn_fp_iso():
    t0 = time.time()
    for p in (2, 3):
        for n in (1, 2, 3):
            q = p ** n
            elems = []

            def fill(i, acc):
                if i == n:
                    elems.append(witt.WittVector(
                        p, n, [PrimeFieldElem(p, v) for v in acc]))
                    return
                for v in range(p):
                    fill(i + 1, acc + [v])

            fill(0, [])

            def to_int(x):
                return sum(
                    (p ** i) * pow(x.coords[i].value, p ** (n - 1 - i), q)
                    for i in range(n)
                ) % q

            assert sorted(to_int(x) for x in elems) == list(range(q))
            for x in elems:
                for y in elems:
                    assert to_int(witt.witt_add(x, y)) == \
                        (to_int(x) + to_int(y)) % q
                    assert to_int(witt.witt_mul(x, y)) == \
                        (to_int(x) * to_int(y)) % q
    elapsed = time.time() - t0
    assert _report(2, elapsed < 1.0,
                   "W_n(F_p) = Z/p^n exhaustive tables, p in {2,3}, n <= 3",
                   t0)


def test_criterion_03_structure_identities():
    t0 = time.time()
    rng = random.Random(103)
    for p in (2, 3, 5):
        for n in range(1, 5):
            for _ in range(100):
                x = checks.fp_vector(p, n, rng)
                assert witt.frobenius(witt.verschiebung(x)) == \
                    witt.witt_scalar_mul(p, x)
                if n >= 2:
                    assert witt.verschiebung(witt.frobenius(x)) == \
                        witt.witt_scalar_mul(p, x)
                else:
                    # V o F factors through W_0 = 0, and p = 0 in W_1
                    assert witt.witt_scalar_mul(p, x).is_zero()
                a = PrimeFieldElem(p, rng.randrange(p))
                assert witt.frobenius(witt.teichmuller(a, n + 1)) == \
                    witt.teichmuller(a ** p, n)
                if n >= 2:
                    y = checks.fp_vector(p, n - 1, rng)
                    assert witt.witt_mul(x, witt.verschiebung(y)) == \
                        witt.verschiebung(witt.witt_mul(witt.frobenius(x), y))
                # V/R exactness: ker(R^r) = im(V^(n'))
                r = rng.randrange(1, 3)
                z = checks.fp_vector(p, r, rng)
                v = z
                for _ in range(n):
                    v = witt.verschiebung(v)
                red = v
                for _ in range(r):
                    red = witt.restrict(red)
                assert red.is_zero()
    assert _report(3, True,
                   "F V = p, x V(y) = V(F(x)y), F[a] = [a^p], V F = p, "
                   "V/R exactness on >=100 samples each", t0)


def test_criterion_04_w_tilde_and_F_tilde():
    t0 = time.time()
    rng = random.Random(104)
    # roundtrip on 100 samples
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.choice([2, 3])
        coords = []
        for _ in range(n):
            terms = {
                (rng.randrange(0, 4),): rng.randrange(1, p)
                for _ in range(rng.randrange(0, 3))
            }
            coords.append(LaurentElem(p, 1, 1, terms))
        x = witt.WittVector(p, n, coords)
        assert witt.tilde_w_inverse(witt.tilde_w(x)) == x
    # image cap p^i characterization on samples
    for _ in range(50):
        p, n = 2, 3
        coords = [
            LaurentElem(p, 1, 1,
                        {(rng.randrange(0, 4),): 1
                         for _ in range(rng.randrange(0, 2))})
            for _ in range(n)
        ]
        x = witt.WittVector(p, n, coords)
        w = witt.tilde_w(x)
        i = next((k for k in range(n) if not x.coords[k].is_zero()), n)
        vals = [c for c in w.terms.values()]
        div = min(
            (v_pow for v_pow in range(n + 1)
             if any(c % (p ** (v_pow + 1)) for c in vals)), default=n)
        assert div == i or not vals
    # F-tilde^2 over F_2[t]: exhaustive bijection onto closed forms, deg <= 6
    images = set()
    count = 0
    for b0 in range(2):
        for b1 in range(2):
            x1 = LaurentElem(2, 1, 1, {(0,): b0, (1,): b1})
            for bits in range(16):
                terms = {(e,): (bits >> e) & 1 for e in range(4)}
                x2 = LaurentElem(2, 1, 1, terms)
                val = witt.tilde_F(witt.WittVector(2, 2, [x1, x2]))
                key = tuple(sorted(val.terms.items()))
                assert key not in images
                images.add(key)
                count += 1
                assert all((e[0] * c) % 4 == 0 for e, c in val.terms.items())
    closed = set()
    for c0 in range(4):
        for c2 in (0, 2):
            for c4 in range(4):
                for c6 in (0, 2):
                    terms = {(e,): c for e, c in
                             ((0, c0), (2, c2), (4, c4), (6, c6)) if c}
                    closed.add(tuple(sorted(terms.items())))
    assert images == closed and count == 64
    elapsed = time.time() - t0
    assert _report(4, elapsed < 5,
                   "w-tilde roundtrip, p^i-image capture, F-tilde^2 "
                   "bijection onto closed forms of degree <= 6", t0)


def test_criterion_05_section3_relations():
    t0 = time.time()
    rng = random.Random(105)
    for which in checks.RELATIONS:
        for p in (2, 3):
            for n in (1, 2, 3):
                for d in (1, 2):
                    for rep in checks.wdiff_relation(which, p, n, d, 100, rng):
                        assert not rep["failures"], rep
    for _ in range(50):
        p = rng.choice([2, 3])
        rep = checks.lift_independence_check(
            p, rng.choice([1, 2]), rng.choice([1, 2]),
            rng.randrange(1, p * p + 1), 1, rng)
        assert not rep["failures"]
    elapsed = time.time() - t0
    assert _report(5, elapsed < 60,
                   "restriction/Frobenius/Verschiebung/filtration relations, "
                   "100 samples each; 50 engineered lift pairs", t0)


def test_criterion_06_weyl_normal_form_and_theta():
    t0 = time.time()
    rng = random.Random(106)
    for p in (2, 3, 5):
        for _ in range(200):
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
                 rng.randrange(1, p) for _ in range(2)})
            assert weyl.apply(weyl.normal_form(word, p, 1, nv), f) == \
                weyl.apply_word(word, f)
    # theta matrix units: exhaustive in one variable, then the exhaustive
    # two-variable case through the (verified) tensor factorization
    for p in (2, 3):
        for level in (1, 2):
            top = p ** level
            table = {}
            for i in range(top):
                for jj in range(top):
                    th = weyl.theta(p, level, (i,), (jj,))
                    for s in range(top):
                        zs = LaurentElem.monomial(p, 1, 1, (s,))
                        out = weyl.apply(th, zs)
                        want = (LaurentElem.monomial(p, 1, 1, (i,))
                                if s == jj else LaurentElem.zero(p, 1, 1))
                        assert out == want
                        table[(i, jj, s)] = (s == jj)
            for i1 in range(top):
                for j1 in range(top):
                    a = weyl.theta(p, level, (i1,), (j1,))
                    for i2 in range(top):
                        for j2 in range(top):
                            b = weyl.theta(p, level, (i2,), (j2,))
                            th2 = weyl.theta(p, level, (i1, i2), (j1, j2))
                            lift = {}
                            for (e1, r1), c1 in a.terms.items():
                                for (e2, r2), c2 in b.terms.items():
                                    lift[(e1 + e2, r1 + r2)] = c1 * c2
                            assert th2 == weyl.WeylElement(p, 1, 2, lift)
            # the divided action factors variable by variable, so the
            # two-variable matrix-unit table is the product of delta tables
            for i1 in range(top):
                for j1 in range(top):
                    for s1 in range(top):
                        for s2 in range(top):
                            assert (table[(i1, j1, s1)] and table[(0, 0, s2)]) \
                                == ((s1 == j1) and (s2 == 0))
    assert _report(6, True,
                   "normal form application-equivalent on 200 pairs per p; "
                   "theta matrix units exhaustive (1-var + factorization)",
                   t0)


@pytest.mark.xfail(
    strict=True,
    reason="falsified claim: z^r d^[s] with s+2 <= r <= 2s is not a "
           "global section (z^4 d^[2] sends z^-1 to binom(-1,2) z = z, a "
           "pole at infinity, and binom(-1,s) is a unit mod every p); the "
           "honest classification is 0 <= r <= s+1 — see the README",
)
def test_criterion_07_globality_classification():
    t0 = time.time()
    atlas = weyl.ChartAtlas(1)
    got = set()
    for r in range(0, 11):
        for s in range(0, 11):
            op = weyl.ChartOperator(
                0, weyl.WeylElement.monomial(3, 1, 1, (r,), (s,)))
            if weyl.is_global(op, atlas):
                got.add((r, s))
    want = {(r, s) for r in range(0, 11) for s in range(0, 11) if r <= 2 * s}
    ok = got == want
    _report(7, ok,
            "P^1 globality set == {0 <= r <= 2s} for r, s <= 10; "
            "counterexamples (claimed global, actually not): %s"
            % sorted(want - got)[:4], t0)
    assert ok


def test_criterion_08_drw_identities():
    t0 = time.time()
    for p in (2, 3):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                bound = 3 * p * p
                for i in range(d + 1):
                    _, fails = checks.drw_cell(p, n, d, i, bound)
                    assert fails == [], (p, n, d, i)
    elapsed = time.time() - t0
    assert _report(8, elapsed < 30,
                   "d^2 = 0, FV = VF = p, FdV = d, Vd = pdV, dF = pFd on "
                   "every basis element, numerators <= 3p^2", t0)


def test_criterion_09_cohomology_sweep():
    t0 = time.time()
    for p in (2, 3):
        for n in (1, 2, 3):
            for d in (1, 2, 3):
                for a in range(-4, 5):
                    lengths, ok = checks.cohomology_point(p, d, n, a)
                    assert ok, (p, n, d, a, lengths)
    specific = cech.witt_cohomology(2, 1, 2, -2)
    assert specific[1].length == 4
    # independent route: explicit layerwise Cech cokernel dimensions
    assert cech.hd_witt_length_by_cech(2, 1, 2, -2) == (4, [1, 3])
    vanish = cech.witt_cohomology(2, 2, 2, -1)
    assert vanish[2].length == 0
    assert cech.hd_witt_length_by_cech(2, 2, 2, -1) == (0, [0, 0])
    elapsed = time.time() - t0
    assert _report(9, elapsed < 300,
                   "line-bundle sweep matches layer sums; "
                   "len H^1(P^1, W_2 O(-2)) = 4; H^2(P^2, W_2 O(-1)) = 0",
                   t0)


def test_criterion_10_generation_algorithm():
    t0 = time.time()
    for (d, j, p) in ((2, 0, 3), (2, 1, 3), (3, 1, 3), (2, 0, 5)):
        # strict unit claims (p != 2) raise CoefficientVanished on failure
        rep = checks.generation_coverage(p, d, j, 2 * p + 1)
        assert rep["failures"] == [], (d, j, p)
    elapsed = time.time() - t0
    assert _report(10, elapsed < 120,
                   "generation coverage == brute-force I for "
                   "(2,0,3),(2,1,3),(3,1,3),(2,0,5), bound 2p+1, "
                   "all unit claims hold", t0)


@pytest.mark.xfail(
    strict=True,
    reason="falsified claim at n = 2: the unipotent radical of P_j "
           "escapes N — z_0 -> z_0 + z_1 on [z^(2,-1,-1)] produces the "
           "cross term V([z^(5,-2,-3)]), a nonzero class outside N (its "
           "level-1 digit lies in neither chart subring); so does the "
           "Levi block of z_1, z_2 at j = 0 — z_2 -> z_2 + z_1 gives "
           "V([2 z^(6,-2,-4)]) and V([2 z^(6,-1,-5)]); the torus "
           "stabilizes N — see the README",
)
def test_criterion_11_n_stability():
    t0 = time.time()
    ok = True
    detail = []
    for j in (0, 1):
        for n in (1, 2):
            rep = localcoh.stability_report(3, n, 2, j)
            if rep["failures"]:
                ok = False
                detail.append("j=%d n=%d: %d failures (first: %s)"
                              % (j, n, len(rep["failures"]),
                                 rep["failures"][0]["generator"]))
    _report(11, ok, "N stability under all elementary P_j generators, "
                    "p=3, d=2, n <= 2; %s" % "; ".join(detail) or "", t0)
    assert ok


def test_criterion_12_steinberg():
    t0 = time.time()
    # the rank table also checks exactness and freeness over Z
    assert checks.steinberg_ranks()["failures"] == []
    for (q, d, _) in checks.STEINBERG_RANKS:
        for n in (1, 2):
            repn = steinberg.acyclicity_check(
                q, d, tuple(range(d)), ring="Zpn", n=n)
            assert repn["exact"]
    elapsed = time.time() - t0
    assert _report(12, elapsed < 60,
                   "induction complexes acyclic over Z and Z/p^n (n <= 2); "
                   "ranks 2, 3, 8 torsion-free", t0)
