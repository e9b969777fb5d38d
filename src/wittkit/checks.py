"""Each identity check, written once, and the registry of `verify` suites.

The acceptance criteria call these functions on their own cells.  A suite in
``CHECKS`` takes the keywords ``p, n, samples, rng, d, j, bound``, ignores
those it does not use and returns its ``cases``, ``failures`` and parameters.
"""

from . import cech, localcoh, steinberg, witt, wittdiff
from .drw import DRWElement, act, enumerate_basis
from .rings import PrimeFieldElem, v_p
from .weyl import WeylElement
from .wittdiff import RELATIONS, apply_witt, partial_op, random_witt_vector

STEINBERG_RANKS = ((2, 1, 2), (3, 1, 3), (2, 2, 8))


def fp_vector(p, n, rng):
    """A random element of W_n(F_p), one rng.randrange(p) per coordinate."""
    return witt.WittVector(
        p, n, [PrimeFieldElem(p, rng.randrange(p)) for _ in range(n)])


def witt_axioms(p, n, samples, rng, **_):
    """Ring axioms, FV = p and xV(y) = V(F(x)y), by name, on random triples."""
    add, mul = witt.witt_add, witt.witt_mul
    F, V = witt.frobenius, witt.verschiebung
    if n < 1:
        raise ValueError("need n >= 1, got n = %d" % n)
    if samples < 1:
        raise ValueError("need samples >= 1, got samples = %d" % samples)
    fails = []
    for _ in range(samples):
        x, y, z = (fp_vector(p, n, rng) for _ in range(3))
        checks = [("add assoc", add(add(x, y), z) == add(x, add(y, z))),
                  ("mul assoc", mul(mul(x, y), z) == mul(x, mul(y, z))),
                  ("add comm", add(x, y) == add(y, x)),
                  ("mul comm", mul(x, y) == mul(y, x)),
                  ("distributivity",
                   mul(x, add(y, z)) == add(mul(x, y), mul(x, z))),
                  ("neg", add(x, witt.witt_neg(x)).is_zero())]
        if n >= 2:
            y1 = witt.restrict(y)
            checks += [("FV=p", F(V(x)) == witt.witt_scalar_mul(p, x)),
                       ("xV(y)=V(F(x)y)", mul(x, V(y1)) == V(mul(F(x), y1)))]
        fails += [name for name, ok in checks if not ok]
    return {"p": p, "n": n, "cases": samples, "failures": fails}


def wdiff_relation(which, p, n, d, samples, rng):
    """``wittdiff.check_relation``'s reports for d^[r], r = 1..p^2 in order."""
    return [wittdiff.check_relation(which, p, n, d, r, samples, rng)
            for r in range(1, p * p + 1)]


def wdiff_relations(p, n, samples, rng, **_):
    """The four relations at n <= 3 for d = 1, 2."""
    n = min(n, 3)
    reports = [rep for which in RELATIONS for d in (1, 2)
               for rep in wdiff_relation(which, p, n, d, samples, rng)]
    return {"p": p, "n": n, "cases": sum(r["cases"] for r in reports),
            "failures": [{"relation": r["relation"], "d": r["d"], "r": r["r"]}
                         for r in reports if r["failures"]]}


def lift_independence_check(p, n, d, r, pairs, rng, j=0):
    """Restrictions of two lifts differing by p^(v_p(r)+1) g d^[r] agree."""
    L = n + 1
    vq = v_p(r, p) or 0
    base = partial_op(p, d, j, r, L)
    failures = []
    for _ in range(pairs):
        e = tuple(rng.randrange(0, 3) for _ in range(d))
        g = rng.randrange(1, p)
        rr = [0] * d
        rr[j] = r
        extra = WeylElement.monomial(
            p, L, d, e, rr, coeff=g * (p ** (vq + 1))
        )
        x = random_witt_vector(p, L, d, rng)
        if apply_witt(base, x) != apply_witt(base + extra, x):
            failures.append(x.to_json())
    return {"pairs": pairs, "failures": failures}


def drw_cell(p, n, d, i, bound):
    """d^2 = 0, FV = VF = p, FdV = d, Vd = pdV and dF = pFd on one cell.

    Returns the number of basis elements of degree i with numerators <= bound
    and the weight keys of those that fail; each is checked on its own.
    """
    keys = enumerate_basis(p, n, d, i, bound)
    fails = []
    for wkey, parts in keys:
        e = DRWElement(p, n, d, i, {(wkey, parts): 1})
        if e.is_zero():
            continue
        de, ve, fe = act("d", e), act("V", e), act("F", e)
        dve, pe = act("d", ve), e.scalar_mul(p)
        if not (act("d", de).is_zero() and act("F", ve) == pe
                and act("V", fe) == pe and act("F", dve) == de
                and act("V", de) == dve.scalar_mul(p)
                and act("d", fe) == act("F", de).scalar_mul(p)):
            fails.append(list(wkey))
    return len(keys), fails


def drw_identities(p, n, **_):
    """Every cell at n <= 3, d <= 3: numerators <= 3p^2, or 6 at d = 3."""
    n, cases, fails = min(n, 3), 0, []
    for d in (1, 2, 3):
        for i in range(d + 1):
            count, bad = drw_cell(p, n, d, i, 3 * p * p if d < 3 else 6)
            cases += count
            fails += [{"d": d, "i": i, "weight": w} for w in bad]
    return {"p": p, "n": n, "cases": cases, "failures": fails}


def cohomology_point(p, d, n, a):
    """The lengths of H^i(P^d, W_nO(a)), and whether they match layer_sums."""
    res = cech.witt_cohomology(p, d, n, a)
    lengths = [res[i].length for i in range(d + 1)]
    h0, hd = cech.layer_sums(p, d, n, a)
    return lengths, lengths == [h0] + [0] * (d - 1) + [hd]


def cohomology_sweep(p, n, d, **_):
    """Every point -4 <= a <= 4 at n <= 3, on P^d or on P^1, P^2 and P^3."""
    n, rows, fails = min(n, 3), [], []
    for dd in (1, 2, 3) if d is None else (d,):
        for a in range(-4, 5):
            lengths, ok = cohomology_point(p, dd, n, a)
            rows.append({"d": dd, "a": a, "lengths": lengths})
            if not ok:
                fails.append({"d": dd, "a": a})
    return {"p": p, "n": n, "cases": len(rows), "failures": fails,
            "rows": rows}


def generation_coverage(p, d=None, j=0, bound=None, **_):
    """The vectors of I in the box that the generation run misses."""
    d = 2 if d is None else d
    bound = 2 * p + 1 if bound is None else bound
    rep = localcoh.generation_run(p, d, j, bound)
    return {"p": p, "d": d, "j": j, "bound": bound, "cases": rep["target"],
            "failures": rep["missing"]}


def steinberg_ranks(**_):
    """Steinberg modules of GL_(d+1)(F_q): exact, free, of the tabled rank."""
    fails = []
    for q, d, want in STEINBERG_RANKS:
        rep = steinberg.steinberg_rank(q, d)
        if not (rep["rank"] == want and rep["free"] and rep["exact"]):
            fails.append({"q": q, "d": d, "got": rep})
    return {"cases": len(STEINBERG_RANKS), "failures": fails}


CHECKS = {
    "witt-axioms": witt_axioms, "wdiff-relations": wdiff_relations,
    "drw-identities": drw_identities, "cohomology-sweep": cohomology_sweep,
    "localgen": generation_coverage, "steinberg": steinberg_ranks,
}
