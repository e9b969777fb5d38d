"""The benchmark's workloads, each run cold in a fresh process.

``run.py`` starts this script once per repetition, with ``src`` on
``PYTHONPATH``, and reads the JSON line it prints last.  Everything before
the first job (interpreter start, importing wittkit and its CLI parser,
generating the seeded inputs) is set-up; the jobs follow, and every verdict
compares two independent routes or a known answer.  Only public wittkit
names are called; private caches are read with ``getattr(..., {})`` so that
they may be removed without editing the benchmark.

By hand, from the repository root:

    PYTHONPATH=src python3 perfbench/workloads.py --workload drw-basis \\
        --seed 1 --scale smoke --trace 1
"""

import argparse
import json
import operator
import random
import resource
import statistics
import time
from math import comb

from probe import Pace, Probe, Tally

# Terms of the universal sum, product and negation polynomials together;
# a known answer that any representation of them must reproduce.
POLY_TERMS = {(2, 3): 33, (3, 3): 50, (5, 4): 42016, (2, 6): 39512}

SIZES = {
    "witt-universal": {
        # the two heavy shapes: 8 variables of degree <= 125, and 12
        # variables of degree <= 32
        "full": {"shapes": ((5, 4), (2, 6)), "fp_pairs": 8,
                 "laurent_pairs": 1, "triples": 40},
        "smoke": {"shapes": ((2, 3), (3, 3)), "fp_pairs": 2,
                  "laurent_pairs": 1, "triples": 2},
    },
    "drw-basis": {
        # (p, n, d, numerator bound) cells, every degree i of each
        "full": {"cells": [(2, n, d, 12) for n in (1, 2, 3)
                           for d in (1, 2, 3)] + [(3, 2, 3, 22)],
                 "combos": 100},
        "smoke": {"cells": [(2, 1, 2, 4), (3, 2, 2, 3)], "combos": 3},
    },
    "laurent-checks": {
        "full": {
            "relation_p": (2, 3), "relation_n": (1, 2, 3),
            "relation_samples": 50,
            "words": 8000, "laurent_pairs": 4000, "witt_triples": 200,
            "cech_sweep": ((2, 3), (1, 2, 3), (1, 2, 3), range(-4, 5)),
            "cech_extra": ((2, 4, 4, 6),),
            "generation": ((3, 2, 0, 7), (3, 2, 1, 7), (3, 3, 1, 7),
                           (5, 2, 0, 11), (3, 2, 0, 9), (3, 2, 1, 9),
                           (3, 3, 0, 9), (3, 3, 1, 9), (5, 3, 0, 11),
                           (5, 3, 1, 11), (5, 4, 1, 11)),
            "steinberg": ((2, 1, 2), (3, 1, 3), (2, 2, 8)),
        },
        "smoke": {
            "relation_p": (2,), "relation_n": (1,), "relation_samples": 2,
            "words": 5, "laurent_pairs": 5, "witt_triples": 2,
            "cech_sweep": ((2,), (1, 2), (2,), range(-2, 3)),
            "cech_extra": (),
            "generation": ((3, 2, 0, 7),),
            "steinberg": ((2, 1, 2),),
        },
    },
}

# Process-global caches that must start empty: every CLI call and pytest
# session starts from a fresh interpreter, and so does every repetition.
COLD_CACHES = ("witt._POLY_CACHE", "witt._EXPAND2_CACHE", "drw._ACT_CACHE",
               "drw.DRWElement._u_cache")


def cache_size(wk, path):
    """Entries of a private cache; 0 once a refactor has removed it."""
    obj = wk
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return len(obj or {})


# ----------------------------------------------------------------------
# witt-universal
# ----------------------------------------------------------------------

def witt_universal(wk, rng, size, probe, tally):
    """Universal polynomials for the heavy shapes, from a cold cache.

    Nearly all time is sparse multivariate products and powers; the
    specialisation step then reads what the build wrote.  The seed draws
    the F_p and Laurent vectors.
    """
    witt, rings = wk.witt, wk.rings
    build = probe.wrap("witt.build", witt.build_universal_polys)
    ghost_check = probe.wrap("witt.ghost_check",
                             lambda polys: polys.check_ghost_compat())
    via_add = probe.wrap("witt.specialize", witt.witt_add_via_polys)
    via_mul = probe.wrap("witt.specialize", witt.witt_mul_via_polys)
    via_neg = probe.wrap("witt.specialize", witt.witt_neg_via_polys)
    add = probe.wrap("witt.ghost_arith", witt.witt_add)
    mul = probe.wrap("witt.ghost_arith", witt.witt_mul)
    neg = probe.wrap("witt.ghost_arith", witt.witt_neg)

    def fp_vector(p, n):
        return witt.WittVector(p, n, [rings.PrimeFieldElem(p, rng.randrange(p))
                                      for _ in range(n)])

    def laurent_vector(p, n):
        # one-term coordinates: specialising dense coordinates through
        # ~40k-term polynomials is out of desk scale
        return witt.WittVector(p, n, [
            rings.LaurentElem(p, 1, 1, {(rng.randrange(-2, 3),):
                                        rng.randrange(1, p)}, (0,))
            for _ in range(n)])

    built = {}
    jobs = []
    for p, n in size["shapes"]:
        pairs = [(fp_vector(p, n), fp_vector(p, n))
                 for _ in range(size["fp_pairs"])]
        pairs += [(laurent_vector(p, n), laurent_vector(p, n))
                  for _ in range(size["laurent_pairs"])]
        # Laurent triples are left out: products of products fill the
        # coordinates, and the ghost route on them is out of desk scale
        triples = [tuple(fp_vector(p, n) for _ in range(3))
                   for _ in range(size["triples"])]

        def build_job(p=p, n=n):
            polys = built[(p, n)] = build(p, n)
            terms = sum(len(f) for f in polys.sum_polys + polys.prod_polys
                        + polys.neg_polys)
            probe.count("witt.poly_terms", terms)
            tally.check(terms == POLY_TERMS[(p, n)], "term count")

        def ghost_job(p=p, n=n):
            tally.check(ghost_check(built[(p, n)]) is True, "ghost compat")

        def specialize_job(pairs=pairs):
            for x, y in pairs:
                tally.check(via_add(x, y) == add(x, y), "sum polys")
                tally.check(via_mul(x, y) == mul(x, y), "product polys")
                tally.check(via_neg(x) == neg(x), "negation polys")

        def axioms_job(triples=triples):
            witt_ring_axioms(triples, add, mul, neg, tally)

        tag = "p=%d n=%d" % (p, n)
        jobs += [("witt.build " + tag, build_job),
                 ("witt.ghost_check " + tag, ghost_job),
                 ("witt.specialize " + tag, specialize_job),
                 ("witt.ring_axioms " + tag, axioms_job)]
    return jobs


def witt_ring_axioms(triples, add, mul, neg, tally):
    for x, y, z in triples:
        tally.check(add(add(x, y), z) == add(x, add(y, z)), "add assoc")
        tally.check(mul(mul(x, y), z) == mul(x, mul(y, z)), "mul assoc")
        tally.check(add(x, y) == add(y, x), "add comm")
        tally.check(mul(x, y) == mul(y, x), "mul comm")
        tally.check(mul(x, add(y, z)) == add(mul(x, y), mul(x, z)),
                    "distributivity")
        tally.check(add(x, neg(x)).is_zero(), "additive inverse")


# ----------------------------------------------------------------------
# drw-basis
# ----------------------------------------------------------------------

DRW_IDENTITIES = ("d^2 = 0", "FV = p", "VF = p", "FdV = d", "Vd = p dV",
                  "dF = p Fd")


def drw_basis(wk, rng, size, probe, tally):
    """Exhaustive de Rham-Witt identities over every basis element.

    All time is drw's per-symbol action, construction and comparison over
    about 10^5 elements; memory grows with the action cache.  The seed
    draws the multi-term combinations checked after each cell.
    """
    drw = wk.drw
    enumerate_basis = probe.wrap("drw.enumerate", drw.enumerate_basis)
    construct = probe.wrap("drw.construct", drw.DRWElement)

    def actions(e):
        act = drw.act
        de, ve, fe = act("d", e), act("V", e), act("F", e)
        dve = act("d", ve)
        return (de, dve, act("d", de), act("F", ve), act("V", fe),
                act("F", dve), act("V", de), act("d", fe), act("F", de))

    def compare(e, p, de, dve, dde, fve, vfe, fdve, vde, dfe, fde):
        pe = e.scalar_mul(p)
        return (dde.is_zero(), fve == pe, vfe == pe, fdve == de,
                vde == dve.scalar_mul(p), dfe == fde.scalar_mul(p))

    actions = probe.wrap("drw.act", actions, calls=11)
    compare = probe.wrap("drw.compare", compare)

    def identities(e, p):
        tally.check_each(compare(e, p, *actions(e)), DRW_IDENTITIES)

    jobs = []
    for p, n, d, bound in size["cells"]:
        for i in range(d + 1):
            draws = [[(rng.random(), rng.randrange(1, p ** n))
                      for _ in range(3)] for _ in range(size["combos"])]

            def job(p=p, n=n, d=d, i=i, bound=bound, draws=draws):
                keys = enumerate_basis(p, n, d, i, bound)
                probe.count("drw.basis_elems", len(keys))
                for key in keys:
                    e = construct(p, n, d, i, {key: 1})
                    if not e.is_zero():
                        identities(e, p)
                for picks in draws if keys else ():
                    terms = {keys[int(u * len(keys))]: c for u, c in picks}
                    identities(construct(p, n, d, i, terms), p)

            jobs.append(("drw p=%d n=%d d=%d i=%d" % (p, n, d, i), job))
    return jobs


# ----------------------------------------------------------------------
# laurent-checks
# ----------------------------------------------------------------------

def _laurent(rings, rng, p, n, nv, nterms, lo, hi):
    terms = {tuple(rng.randrange(lo, hi + 1) for _ in range(nv)):
             rng.randrange(1, p ** n) for _ in range(nterms)}
    return rings.LaurentElem(p, n, nv, terms, tuple(range(nv)))


def _evaluate(f, point):
    """f at a point of units of Z/p^n: the independent route for products."""
    q = f.p ** f.n
    total = 0
    for exps, c in f.terms.items():
        for x, e in zip(point, exps):
            c = c * pow(x, e, q) % q
        total += c
    return total % q


def laurent_checks(wk, rng, size, probe, tally):
    """Many tiny Laurent products across the relation and cohomology code.

    The seed draws the relation samples, the Weyl words, the Laurent
    pairs and the Witt vectors; the cohomology sweep, the generation runs
    and the Steinberg complexes are exhaustive.
    """
    witt, rings, weyl = wk.witt, wk.rings, wk.weyl
    wittdiff, cech = wk.wittdiff, wk.cech
    localcoh, steinberg = wk.localcoh, wk.steinberg
    check_relation = probe.wrap("wittdiff.check_relation",
                                wittdiff.check_relation)
    normal_form = probe.wrap("weyl.normal_form", weyl.normal_form)
    apply = probe.wrap("weyl.apply", weyl.apply)
    apply_word = probe.wrap("weyl.apply", weyl.apply_word)
    lmul = probe.wrap("rings.laurent_arith", operator.mul)
    lpow = probe.wrap("rings.laurent_arith", operator.pow)
    add = probe.wrap("witt.ghost_arith", witt.witt_add)
    mul = probe.wrap("witt.ghost_arith", witt.witt_mul)
    neg = probe.wrap("witt.ghost_arith", witt.witt_neg)
    cohomology = probe.wrap("cech.cohomology", cech.witt_cohomology)
    hd_by_cech = probe.wrap("cech.hd_by_cech", cech.hd_witt_length_by_cech)
    generation = probe.wrap("localcoh.generation", localcoh.generation_run)
    complex_ = probe.wrap("steinberg.complex", steinberg.InductionComplex)
    homology = probe.wrap("steinberg.homology", steinberg.homology_lengths)
    snf = probe.wrap("steinberg.homology", steinberg.smith_normal_form)

    relation_rng = random.Random(rng.getrandbits(64))
    words = []
    for k in range(size["words"]):
        p, n, nv = (2, 3, 5)[k % 3], 1 + k % 2, rng.randrange(1, 3)
        word = [("z", rng.randrange(nv), rng.randrange(0, 3))
                if rng.random() < 0.5 else
                ("d", rng.randrange(nv), rng.randrange(0, 4))
                for _ in range(rng.randrange(1, 6))]
        words.append((word, p, n, nv,
                      _laurent(rings, rng, p, n, nv, 2, -2, 4)))
    laurent_pairs = []
    for k in range(size["laurent_pairs"]):
        p, n, nv = (2, 3, 5)[k % 3], 1 + k % 3, 1 + k % 2
        q = p ** n
        f = _laurent(rings, rng, p, n, nv, rng.randrange(1, 4), -3, 3)
        g = _laurent(rings, rng, p, n, nv, rng.randrange(1, 4), -3, 3)
        point = [rng.choice([x for x in range(1, q) if x % p])
                 for _ in range(nv)]
        laurent_pairs.append((f, g, rng.randrange(2, 7), point))
    witt_triples = []
    for k in range(size["witt_triples"]):
        # larger (p, n) make the ghost route's cost depend on the draw
        p, n, nv = ((2, 2, 1), (3, 2, 1), (5, 2, 1), (2, 2, 2), (3, 2, 2),
                    (2, 3, 1))[k % 6]

        def vector():
            return witt.WittVector(p, n, [
                _laurent(rings, rng, p, 1, nv, rng.randrange(0, 3), -2, 3)
                for _ in range(n)])
        witt_triples.append((vector(), vector(), vector()))

    def relations_job(which):
        for p in size["relation_p"]:
            for n in size["relation_n"]:
                for d in (1, 2):
                    for r in range(1, p * p + 1):
                        rep = check_relation(which, p, n, d, r,
                                             size["relation_samples"],
                                             relation_rng)
                        probe.count("wittdiff.cases", rep["cases"])
                        samples = size["relation_samples"]
                        tally.bulk(samples, max(len(rep["failures"]),
                                                samples - rep["cases"]),
                                   which + " sides")

    def weyl_job():
        for word, p, n, nv, f in words:
            nf = normal_form(word, p, n, nv, tuple(range(nv)))
            probe.count("weyl.nf_terms", len(nf.terms))
            tally.check(apply(nf, f) == apply_word(word, f),
                        "normal form vs word")

    def laurent_job():
        for f, g, k, point in laurent_pairs:
            q = f.p ** f.n
            tally.check(_evaluate(lmul(f, g), point)
                        == _evaluate(f, point) * _evaluate(g, point) % q,
                        "product at a point")
            tally.check(_evaluate(lpow(f, k), point)
                        == pow(_evaluate(f, point), k, q), "power at a point")

    def witt_job():
        witt_ring_axioms(witt_triples, add, mul, neg, tally)

    def cech_job():
        ps, ds, ns, twists = size["cech_sweep"]
        points = [(p, d, n, a) for p in ps for d in ds for n in ns
                  for a in twists] + list(size["cech_extra"])
        for p, d, n, a in points:
            res = cohomology(p, d, n, a, True)
            h0 = sum(comb(p ** l * a + d, d) for l in range(n)
                     if a >= 0)
            hd = sum(comb(-(p ** l) * a - 1, d) for l in range(n)
                     if -(p ** l) * a - d - 1 >= 0)
            tally.check(res[0].length == h0 and res[d].length == hd
                        and all(res[i].length == 0 for i in range(1, d)),
                        "layer sums")
            total, layers = hd_by_cech(p, d, n, a)
            tally.check(total == hd and sum(layers) == hd,
                        "top degree by Cech")
            probe.count("cech.points", 1)

    def generation_job():
        for p, d, j, bound in size["generation"]:
            rep = generation(p, d, j, bound)
            probe.count("localcoh.reached", rep["reached"])
            tally.check(not rep["missing"] and not rep["vanished_claims"]
                        and rep["reached"] == rep["target"],
                        "brute-force coverage")

    def steinberg_job():
        for q, d, rank in size["steinberg"]:
            target = tuple(range(d))
            for ring, n in (("Z", 1), ("Zpn", 1), ("Zpn", 2)):
                cx = complex_(q, d, target, ring, n, q)
                probe.count("steinberg.matrix_entries",
                            sum(len(m) * len(m[0]) for m in cx.matrices))
                tally.check(all(h[0] == 0 and h[1] == 0 for h in homology(cx)),
                            "acyclic over " + ring)
                if ring == "Z":
                    terms = cx.term_ranks()
                    divisors = snf(cx.matrices[-1])
                    coker = len(cx.matrices[-1]) - sum(1 for x in divisors
                                                       if x)
                    euler = sum((-1) ** (len(terms) - 1 - k) * t
                                for k, t in enumerate(terms))
                    tally.check(coker == rank == euler
                                and all(x in (0, 1) for x in divisors),
                                "Steinberg rank, torsion-free")

    jobs = [("wittdiff " + which, lambda which=which: relations_job(which))
            for which in ("restriction", "frobenius", "verschiebung",
                          "filtration")]
    jobs += [("weyl normal forms", weyl_job),
             ("rings laurent arithmetic", laurent_job),
             ("witt laurent ring axioms", witt_job),
             ("cech cohomology", cech_job),
             ("localcoh generation", generation_job),
             ("steinberg complexes", steinberg_job)]
    return jobs


WORKLOADS = {"witt-universal": witt_universal, "drw-basis": drw_basis,
             "laurent-checks": laurent_checks}


def load_wittkit():
    """Import wittkit as the CLI does; the import cost is set-up time."""
    import wittkit.cli
    from wittkit import (cech, drw, localcoh, rings, steinberg, weyl, witt,
                         wittdiff)
    wittkit.cli.build_parser()
    return argparse.Namespace(cech=cech, drw=drw, localcoh=localcoh,
                              rings=rings, steinberg=steinberg, weyl=weyl,
                              witt=witt, wittdiff=wittdiff)


def run_jobs(jobs, probe, tally, name):
    """Run the jobs in order; an exception fails one check, the run goes on."""
    probe.begin(name)
    for job_name, job in jobs:
        tally.context = job_name
        probe.begin(job_name)
        try:
            job()
        except Exception as exc:
            tally.error(exc)
        probe.end()
    probe.end()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=int, default=None,
                    help="time.monotonic_ns() taken just before this "
                         "process was started; default: now")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    spawned = time.monotonic_ns() if args.spawned is None else args.spawned

    wk = load_wittkit()
    warm = [path for path in COLD_CACHES if cache_size(wk, path)]
    if warm:
        raise SystemExit("caches not empty at start: %s" % ", ".join(warm))

    probe, tally = Probe(bool(args.trace)), Tally()
    jobs = WORKLOADS[args.workload](wk, random.Random(args.seed),
                                    SIZES[args.workload][args.scale],
                                    probe, tally)
    first_ns = time.monotonic_ns()
    setup_raw_s = (first_ns - spawned) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_raw_s": setup_raw_s}))
        return
    with Pace() as pace:
        run_jobs(jobs, probe, tally, args.workload)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    probe.count("drw.act_cache_entries", cache_size(wk, "drw._ACT_CACHE"))
    out = {
        "setup_raw_s": setup_raw_s,
        "wall_s": pace.seconds(),
        "raw_wall_s": pace.raw_seconds(),
        "loop_s": [min(pace.loops), statistics.median(pace.loops),
                   max(pace.loops)],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.examples,
        "counts": probe.counts,
        "layers": probe.layers,
        "spans": [dict(s, start=s["start"] - pace.start,
                       end=s["end"] - pace.start) for s in probe.spans],
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
