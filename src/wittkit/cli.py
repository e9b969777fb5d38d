"""Command-line front end: subcommands and the suites of ``wittkit.checks``.

Reports are JSON (or a plain table); randomized suites are driven by one
seeded generator, and the seed plus full configuration are embedded in every
report, so the same invocation reproduces the same bytes (timings aside).
The default output directory honors the WITTKIT_OUT_DIR environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from itertools import islice

from . import (cech, checks, drw, localcoh, rings, steinberg, weyl, witt,
               wittdiff)


class UnknownSuite(ValueError):
    pass


def _emit(report, args):
    # JSON is written in blocks, never held whole: a generation report can
    # list 10^5 missing vectors
    out = getattr(args, "out", None)
    fh = (open(os.path.join(os.environ.get("WITTKIT_OUT_DIR", ""), out), "w")
          if out else sys.stdout)
    if getattr(args, "format", "json") == "table":
        fh.write(_tabulate(report))
    else:
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        while block := "".join(islice(chunks, 1 << 16)):
            fh.write(block)
    fh.write("\n")
    if out:
        fh.close()


def _tabulate(report, prefix=""):
    lines = []
    if isinstance(report, dict):
        for k in sorted(report):
            v = report[k]
            if isinstance(v, (dict, list)):
                lines.append("%s%s:" % (prefix, k))
                lines.append(_tabulate(v, prefix + "  "))
            else:
                lines.append("%s%s\t%s" % (prefix, k, v))
    elif isinstance(report, list):
        for v in report:
            lines.append(_tabulate(v, prefix + "  "))
    else:
        lines.append("%s%s" % (prefix, report))
    return "\n".join(x for x in lines if x)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def cmd_witt_polys(args):
    upw = witt.build_universal_polys(args.p, args.n)
    upw.check_ghost_compat()

    def encode(name):
        return [[{"e": list(e), "c": c} for e, c in sorted(poly.items())]
                for poly in upw.unpacked(name)]

    _emit({
        "p": args.p, "n": args.n,
        "sum": encode("sum_polys"),
        "prod": encode("prod_polys"),
        "neg": encode("neg_polys"),
        "ghost_compatible": True,
    }, args)


def cmd_witt_op(args):
    data = _load_json(args.infile)
    vectors = data.get("vectors") if isinstance(data, dict) else None
    if not isinstance(vectors, list):
        raise rings.VariableMismatch("the input needs a \"vectors\" list")
    xs = [witt.WittVector.from_json(v) for v in vectors]
    op = args.op
    if len(xs) < (2 if op in ("add", "mul") else 1):
        raise ValueError("--op %s: too few vectors (%d)" % (op, len(xs)))
    if op == "add":
        out = witt.witt_add(xs[0], xs[1])
    elif op == "mul":
        out = witt.witt_mul(xs[0], xs[1])
    elif op == "frob":
        out = witt.frobenius(xs[0])
    elif op == "versch":
        out = witt.verschiebung(xs[0])
    else:  # teich
        out = witt.teichmuller(xs[0].coords[0], xs[0].n)
    _emit({"op": op, "result": out.to_json()}, args)


def parse_word(text):
    """Parse 'z0^2 d0[3] z1' into generator tokens; indices are >= 0."""
    word = []
    for tok in text.split():
        kind, rest = tok[:1], tok[1:]
        if kind == "d" and "[" in rest:
            rest = rest.rstrip("]")
        var, sep, k = rest.partition("^" if kind == "z" else "[")
        try:
            var, k = int(var), int(k) if sep else 1
        except ValueError:
            var = -1
        if kind not in ("z", "d") or var < 0:
            raise ValueError("bad token %r" % (tok,))
        word.append((kind, var, k))
    if not word:
        raise ValueError("the word is empty")
    return word


def cmd_weyl_nf(args):
    word = parse_word(args.word)
    nv = 1 + max(t[1] for t in word)
    # variables raised to a negative power in the word are inverted
    inverted = {i for kind, i, k in word if kind == "z" and k < 0}
    nf = weyl.normal_form(word, args.p, args.n, nv, inverted)
    _emit({"word": args.word, "normal_form": nf.to_json()}, args)


def cmd_weyl_apply(args):
    op = weyl.WeylElement.from_json(_load_json(args.op))
    f = rings.LaurentElem.from_json(_load_json(args.poly))
    _emit({"result": weyl.apply(op, f).to_json()}, args)


def cmd_wdiff_lift(args):
    base = weyl.WeylElement.from_json(_load_json(args.op))
    lifted = wittdiff.lift_operator(base, args.n + 1)
    _emit({"lift": lifted.to_json(),
           "provenance": base.to_json()}, args)


_RELATIONS = {"restr": "restriction", "frob": "frobenius",
              "versch": "verschiebung", "filtr": "filtration"}


def cmd_wdiff_verify(args):
    which = _RELATIONS[args.relation]
    reports = checks.wdiff_relation(which, args.p, args.n, args.d,
                                    args.samples, random.Random(args.seed))
    failures = sum(len(r["failures"]) for r in reports)
    _emit({"relation": which, "seed": args.seed,
           "cases": sum(r["cases"] for r in reports),
           "failures": failures, "per_order": reports}, args)
    return 1 if failures else 0


def cmd_drw_basis(args):
    keys = drw.enumerate_basis(args.p, args.n, args.d, args.i, args.bound)
    _emit({
        "count": len(keys),
        "basis": [drw.symbol_json(args.p, args.n, *key) for key in keys],
    }, args)


def cmd_drw_act(args):
    elem = drw.DRWElement.from_json(_load_json(args.elem))
    _emit(dict(drw.act(args.which, elem).to_json(), which=args.which), args)


def cmd_cohomology_line_bundle(args):
    res = cech.witt_cohomology(args.p, args.d, args.n, args.a)
    degrees = [
        {"i": i, "layers": list(m.layers), "length": m.length}
        for i, m in sorted(res.items())
        if args.degree is None or i == args.degree
    ]
    _emit({"case": {"p": args.p, "n": args.n, "d": args.d, "a": args.a},
           "degrees": degrees}, args)


def cmd_cohomology_sweep(args):
    rows = []
    for a in range(args.a_min, args.a_max + 1):
        res = cech.witt_cohomology(args.p, args.d, args.n, a)
        rows.append({
            "a": a,
            "lengths": [res[i].length for i in range(args.d + 1)],
            "h0_layers": list(res[0].layers),
            "hd_layers": list(res[args.d].layers),
        })
    _emit({"p": args.p, "n": args.n, "d": args.d, "rows": rows}, args)


def cmd_localcoh_generate(args):
    rep = localcoh.generation_run(args.p, args.d, args.j, args.bound,
                                  trace=args.trace)
    _emit(rep, args)
    return 0 if not rep["missing"] else 1


def cmd_localcoh_stability(args):
    rep = localcoh.stability_report(args.p, args.n, args.d, args.j)
    _emit(rep, args)
    return 0 if not rep["failures"] else 1


def cmd_steinberg(args):
    # --I names the simple roots inside the parabolic subset I (empty for
    # the Borel); the complex runs over the removed set Delta \ I
    inside = {int(x) for x in args.I.split(",") if x != ""}
    full = set(range(args.dim - 1))
    if not inside <= full:
        raise ValueError("I names roots %s outside 0..%d"
                         % (sorted(inside - full), args.dim - 2))
    target = tuple(sorted(full - inside))
    if not target:
        raise ValueError("I must be a proper subset of the simple roots")
    ring = "Z" if args.ring == "Z" else "Zpn"
    rep = steinberg.acyclicity_check(args.q, args.dim - 1, target,
                                     ring=ring, n=args.n)
    rank = steinberg.steinberg_rank(args.q, args.dim - 1, target)
    _emit({"ranks": rank, "homology": rep["homology"],
           "free": rep["cokernel_torsion_free"], "exact": rep["exact"]}, args)
    return 0 if rep["exact"] else 1


# ----------------------------------------------------------------------
# verification suites
# ----------------------------------------------------------------------

def run_suite(name, p=3, n=3, seed=0, samples=100, d=None, j=0, bound=None):
    """Run the suite registered as ``name`` in ``checks.CHECKS``."""
    if name not in checks.CHECKS:
        raise UnknownSuite("unknown suite %r" % (name,))
    report = checks.CHECKS[name](p=p, n=n, samples=samples, d=d, j=j,
                                 bound=bound, rng=random.Random(seed))
    report.update(suite=name, seed=seed)
    return report


def cmd_verify(args):
    t0 = time.time()
    report = run_suite(args.suite, p=args.p, n=args.n, seed=args.seed,
                       samples=args.samples, d=args.d, j=args.j,
                       bound=args.bound)
    report["config"] = {k: getattr(args, k)
                        for k in ("suite", "p", "n", "seed", "samples")}
    report["elapsed_s"] = round(time.time() - t0, 3)
    _emit(report, args)
    return 1 if report["failures"] else 0


# ----------------------------------------------------------------------
# argument wiring
# ----------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="wittkit",
        description="exact Witt vector / de Rham-Witt / local cohomology "
                    "computations",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", help="write the JSON report to this file")
        sp.add_argument("--format", choices=("json", "table"), default="json")

    g = sub.add_parser("witt", help="Witt vector arithmetic")
    gs = g.add_subparsers(dest="sub", required=True)
    sp = gs.add_parser("polys")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_witt_polys)
    sp = gs.add_parser("op")
    sp.add_argument("--op", required=True,
                    choices=("add", "mul", "frob", "versch", "teich"))
    sp.add_argument("--in", dest="infile", required=True)
    common(sp)
    sp.set_defaults(func=cmd_witt_op)

    g = sub.add_parser("weyl", help="crystalline Weyl algebra")
    gs = g.add_subparsers(dest="sub", required=True)
    sp = gs.add_parser("nf")
    sp.add_argument("--word", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_weyl_nf)
    sp = gs.add_parser("apply")
    sp.add_argument("--op", required=True)
    sp.add_argument("--poly", required=True)
    common(sp)
    sp.set_defaults(func=cmd_weyl_apply)

    g = sub.add_parser("wdiff", help="Witt differential operators")
    gs = g.add_subparsers(dest="sub", required=True)
    sp = gs.add_parser("lift")
    sp.add_argument("--op", required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_wdiff_lift)
    sp = gs.add_parser("verify")
    sp.add_argument("--relation", required=True, choices=sorted(_RELATIONS))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=25)
    common(sp)
    sp.set_defaults(func=cmd_wdiff_verify)

    g = sub.add_parser("drw", help="de Rham-Witt complex of affine space")
    gs = g.add_subparsers(dest="sub", required=True)
    sp = gs.add_parser("basis")
    for flag in ("--p", "--n", "--d", "--i", "--bound"):
        sp.add_argument(flag, type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_drw_basis)
    sp = gs.add_parser("act")
    sp.add_argument("--which", required=True, choices=("F", "V", "d"))
    sp.add_argument("--elem", required=True)
    common(sp)
    sp.set_defaults(func=cmd_drw_act)

    g = sub.add_parser("cohomology", help="Witt line bundles on P^d")
    gs = g.add_subparsers(dest="sub", required=True)
    sp = gs.add_parser("line-bundle")
    for flag in ("--p", "--n", "--d", "--a"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--degree", type=int)
    common(sp)
    sp.set_defaults(func=cmd_cohomology_line_bundle)
    sp = gs.add_parser("sweep")
    for flag in ("--p", "--n", "--d"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--a-min", dest="a_min", type=int, required=True)
    sp.add_argument("--a-max", dest="a_max", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_cohomology_sweep)

    g = sub.add_parser("localcoh", help="local cohomology generation")
    gs = g.add_subparsers(dest="sub", required=True)
    sp = gs.add_parser("generate")
    for flag in ("--p", "--d", "--j", "--bound"):
        sp.add_argument(flag, type=int, required=True)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_localcoh_generate)
    sp = gs.add_parser("stability")
    for flag in ("--p", "--n", "--d", "--j"):
        sp.add_argument(flag, type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_localcoh_stability)

    sp = sub.add_parser("steinberg", help="generalized Steinberg modules")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True,
                    help="the matrix size d+1")
    sp.add_argument("--I", default="",
                    help="comma-separated simple roots inside the parabolic")
    sp.add_argument("--ring", choices=("Z", "Zpn"), default="Z")
    sp.add_argument("--n", type=int, default=1)
    common(sp)
    sp.set_defaults(func=cmd_steinberg)

    sp = sub.add_parser("verify", help="deterministic verification suites")
    sp.add_argument("suite", choices=tuple(checks.CHECKS))
    sp.add_argument("--p", type=int, default=3)
    sp.add_argument("--n", type=int, default=3)
    sp.add_argument("--d", type=int)
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--bound", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=100)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    return top


def main(argv=None):
    """Run one command; its exit status is returned.

    0 is success, 1 a failed check, 2 a usage error (from argparse) and 3
    an error raised by the library, reported as one JSON line on stderr.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (ValueError, ArithmeticError, witt.TorsionRing) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}),
              file=sys.stderr)
        return 3
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
