"""Run one wittkit benchmark workload and print its metrics.

    python3 perfbench/run.py --workload drw-basis --seed 1 --seconds 30 \
        --trace 0

Every repetition is a fresh single-threaded process (``workloads.py``) that
starts with the library's caches empty, as every CLI call and pytest session
does.  Repetitions go on while the next one is expected to end within
``--seconds``; there is always at least one.

``--trace 0`` prints the end-to-end metrics: the medians over the
repetitions of ``wall_s`` and ``peak_rss_mb``, and the median ``setup_s``
over every process started.  Both are rescaled to a reference speed of
the processor, ``wall_s`` by ``probe.Pace`` and ``setup_s`` by a reference
start (``START_REF``); the record keeps the raw times too.
Each repetition is preceded by ``SETUP_PROBES`` processes that stop at the
first job, so that set-up is sampled several times even when one
repetition fills the run.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics (medians over the traced ones) with the tracing overhead,
traced minus untraced median ``wall_s``.

The last line of standard output is the result.  The line before it is the
record of the run: machine, Python version, seed, checks, failed fraction
and every process.  The record is also written to ``perfbench/out/``, with
the layer timers, counters and job spans of the last traced repetition.
"""

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("witt-universal", "drw-basis", "laurent-checks")
SETUP_PROBES = 4  # set-up-only processes before each repetition
DEADLINE_S = 170  # a run must end within 180 s

# The reference start: the interpreter with the standard modules wittkit
# imports, and nothing of wittkit.  A process starts about as much slower
# as the processor is, and set-up is mostly starting a process, so set-up
# is measured against a reference start taken just before it.  setup_s is
# in seconds of a machine on which the reference start takes START_REF_S.
START_REF = ("-c", "import argparse, fractions, itertools, json, random")
START_REF_S = 0.05

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# A name ending in _s is a layer's seconds, in _calls its call count;
# other names are work counters.  The trace.* metrics describe the tracing.
PER_LAYER = (
    ("witt.build_s", "s"), ("witt.ghost_check_s", "s"),
    ("witt.specialize_s", "s"), ("witt.poly_terms", "count"),
    ("witt.ghost_arith_s", "s"), ("witt.ghost_arith_calls", "count"),
    ("rings.laurent_arith_s", "s"),
    ("weyl.normal_form_s", "s"), ("weyl.apply_s", "s"),
    ("weyl.nf_terms", "count"),
    ("wittdiff.check_relation_s", "s"), ("wittdiff.cases", "count"),
    ("cech.cohomology_s", "s"), ("cech.hd_by_cech_s", "s"),
    ("cech.points", "count"),
    ("localcoh.generation_s", "s"), ("localcoh.reached", "count"),
    ("steinberg.complex_s", "s"), ("steinberg.homology_s", "s"),
    ("steinberg.matrix_entries", "count"),
    ("drw.enumerate_s", "s"), ("drw.basis_elems", "count"),
    ("drw.construct_s", "s"),
    ("drw.act_s", "s"), ("drw.act_calls", "count"),
    ("drw.compare_s", "s"), ("drw.act_cache_entries", "count"),
    ("trace.overhead_s", "s"), ("trace.coverage", "ratio"),
)


PROCESS_FIELDS = ("trace", "setup_only", "setup_s", "setup_raw_s",
                  "start_ref_s", "wall_s", "raw_wall_s", "loop_s", "cpu_s",
                  "peak_rss_mb", "attempted", "failed")


class BenchError(RuntimeError):
    pass


def run_process(cmd, deadline):
    """Run cmd to its end within the deadline; returns it and its seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a repetition")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("a process did not end within %d s of the run's "
                         "start" % DEADLINE_S) from None
    if proc.returncode:
        raise BenchError("%s exited with %d:\n%s"
                         % (" ".join(cmd[1:3]), proc.returncode,
                            proc.stderr.strip()[-4000:]))
    return proc, time.monotonic() - t0


def spawn(args, deadline, trace=0, setup_only=False):
    """One fresh workload process; returns the JSON it printed last, with
    its set-up time rescaled by a reference start taken just before."""
    _proc, start_ref_s = run_process([sys.executable, *START_REF], deadline)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc, _secs = run_process(
        cmd + ["--spawned", str(time.monotonic_ns())], deadline)
    out = json.loads(proc.stdout.splitlines()[-1])
    return dict(out, trace=trace, setup_only=setup_only,
                start_ref_s=start_ref_s,
                setup_s=out["setup_raw_s"] * START_REF_S / start_ref_s)


def repeat(args, cycle, deadline):
    """Run the cycle of processes again while the next cycle fits."""
    procs = []
    start = time.monotonic()
    cycles = 0
    while True:
        procs += [spawn(args, deadline, **kind) for kind in cycle]
        cycles += 1
        now = time.monotonic()
        if now + (now - start) / cycles > min(start + args.seconds, deadline):
            return procs


def layer_value(name, rep):
    layers = rep["layers"]
    if name.endswith("_s"):
        return layers.get(name[:-2], (0, 0.0))[1]
    if name.endswith("_calls"):
        return layers.get(name[:-6], (0, 0.0))[0]
    return rep["counts"].get(name, 0)


def end_to_end(procs):
    reps = [r for r in procs if not r["setup_only"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in procs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps):
    traced = [r for r in reps if r["trace"]]
    values = {}
    for name, unit in PER_LAYER:
        if not name.startswith("trace."):
            pick = statistics.median_low if unit == "count" else \
                statistics.median
            values[name] = pick(layer_value(name, r) for r in traced)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in reps if not r["trace"]))
    values["trace.coverage"] = statistics.median(
        sum(secs for _calls, secs in r["layers"].values()) / r["raw_wall_s"]
        for r in traced)
    return values


def result(values, units, reps):
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "wittkit" / "__init__.py").is_file():
        print("perfbench: no wittkit sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # import cost is set-up time; compiling the sources once is not
    compileall.compile_dir(str(ROOT / "src" / "wittkit"), quiet=1)
    compileall.compile_dir(str(HERE), maxlevels=0, quiet=1)
    try:
        if args.trace:
            procs = repeat(args, ({"trace": 0}, {"trace": 1}), deadline)
            values, units = per_layer(procs), PER_LAYER
        else:
            procs = repeat(args, SETUP_PROBES * ({"setup_only": True},)
                           + ({},), deadline)
            values, units = end_to_end(procs), END_TO_END
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    reps = [r for r in procs if not r["setup_only"]]
    out = result(values, units, reps)

    record = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": "%s %s" % (platform.python_implementation(),
                             platform.python_version()),
        "checks": out["attempted"],
        "failed_frac": out["failed"] / out["attempted"],
        "failures": [f for r in reps for f in r["failures"]][:10],
        "processes": [{k: r[k] for k in PROCESS_FIELDS if k in r}
                      for r in procs],
    }
    traced = [{k: r[k] for k in ("layers", "counts", "spans")}
              for r in reps if r["trace"]]
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    path = outdir / ("%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(dict(record, result=out,
                                    last_traced=traced[-1] if traced else {}),
                               indent=1) + "\n")
    print(json.dumps(dict(record, file=str(path.relative_to(ROOT)))))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
