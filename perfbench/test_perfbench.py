"""Tests of the benchmark itself, not of wittkit.  From the repository root:

    python3 -m pytest -q perfbench

Each workload runs at smoke scale through ``run.py``, as the benchmark is
run; the verdict tests run the jobs in this process with a library function
replaced by a wrong or failing one.
"""

import json
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from probe import Pace, Probe, Tally, clock, pace_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in out["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    record = json.loads(lines[-2])
    assert record["seed"] == 3 and record["python"] and record["machine"]
    assert record["checks"] == out["attempted"]
    assert record["failed_frac"] == 0


def test_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)


def smoke_tally(wk, name):
    probe, tally = Probe(False), Tally()
    jobs = workloads.WORKLOADS[name](wk, random.Random(0),
                                     workloads.SIZES[name]["smoke"],
                                     probe, tally)
    workloads.run_jobs(jobs, probe, tally, name)
    return tally


def test_wrong_verdict_is_counted(monkeypatch):
    wk = workloads.load_wittkit()
    clean = smoke_tally(wk, "witt-universal")
    assert clean.failed == 0
    monkeypatch.setattr(wk.witt, "witt_mul_via_polys",
                        wk.witt.witt_add_via_polys)
    wrong = smoke_tally(wk, "witt-universal")
    assert wrong.attempted == clean.attempted
    assert wrong.failed > 0 and "product polys" in wrong.examples[0]
    reps = [{"attempted": wrong.attempted, "failed": wrong.failed}]
    out = run.result({"wall_s": 1.0}, (("wall_s", "s"),), reps)
    assert out["correct"] is False and out["failed"] == wrong.failed


def test_library_exception_fails_one_check_and_the_run_goes_on(monkeypatch):
    wk = workloads.load_wittkit()
    clean = smoke_tally(wk, "laurent-checks")

    def vanish(*args):
        raise ArithmeticError("claimed unit vanished")

    monkeypatch.setattr(wk.localcoh, "generation_run", vanish)
    broken = smoke_tally(wk, "laurent-checks")
    # the smoke size makes one generation run, so one check is replaced
    assert broken.attempted == clean.attempted
    assert broken.failed == 1
    assert "claimed unit vanished" in broken.examples[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", run.WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_pace_counts_slices_at_the_reference_speed():
    pace = Pace()
    pace.start, pace.stop = 0.0, 1.0
    # four loops at twice the reference time, the sampling's own 0.01 s
    # left out: 0.96 s of work at half the reference speed
    pace.samples = [(t, 0.01) for t in (0.2, 0.4, 0.6, 0.8)]
    pace.loops = [2 * Pace.REF_S] * 4
    assert abs(pace.seconds() - 0.48) < 1e-12


def test_pace_samples_while_running_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with Pace() as pace:
        end = clock() + 0.3
        while clock() < end:
            pace_loop()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert len(pace.samples) >= 3 and len(pace.loops) == len(pace.samples)
    assert 0 < pace.seconds()
    assert 0.25 < pace.raw_seconds() < 1.0
