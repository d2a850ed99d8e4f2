"""Smoke test of the benchmark at toy sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted, that the
output checks reject wrong outputs fed straight into them, that a traced
run leaves flycap unwrapped, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
from calibrate import Calibrator  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from flycap import projection  # noqa: E402
from flycap.experiments import ExperimentReport  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args, cwd=None):
    argv = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=cwd or HERE.parent)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_every_metric_is_emitted(name, trace):
    proc = _run("--workload", name, "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def _counts_records(wl, counts):
    return [
        {"m": m, "p": p, "trials": wl.trials, "estimate": k / wl.trials}
        for (m, p), k in zip(wl.grid, counts)
    ]


def test_invertibility_check_rejects_a_wrong_count():
    wl = workloads.Invertibility(workloads.Invertibility.default_seed)
    records = _counts_records(wl, wl.pinned[0])
    assert wl.check(0, records)
    assert not wl.check(len(wl.pinned) + 1, records)  # past the pins
    records[1]["estimate"] -= 1 / wl.trials
    assert not wl.check(0, records)


def test_invertibility_reference_rejects_a_wrong_count_at_any_seed():
    wl = workloads.Invertibility(7)
    assert not wl.pinned
    counts = wl.reference_counts(8)
    assert wl.check(8, _counts_records(wl, counts))
    counts[2] -= 1
    assert not wl.check(8, _counts_records(wl, counts))


def test_reference_invertible_on_known_matrices():
    a = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # det 2
    assert workloads.reference_invertible(a)
    a[2] = a[0] + a[1]
    assert not workloads.reference_invertible(a)
    assert not workloads.reference_invertible(np.zeros((1, 1), dtype=int))


def test_reference_sign_matrix_matches_sample_matrix():
    want = projection.sample_matrix(300, 20, 0.05, 2**63 + 5).to_dense()
    assert np.array_equal(workloads.reference_sign_matrix(300, 20, 0.05, 2**63 + 5), want)


def test_mc_projection_check_rejects_a_wrong_norm():
    wl = workloads.McProjection(workloads.McProjection.default_seed)
    jl = {"passed": True}
    opnorm = [
        {"n": n, "passed": True, "mean_ratio": ratio}
        for n, ratio in zip(wl.opnorm_ns, wl.pinned[0])
    ]
    assert wl.check(0, (jl, opnorm))
    assert not wl.check(len(wl.pinned) + 1, (jl, opnorm))  # past the pins
    opnorm[2]["mean_ratio"] *= 1.05
    assert not wl.check(0, (jl, opnorm))
    assert not wl.check(1, ({"passed": False}, opnorm))


def test_mc_projection_reference_rejects_a_wrong_norm_at_any_seed():
    wl = workloads.McProjection(7, **workloads.TINY["mc_projection"])
    assert not wl.pinned
    out = wl.op(8)
    assert wl.check(8, out)
    out[1][0]["mean_ratio"] *= 1.05
    assert not wl.check(8, out)


def test_sweep_checks_reject_criteria_6_and_7_misses():
    wl = workloads.Sweep(42)

    def report(baseline, capped, zero):
        records = [
            {"k": 200, "acc_mean": capped, "sparsity": 0.1},
            {"k": 0, "acc_mean": zero, "sparsity": 0.0},
        ]
        return ExperimentReport({}, {"acc_mean": baseline, "acc_std": 0.0}, records)

    assert wl.check(0, report(0.99, 0.96, 0.1))
    assert not wl.check(1, report(0.99, 0.96, 0.3))
    assert wl.finish(2) == 0
    assert wl.check(2, report(0.99, 0.70, 0.1))
    assert wl.finish(3) == 3


def test_failed_ops_never_exceed_attempted():
    wl = workloads.Sweep(42)
    wl.baselines, wl.capped = [0.99], [0.70]  # end-of-run gap check fails
    assert run.total_failed(wl, 3, 1) == 3


def test_wide_transform_check_rejects_a_changed_row():
    wl = workloads.WideTransform(42, **workloads.TINY["wide_transform"])
    wl.setup()
    out = wl.op(0)
    assert wl.check(0, out) and wl.finish(1) == 0
    wrong = out.copy()
    wrong[0, np.flatnonzero(wrong[0])[0]] += 1.0
    assert wl.check(16, wrong)
    assert wl.finish(2) == 1


def test_traced_run_leaves_flycap_unwrapped():
    originals = [getattr(*tracer.resolve(module, attr)) for module, attr, _, _ in tracer.SITES]
    wl = workloads.Sweep(42, **workloads.TINY["sweep"])
    result, traced = run.measure_traced(wl, 0.4, Calibrator())
    assert result["correct"]
    assert {span[2] for span in traced.spans} >= {"bench.op", "experiments.run_sweep", "svm.train"}
    after = [getattr(*tracer.resolve(module, attr)) for module, attr, _, _ in tracer.SITES]
    assert all(a is b for a, b in zip(after, originals))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "invertibility", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
