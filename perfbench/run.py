"""flycap benchmark: one closed-loop client, one process per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

NAME is one of invertibility, mc_projection, sweep, wide_transform (see
workloads.py and BENCHMARK.json). The program is imported from ``src/``
of the checkout this script sits in; nothing is installed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
5 fresh processes, each timed from start to ready for its first op),
``ops_per_s`` and the op latency median and tail over the timed ops
(checks between ops are outside the timers), ``ok_frac`` (ops that
neither raised nor failed a check, over ops attempted) and
``peak_rss_mb`` (this process, read before the end-of-run checks).
Times are in seconds at a reference machine speed (see calibrate.py;
``KERNELS`` and ``SETUP_KERNEL`` name the calibration kernels); the
wall-clock rate and median are printed before the result.

``--trace 1`` runs half the window untraced and half with span wrappers
installed (see tracer.py), reports the per-layer metrics per traced op,
the tracing overhead, and the untraced half's wall-clock rate and
median, unscaled, and writes the spans to
``.perfbench_out/trace-NAME-seedN.json``.

The last stdout line is the result as one JSON object; the lines before
it record the machine and the tail percentile used. ``--workload all``
runs every workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("invertibility", "mc_projection", "sweep", "wide_transform")
SETUP_PROBES = 5
# One client is one thread: a second BLAS thread speeds only the Gram
# products of the operator-norm solve and makes them wait on whatever
# else runs on the other core, which spreads the results.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# after each op or set-up probe, the calibration kernel runs for this
# share of its time (at least once); see calibrate.py
CALIBRATION_SHARE = 0.01
# calibration kernel of each workload's ops (see calibrate.py):
# mc_projection is almost all per-row generator re-keying in sample_matrix
KERNELS = {"invertibility": "interp", "mc_projection": "rng", "sweep": "interp",
           "wide_transform": "interp"}
# set-up is mostly process start and imports, which the interp kernel
# tracks best on every workload, wide_transform's 100000-row
# sample_matrix included (measured per probe)
SETUP_KERNEL = "interp"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
    }


def make_workload(name: str, seed: int | None, tiny: bool):
    from workloads import TINY, WORKLOADS

    cls = WORKLOADS[name]
    return cls(cls.default_seed if seed is None else seed, **(TINY[name] if tiny else {}))


def child_argv(args, workload: str, *extra: str) -> list[str]:
    """This script's command line for another process on the same seed and sizes."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, *extra]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    return argv + (["--tiny"] if args.tiny else [])


def probe_setup(args, calibrator) -> list[float]:
    """Scaled seconds from process start to ready, over SETUP_PROBES fresh processes."""
    argv = child_argv(args, args.workload, "--probe")
    times = []
    before = calibrator.sample()
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.stdout.read()
            if proc.wait() != 0 or ready.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = calibrator.sample(CALIBRATION_SHARE * elapsed)
        times.append(calibrator.scale(elapsed, before, after))
        before = after
    return times


def run_window(wl, seconds: float, first_chunk: int, calibrator, tracer=None):
    """Closed loop: the next op starts when the previous one is checked.

    Returns (scaled latencies, wall latencies, failed op count). The
    calibration kernel runs between ops, outside their timers. An op
    that raises counts as failed; its traceback goes to stderr.
    """
    scaled, wall, failed = [], [], 0
    chunk = first_chunk
    before = calibrator.sample(CALIBRATION_SHARE * seconds)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        sid = tracer.open("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            out = wl.op(chunk)
            raised = False
        except Exception:
            traceback.print_exc()
            raised = True
        wall.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(sid)
        after = calibrator.sample(CALIBRATION_SHARE * wall[-1])
        scaled.append(calibrator.scale(wall[-1], before, after))
        before = after
        try:
            ok = not raised and wl.check(chunk, out)
        except Exception:
            traceback.print_exc()
            ok = False
        failed += not ok
        chunk += 1
    return scaled, wall, failed


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(len(ordered) * pct / 100))
    return ordered[rank - 1], len(ordered) - rank


def total_failed(wl, attempted: int, failed: int) -> int:
    """Ops failed per op or by the workload's end-of-run checks, at most
    every op; if the end-of-run checks raise, every op failed."""
    try:
        failed += wl.finish(attempted)
    except Exception:
        traceback.print_exc()
        failed = attempted
    return min(failed, attempted)


def measure(wl, seconds: float, setup_times: list[float], calibrator) -> tuple[dict, list[str]]:
    wl.setup()
    latencies, wall, failed = run_window(wl, seconds, 0, calibrator)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = total_failed(wl, len(latencies), failed)
    tail_s, beyond = tail(latencies, wl.tail_pct)
    n = len(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / sum(latencies), "ops/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    notes = [
        f"op_tail_ms: p{wl.tail_pct} of {n} ops ({beyond} beyond it)",
        f"failed_frac: {failed / n} ({failed} of {n} ops)",
        f"setup_s samples: {[round(t, 4) for t in setup_times]}",
        f"wall clock: ops_per_s={n / sum(wall):.4f} op_p50_ms={1e3 * statistics.median(wall):.3f}",
    ]
    return _result(n, failed, metrics), notes


def measure_traced(wl, seconds: float, calibrator):
    from tracer import Tracer, metric_units

    tracer = Tracer()
    tracer.install()
    try:
        sid = tracer.open("bench.setup")
        wl.setup()
        tracer.close(sid)
    finally:
        tracer.uninstall()
    plain, plain_wall, failed_plain = run_window(wl, seconds / 2, 0, calibrator)
    tracer.install()
    try:
        traced, _, failed_traced = run_window(wl, seconds / 2, len(plain), calibrator, tracer)
    finally:
        tracer.uninstall()
    n = len(plain) + len(traced)
    failed = total_failed(wl, n, failed_plain + failed_traced)
    plain_rate = len(plain) / sum(plain)
    traced_rate = len(traced) / sum(traced)
    units = metric_units()
    metrics = {name: (value, units[name]) for name, value in tracer.metrics(len(traced)).items()}
    metrics.update(
        {
            "bench.ops_per_s.untraced": (plain_rate, "ops/s"),
            "bench.ops_per_s.traced": (traced_rate, "ops/s"),
            "bench.trace_overhead": (plain_rate / traced_rate - 1.0, "ratio"),
            "bench.traced_ops": (len(traced), "ops"),
            "bench.wall_ops_per_s.untraced": (len(plain) / sum(plain_wall), "ops/s"),
            "bench.wall_op_p50_ms.untraced": (1e3 * statistics.median(plain_wall), "ms"),
        }
    )
    return _result(n, failed, metrics), tracer


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process; print every metric with its unit."""
    code = 0
    for name in NAMES:
        argv = child_argv(args, name, "--seconds", str(args.seconds), "--trace", str(args.trace))
        proc = subprocess.run(argv, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for line in lines[:-1]:
            print(f"   {line}")
        metrics = result["metrics"]
        for metric, mv in metrics.items():
            layer = metric.rsplit(".", 1)[0]
            if args.trace and metrics.get(f"{layer}.calls", {}).get("value", 1) == 0:
                continue  # a layer this workload does not exercise
            if args.trace and metric.startswith("setup.") and mv["value"] == 0:
                continue
            print(f"   {metric:44s} {mv['value']:>14.6g} {mv['unit']}")
        code = code or (not result["correct"])
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed in [0, 2^32); default: the acceptance test's")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "flycap" / "__init__.py").is_file():
        print(f"error: no flycap package under {SRC}", file=sys.stderr)
        return 2
    if args.seed is not None and not 0 <= args.seed < 2**32:
        parser.error("--seed must lie in [0, 2^32)")
    if args.workload == "all":
        return run_all(args)

    for var in BLAS_VARS:  # before numpy loads, here and in every probe
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    from calibrate import Calibrator

    calibrator = Calibrator(KERNELS[args.workload])
    setup_times = [] if args.trace or args.probe else probe_setup(args, Calibrator(SETUP_KERNEL))
    import flycap

    if Path(flycap.__file__).resolve().parent != SRC / "flycap":
        print(f"error: imported flycap from {flycap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed, args.tiny)
    if args.probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    env = environment()
    print("env: " + json.dumps(env))
    print(f"workload: {wl.name} seed={wl.seed} seconds={args.seconds} "
          f"calibration={calibrator.kernel}")
    if args.trace:
        result, tracer = measure_traced(wl, args.seconds, calibrator)
        path = OUT_DIR / f"trace-{wl.name}-seed{wl.seed}.json"
        tracer.write_sidecar(path, {"env": env, "workload": wl.name, "seed": wl.seed,
                                    "result": result})
        print(f"trace sidecar: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        result, notes = measure(wl, args.seconds, setup_times, calibrator)
        for note in notes:
            print(note)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
