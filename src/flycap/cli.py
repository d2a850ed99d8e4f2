"""Command-line entry point.

Subcommands: transform (apply the projection+cap to a feature CSV),
bounds (print a closed-form evaluator), verify (run a Monte Carlo
suite), sweep (run an accuracy sweep), synth (write a synthetic
dataset). Every output file starts with a `#` line recording the full
invocation; exit codes are 0 (success), 1 (validation error), and 2
(a verify suite reported failure).
"""

from __future__ import annotations

import argparse
import shlex
import sys

from . import bounds as bounds_mod
from . import data, experiments, reporting, svm, verify
from .cap import cap_error_bound
from .data import SplitSpec
from .experiments import GridPoint, SweepSpec, SynthSpec
from .transform import TransformConfig, build

DEFAULT_SEED = 42


def parse_int_grid(text: str) -> list[int]:
    """`a:b[:step]` (inclusive of b) or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad range {text!r}; expected a:b[:step]")
        a, b = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step < 1 or b < a:
            raise ValueError(f"bad range {text!r}")
        return list(range(a, b + 1, step))
    return [int(v) for v in text.split(",")]


def parse_float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flycap",
        description="Sparse sign projections with a winner-take-all cap: "
        "transform data, evaluate bounds, verify them empirically, and "
        "benchmark classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="project+cap a feature CSV")
    p_tr.add_argument("--input", required=True)
    p_tr.add_argument("--output", required=True)
    p_tr.add_argument("--n", type=int, required=True, help="projection dimension")
    p_tr.add_argument("--p", type=float, required=True, help="Bernoulli parameter")
    p_tr.add_argument("--k", type=int, required=True, help="cap size")
    p_tr.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_tr.add_argument(
        "--expect-dim", type=int, default=None, help="fail unless the file has this dim"
    )

    p_bounds = sub.add_parser("bounds", help="print a closed-form bound")
    bsub = p_bounds.add_subparsers(dest="bound", required=True)
    b_mom = bsub.add_parser("moments", help="entry mean / zero probability / variance")
    b_mom.add_argument("--p", type=float, required=True)
    b_jl = bsub.add_parser("jl", help="distance-preservation success bound")
    b_jl.add_argument("--epsilon", type=float, required=True)
    b_jl.add_argument("--n", type=int, required=True)
    b_jl.add_argument("--p", type=float, required=True)
    b_det = bsub.add_parser("det", help="log-scale determinant threshold")
    b_det.add_argument("--m", type=int, required=True)
    b_det.add_argument("--p", type=float, required=True)
    b_det.add_argument("--epsilon", type=float, required=True)
    b_cap = bsub.add_parser("cap", help="cap residual bound")
    b_cap.add_argument("--norm", type=float, required=True, help="p-norm of the vector")
    b_cap.add_argument("--k", type=int, required=True)
    b_cap.add_argument("--p-norm", type=float, required=True)

    p_ver = sub.add_parser("verify", help="run a Monte Carlo verification suite")
    vsub = p_ver.add_subparsers(dest="suite", required=True)

    v_inv = vsub.add_parser("invertibility", help="square-submatrix invertibility curve")
    v_inv.add_argument("--p", type=float, required=True)
    v_inv.add_argument("--m", type=parse_int_grid, required=True, help="grid a:b[:step]")
    v_inv.add_argument("--trials", type=int, default=10000)
    v_inv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_inv.add_argument("--out", required=True)

    v_jl = vsub.add_parser("jl", help="pairwise distance preservation")
    v_jl.add_argument("--p", type=float, required=True)
    v_jl.add_argument("--m", type=int, required=True)
    v_jl.add_argument("--n", type=int, required=True)
    v_jl.add_argument("--epsilon", type=float, default=0.5)
    v_jl.add_argument("--trials", type=int, default=1000)
    v_jl.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_jl.add_argument("--out", required=True)

    v_op = vsub.add_parser("opnorm", help="operator norm over sqrt(n) scaling")
    v_op.add_argument("--p", type=float, required=True)
    v_op.add_argument("--m", type=int, required=True)
    v_op.add_argument("--n", type=parse_int_grid, required=True, help="grid a:b[:step]")
    v_op.add_argument("--trials", type=int, default=1000)
    v_op.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_op.add_argument("--out", required=True)

    v_det = vsub.add_parser("det", help="determinant lower-bound incidence")
    v_det.add_argument("--p", type=float, required=True)
    v_det.add_argument("--m", type=int, required=True)
    v_det.add_argument("--epsilon", type=float, default=0.1)
    v_det.add_argument("--trials", type=int, default=1000)
    v_det.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_det.add_argument("--out", required=True)

    v_cap = vsub.add_parser("cap", help="cap residual bound on random vectors")
    v_cap.add_argument("--length", type=int, required=True)
    v_cap.add_argument("--trials", type=int, default=1000)
    v_cap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v_cap.add_argument("--out", required=True)

    p_sw = sub.add_parser("sweep", help="accuracy sweep over transform parameters")
    p_sw.add_argument("--dataset", required=True, help="a feature CSV, or `synth`: SynthSpec()")
    p_sw.add_argument("--grid", required=True, choices=("p", "n", "k", "noise"))
    p_sw.add_argument("--axis", default=None, help="override axis values (comma list)")
    p_sw.add_argument("--repeats", type=int, default=5)
    p_sw.add_argument("--n", type=parse_int_grid, default=None,
                      help="fixed projection dims (default 433,2000; single value for noise)")
    p_sw.add_argument("--p", type=float, default=0.05)
    p_sw.add_argument("--k", type=int, default=200)
    p_sw.add_argument("--train-fraction", type=float, default=0.8)
    p_sw.add_argument("--lambda", dest="lambda_", type=float, default=1e-4)
    p_sw.add_argument("--epochs", type=int, default=20)
    p_sw.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sw.add_argument("--out", required=True, help="JSON report path (CSV sits beside)")

    p_sy = sub.add_parser("synth", help="write a synthetic blob dataset CSV")
    p_sy.add_argument("--classes", type=int, default=10)
    p_sy.add_argument("--per-class", type=int, default=100)
    p_sy.add_argument("--dim", type=int, default=433)
    p_sy.add_argument("--center-scale", type=float, default=1.5)
    p_sy.add_argument("--noise-sigma", type=float, default=0.3)
    p_sy.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sy.add_argument("--out", required=True)

    return parser


def _cmd_transform(args, invocation: str) -> int:
    print(f"seed={args.seed}")
    dataset = data.load_csv(args.input)
    if args.expect_dim is not None and dataset.dim != args.expect_dim:
        raise ValueError(
            f"{args.input} has dim {dataset.dim}, expected {args.expect_dim}"
        )
    config = TransformConfig(
        input_dim=dataset.dim,
        output_dim=args.n,
        bernoulli_p=args.p,
        cap_k=min(args.k, args.n),
        seed=args.seed,
    )
    transformed = build(config).forward_batch(dataset.features)
    out = data.FeatureDataset(transformed, dataset.labels, dataset.class_names)
    data.save_csv(out, args.output, invocation)
    return 0


def _cmd_bounds(args) -> int:
    if args.bound == "moments":
        mean, zero_prob, variance = bounds_mod.entry_moments(args.p)
        print(f"mean={mean!r} zero_prob={zero_prob!r} variance={variance!r}")
    elif args.bound == "jl":
        print(repr(bounds_mod.jl_success_bound(args.epsilon, args.n, args.p)))
    elif args.bound == "det":
        print(repr(bounds_mod.det_lower_threshold(args.m, args.p, args.epsilon)))
    else:
        print(repr(cap_error_bound(args.norm, args.k, args.p_norm)))
    return 0


def _cmd_verify(args, invocation: str) -> int:
    print(f"seed={args.seed}")
    if args.suite == "invertibility":
        cfg = verify.McConfig(
            trials=args.trials, seed=args.seed, p=args.p, grid=tuple(args.m)
        )
        result = verify.invertibility_curve(cfg)
    elif args.suite == "jl":
        cfg = verify.McConfig(
            trials=args.trials, seed=args.seed, p=args.p, epsilon=args.epsilon
        )
        result = verify.jl_preservation(cfg, m=args.m, n=args.n)
    elif args.suite == "opnorm":
        cfg = verify.McConfig(trials=args.trials, seed=args.seed, p=args.p)
        result = verify.opnorm_scaling(cfg, m=args.m, n_grid=args.n)
    elif args.suite == "det":
        cfg = verify.McConfig(trials=args.trials, seed=args.seed, p=args.p)
        result = verify.det_bound_incidence(cfg, m=args.m, epsilon=args.epsilon)
    else:
        cfg = verify.McConfig(trials=args.trials, seed=args.seed, p=0.5)
        result = verify.cap_bound_sweep(cfg, length=args.length)
    reporting.write_csv(args.out, result.records, invocation)
    json_path = args.out.removesuffix(".csv") + ".json"
    reporting.write_json(json_path, result.to_json_obj(), invocation)
    print(f"suite={result.suite} passed={result.passed} records={len(result.records)}")
    return 0 if result.passed else 2


_SWEEP_AXES = {
    "p": [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5],
    "n": list(range(433, 2834, 100)),
    "k": [0, 10, 25, 50, 100, 150, 200, 300, 433],
    "noise": [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
}


def _sweep_grid(args) -> list[GridPoint]:
    if args.axis is not None:
        if args.grid in ("p", "noise"):
            axis = parse_float_list(args.axis)
        else:
            axis = parse_int_grid(args.axis)
    else:
        axis = _SWEEP_AXES[args.grid]
    n_fixed = args.n if args.n is not None else [433, 2000]
    grid: list[GridPoint] = []
    if args.grid == "p":
        for p in axis:
            for n in n_fixed:
                grid.append(GridPoint(variant="project", p=p, n=n))
    elif args.grid == "n":
        for n in axis:
            grid.append(GridPoint(variant="project", p=args.p, n=n))
    elif args.grid == "k":
        for k in axis:
            for n in n_fixed:
                grid.append(GridPoint(variant="cap", p=args.p, n=n, k=min(k, n)))
    else:
        n_noise = n_fixed[0] if args.n is not None else 2000
        for sigma in axis:
            grid.append(GridPoint(variant="baseline", noise_sigma=sigma))
            grid.append(
                GridPoint(variant="project", p=args.p, n=n_noise, noise_sigma=sigma)
            )
            grid.append(
                GridPoint(
                    variant="cap", p=args.p, n=n_noise, k=args.k, noise_sigma=sigma
                )
            )
    return grid


def _cmd_sweep(args, invocation: str) -> int:
    print(f"seed={args.seed}")
    synth = SynthSpec() if args.dataset == "synth" else None
    spec = SweepSpec(
        grid=tuple(_sweep_grid(args)),
        dataset_path=None if synth else args.dataset,
        synth=synth,
        repeats=args.repeats,
        split=SplitSpec(train_fraction=args.train_fraction, seed=args.seed, stratified=True),
        train=svm.TrainSpec(lambda_=args.lambda_, epochs=args.epochs, seed=args.seed),
        seed=args.seed,
    )
    report = experiments.run_sweep(spec)
    rows = experiments.fig_tables(report, args.grid)
    reporting.write_json(args.out, report.to_json_obj(), invocation)
    reporting.write_csv(args.out.removesuffix(".json") + ".csv", rows, invocation)
    print(
        f"baseline acc={report.baseline['acc_mean']:.4f} "
        f"records={len(report.records)}"
    )
    return 0


def _cmd_synth(args, invocation: str) -> int:
    print(f"seed={args.seed}")
    dataset = data.synth_blobs(
        args.classes, args.per_class, args.dim,
        args.center_scale, args.noise_sigma, args.seed,
    )
    data.save_csv(dataset, args.out, invocation)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    invocation = shlex.join(["flycap"] + argv)
    # the reproducibility header must record the seed even when defaulted
    if getattr(args, "seed", None) is not None and "--seed" not in argv:
        invocation += f" --seed {args.seed}"
    try:
        if args.command == "transform":
            return _cmd_transform(args, invocation)
        if args.command == "bounds":
            return _cmd_bounds(args)
        if args.command == "verify":
            return _cmd_verify(args, invocation)
        if args.command == "sweep":
            return _cmd_sweep(args, invocation)
        return _cmd_synth(args, invocation)
    except (ValueError, OSError, experiments.SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
