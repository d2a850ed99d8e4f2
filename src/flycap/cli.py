"""Command-line entry point.

Subcommands: transform (apply the projection+cap to a feature CSV),
bounds (print a closed-form evaluator), verify (run a Monte Carlo
suite), sweep (run an accuracy sweep), synth (write a synthetic
dataset). Every output file starts with a `#` line recording the full
invocation; exit codes are 0 (success), 1 (validation error or out of
memory), and 2 (a verify suite reported failure).
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from . import data, experiments, reporting, svm, verify
from .cap import cap_error_bound
from .data import SplitSpec
from .experiments import SweepSpec, SynthSpec
from .transform import TransformConfig, build

DEFAULT_SEED = 42


class _SeedAction(argparse.Action):
    """Stores --seed and notes that it was given, in whatever spelling
    (`--seed N`, `--seed=N`, an abbreviation such as `--se N`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.seed_given = True


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

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=DEFAULT_SEED, action=_SeedAction)

    p_tr = sub.add_parser("transform", parents=[seeded], help="project+cap a feature CSV")
    p_tr.add_argument("--input", required=True)
    p_tr.add_argument("--output", required=True)
    p_tr.add_argument("--n", type=int, required=True, help="projection dimension")
    p_tr.add_argument("--p", type=float, required=True, help="Bernoulli parameter")
    p_tr.add_argument("--k", type=int, required=True, help="cap size")

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

    def suite(name: str, summary: str, trials: int = 1000) -> argparse.ArgumentParser:
        # a parent parser would share one --trials action, so one suite's
        # default would become every suite's
        v = vsub.add_parser(name, parents=[seeded], help=summary)
        v.add_argument("--trials", type=int, default=trials)
        v.add_argument("--out", required=True, help="*.csv path (JSON sits beside)")
        return v

    v_inv = suite("invertibility", "square-submatrix invertibility curve", trials=10000)
    v_inv.add_argument("--p", type=float, required=True)
    v_inv.add_argument("--m", type=parse_int_grid, required=True, help="grid a:b[:step]")

    v_jl = suite("jl", "pairwise distance preservation")
    v_jl.add_argument("--p", type=float, required=True)
    v_jl.add_argument("--m", type=int, required=True)
    v_jl.add_argument("--n", type=int, required=True)
    v_jl.add_argument("--epsilon", type=float, default=0.5)

    v_op = suite("opnorm", "operator norm over sqrt(n) scaling")
    v_op.add_argument("--p", type=float, required=True)
    v_op.add_argument("--m", type=int, required=True)
    v_op.add_argument("--n", type=parse_int_grid, required=True, help="grid a:b[:step]")

    v_det = suite("det", "determinant lower-bound incidence")
    v_det.add_argument("--p", type=float, required=True)
    v_det.add_argument("--m", type=int, required=True)
    v_det.add_argument("--epsilon", type=float, default=0.1)

    v_cap = suite("cap", "cap residual bound on random vectors")
    v_cap.add_argument("--length", type=int, required=True)
    # the cap suite draws no sign matrix; McConfig still needs a valid p
    v_cap.set_defaults(p=0.5)

    p_sw = sub.add_parser(
        "sweep", parents=[seeded], help="accuracy sweep over transform parameters"
    )
    p_sw.add_argument("--dataset", required=True, help="a feature CSV, or `synth`: SynthSpec()")
    p_sw.add_argument("--grid", required=True, choices=tuple(experiments.AXES))
    p_sw.add_argument("--axis", default=None, help="override axis values (comma list)")
    p_sw.add_argument("--repeats", type=int, default=5)
    p_sw.add_argument("--n", type=parse_int_grid, default=None,
                      help="fixed projection dims (default 433,2000; single value for noise; "
                      "not for the n grid)")
    p_sw.add_argument("--p", type=float, default=0.05)
    p_sw.add_argument("--k", type=int, default=200)
    p_sw.add_argument("--train-fraction", type=float, default=0.8)
    p_sw.add_argument("--lambda", dest="lambda_", type=float, default=1e-4)
    p_sw.add_argument("--epochs", type=int, default=20)
    p_sw.add_argument("--out", required=True, help="*.json report path (CSV sits beside)")

    p_sy = sub.add_parser("synth", parents=[seeded], help="write a synthetic blob dataset CSV")
    p_sy.add_argument("--classes", type=int, default=10)
    p_sy.add_argument("--per-class", type=int, default=100)
    p_sy.add_argument("--dim", type=int, default=433)
    p_sy.add_argument("--center-scale", type=float, default=1.5)
    p_sy.add_argument("--noise-sigma", type=float, default=0.3)
    p_sy.add_argument("--out", required=True)

    return parser


def _cmd_transform(args, invocation: str) -> int:
    dataset = data.load_csv(args.input)
    config = TransformConfig(
        input_dim=dataset.dim,
        output_dim=args.n,
        bernoulli_p=args.p,
        cap_k=min(args.k, args.n),
        seed=args.seed,
    )
    pairs = build(config).forward_pairs(dataset.features)
    out = data.FeatureDataset.capped(pairs, dataset.labels, dataset.class_names, args.n)
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
    if not args.out.endswith(".csv"):
        raise ValueError(f"--out {args.out} must end in .csv")
    cfg = verify.McConfig(trials=args.trials, seed=args.seed, p=args.p)
    if args.suite == "invertibility":
        result = verify.invertibility_curve(replace(cfg, grid=tuple(args.m)))
    elif args.suite == "jl":
        result = verify.jl_preservation(replace(cfg, epsilon=args.epsilon), m=args.m, n=args.n)
    elif args.suite == "opnorm":
        result = verify.opnorm_scaling(cfg, m=args.m, n_grid=args.n)
    elif args.suite == "det":
        result = verify.det_bound_incidence(cfg, m=args.m, epsilon=args.epsilon)
    else:
        result = verify.cap_bound_sweep(cfg, length=args.length)
    reporting.write_csv(args.out, result.records, invocation)
    json_path = args.out.removesuffix(".csv") + ".json"
    reporting.write_json(json_path, result.to_json_obj(), invocation)
    print(f"suite={result.suite} passed={result.passed} records={len(result.records)}")
    return 0 if result.passed else 2


def _cmd_sweep(args, invocation: str) -> int:
    synth = SynthSpec() if args.dataset == "synth" else None
    table_path = args.out.removesuffix(".json") + ".csv"
    outputs = {os.path.realpath(args.out), os.path.realpath(table_path)}
    if synth is None and os.path.realpath(args.dataset) in outputs:
        raise ValueError(f"--out {args.out} would overwrite --dataset {args.dataset}")
    if not args.out.endswith(".json"):
        raise ValueError(f"--out {args.out} must end in .json")
    parse = parse_float_list if args.grid in ("p", "noise") else parse_int_grid
    values = None if args.axis is None else parse(args.axis)
    grid = experiments.preset_grid(args.grid, values, p=args.p, k=args.k, n_fixed=args.n)
    spec = SweepSpec(
        grid=grid,
        dataset_path=None if synth else args.dataset,
        synth=synth,
        repeats=args.repeats,
        split=SplitSpec(train_fraction=args.train_fraction, seed=args.seed),
        train=svm.TrainSpec(lambda_=args.lambda_, epochs=args.epochs, seed=args.seed),
        seed=args.seed,
    )
    report = experiments.run_sweep(spec)
    rows = experiments.fig_tables(report, args.grid)
    reporting.write_json(args.out, report.to_json_obj(), invocation)
    reporting.write_csv(table_path, rows, invocation)
    print(
        f"baseline acc={report.baseline['acc_mean']:.4f} "
        f"records={len(report.records)}"
    )
    return 0


def _cmd_synth(args, invocation: str) -> int:
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
    seed = getattr(args, "seed", None)
    if seed is not None:
        print(f"seed={seed}")
        # the reproducibility header records the seed once, even when defaulted
        if not getattr(args, "seed_given", False):
            invocation += f" --seed {seed}"
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
    except (ValueError, OSError, MemoryError, experiments.SweepError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
