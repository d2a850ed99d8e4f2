"""Parameter sweeps over the transform-then-classify pipeline.

A sweep evaluates a grid of (variant, p, n, k, noise) points, each
averaged over repeats with a fresh projection matrix per repeat, and
emits figure-ready tables. The canonical baseline (no noise, no
transform) is computed once per sweep and echoed in every report.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import data, svm
from .data import FeatureDataset, SplitSpec
from .seeding import check_seed, derive_seed
from .svm import TrainSpec
from .transform import Transform, TransformConfig, build

VARIANTS = ("baseline", "project", "cap")

# figure family -> (record key of its axis, preset axis values)
AXES = {
    "p": ("p", (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5)),
    "n": ("n", tuple(range(433, 2834, 100))),
    "k": ("k", (0, 10, 25, 50, 100, 150, 200, 300, 433)),
    "noise": ("sigma", (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)),
}

# stream tags inside one (grid point, repeat) cell
_TAG_NOISE = 0
_TAG_MATRIX = 1
# reserved grid slot for the canonical baseline (real points use gi + 1)
_BASELINE_SLOT = 0


@dataclass(frozen=True)
class SynthSpec:
    """Synthetic stand-in dataset: Gaussian blobs shaped like the
    10-genre, 100-per-class, 433-dimensional benchmark. The default
    scale/noise pair puts the held-out baseline comfortably above 0.9."""

    num_classes: int = 10
    per_class: int = 100
    dim: int = 433
    center_scale: float = 1.5
    noise_sigma: float = 0.3
    seed: int = 7


@dataclass(frozen=True)
class GridPoint:
    """One sweep cell. variant selects the pipeline:

    - "baseline": classify raw features (p, n, k ignored)
    - "project":  projection only, no cap (k ignored)
    - "cap":      projection followed by the k-cap
    noise_sigma is the Gaussian noise added to raw features first.
    """

    variant: str
    p: float | None = None
    n: int | None = None
    k: int | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.variant != "baseline":
            if self.p is None or self.n is None:
                raise ValueError(f"variant {self.variant!r} needs p and n")
            if not 0.0 < self.p < 1.0:
                raise ValueError(f"p must lie in (0, 1), got {self.p}")
            if self.n < 1:
                raise ValueError(f"n must be positive, got {self.n}")
        if self.variant == "cap":
            if self.k is None or self.k < 0:
                raise ValueError("cap variant needs k >= 0")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep inputs: dataset source, grid, repeats, split/train recipe."""

    grid: tuple[GridPoint, ...]
    dataset_path: str | None = None
    synth: SynthSpec | None = None
    repeats: int = 5
    split: SplitSpec = SplitSpec(train_fraction=0.8, seed=0)
    train: TrainSpec = TrainSpec()
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if (self.dataset_path is None) == (self.synth is None):
            raise ValueError("exactly one of dataset_path or synth must be given")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        check_seed(self.seed)


@dataclass
class ExperimentReport:
    spec_echo: dict
    baseline: dict
    records: list[dict] = field(default_factory=list)

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec_echo,
            "baseline": self.baseline,
            "records": self.records,
        }


class SweepError(RuntimeError):
    pass


def _load_source(spec: SweepSpec) -> FeatureDataset:
    if spec.dataset_path is not None:
        return data.load_csv(spec.dataset_path)
    return data.synth_blobs(**asdict(spec.synth))


def _run_cell(
    base: FeatureDataset, point: GridPoint, spec: SweepSpec, slot: int, repeat: int
) -> tuple[float, float]:
    """One (grid point, repeat) pipeline run.

    Returns (accuracy, nonzero_fraction). All randomness
    is derived from (spec seed, slot, repeat); the split stream is
    shared across grid points of the same repeat so variants are
    compared on identical partitions.

    The noisy set is split before it is projected (the split reads only
    labels, and a row projects the same alone as in a batch). A capped
    set is carried as its k (column, value) pairs per row, from the cap
    through scaling to the classifier, and the unscaled sets are
    released before training; so beyond the raw features a cap cell
    holds about two (train + test) x k sets of pairs, never a dense
    (train + test) x n block.
    """
    noisy = data.add_noise(
        base, point.noise_sigma, derive_seed(spec.seed, slot, repeat, _TAG_NOISE)
    )
    split_spec = replace(spec.split, seed=derive_seed(spec.split.seed, repeat))
    train_set, test_set = data.split(noisy, split_spec)
    del noisy

    if point.variant != "baseline":
        cap_k = point.n if point.variant == "project" else min(point.k, point.n)
        config = TransformConfig(
            input_dim=base.dim,
            output_dim=point.n,
            bernoulli_p=point.p,
            cap_k=cap_k,
            seed=derive_seed(spec.seed, slot, repeat, _TAG_MATRIX),
        )
        # forward_pairs reads no matrix at k=0, so none is drawn
        transform = build(config) if cap_k else Transform(config, matrix=None)

        def project(d: FeatureDataset) -> FeatureDataset:
            pairs = transform.forward_pairs(d.features)
            return FeatureDataset.capped(pairs, d.labels, d.class_names, point.n)

        train_set, test_set = project(train_set), project(test_set)
    nonzero = np.count_nonzero(train_set.features) + np.count_nonzero(test_set.features)
    sparsity = nonzero / ((train_set.n_samples + test_set.n_samples) * train_set.dim)

    train_z, test_z = data.standardize(train_set, test_set)
    del train_set, test_set
    train_spec = replace(spec.train, seed=derive_seed(spec.train.seed, slot, repeat))
    weights = svm.train(train_z, train_spec)
    return svm.evaluate(weights, test_z), sparsity


def _summarize(base, point, spec, slot) -> dict:
    accs, sparsities = [], []
    for repeat in range(spec.repeats):
        acc, sparsity = _run_cell(base, point, spec, slot, repeat)
        accs.append(acc)
        sparsities.append(sparsity)
    accs = np.array(accs)
    return {
        "p": point.p,
        "n": point.n,
        "k": point.k if point.variant == "cap" else None,
        "sigma": point.noise_sigma,
        "variant": point.variant,
        "acc_mean": float(accs.mean()),
        "acc_std": float(accs.std(ddof=0)),
        "sparsity": float(np.mean(sparsities)),
    }


def run_sweep(spec: SweepSpec) -> ExperimentReport:
    """Evaluate every grid point; a failing point aborts with context."""
    base = _load_source(spec)
    baseline_point = GridPoint(variant="baseline")
    baseline = _summarize(base, baseline_point, spec, _BASELINE_SLOT)
    records = []
    for gi, point in enumerate(spec.grid):
        try:
            records.append(_summarize(base, point, spec, gi + 1))
        except Exception as exc:
            raise SweepError(f"grid point {gi} ({point}) failed: {exc}") from exc
    return ExperimentReport(
        spec_echo=_spec_echo(spec),
        baseline={"acc_mean": baseline["acc_mean"], "acc_std": baseline["acc_std"]},
        records=records,
    )


def _spec_echo(spec: SweepSpec) -> dict:
    echo = {
        "seed": spec.seed,
        "repeats": spec.repeats,
        "split": asdict(spec.split),
        "train": {
            "lambda": spec.train.lambda_,
            "epochs": spec.train.epochs,
            "seed": spec.train.seed,
        },
        "grid": [
            {
                "variant": g.variant,
                "p": g.p,
                "n": g.n,
                "k": g.k,
                "sigma": g.noise_sigma,
            }
            for g in spec.grid
        ],
    }
    if spec.dataset_path is not None:
        echo["dataset"] = spec.dataset_path
    else:
        echo["synth"] = asdict(spec.synth)
    return echo


def preset_grid(axis, values=None, *, p, k, n_fixed=None) -> list[GridPoint]:
    """One figure family's grid over `values` (default: its presets).

    p and k vary at each fixed n (default 433 and 2000; k is clamped to
    n), n at p, and noise runs baseline, projection and cap at (p, n, k)
    for each sigma at a single n (default 2000); the n axis refuses n_fixed.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; expected one of {sorted(AXES)}")
    values = AXES[axis][1] if values is None else values
    if axis == "noise":
        if n_fixed is not None and len(n_fixed) != 1:
            raise ValueError(f"the noise axis takes a single n, got {list(n_fixed)}")
        n = 2000 if n_fixed is None else n_fixed[0]
        cells = ({"variant": "baseline"}, {"variant": "project", "p": p, "n": n},
                 {"variant": "cap", "p": p, "n": n, "k": k})
        return [GridPoint(**cell, noise_sigma=sigma) for sigma in values for cell in cells]
    if axis == "n":
        if n_fixed is not None:
            raise ValueError(f"the n axis takes its dims as values, not n_fixed={list(n_fixed)}")
        return [GridPoint(variant="project", p=p, n=n) for n in values]
    n_fixed = (433, 2000) if n_fixed is None else n_fixed
    if axis == "p":
        return [GridPoint(variant="project", p=v, n=n) for v in values for n in n_fixed]
    return [
        GridPoint(variant="cap", p=p, n=n, k=min(v, n)) for v in values for n in n_fixed
    ]


def fig_tables(report: ExperimentReport, which: str) -> list[dict]:
    """Tidy rows (axis value, variant, acc_mean, acc_std, repeats) for one axis.

    The variant column carries the non-axis parameters that distinguish
    curves, so each (axis value, variant) pair is one plotted point.
    """
    if which not in AXES:
        raise ValueError(f"unknown axis {which!r}; expected one of {sorted(AXES)}")
    if not report.records:
        raise ValueError("report has no records")
    key = AXES[which][0]
    repeats = report.spec_echo.get("repeats")
    rows = []
    for rec in report.records:
        if rec[key] is None:
            continue
        rows.append(
            {
                which: rec[key],
                "variant": _curve_label(rec, key),
                "acc_mean": rec["acc_mean"],
                "acc_std": rec["acc_std"],
                "repeats": repeats,
            }
        )
    if not rows:
        raise ValueError(f"axis {which!r} absent from report")
    return rows


def _curve_label(rec: dict, axis_key: str) -> str:
    parts = [rec["variant"]]
    if rec["variant"] != "baseline":
        if axis_key != "n" and rec["n"] is not None:
            parts.append(f"n={rec['n']}")
        if axis_key != "p" and rec["p"] is not None:
            parts.append(f"p={rec['p']:g}")
        if axis_key != "k" and rec["k"] is not None:
            parts.append(f"k={rec['k']}")
    return ",".join(parts)
