"""One-vs-rest linear SVM trained by mini-batch projected subgradient.

Each class gets a binary hinge-loss model with L2 regularization on the
augmented weight vector [w; b] over features centred on their train
means, z = [x - means, 1]. A step averages the hinge subgradient over
`_BATCH` samples, takes the classic 1/(lambda * t) step and projects onto
the ball of radius 1/sqrt(lambda): mini-batch Pegasos (Shalev-Shwartz,
Singer, Srebro & Cotter, Math. Prog. 2011, sec. 2.3). `train` returns
the running average of the iterates, far more stable than the last
iterate at practical epoch counts, mapped back to the uncentred features
(the bias absorbs the centring), as one (classes x (dim+1)) weight array
with the bias last; `predict_batch` and `evaluate` take it.

All class models share the seed-derived batches, so a step updates them
together in a few dense contractions while they remain independent.
Columns that are zero throughout train take no part in them and get
+0.0 weights, so padding a dataset with zero columns changes no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset
from .seeding import check_seed, derive_rng


@dataclass(frozen=True)
class TrainSpec:
    lambda_: float = 1e-4
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lambda_ < math.inf:
            raise ValueError(f"lambda_ must be positive and finite, got {self.lambda_}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        check_seed(self.seed)


_BATCH = 16  # samples per step


def _canonical_order(d: FeatureDataset) -> np.ndarray:
    """Sort samples by feature values (then label) so that training is
    invariant to the order rows arrived in."""
    keys = (d.labels,) + tuple(d.features[:, ::-1].T)
    return np.lexsort(keys)


def train(d: FeatureDataset, spec: TrainSpec) -> np.ndarray:
    """Fit one binary model per class over seed-shuffled epochs.

    Returns the averaged float64 weights, (num_classes, dim + 1), bias last,
    for the features as given: training centres on the column means taken
    in canonical sample order, and the bias absorbs them. The visit order
    is a pure function of the seed and the canonical sample order, never
    of the input row order, so permuting the dataset's rows leaves the
    trained weights bit-identical.
    """
    if d.n_samples == 0:
        raise ValueError("cannot train on an empty dataset")
    num_classes = d.num_classes
    if np.unique(d.labels).size < 2:
        raise ValueError("training requires at least two classes with samples")
    counts = np.bincount(d.labels, minlength=num_classes)
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {empty} has no samples")

    order = _canonical_order(d)
    live = np.flatnonzero(np.any(d.features, axis=0))
    # standardize keeps no zero column, so its output is never copied here
    x = d.features if live.size == d.dim else d.features.take(live, axis=1)
    width = live.size
    means = np.zeros(width)
    for i in order:  # summed in canonical order, so the row order changes no bit
        means += x[i]
    means /= d.n_samples
    # targets[i, c] = +1 if sample i belongs to class c else -1
    targets = np.where(np.arange(num_classes) == d.labels[:, None], 1.0, -1.0)

    lam = spec.lambda_
    radius = 1.0 / math.sqrt(lam)
    weights = np.zeros((num_classes, width + 1))
    averaged = np.zeros_like(weights)
    # one buffer for every batch's rows z, with the bias column left at 1
    batch = np.ones((_BATCH, width + 1))
    rng = derive_rng(spec.seed)
    t = 0
    for _ in range(spec.epochs):
        visits = order[rng.permutation(d.n_samples)]
        for start in range(0, d.n_samples, _BATCH):
            rows = visits[start : start + _BATCH]
            z = batch[: rows.size]
            np.subtract(x[rows], means, out=z[:, :width])
            y = targets[rows]
            t += 1
            # einsum's fixed-order reductions keep scores thread-independent,
            # which BLAS @ does not
            active = y * np.einsum("bj,cj->bc", z, weights) < 1.0
            weights *= 1.0 - 1.0 / t
            weights += np.einsum("bc,bj->cj", active * y, z) / (lam * t * rows.size)
            norms = np.sqrt(np.einsum("cj,cj->c", weights, weights))
            weights *= (radius / np.maximum(norms, radius))[:, None]
            averaged += (weights - averaged) / t
    w = averaged[:, :width]
    out = np.zeros((num_classes, d.dim + 1))
    out[:, live] = w
    out[:, -1] = averaged[:, width] - np.einsum("cj,j->c", w, means)
    return out


def predict_batch(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Class with the highest score under train's weights per row of a
    (samples x dim) array; ties go to the lowest class id."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    features = np.asarray(features, dtype=np.float64)
    dim = weights.shape[1] - 1
    if features.ndim != 2 or features.shape[1] != dim:
        raise ValueError(
            f"features of shape {features.shape} do not match model dim {dim}"
        )
    scores = features @ weights[:, :-1].T + weights[:, -1]
    return np.argmax(scores, axis=1)


def evaluate(weights: np.ndarray, d: FeatureDataset) -> float:
    """Fraction of correct predictions of train's weights on a dataset."""
    if d.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    return float(np.mean(predict_batch(weights, d.features) == d.labels))

