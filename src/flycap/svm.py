"""One-vs-rest linear SVM trained by projected stochastic subgradient.

Each class gets a binary hinge-loss model with L2 regularization on the
augmented weight vector [w; b], updated with the classic 1/(lambda * t)
step size and projected onto the ball of radius 1/sqrt(lambda). `train`
returns the running average of the iterates, far more stable than the
last iterate at practical epoch counts, as one (classes x (dim+1))
weight array with the bias last; `predict_batch` and `evaluate` take it.
All class models share the seed-derived visit order, so they can be
updated together in one vectorized pass while remaining independent.
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


def _canonical_order(d: FeatureDataset) -> np.ndarray:
    """Sort samples by feature values (then label) so that training is
    invariant to the order rows arrived in."""
    keys = (d.labels,) + tuple(d.features[:, ::-1].T)
    return np.lexsort(keys)


def train(d: FeatureDataset, spec: TrainSpec) -> np.ndarray:
    """Fit one binary model per class over seed-shuffled epochs.

    Returns the averaged float64 weights, (num_classes, dim + 1), bias last.
    The visit order is a pure function of the seed and the canonical
    sample order, never of the input row order, so permuting the
    dataset's rows leaves the trained weights bit-identical.
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
    x = np.hstack([d.features[order], np.ones((d.n_samples, 1))])
    labels = d.labels[order]
    # targets[c, i] = +1 if sample i belongs to class c else -1
    targets = np.where(labels[None, :] == np.arange(num_classes)[:, None], 1.0, -1.0)

    lam = spec.lambda_
    radius = 1.0 / math.sqrt(lam)
    weights = np.zeros((num_classes, d.dim + 1))
    averaged = np.zeros_like(weights)
    rng = derive_rng(spec.seed)
    t = 0
    for _ in range(spec.epochs):
        for i in rng.permutation(d.n_samples):
            t += 1
            eta = 1.0 / (lam * t)
            xi = x[i]
            y = targets[:, i]
            # fixed-order reduction keeps scores thread-independent
            scores = (weights * xi).sum(axis=1)
            weights *= 1.0 - eta * lam
            # an inactive class adds +-0.0; one inside the ball scales by 1.0
            weights += np.where(y * scores < 1.0, eta * y, 0.0)[:, None] * xi
            norms = np.sqrt((weights * weights).sum(axis=1))
            weights *= (radius / np.maximum(norms, radius))[:, None]
            averaged += (weights - averaged) / t
    return averaged


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

