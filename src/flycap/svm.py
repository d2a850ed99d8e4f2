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

Rows of (column, value) pairs train to the same bits as their dense
scatter, with no dense copy of the set: the canonical order is sorted
from dense blocks of columns, the means are summed over dense blocks of
rows, and each batch's pairs are scattered into its centred rows.
Scores are einsum contractions in a fixed order, never BLAS, over the
weight columns a row's pairs hold.
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
_KEY_COLUMNS = 64  # columns per block of the canonical order's lexsort
_SCORE_ROWS = 64  # rows per block of predict_batch's gathered weights


def _canonical_order(d: FeatureDataset) -> np.ndarray:
    """Sort samples by feature values (then label) so that training is
    invariant to the order rows arrived in.

    This is np.lexsort's permutation over the label and every dense
    column, column 0 most significant, built least significant first:
    one stable lexsort per block of 64 columns, each block densified on
    its own from the rows in the order found so far.
    """
    order = np.argsort(d.labels, kind="stable")
    if d.columns is not None:
        # the nonzero pairs, grouped by column so that each block reads only its own
        rows, at = np.nonzero(d.features)
        columns = d.columns[rows, at]
        by_column = np.argsort(columns, kind="stable")
        rows, columns = rows[by_column], columns[by_column]
        values = d.features[rows, at[by_column]]
        rank = np.empty(d.n_samples, dtype=np.intp)
    for lo in reversed(range(0, d.dim, _KEY_COLUMNS)):
        hi = min(lo + _KEY_COLUMNS, d.dim)
        if d.columns is None:
            keys = d.features[order, lo:hi]
        else:
            rank[order] = np.arange(d.n_samples)
            first, last = np.searchsorted(columns, (lo, hi))
            keys = np.zeros((d.n_samples, hi - lo))
            keys[rank[rows[first:last]], columns[first:last] - lo] = values[first:last]
        order = order[np.lexsort(keys.T[::-1])]
    return order


def train(d: FeatureDataset, spec: TrainSpec) -> np.ndarray:
    """Fit one binary model per class over seed-shuffled epochs.

    Returns the averaged float64 weights, (num_classes, dim + 1), bias last,
    for the features as given: training centres on the column means taken
    in canonical sample order, and the bias absorbs them. The visit order
    is a pure function of the seed and the canonical sample order, never
    of the input row order, so permuting the dataset's rows leaves the
    trained weights bit-identical. Rows of pairs train to the same bits
    as their dense scatter.
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
    sums = np.zeros(d.dim)
    for block in d.dense_blocks(order):  # in canonical order, so the row order changes no bit
        for row in block:
            sums += row
    if d.columns is None:
        live = np.flatnonzero(np.any(d.features, axis=0))
    else:
        live = np.unique(d.columns[d.features != 0.0])
    width = live.size
    means = sums[live] / d.n_samples
    if d.columns is None:
        # standardize keeps no zero column, so its output is never copied here
        x = d.features if width == d.dim else d.features.take(live, axis=1)
    else:
        # each pair's place in a row z; a pair off the live columns holds
        # a zero and lands on the bias, which is reset after the scatter
        slot = np.full(d.dim + 1, width)
        slot[live] = np.arange(width)
        slots = slot[d.columns]
        centred = d.features - np.append(means, 0.0)[slots]
        unstored = 0.0 - means
        offsets = np.arange(_BATCH)[:, None] * (width + 1)
    # targets[i, c] = +1 if sample i belongs to class c else -1
    targets = np.where(np.arange(num_classes) == d.labels[:, None], 1.0, -1.0)

    lam = spec.lambda_
    radius = 1.0 / math.sqrt(lam)
    weights = np.zeros((num_classes, width + 1))
    averaged = np.zeros_like(weights)
    # one buffer for every batch's rows z, with the bias column left at 1
    batch = np.ones((_BATCH, width + 1))
    flat = batch.reshape(-1)
    rng = derive_rng(spec.seed)
    t = 0
    for _ in range(spec.epochs):
        visits = order[rng.permutation(d.n_samples)]
        for start in range(0, d.n_samples, _BATCH):
            rows = visits[start : start + _BATCH]
            z = batch[: rows.size]
            if d.columns is None:
                np.subtract(x[rows], means, out=z[:, :width])
            else:
                z[:, :width] = unstored
                flat[offsets[: rows.size] + slots[rows]] = centred[rows]
                z[:, width] = 1.0
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


def predict_batch(weights: np.ndarray, features: np.ndarray, columns=None) -> np.ndarray:
    """Class with the highest score under train's weights per row, ties to
    the lowest class id. Rows are a (samples x dim) array, or the values
    of (column, value) pairs with their `columns` as in FeatureDataset.

    Scores are einsum contractions in a fixed order, never BLAS, so no
    BLAS kernel or thread count changes a prediction. Pairs read the
    weight columns they hold; a padding pair's column is the bias, which
    its zero value leaves out.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    features = np.asarray(features, dtype=np.float64)
    dim = weights.shape[1] - 1
    if columns is None:
        if features.ndim != 2 or features.shape[1] != dim:
            raise ValueError(
                f"features of shape {features.shape} do not match model dim {dim}"
            )
        scores = np.einsum("bj,cj->bc", features, weights[:, :-1])
    else:
        columns = np.asarray(columns)
        fits = columns.size == 0 or 0 <= columns.min() <= columns.max() <= dim
        if columns.shape != features.shape or not fits:
            raise ValueError(f"pairs do not fit model dim {dim}")
        by_column = np.ascontiguousarray(weights.T)
        scores = np.empty((features.shape[0], weights.shape[0]))
        for start in range(0, features.shape[0], _SCORE_ROWS):
            rows = slice(start, start + _SCORE_ROWS)
            np.einsum("be,bec->bc", features[rows], by_column[columns[rows]], out=scores[rows])
    return np.argmax(scores + weights[:, -1], axis=1)


def evaluate(weights: np.ndarray, d: FeatureDataset) -> float:
    """Fraction of correct predictions of train's weights on a dataset."""
    if d.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if np.shape(weights)[-1] != d.dim + 1:
        raise ValueError(f"weights of shape {np.shape(weights)} do not match dim {d.dim}")
    return float(np.mean(predict_batch(weights, d.features, d.columns) == d.labels))
