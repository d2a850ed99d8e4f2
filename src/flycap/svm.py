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
with the bias last; `evaluate` takes it.

All class models share the seed-derived batches, so a step updates them
together while they remain independent. Columns that are zero
throughout train take no part in a step and get +0.0 weights, so
padding a dataset with zero columns changes no bit.

`svm` never reads a dataset's layout: `FeatureDataset` gives it dense
windows of columns of the rows that still tie for the canonical order,
sums of rows for the means, each batch's step (`batch_step`) and dense
blocks of rows for `evaluate`. Rows of (column, value) pairs are centred
implicitly, so a step costs what the batch holds plus O(classes x dim),
and they train to the weights of their dense scatter up to rounding.
Every contraction is an einsum or a bincount in a fixed order, never BLAS.
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
_KEY_COLUMNS = 64  # columns per window of the canonical order, densified at once


def _canonical_order(d: FeatureDataset) -> np.ndarray:
    """Sort samples by feature values (then label) so that training is
    invariant to the order rows arrived in.

    This is np.lexsort's permutation over the label and every dense
    column, column 0 most significant, for features without NaN. It is
    built from the label order most significant window of 64 columns
    first, each window densified only for the rows that still tie on
    every earlier column and sorted within their runs of ties, so beyond
    the tied rows a set of pairs costs O(nnz).
    """
    order = np.argsort(d.labels, kind="stable")
    # the positions in order that still tie, and the run of ties each is in
    at = np.arange(d.n_samples)
    run = np.zeros(d.n_samples, dtype=np.intp)
    for lo in range(0, d.dim, _KEY_COLUMNS):
        if at.size == 0:
            break
        keys = d.dense(order[at], lo, min(lo + _KEY_COLUMNS, d.dim))
        # runs are the most significant key, so each keeps its positions
        within = np.lexsort((*keys.T[::-1], run))
        order[at] = order[at[within]]
        keys = keys[within]
        ties = (run[1:] == run[:-1]) & np.all(keys[1:] == keys[:-1], axis=1)
        tied = np.append(ties, False) | np.insert(ties, 0, False)
        run = np.cumsum(np.insert(~ties, 0, True))[tied]
        at = at[tied]
    return order


def train(d: FeatureDataset, spec: TrainSpec) -> np.ndarray:
    """Fit one binary model per class over seed-shuffled epochs.

    Returns the averaged float64 weights, (num_classes, dim + 1), bias last,
    for the features as given: training centres on the column means taken
    in canonical sample order, and the bias absorbs them. The visit order
    is a pure function of the seed and the canonical sample order, never
    of the input row order, so permuting the dataset's rows leaves the
    trained weights bit-identical. Rows of pairs train to the weights of
    their dense scatter up to rounding; the order of the pairs in a row
    reaches them only through the rounding of the scores in the margin
    test.
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

    live = d.live_columns()
    # standardize keeps no zero column, so its output is never copied here
    x = d.select(live)
    width = live.size
    order = _canonical_order(x)
    means = x.row_sum(order) / d.n_samples  # in canonical order, so the row order changes no bit
    scores, add = x.batch_step(means, _BATCH)
    # targets[i, c] = +1 if sample i belongs to class c else -1
    targets = np.where(np.arange(num_classes) == d.labels[:, None], 1.0, -1.0)

    lam = spec.lambda_
    radius = 1.0 / math.sqrt(lam)
    weights = np.zeros((num_classes, width + 1))
    averaged = np.zeros_like(weights)
    rng = derive_rng(spec.seed)
    t = 0
    for _ in range(spec.epochs):
        visits = order[rng.permutation(d.n_samples)]
        for start in range(0, d.n_samples, _BATCH):
            rows = visits[start : start + _BATCH]
            y = targets[rows]
            t += 1
            active = y * scores(rows, weights) < 1.0
            weights *= 1.0 - 1.0 / t
            add(active * y, lam * t * rows.size, weights)
            norms = np.sqrt(np.einsum("cj,cj->c", weights, weights))
            weights *= (radius / np.maximum(norms, radius))[:, None]
            averaged += (weights - averaged) / t
    w = averaged[:, :width]
    out = np.zeros((num_classes, d.dim + 1))
    out[:, live] = w
    out[:, -1] = averaged[:, width] - np.einsum("cj,j->c", w, means)
    return out


def evaluate(weights: np.ndarray, d: FeatureDataset) -> float:
    """Fraction of a dataset's rows whose class is the one with the
    highest score under train's weights, ties to the lowest class id.

    Scores are einsum contractions over dense blocks of 16 rows in a
    fixed order, never BLAS, so no BLAS kernel or thread count changes
    a prediction.
    """
    if d.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if weights.shape[1] != d.dim + 1:
        raise ValueError(f"weights of shape {weights.shape} do not match dim {d.dim}")
    w, b = weights[:, :-1], weights[:, -1]
    blocks = d.dense_blocks()
    predicted = [np.argmax(np.einsum("bj,cj->bc", x, w) + b, axis=1) for x in blocks]
    return float(np.mean(np.concatenate(predicted) == d.labels))
