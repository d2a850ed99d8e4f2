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

Every dataset is read one way, as the dense rows `FeatureDataset` gives
whatever its layout: windows of columns of the rows that still tie for
the canonical order, sums of rows for the means, blocks of rows for the
scores, and each batch centred in one step buffer. So rows of (column,
value) pairs train to the same bits as their dense scatter, with no
dense copy of the set. Scores are einsum contractions in a fixed order,
never BLAS.
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

    live = d.live_columns()
    # standardize keeps no zero column, so its output is never copied here
    x = d.select(live)
    width = live.size
    order = _canonical_order(x)
    means = x.row_sum(order) / d.n_samples  # in canonical order, so the row order changes no bit
    centred = x.centred_rows(means, _BATCH)
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
            z = centred(rows)
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
    """Class with the highest score under train's weights per dense
    (samples x dim) row, ties to the lowest class id.

    Scores are einsum contractions in a fixed order, never BLAS, so no
    BLAS kernel or thread count changes a prediction.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    features = np.asarray(features, dtype=np.float64)
    dim = weights.shape[1] - 1
    if features.ndim != 2 or features.shape[1] != dim:
        raise ValueError(f"features of shape {features.shape} do not match model dim {dim}")
    scores = np.einsum("bj,cj->bc", features, weights[:, :-1])
    return np.argmax(scores + weights[:, -1], axis=1)


def evaluate(weights: np.ndarray, d: FeatureDataset) -> float:
    """Fraction of correct predictions of train's weights on a dataset,
    scored over dense blocks of its rows."""
    if d.n_samples == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if np.shape(weights)[-1] != d.dim + 1:
        raise ValueError(f"weights of shape {np.shape(weights)} do not match dim {d.dim}")
    predicted = np.concatenate([predict_batch(weights, block) for block in d.dense_blocks()])
    return float(np.mean(predicted == d.labels))
