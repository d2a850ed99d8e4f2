"""One-vs-rest linear SVM trained by projected stochastic subgradient.

Each class gets a binary hinge-loss model with L2 regularization on the
augmented weight vector [w; b] over features centred on their train
means, updated with the classic 1/(lambda * t) step size and projected
onto the ball of radius 1/sqrt(lambda) (Pegasos). `train` returns the
running average of the iterates, far more stable than the last iterate
at practical epoch counts, mapped back to the uncentred features (the
bias absorbs the centring), as one (classes x (dim+1)) weight array with
the bias last; `predict_batch` and `evaluate` take it.

A step costs O(nonzeros of the sample) plus O(classes): the weights are
kept in scaled form (Shalev-Shwartz et al., Math. Prog. 2011, sec. 2.4),
their average lazily (Xu, arXiv:1107.2490), and the centring implicit,
so sparse features such as capped ones stay sparse. All class models
share the seed-derived visit order, so they are updated together in one
vectorized pass while remaining independent.
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


# Below this weight scale the average is flushed and the scale folded into
# the stored vector. One projection can cut the scale ~1e4-fold, and the
# flushed sum loses ~eps / scale to cancellation: at 1e-3 the weights
# agree with the explicit centred step to ~4e-12, at 1e-6 only to ~5e-9.
_FOLD_BELOW = 1e-3


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
    dim, nc = d.dim, num_classes
    # each sample as (columns, values) over its nonzeros; a row with no
    # zero takes a slice, so its step reads and writes the store in place
    rows = []
    for i in order:
        x = d.features[i]
        cols = np.flatnonzero(x)
        rows.append((slice(None), x) if cols.size == dim else (cols, x[cols]))
    means = np.zeros(dim)
    for cols, vals in rows:
        means[cols] += vals
    means /= d.n_samples
    labels = d.labels[order]
    # targets[i, c] = +1 if sample i belongs to class c else -1
    targets = np.where(np.arange(nc)[None, :] == labels[:, None], 1.0, -1.0)
    # The centred sample is z = [x - means, 1] = [x, 0] - u, u = [means, -1].
    # z_dot and z_add are its weights on the store rows a step reads and
    # writes (see below), and sq_z is |z|^2, whose zeros of x add the rest
    # of |means|^2. fsum is exact, so all-zero columns change no bit.
    sq_m = math.fsum(means * means)
    steps = []
    for (cols, vals), y in zip(rows, targets):
        at_means = means[cols]
        mx = (at_means * vals).sum()
        sq_z = ((vals - at_means) ** 2).sum() + (sq_m - (at_means * at_means).sum()) + 1.0
        if not isinstance(cols, slice):
            cols = np.append(cols, (dim, dim + 1))
        z_dot = np.append(vals, (sq_m + 1.0 - mx, -1.0))
        z_add = np.append(vals, (1.0, mx))[:, None, None]
        steps.append((cols, z_dot, z_add, sq_z, y))

    lam = spec.lambda_
    radius = 1.0 / math.sqrt(lam)
    # Per class, the weights are scale * v with v = [V, 0] - c * u, and the
    # sum of the iterates is flushed + scale_sum * v - ([B, 0] - b * u).
    # store[:, 0] holds V with c in row dim, store[:, 1] holds B with b in
    # row dim, and row dim + 1 holds V.means and B.means. So one gather of
    # a sample's rows gives v.z = V.x + c * (|means|^2 + 1 - means.x) - V.means,
    # and one scatter adds step * z to v and scale_sum * step * z to B,
    # which keeps the sum unchanged.
    store = np.zeros((dim + 2, 2, nc))
    flushed = np.zeros((dim + 2, nc))
    scale = np.ones(nc)
    lift = np.ones((2, nc))  # a step's multiplier into V and into B
    scale_sum = lift[1]
    scale_sum[:] = 0.0
    sq_v = np.zeros(nc)
    rng = derive_rng(spec.seed)
    t = 0
    for _ in range(spec.epochs):
        for i in rng.permutation(d.n_samples):
            t += 1
            at, z_dot, z_add, sq_z, y = steps[i]
            got = store[at]
            # einsum's fixed-order reduction keeps scores thread-independent
            vz = np.einsum("ij,i->j", got[:, 0], z_dot)
            active = y * scale * vz < 1.0
            if t > 1:  # at t = 1 the weights are zero and the shrink to 0 a no-op
                scale *= 1.0 - 1.0 / t
            step = (active * y) / (scale * (lam * t))
            sq_v += step * (2.0 * vz + step * sq_z)
            got += z_add * (lift * step)
            store[at] = got
            norms = scale * np.sqrt(np.maximum(sq_v, 0.0))
            scale *= radius / np.maximum(norms, radius)
            scale_sum += scale
            if scale.min() < _FOLD_BELOW:
                flushed += scale_sum * store[:, 0] - store[:, 1]
                store[:, 1] = 0.0
                scale_sum[:] = 0.0
                store[:, 0] *= scale
                sq_v *= scale * scale
                scale[:] = 1.0
    flushed += scale_sum * store[:, 0] - store[:, 1]
    averaged = flushed[: dim + 1] / t
    w = averaged[:dim] - averaged[dim] * means[:, None]
    bias = averaged[dim] - np.einsum("ij,i->j", w, means)
    return np.ascontiguousarray(np.vstack([w, bias]).T)


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

