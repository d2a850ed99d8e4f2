"""Feature datasets: CSV ingestion, synthesis, noise, splitting, scaling.

The on-disk format is one sample per line, `label,v1,...,vdim`, with
optional leading `#` comment lines. Labels are non-negative integers or
strings; string labels are mapped to ids in first-seen order unless a
`# classes=a,b,...` directive pins the mapping.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .reporting import atomic_write_text
from .seeding import check_seed, derive_rng


class CsvFormatError(ValueError):
    pass


# rows per dense block that dense_blocks yields
_BLOCK_ROWS = 16


@dataclass(eq=False)
class FeatureDataset:
    """Labeled feature vectors; rows are samples.

    Rows are dense, `features` (samples x dim) with `columns` None, or
    each row holds the same number w of (column, value) pairs: `columns`
    (samples x w, int32) and their values in `features`, with every
    other entry zero. That is the ELLPACK layout of capped rows, built
    by `capped`. A row's columns are distinct, except for padding
    entries, which hold column `dim` and value zero (`select` pads where
    it drops a column). Only this class reads the layout: readers take
    dense rows (`dense`, `dense_blocks`, `row_sum`), column ids
    (`live_columns`, `select`) or the step of a linear model on a batch
    of rows (`batch_step`).
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: list[str] | None = None
    columns: np.ndarray | None = None
    dim: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.columns is None:
            if self.dim not in (None, self.features.shape[1]):
                raise ValueError(f"dense rows of shape {self.features.shape} have dim {self.dim}")
            self.dim = self.features.shape[1]
        else:
            if self.dim is None:
                raise ValueError("rows of pairs need their dim")
            columns = np.asarray(self.columns)
            if columns.shape != self.features.shape:
                raise ValueError("columns must match the shape of features")
            if columns.size and not 0 <= columns.min() <= columns.max() <= self.dim:
                raise ValueError(f"pair columns must lie in [0, {self.dim}]")
            self.columns = columns.astype(np.int32, copy=False)
            if np.any(self.features[self.columns == self.dim]):
                raise ValueError(f"padding pairs (column {self.dim}) must hold zero")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must align with feature rows")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if self.class_names is not None and self.labels.size:
            if self.labels.max() >= len(self.class_names):
                raise ValueError("label id exceeds class_names")

    @classmethod
    def capped(cls, pairs, labels, class_names, dim) -> "FeatureDataset":
        """Rows as `Transform.forward_pairs` gives them, (columns, values):
        held dense when every column is kept, so the values are the rows."""
        columns, values = pairs
        return cls(values, labels, class_names, None if columns.shape[1] == dim else columns, dim)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_classes(self) -> int:
        if self.class_names is not None:
            return len(self.class_names)
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def take(self, indices) -> "FeatureDataset":
        indices = np.asarray(indices, dtype=np.int64)
        columns = None if self.columns is None else self.columns[indices]
        return FeatureDataset(
            self.features[indices], self.labels[indices], self.class_names, columns, self.dim
        )

    def dense(self, rows, lo=0, hi=None) -> np.ndarray:
        """The rows at indices `rows` as a new dense (rows x (hi - lo))
        array of columns lo to hi (default: every column). Pairs cost
        O(rows x w), whatever the window."""
        hi = self.dim if hi is None else hi
        if self.columns is None:
            return self.features[rows, lo:hi]
        rows = np.asarray(rows)
        columns = self.columns[rows]
        at, pair = np.nonzero((lo <= columns) & (columns < hi))
        out = np.zeros((rows.size, hi - lo))
        out[at, columns[at, pair] - lo] = self.features[rows[at], pair]
        return out

    def dense_blocks(self, order=None):
        """Yield the rows at `order` (default: every row, in turn) as new
        dense (rows x dim) blocks of up to 16 rows."""
        order = np.arange(self.n_samples) if order is None else order
        for start in range(0, order.size, _BLOCK_ROWS):
            yield self.dense(order[start : start + _BLOCK_ROWS])

    def row_sum(self, order=None, centre=None) -> np.ndarray:
        """The sum of the dense rows at `order` (default: every row), or of
        their squared differences from `centre`, added one row at a time.
        Pairs without `centre` take one bincount, which adds each column's
        stored values in row order; the +0.0 entries left out change no
        bit of a sum from +0.0, which is never -0.0."""
        if self.columns is not None and centre is None:
            rows = slice(None) if order is None else order
            sums = np.bincount(
                self.columns[rows].ravel(), self.features[rows].ravel(), minlength=self.dim + 1
            )
            return sums[: self.dim]
        total = np.zeros(self.dim)
        for block in self.dense_blocks(order):
            if centre is not None:
                np.square(np.subtract(block, centre, out=block), out=block)
            for row in block:
                total += row
        return total

    def live_columns(self) -> np.ndarray:
        """The ascending ids of the columns with a nonzero in some row."""
        if self.columns is None:
            return np.flatnonzero(np.any(self.features, axis=0))
        return np.unique(self.columns[self.features != 0.0])

    def select(self, columns, scales=None) -> "FeatureDataset":
        """Only the given columns (ascending ids), renumbered from 0 and
        each divided by its entry of `scales` when given. The result
        shares this set's arrays if it keeps every column unscaled, and
        is built in new arrays otherwise; a pair in a column not given
        becomes padding, and a selection of no columns is held dense."""
        columns = np.asarray(columns, dtype=np.intp)
        if columns.size == self.dim and scales is None:
            return self
        if self.columns is None or columns.size == 0:
            x = self.features.take(columns, axis=1)
            if scales is not None:
                x /= scales
            return FeatureDataset(x, self.labels.copy(), self.class_names)
        slot = np.full(self.dim + 1, columns.size, dtype=np.int32)
        slot[columns] = np.arange(columns.size, dtype=np.int32)
        renumbered = slot[self.columns]
        x = np.where(renumbered < columns.size, self.features, 0.0)
        if scales is not None:
            x /= np.append(scales, 1.0)[renumbered]
        return FeatureDataset(x, self.labels.copy(), self.class_names, renumbered, columns.size)

    def batch_step(self, means: np.ndarray, size: int):
        """The two halves of a mini-batch step on rows centred on `means`,
        z = [x - means, 1], against weights (classes x (dim + 1)), bias
        last. `scores(rows, weights)` gives each z_i . w_c for at most
        `size` row indices; `add(g, scale, weights)` adds
        (sum_i g[i, c] z_i) / scale to each weights[c], in place, for the
        rows last scored. Dense rows are centred in one buffer and
        contracted by einsum in a fixed order.

        Pairs are centred implicitly, at O(size x w + classes x dim) a
        step: scores contract the weights gathered at a row's columns with
        its values, in the row's pair order, and add [-means, 1] . w_c;
        the update adds each g[i, c] x_ij / scale with g[i, c] nonzero by
        one bincount, in row order (a zero g gives signed zeros, which
        change no bit of a sum from +0.0, as it is never -0.0), then the
        rank-one (sum_i g[i, c] / scale) [-means, 1]. Padding reads and
        writes the bias, with value zero.
        """
        if self.columns is None:
            buffer = np.ones((size, self.dim + 1))

            def scores(rows, weights):
                z = buffer[: rows.size]
                np.subtract(self.features[rows], means, out=z[:, : self.dim])
                return np.einsum("bj,cj->bc", z, weights)

            def add(g, scale, weights):
                weights += np.einsum("bc,bj->cj", g, buffer[: g.shape[0]]) / scale

            return scores, add

        columns = self.columns.astype(np.intp)
        centre = np.append(-means, 1.0)
        at = values = None

        def scores(rows, weights):
            nonlocal at, values
            at, values = columns[rows], self.features[rows]
            gathered = np.einsum("cbk,bk->bc", np.take(weights, at, axis=1), values)
            return gathered + np.einsum("cj,j->c", weights, centre)

        def add(g, scale, weights):
            g = g / scale
            c, b = np.nonzero(g.T)  # class-major, rows ascending within a class
            bins = (at[b] + (c * weights.shape[1])[:, None]).ravel()
            products = (values[b] * g[b, c][:, None]).ravel()
            weights += np.bincount(bins, products, minlength=weights.size).reshape(weights.shape)
            weights += np.einsum("c,j->cj", g.sum(axis=0), centre)

        return scores, add


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )
        check_seed(self.seed)


def load_csv(path) -> FeatureDataset:
    """Parse a feature CSV; errors carry the offending line number."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise FileNotFoundError(f"dataset file not found: {path}") from None

    pinned_names: list[str] | None = None
    rows: list[list[float]] = []
    raw_labels: list[str] = []
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            directive = line[1:].strip()
            if directive.startswith("classes="):
                if pinned_names is not None:
                    raise CsvFormatError(f"{path}: line {lineno}: second `# classes=` line")
                pinned_names = directive[len("classes=") :].split(",")
                if len(set(pinned_names)) != len(pinned_names):
                    raise CsvFormatError(f"{path}: line {lineno}: repeated class name")
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise CsvFormatError(f"{path}: line {lineno}: expected `label,v1,...`")
        raw_labels.append(parts[0].strip())
        try:
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {lineno}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise CsvFormatError(f"{path}: line {lineno}: non-finite value")
        if dim is None:
            dim = len(row)
        elif len(row) != dim:
            raise CsvFormatError(
                f"{path}: line {lineno}: row has {len(row)} values, expected {dim}"
            )
        rows.append(row)

    if not rows:
        raise CsvFormatError(f"{path}: no samples")

    labels, class_names = _map_labels(raw_labels, pinned_names, path)
    return FeatureDataset(np.array(rows), labels, class_names)


def _map_labels(raw_labels, pinned_names, path):
    if pinned_names is None and all(re.fullmatch(r"-?[0-9]+", s) for s in raw_labels):
        ids = [int(s) for s in raw_labels]
        if min(ids) < 0:
            raise CsvFormatError(f"{path}: unknown label {min(ids)!r} (negative)")
        return np.array(ids, dtype=np.int64), None
    names = pinned_names if pinned_names is not None else list(dict.fromkeys(raw_labels))
    mapping = {name: i for i, name in enumerate(names)}
    ids = []
    for s in raw_labels:
        if s not in mapping:
            raise CsvFormatError(f"{path}: unknown label {s!r}")
        ids.append(mapping[s])
    return np.array(ids, dtype=np.int64), names


def save_csv(d: FeatureDataset, path, invocation: str | None = None) -> None:
    """Write a dataset as dense rows; floats carry 17 significant digits
    so that the load_csv round trip is bit-identical. A zero is written
    "0" or "-0"."""
    lines = []
    if d.class_names is not None:
        lines.append("# classes=" + ",".join(d.class_names))
    for label, row in zip(d.labels, itertools.chain.from_iterable(d.dense_blocks())):
        name = d.class_names[label] if d.class_names is not None else str(int(label))
        written = np.flatnonzero((row != 0.0) | np.signbit(row))
        cells = ["0"] * d.dim
        for j, value in zip(written.tolist(), row[written].tolist()):
            cells[j] = f"{value:.17g}"
        lines.append(name + "," + ",".join(cells))
    atomic_write_text(path, "\n".join(lines) + "\n", invocation)


def synth_blobs(
    num_classes: int,
    per_class: int,
    dim: int,
    center_scale: float,
    noise_sigma: float,
    seed: int,
) -> FeatureDataset:
    """Gaussian blobs around random directions of norm center_scale.

    Class centers are independent uniformly random directions scaled to
    center_scale; samples add i.i.d. N(0, noise_sigma^2) per coordinate.
    In high dimension, random centers are nearly orthogonal, so
    inter-class center distances concentrate near center_scale * sqrt(2).
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class, and dim must all be >= 1")
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not math.isfinite(center_scale):
        raise ValueError(f"center_scale must be finite, got {center_scale}")
    rng = derive_rng(check_seed(seed))
    centers = rng.standard_normal((num_classes, dim))
    centers *= center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.standard_normal((num_classes * per_class, dim)) * noise_sigma
    features = np.repeat(centers, per_class, axis=0) + noise
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return FeatureDataset(features, labels)


def add_noise(d: FeatureDataset, sigma: float, seed: int) -> FeatureDataset:
    """Add independent N(0, sigma^2) to every entry; labels unchanged.

    One Gaussian matrix is drawn per call from the seed's stream, row by
    row in dataset order, so every sample gets its own noise, repeated
    rows included. sigma = 0 draws nothing and returns d itself. Rows of
    pairs are refused: noise would fill the entries they do not hold.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    seed = check_seed(seed)
    if d.columns is not None:
        raise ValueError("add_noise takes dense rows, not rows of pairs")
    if sigma == 0.0:
        return d
    noisy = d.features + derive_rng(seed).standard_normal(d.features.shape) * sigma
    return FeatureDataset(noisy, d.labels.copy(), d.class_names)


def split(d: FeatureDataset, spec: SplitSpec) -> tuple[FeatureDataset, FeatureDataset]:
    """Disjoint, exhaustive, stratified train/test partition.

    Shuffles within each class and keeps per-class proportions within
    one sample. Selected indices are re-sorted into original dataset
    order.
    """
    if d.n_samples == 0:
        raise ValueError("cannot split an empty dataset")
    rng = derive_rng(spec.seed)
    train_idx = []
    for c in np.unique(d.labels):
        members = np.flatnonzero(d.labels == c)
        perm = rng.permutation(members.size)
        n_train = int(round(spec.train_fraction * members.size))
        train_idx.append(members[perm[:n_train]])
    train_idx = np.sort(np.concatenate(train_idx))
    mask = np.zeros(d.n_samples, dtype=bool)
    mask[train_idx] = True
    test_idx = np.flatnonzero(~mask)
    if train_idx.size == 0 or test_idx.size == 0:
        raise ValueError(
            f"train_fraction={spec.train_fraction} leaves an empty train or test set"
        )
    return d.take(train_idx), d.take(test_idx)


def standardize(
    train: FeatureDataset, test: FeatureDataset
) -> tuple[FeatureDataset, FeatureDataset]:
    """Per-feature scaling by the train standard deviation.

    Features with zero variance in train are dropped from both sets.
    Nothing is centred, so zeros stay zeros: `svm.train` centres each
    row on its own train means. The statistics add dense rows one at a
    time in row order, as numpy's `std(axis=0)` does for two or more
    columns, so no dense copy of a set is made; `select` copies each set
    once, in its own layout. The inputs are left unchanged.
    """
    if train.n_samples == 0:
        raise ValueError("train set is empty")
    means = train.row_sum() / train.n_samples
    stds = np.sqrt(train.row_sum(centre=means) / train.n_samples)
    keep = np.flatnonzero(stds)
    scales = stds[keep]
    return train.select(keep, scales), test.select(keep, scales)
