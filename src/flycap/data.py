"""Feature datasets: CSV ingestion, synthesis, noise, splitting, scaling.

The on-disk format is one sample per line, `label,v1,...,vdim`, with
optional leading `#` comment lines. Labels are non-negative integers or
strings; string labels are mapped to ids in first-seen order unless a
`# classes=a,b,...` directive pins the mapping.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .reporting import atomic_write_text
from .seeding import check_seed, derive_rng


class CsvFormatError(ValueError):
    pass


@dataclass(eq=False)
class FeatureDataset:
    """Labeled feature vectors; rows are samples."""

    features: np.ndarray
    labels: np.ndarray
    class_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels must align with feature rows")
        if self.labels.size and self.labels.min() < 0:
            raise ValueError("labels must be non-negative")
        if self.class_names is not None and self.labels.size:
            if self.labels.max() >= len(self.class_names):
                raise ValueError("label id exceeds class_names")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        if self.class_names is not None:
            return len(self.class_names)
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def take(self, indices) -> "FeatureDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return FeatureDataset(
            self.features[indices], self.labels[indices], self.class_names
        )


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int
    stratified: bool = True

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
                pinned_names = directive[len("classes=") :].split(",")
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
    all_ints = all(_is_int(s) for s in raw_labels)
    if pinned_names is not None:
        mapping = {name: i for i, name in enumerate(pinned_names)}
        ids = []
        for s in raw_labels:
            if s not in mapping:
                raise CsvFormatError(f"{path}: unknown label {s!r}")
            ids.append(mapping[s])
        return np.array(ids, dtype=np.int64), list(pinned_names)
    if all_ints:
        ids = [int(s) for s in raw_labels]
        if min(ids) < 0:
            raise CsvFormatError(f"{path}: unknown label {min(ids)!r} (negative)")
        return np.array(ids, dtype=np.int64), None
    seen: dict[str, int] = {}
    ids = []
    for s in raw_labels:
        if s not in seen:
            seen[s] = len(seen)
        ids.append(seen[s])
    return np.array(ids, dtype=np.int64), list(seen)


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def save_csv(d: FeatureDataset, path, invocation: str | None = None) -> None:
    """Write a dataset; floats carry 17 significant digits so that the
    load_csv round trip is bit-identical."""
    lines = []
    if d.class_names is not None:
        lines.append("# classes=" + ",".join(d.class_names))
    for label, row in zip(d.labels, d.features):
        name = d.class_names[label] if d.class_names is not None else str(int(label))
        lines.append(name + "," + ",".join(f"{v:.17g}" for v in row))
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
    if noise_sigma < 0.0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    rng = derive_rng(check_seed(seed))
    centers = rng.standard_normal((num_classes, dim))
    centers *= center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.standard_normal((num_classes * per_class, dim)) * noise_sigma
    features = np.repeat(centers, per_class, axis=0) + noise
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    return FeatureDataset(features, labels)


def add_noise(d: FeatureDataset, sigma: float, seed: int) -> FeatureDataset:
    """Add independent N(0, sigma^2) to every entry; labels unchanged.

    Each row's noise stream is derived from (seed, digest of the row's
    bytes), so the same sample receives the same noise no matter how the
    dataset has been reordered or split; this is what makes noise
    injection commute with splitting.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    seed = check_seed(seed)
    if sigma == 0.0:
        return FeatureDataset(d.features.copy(), d.labels.copy(), d.class_names)
    noisy = np.empty_like(d.features)
    for i, row in enumerate(d.features):
        digest = hashlib.blake2b(row.tobytes(), digest_size=8).digest()
        row_key = int.from_bytes(digest, "little")
        rng = derive_rng(seed, row_key)
        noisy[i] = row + rng.standard_normal(d.dim) * sigma
    return FeatureDataset(noisy, d.labels.copy(), d.class_names)


def split(d: FeatureDataset, spec: SplitSpec) -> tuple[FeatureDataset, FeatureDataset]:
    """Disjoint, exhaustive train/test partition.

    Stratified mode shuffles within each class and keeps per-class
    proportions within one sample. Selected indices are re-sorted into
    original dataset order.
    """
    if d.n_samples == 0:
        raise ValueError("cannot split an empty dataset")
    rng = derive_rng(spec.seed)
    if spec.stratified:
        train_idx = []
        for c in np.unique(d.labels):
            members = np.flatnonzero(d.labels == c)
            perm = rng.permutation(members.size)
            n_train = int(round(spec.train_fraction * members.size))
            train_idx.append(members[perm[:n_train]])
        train_idx = np.sort(np.concatenate(train_idx))
    else:
        perm = rng.permutation(d.n_samples)
        n_train = int(round(spec.train_fraction * d.n_samples))
        train_idx = np.sort(perm[:n_train])
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
    """Per-feature z-scoring with statistics taken from train only.

    Zero-variance features map to 0 in both sets.
    """
    if train.n_samples == 0:
        raise ValueError("train set is empty")
    means = train.features.mean(axis=0)
    stds = train.features.std(axis=0)
    safe = np.where(stds == 0.0, 1.0, stds)
    train_z = (train.features - means) / safe
    test_z = (test.features - means) / safe
    train_z[:, stds == 0.0] = 0.0
    test_z[:, stds == 0.0] = 0.0
    return (
        FeatureDataset(train_z, train.labels.copy(), train.class_names),
        FeatureDataset(test_z, test.labels.copy(), test.class_names),
    )
