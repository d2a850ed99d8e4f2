"""The two-stage signal transform: sparse sign projection, then cap.

A transform maps an m-vector to an n-vector (typically n >> m) by
multiplying with a random sign matrix and zeroing everything but the
k largest-magnitude coordinates, mimicking an expand-then-inhibit
sensing circuit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projection
from .cap import cap
from .seeding import check_seed


@dataclass(frozen=True)
class TransformConfig:
    """Everything needed to rebuild one transform bit-for-bit."""

    input_dim: int
    output_dim: int
    bernoulli_p: float
    cap_k: int
    seed: int

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if self.output_dim < 1:
            raise ValueError(f"output_dim must be positive, got {self.output_dim}")
        if not 0.0 < self.bernoulli_p < 1.0:
            raise ValueError(f"bernoulli_p must lie in (0, 1), got {self.bernoulli_p}")
        if not 0 <= self.cap_k <= self.output_dim:
            raise ValueError(
                f"cap_k must lie in [0, output_dim], got {self.cap_k} with n={self.output_dim}"
            )
        check_seed(self.seed)


@dataclass(eq=False)
class Transform:
    """A built transform; threads may share one (forward only reads its state)."""

    config: TransformConfig
    matrix: projection.SparseSignMatrix

    def forward(self, s: np.ndarray) -> np.ndarray:
        """Project s and keep the cap_k largest-magnitude coordinates."""
        return cap(projection.apply(self.matrix, s), self.config.cap_k)

    def forward_batch(self, rows) -> np.ndarray:
        """Row-wise forward; preserves row order.

        Every row goes through the exact single-vector path, so a batch
        equals the per-row loop bit-for-bit.
        """
        try:
            rows = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"rows must form a rectangular array of numbers: {exc}") from None
        if rows.ndim == 1 and rows.shape[0] == 0:
            rows = rows.reshape(0, self.config.input_dim)
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {rows.shape}")
        if rows.shape[1] != self.config.input_dim:
            raise ValueError(
                f"rows have length {rows.shape[1]}, "
                f"transform expects {self.config.input_dim}"
            )
        if rows.shape[0] == 0:
            return np.empty((0, self.config.output_dim))
        return np.stack([self.forward(row) for row in rows])


def build(config: TransformConfig) -> Transform:
    """Sample the projection matrix for a config; deterministic in the seed."""
    matrix = projection.sample_matrix(
        config.output_dim, config.input_dim, config.bernoulli_p, config.seed
    )
    return Transform(config=config, matrix=matrix)
