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
from .cap import cap, kept_columns  # noqa: F401 (perfbench/tracer.py patches `cap` here)
from .seeding import check_seed

# rows per apply call in forward_pairs; apply's tiles keep any block in cache
_BLOCK_ROWS = 32


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
    """A built transform; threads may share one (forward only reads its
    state). `matrix` is None only when cap_k is 0, where forward_pairs never reads it."""

    config: TransformConfig
    matrix: projection.SparseSignMatrix | None

    def forward(self, s: np.ndarray) -> np.ndarray:
        """Project s and keep the cap_k largest-magnitude coordinates.

        The same bits as s's row of any forward_batch.
        """
        return self.forward_batch([s])[0]

    def forward_batch(self, rows) -> np.ndarray:
        """Row-wise forward as dense (rows x output_dim) rows: the scatter
        of `forward_pairs`; preserves row order."""
        columns, values = self.forward_pairs(rows)
        out = np.zeros((values.shape[0], self.config.output_dim))
        np.put_along_axis(out, columns, values, axis=1)
        return out

    def forward_pairs(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """Each row's kept columns and their values, both (rows x cap_k).

        Columns are int32, ascending in each row, as `cap` selects them;
        values are the projected entries there, explicit zeros included.
        With cap_k == output_dim the columns are a broadcast view of one
        arange. Rows are projected in blocks of 32 and each block is
        capped at once. `apply` sums each row of a block in the same order
        as a single vector, so a batch equals the per-row loop
        bit-for-bit; beyond the output, a block takes about
        2 x 32 x output_dim floats. With cap_k == 0 the rows are only
        checked and no product is made.
        """
        try:
            rows = np.asarray(rows, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"rows must form a rectangular array of numbers: {exc}") from None
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {rows.shape}")
        if rows.shape[1] != self.config.input_dim:
            raise ValueError(
                f"rows have length {rows.shape[1]}, "
                f"transform expects {self.config.input_dim}"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("rows have non-finite entries")
        n_rows, k, n = rows.shape[0], self.config.cap_k, self.config.output_dim
        if k == n:
            columns = np.broadcast_to(np.arange(n, dtype=np.int32), (n_rows, n))
        else:
            columns = np.empty((n_rows, k), dtype=np.int32)
        values = np.empty((n_rows, k))
        if k == 0:
            return columns, values
        for start in range(0, n_rows, _BLOCK_ROWS):
            projected = projection.apply(self.matrix, rows[start : start + _BLOCK_ROWS])
            kept = kept_columns(projected, k)
            stop = start + kept.shape[0]
            if k < n:
                columns[start:stop] = kept
            values[start:stop] = np.take_along_axis(projected, kept, axis=1)
        return columns, values


def build(config: TransformConfig) -> Transform:
    """Sample the projection matrix for a config; deterministic in the seed."""
    matrix = projection.sample_matrix(
        config.output_dim, config.input_dim, config.bernoulli_p, config.seed
    )
    return Transform(config=config, matrix=matrix)
