"""Sparse random sign matrices and their matrix-vector products.

The projection matrix has independent entries taking the value +1 or -1
each with probability p(1-p) and 0 otherwise, which is exactly the
distribution of the difference of two independent Bernoulli(p) draws.
Entries have mean zero and variance 2p(1-p). Only nonzeros are stored,
as row/column/value triplets in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import check_seed

_MAX_POSITIONS = np.iinfo(np.int64).max
# uniforms drawn per block of rows, so sampling memory follows the output
_BLOCK_POSITIONS = 2**20


@dataclass
class EntryStats:
    """Empirical moments of a sampled matrix, over all positions."""

    zero_fraction: float
    mean: float
    variance: float


@dataclass(frozen=True, eq=False)
class SparseSignMatrix:
    """A {-1, 0, +1} random matrix stored as (row, column, value) triplets.

    Rebuilding with identical (n_rows, n_cols, p, seed) reproduces
    bit-identical storage: row i is drawn from its own counter-derived
    stream, so generation order cannot change the result. Fields cannot
    be reassigned and no function of this module writes into the arrays,
    so threads may share one matrix.
    """

    n_rows: int
    n_cols: int
    p: float
    rows: np.ndarray  # int64 row index per stored entry, nondecreasing
    indices: np.ndarray  # int64 column index per stored entry, sorted per row
    values: np.ndarray  # int8, each exactly -1 or +1

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def to_dense(self) -> np.ndarray:
        """Dense float64 copy (for small matrices and oracle checks)."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.rows, self.indices] = self.values
        return out


def _row_generator(seed: int) -> tuple[np.random.Generator, "callable"]:
    """One reusable Philox generator plus a rekey(row) function.

    Row i's stream is Philox keyed by (seed, i) with the counter at
    zero, so any row can be regenerated independently of the others and
    of generation order; reusing a single bit-generator object just
    avoids per-row construction cost.
    """
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    template = bg.state

    def rekey(row: int) -> None:
        state = dict(template)
        state["state"] = {
            "counter": np.zeros(4, dtype=np.uint64),
            "key": np.array([seed, row], dtype=np.uint64),
        }
        state["buffer"] = np.zeros(4, dtype=np.uint64)
        state["buffer_pos"] = 4
        bg.state = state

    return gen, rekey


def sign_entries(u: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of a sign matrix drawn from a 2-D array of uniforms.

    A uniform below p(1-p) maps to +1, one below 2p(1-p) to -1, and any
    other to 0. Returns (rows, cols, values) of the nonzeros in row-major
    order, values as int8.
    """
    q = p * (1.0 - p)
    rows, cols = np.nonzero(u < 2.0 * q)
    return rows, cols, np.where(u[rows, cols] < q, 1, -1).astype(np.int8)


def sample_matrix(n_rows: int, n_cols: int, p: float, seed: int) -> SparseSignMatrix:
    """Draw a sparse sign matrix with i.i.d. difference-of-Bernoulli entries.

    Each entry is +1 with probability p(1-p), -1 with probability
    p(1-p), and 0 otherwise; that trinomial is distributionally equal to
    X - Y with X, Y independent Bernoulli(p), and sampling it directly
    halves the number of uniform draws. Row i comes from its own
    counter-based stream keyed by (seed, i), so the output is a pure
    function of (n_rows, n_cols, p, seed).
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError(f"dimensions must be positive, got {n_rows}x{n_cols}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if n_rows * n_cols > _MAX_POSITIONS:
        raise ValueError(f"{n_rows}x{n_cols} overflows the index type")
    seed = check_seed(seed)

    gen, rekey = _row_generator(seed)
    block_rows = max(1, _BLOCK_POSITIONS // n_cols)
    u = np.empty((min(block_rows, n_rows), n_cols))
    counts, cols, values = [], [], []
    for start in range(0, n_rows, block_rows):
        block = u[: min(block_rows, n_rows - start)]
        for i, row in enumerate(block, start):
            rekey(i)
            gen.random(out=row)
        local_rows, block_cols, block_values = sign_entries(block, p)
        counts.append(np.bincount(local_rows, minlength=block.shape[0]))
        cols.append(block_cols)
        values.append(block_values)
    cols = np.concatenate(cols)
    rows = np.repeat(np.arange(n_rows), np.concatenate(counts))
    return SparseSignMatrix(
        n_rows, n_cols, p, rows,
        cols.astype(np.int64, copy=False), np.concatenate(values),
    )


def apply(m: SparseSignMatrix, x: np.ndarray) -> np.ndarray:
    """Exact sparse product M @ x, accumulated in float64.

    Accumulation uses a fixed bin-summation order, so the result is
    independent of thread configuration.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != m.n_cols:
        raise ValueError(f"expected a vector of length {m.n_cols}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector has non-finite entries")
    if m.nnz == 0:
        return np.zeros(m.n_rows)
    contrib = m.values * x[m.indices]
    return np.bincount(m.rows, weights=contrib, minlength=m.n_rows)


def entry_stats(m: SparseSignMatrix) -> EntryStats:
    """Exact empirical zero fraction, mean, and variance over all positions."""
    total = m.n_rows * m.n_cols
    nnz = m.nnz
    mean = float(m.values.sum(dtype=np.int64)) / total
    # values are +-1, so the mean square equals the nonzero fraction
    variance = nnz / total - mean * mean
    return EntryStats(
        zero_fraction=1.0 - nnz / total,
        mean=mean,
        variance=variance,
    )
