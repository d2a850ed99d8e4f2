"""Sparse random sign matrices and their matrix-vector products.

The projection matrix has independent entries taking the value +1 or -1
each with probability p(1-p) and 0 otherwise, which is exactly the
distribution of the difference of two independent Bernoulli(p) draws.
Entries have mean zero and variance 2p(1-p). Only nonzeros are stored,
once, in the jagged-diagonal layout the products run over (Saad, SIAM
J. Sci. Stat. Comput. 1989): per row, its int64 place in the rows'
order by length; per nonzero, its signed column c or c + n_cols in the
narrowest unsigned integer that holds 2 n_cols - 1, so 1 byte up to 128
columns, 2 up to 32768 and 4 beyond.
Diagonal j holds the j-th entry of every row that has one, so a product
is a few contiguous passes per cache-sized tile of output rows instead
of one scattered pass over all nonzeros.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .seeding import check_seed

# signed columns c + n_cols stay below 2**31, so they also fit the int32
# arrays a hand-built matrix may pass in
_MAX_COLS = 2**30
# a resource limit on one request; row indices are int64
_MAX_ROWS = 2**31 - 1
# uniforms drawn per block of rows, so sampling memory follows the output
_BLOCK_POSITIONS = 2**20
# accumulator entries per tile of output rows in apply, so a tile stays in cache
_TILE_ENTRIES = 2**16


def _check_shape(n_rows: int, n_cols: int) -> None:
    if n_rows < 1 or n_cols < 1:
        raise ValueError(f"dimensions must be positive, got {n_rows}x{n_cols}")
    if n_rows > _MAX_ROWS:
        raise ValueError(f"a matrix holds at most {_MAX_ROWS} rows, got {n_rows}")
    if n_cols > _MAX_COLS:
        raise ValueError(f"{n_cols} columns overflow the int32 index (at most {_MAX_COLS} columns)")


@dataclass(frozen=True, eq=False)
class SparseSignMatrix:
    """A {-1, 0, +1} random matrix stored as its jagged-diagonal layout.

    Rebuilding with identical (n_rows, n_cols, p, seed) reproduces
    bit-identical storage: row i is drawn from its own counter-derived
    stream, so generation order cannot change the result. It is built
    from ``counts``, the entries per row, and ``signed``, every row's
    signed columns (c for +1, c + n_cols for -1) in row-major order, of
    any integer type; the constructor checks that they agree, stores
    the columns in the module's narrow width and keeps neither array.
    ``position[i]`` (int64) is row i's place in the rows ordered by
    nonzero count, longest first and stable, and ``diagonals[j]`` holds,
    for the leading rows of that order which have a j-th entry, its
    signed column. Fields cannot be reassigned and no function of this
    module writes into the arrays, so threads may share one matrix.
    """

    n_rows: int
    n_cols: int
    p: float
    counts: InitVar[np.ndarray]
    signed: InitVar[np.ndarray]
    position: np.ndarray = field(init=False, repr=False)
    diagonals: tuple[np.ndarray, ...] = field(init=False, repr=False)
    nnz: int = field(init=False)

    def __post_init__(self, counts, signed):
        _check_shape(self.n_rows, self.n_cols)
        if counts.shape != (self.n_rows,) or counts.min(initial=0) < 0:
            raise ValueError(f"counts must be {self.n_rows} nonnegative row lengths")
        if signed.shape != (counts.sum(),):
            raise ValueError(f"signed must hold {counts.sum()} entries, got shape {signed.shape}")
        if signed.min(initial=0) < 0 or signed.max(initial=0) >= 2 * self.n_cols:
            raise ValueError(f"signed columns must lie in [0, {2 * self.n_cols})")
        # only after the range check: a cast first would wrap -1 to a valid column
        signed = signed.astype(_width(self.n_cols), copy=False)
        top = counts.max(initial=0)
        # a stable sort of keys of 16 bits or fewer is a radix sort
        order = np.argsort((top - counts).astype(np.min_scalar_type(top)), kind="stable")
        starts = (np.cumsum(counts) - counts)[order]
        # diagonal j covers the rows with more than j entries, a prefix of order
        lengths = self.n_rows - np.cumsum(np.bincount(counts))[:-1]
        diagonals = tuple(
            signed.take(starts[:length] + j) for j, length in enumerate(lengths.tolist())
        )
        object.__setattr__(self, "position", np.empty_like(order))
        self.position[order] = np.arange(self.n_rows)
        object.__setattr__(self, "diagonals", diagonals)
        object.__setattr__(self, "nnz", int(signed.shape[0]))

    def to_dense(self) -> np.ndarray:
        """Dense float64 copy (for small matrices and oracle checks)."""
        out = np.zeros((self.n_rows, self.n_cols))
        order = np.argsort(self.position)  # the rows, longest first
        for diagonal in self.diagonals:
            # float signs: 1 - 2 * negative would wrap in the unsigned width
            negative, cols = np.divmod(diagonal, self.n_cols)
            out[order[: diagonal.shape[0]], cols] = 1.0 - 2.0 * negative
        return out


def _width(n_cols: int) -> np.dtype:
    """The narrowest unsigned dtype of a signed column, which is below 2 n_cols."""
    return np.min_scalar_type(2 * n_cols - 1)


def _support(p: float) -> float:
    return 2.0 * p * (1.0 - p)  # a uniform below 2p(1-p) draws a nonzero entry


def sign_entries(u: np.ndarray, p: float) -> np.ndarray:
    """The int8 sign entries of uniforms u, in u's shape: a uniform below
    p(1-p) maps to +1, one below 2p(1-p) to -1, and any other to 0."""
    support = _support(p)
    nonzero = (u < support).view(np.int8)
    return nonzero - 2 * (nonzero & (u >= 0.5 * support))


def sample_matrix(n_rows: int, n_cols: int, p: float, seed: int) -> SparseSignMatrix:
    """Draw a sparse sign matrix with i.i.d. difference-of-Bernoulli entries.

    Each entry is +1 with probability p(1-p), -1 with probability
    p(1-p), and 0 otherwise; that trinomial is distributionally equal to
    X - Y with X, Y independent Bernoulli(p), and sampling it directly
    halves the number of uniform draws. Row i comes from its own
    counter-based stream keyed by (seed, i), so the output is a pure
    function of (n_rows, n_cols, p, seed).
    """
    _check_shape(n_rows, n_cols)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    seed = check_seed(seed)

    # Row i's stream is Philox keyed by (seed, i) with the counter at
    # zero. The dict below is the state of such a fresh stream: counter
    # zero, buffer empty (buffer_pos 4), no spare 32-bit draw. Assigning
    # it after setting key[1] = i restarts the bit generator exactly as a
    # fresh Philox(key=[seed, i]) would. It holds plain ints, not the
    # uint64 arrays `bg.state` returns: the setter reads its 13 numbers
    # one at a time, and as numpy scalars they cost it ~3x as long.
    bg = np.random.Philox(key=0)
    gen = np.random.Generator(bg)
    key = [seed, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    block_rows = max(1, _BLOCK_POSITIONS // n_cols)
    u = np.empty((min(block_rows, n_rows), n_cols))
    counts, signed, width = [], [], _width(n_cols)
    for start in range(0, n_rows, block_rows):
        block = u[: min(block_rows, n_rows - start)]
        for i, row in enumerate(block, start):
            key[1] = i
            bg.state = state
            gen.random(out=row)
        cols = np.flatnonzero(block < _support(p))  # flat positions, until divmod
        values = sign_entries(block.take(cols), p)
        local_rows, cols = np.divmod(cols, n_cols)  # rebinding frees the flat positions
        counts.append(np.bincount(local_rows, minlength=block.shape[0]))
        signed.append(np.where(values < 0, cols + n_cols, cols).astype(width))
    del u, block, row  # the views would keep the uniforms while the layout is built
    # rebinding drops the pieces before the layout is built
    counts, signed = np.concatenate(counts), np.concatenate(signed)
    return SparseSignMatrix(n_rows, n_cols, p, counts, signed)


def apply(m: SparseSignMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse product M @ x of one vector or a (rows x n_cols) block.

    A vector gives a new n_rows vector and a block a new C-contiguous
    (rows x n_rows) array. Each output entry starts at 0.0 and adds its
    row's signed terms in column order, one jagged diagonal at a time
    over tiles of ~2^16 accumulator entries: rounded like any float64
    sum, reproducible bit-for-bit whatever the tiling and threads, and
    the same bits for a row alone as inside a block.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != m.n_cols:
        raise ValueError(
            f"expected a vector or rows of length {m.n_cols}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    # row c of both is +x_c and row c + n_cols is -x_c, each contiguous
    both = np.ascontiguousarray(np.concatenate((x.T, -x.T)))
    acc = np.zeros((m.n_rows,) + x.shape[:-1])
    tile = max(1, _TILE_ENTRIES // max(1, x.size // m.n_cols))
    for lo in range(0, m.n_rows, tile):
        for diagonal in m.diagonals:
            if diagonal.shape[0] <= lo:
                break  # diagonals only shorten: no later one reaches this tile
            part = diagonal[lo : lo + tile]
            acc[lo : lo + part.shape[0]] += both.take(part, axis=0)
    acc = acc.take(m.position, axis=0)  # into row order, freeing the sums in diagonal order
    return acc if acc.ndim == 1 else acc.T.copy()
