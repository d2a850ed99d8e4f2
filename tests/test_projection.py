"""Sampling distribution, product correctness, and storage invariants
of the sparse sign matrix."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from flycap import projection
from flycap.projection import (
    SparseSignMatrix,
    apply,
    sample_matrix,
    sign_entries,
)
from flycap.seeding import MAX_SEED


def empty_matrix(n_rows=3, n_cols=4):
    return SparseSignMatrix(
        n_rows, n_cols, 0.05, np.zeros(n_rows, dtype=np.int64), np.empty(0, dtype=np.int32)
    )


def fresh_stream_entries(n_rows, n_cols, p, seed):
    """Row i drawn from a fresh Philox keyed by (seed, i), mapped by the
    shared sign rule: the triplets sample_matrix must store."""
    u = np.stack([
        np.random.Generator(
            np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
        ).random(n_cols)
        for i in range(n_rows)
    ])
    signs = sign_entries(u, p)
    rows, cols = np.nonzero(signs)
    return rows, cols, signs[rows, cols]


def dense_triplets(m):
    """Row ids, columns and signs (int8) of the nonzeros, in row-major order."""
    dense = m.to_dense()
    rows, cols = np.nonzero(dense)
    return rows, cols, dense[rows, cols].astype(np.int8)


def assert_storage(m, entries):
    for got, want in zip(dense_triplets(m), entries):
        assert np.array_equal(got, want)


def explicit_matrix(rows):
    """Build storage from a dense list-of-lists with entries in {-1,0,1}."""
    dense = np.asarray(rows)
    n_rows, n_cols = dense.shape
    nz_rows, nz_cols = np.nonzero(dense)
    signed = np.where(dense[nz_rows, nz_cols] < 0, nz_cols + n_cols, nz_cols)
    return SparseSignMatrix(
        n_rows, n_cols, 0.5, np.count_nonzero(dense, axis=1), signed.astype(np.int32)
    )


def held_arrays(m):
    """Every array the matrix references, in its fields and their tuples."""
    fields = vars(m).values()
    values = [v for value in fields for v in (value if isinstance(value, tuple) else (value,))]
    return [v for v in values if isinstance(v, np.ndarray)]


class TestSampling:
    def test_validation(self):
        with pytest.raises(ValueError):
            sample_matrix(0, 5, 0.1, 1)
        with pytest.raises(ValueError):
            sample_matrix(5, 0, 0.1, 1)
        for bad_p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                sample_matrix(5, 5, bad_p, 1)
        with pytest.raises(ValueError):
            sample_matrix(3, 3, 0.1, -1)
        with pytest.raises(ValueError):
            sample_matrix(2**40, 2**40, 0.1, 1)

    def test_int32_index_bounds(self):
        """Shapes past the limits are refused before any allocation: the
        signed column c + n_cols must stay below 2**31 in int32, and rows,
        indexed in int64, are capped at 2**31 - 1 as a resource limit."""
        columns, rows = "int32", f"at most {2**31 - 1} rows"
        with pytest.raises(ValueError, match=columns):
            sample_matrix(1, 2**30 + 1, 0.05, 0)
        with pytest.raises(ValueError, match=rows):
            sample_matrix(2**31, 1, 0.05, 0)
        for n_rows, n_cols, match in ((1, 2**30 + 1, columns), (2**31, 1, rows)):
            with pytest.raises(ValueError, match=match):
                SparseSignMatrix(
                    n_rows, n_cols, 0.05, np.empty(0, np.int64), np.empty(0, np.int32)
                )

    def test_deterministic_regeneration(self):
        a = sample_matrix(50, 40, 0.1, 123)
        b = sample_matrix(50, 40, 0.1, 123)
        assert a.position.tobytes() == b.position.tobytes()
        assert [d.tobytes() for d in a.diagonals] == [d.tobytes() for d in b.diagonals]

    def test_seed_changes_matrix(self):
        a = sample_matrix(50, 40, 0.1, 123)
        b = sample_matrix(50, 40, 0.1, 124)
        assert not np.array_equal(a.to_dense(), b.to_dense())

    def test_rows_have_independent_streams(self):
        """A shorter sample shares its leading rows with a taller one,
        because row i depends only on (seed, i, n_cols)."""
        tall = sample_matrix(30, 25, 0.2, 9)
        short = sample_matrix(6, 25, 0.2, 9)
        assert np.array_equal(short.to_dense(), tall.to_dense()[:6])

    def test_blocks_match_per_row_streams(self):
        """Across block boundaries, row i is Philox keyed by (seed, i)
        with the counter at zero, mapped by the shared sign rule. Rows of
        300000 uniforms end on a Philox buffer boundary (4 draws); rows
        of 1001 end one draw into a buffer, so a rekey that kept the
        previous row's buffer position would show."""
        p, seed = 0.1, 2**63 + 3
        for n_rows, n_cols in ((8, 300_000), (2100, 1001)):
            block_rows = projection._BLOCK_POSITIONS // n_cols
            assert -(-n_rows // block_rows) >= 3
            m = sample_matrix(n_rows, n_cols, p, seed)
            assert_storage(m, fresh_stream_entries(n_rows, n_cols, p, seed))

    def test_key_edges_match_fresh_streams(self):
        """The rekeyed state is a fresh stream at the ends of the seed
        range: seed 0, and MAX_SEED, whose top bit the key must carry.
        Rows of 1001 uniforms end one draw into a Philox buffer, and two
        calls made back to back at different seeds share no state."""
        p, n_rows, n_cols = 0.1, 6, 1001
        seeds = (MAX_SEED, 0)
        matrices = [sample_matrix(n_rows, n_cols, p, seed) for seed in seeds]
        for m, seed in zip(matrices, seeds):
            assert_storage(m, fresh_stream_entries(n_rows, n_cols, p, seed))

    def test_storage_invariants(self):
        """Entries are signs, nnz counts them, each row holds as many as
        its stream has nonzeros, and position is the int64 inverse of the
        stable order of the rows by count, longest first."""
        n_rows, n_cols, p, seed = 80, 61, 0.3, 5
        m = sample_matrix(n_rows, n_cols, p, seed)
        dense = m.to_dense()
        assert set(np.unique(dense)) <= {-1.0, 0.0, 1.0}
        counts = np.count_nonzero(dense, axis=1)
        assert counts.sum() == m.nnz == sum(d.shape[0] for d in m.diagonals)
        for r in range(n_rows):
            u = np.random.Generator(
                np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
            ).random(n_cols)
            assert counts[r] == np.count_nonzero(u < 2.0 * p * (1.0 - p))
        assert m.position.dtype == np.int64
        order = np.argsort(-counts, kind="stable")
        assert np.array_equal(m.position[order], np.arange(n_rows))

    def test_jagged_diagonal_layout(self):
        """position places the rows by nonzero count, longest first and
        stable; diagonal j holds the signed column of entry j of each of the
        leading rows that has one."""
        m = explicit_matrix([[0, 0, 0], [1, 0, -1], [0, -1, 0], [1, 1, 1], [0, 0, 1]])
        assert m.position.tolist() == [4, 1, 2, 0, 3]
        assert [d.tolist() for d in m.diagonals] == [[0, 0, 4, 2], [1, 5], [2]]
        assert all(d.dtype == np.uint8 for d in m.diagonals)
        assert empty_matrix().diagonals == ()

    @pytest.mark.parametrize(
        "dense",
        [
            [[0, 0, 0, 0]] * 5,
            [[1, -1, 1], [0, 0, 0], [0, 0, 0], [-1, -1, -1], [0, 0, 0], [1, 0, 1]],
            [[-1]],
            [[0, 1, -1, 0, 1]],
            [[1], [0], [-1], [-1]],
            [[0, 1, 0, 0], [1, -1, -1, 1], [0, 0, -1, 0]],
        ],
        ids=["all_zero", "empty_rows", "one_by_one", "one_row", "one_col", "full_row"],
    )
    def test_derived_triplets_round_trip(self, dense):
        """nnz and to_dense give back what the layout was built from: no
        diagonals, empty rows between full ones, a single row or column,
        a row with every column set."""
        dense = np.asarray(dense)
        m = explicit_matrix(dense)
        assert m.nnz == np.count_nonzero(dense)
        got = m.to_dense()
        assert got.dtype == np.float64 and np.array_equal(got, dense)

    def test_constructor_checks_its_arrays(self):
        """counts of the wrong shape or sign, a total that is not the
        length of signed, and a signed column outside [0, 2 n_cols) are
        refused at construction, not at the first product. The largest
        signed column, 2**31 - 1 (column 2**30 - 1 with value -1), is
        accepted (no to_dense: it would allocate 8 GiB)."""
        for n_rows, counts, signed, match in (
            (3, [1, 1], [0, 3], "counts"),
            (2, [[1, 1]], [0, 3], "counts"),
            (2, [2, -1], [0], "counts"),
            (2, [1, 1], [0], "signed must hold"),
            (2, [1, 1], [[0, 3]], "signed must hold"),
            (2, [1, 1], [0, 4], "signed columns"),
            (2, [1, 1], [-1, 0], "signed columns"),
        ):
            with pytest.raises(ValueError, match=match):
                SparseSignMatrix(n_rows, 2, 0.5, np.array(counts), np.array(signed, np.int32))
        m = SparseSignMatrix(1, 2**30, 0.5, np.array([1]), np.array([2**31 - 1], np.int32))
        assert m.nnz == 1 and m.diagonals[0].tolist() == [2**31 - 1]

    def test_range_checked_before_narrowing(self):
        """At 128 columns the diagonals are uint8, into which -1 and 256
        would wrap to the valid columns 255 and 0: the int32 inputs are
        refused before the cast."""
        for bad in (-1, 256):
            with pytest.raises(ValueError, match="signed columns"):
                SparseSignMatrix(1, 128, 0.5, np.array([1]), np.array([bad], np.int32))

    @pytest.mark.parametrize(
        "n_cols, dtype",
        [(1, np.uint8), (128, np.uint8), (129, np.uint16), (32768, np.uint16), (32769, np.uint32)],
    )
    def test_width_edges(self, n_cols, dtype):
        """Each side of the uint8 and uint16 limits on 2 n_cols - 1: a
        sampled matrix and one holding the extreme signed columns 0 and
        2 n_cols - 1 store that width, decode to signs, and give the
        exact dense product of integer-valued rows."""
        edges = SparseSignMatrix(2, n_cols, 0.5, np.array([1, 1]), np.array([0, 2 * n_cols - 1]))
        rows = np.random.default_rng(n_cols).integers(-9, 10, size=(3, n_cols)).astype(float)
        for m in (sample_matrix(16, n_cols, 0.3, 5), edges):
            assert all(d.dtype == dtype for d in m.diagonals)
            dense = m.to_dense()
            assert set(np.unique(dense)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(apply(m, rows), rows @ dense.T)
            assert np.array_equal(apply(m, rows[0]), dense @ rows[0])

    def test_holds_only_the_layout(self):
        """A built matrix references one narrow entry per nonzero (its
        diagonals, 2 bytes at 433 columns) and 8 bytes per row (position),
        each array owning its buffer: no triplets, no copy of its inputs
        and no view into a larger buffer. The widest draw is the
        wide_transform benchmark's 100000 x 433 matrix."""
        sampled = [sample_matrix(n_rows, 433, 0.05, 42) for n_rows in (3000, 100000)]
        hand_built = explicit_matrix([[1, 0, -1], [0, 0, 0], [-1, 1, 1]])
        assert all(m.diagonals[0].itemsize == 2 for m in sampled)
        for m in (*sampled, hand_built):
            arrays = held_arrays(m)
            assert all(a.base is None for a in arrays)
            itemsize = m.diagonals[0].itemsize
            assert sum(a.nbytes for a in arrays) <= itemsize * m.nnz + 8 * m.n_rows + 64

    def test_sampling_peak_memory(self):
        """Sampling holds at most two nnz-length arrays of narrow entries
        (the signed columns and the diagonals built from them) plus one
        block of uniforms; the slack covers row-length arrays and the last
        block's temporaries."""
        tracemalloc.start()
        try:
            m = sample_matrix(50000, 433, 0.05, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        uniforms = 8 * projection._BLOCK_POSITIONS
        assert peak <= 2 * m.diagonals[0].itemsize * m.nnz + uniforms + 2 * 2**20

    def test_frozen(self):
        m = sample_matrix(5, 4, 0.2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.position = np.arange(m.n_rows)

    def test_extreme_p_gives_nearly_empty_matrix(self):
        # zero probability 2p^2 - 2p + 1 approaches 1 as p -> 1
        m = sample_matrix(200, 200, 0.999, 3)
        assert 1.0 - m.nnz / (200 * 200) > 0.99

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5])
    def test_entry_distribution(self, p):
        """Empirical sign frequencies within 5 standard errors of
        p(1-p) / p(1-p) / 2p^2-2p+1 over more than 1e6 positions."""
        n_rows, n_cols = 2000, 520
        total = n_rows * n_cols
        m = sample_matrix(n_rows, n_cols, p, 77)
        q = p * (1.0 - p)
        dense = m.to_dense()
        plus = int(np.sum(dense == 1))
        minus = int(np.sum(dense == -1))
        zero = total - plus - minus
        for observed, prob in ((plus, q), (minus, q), (zero, 1.0 - 2.0 * q)):
            se = math.sqrt(prob * (1.0 - prob) / total)
            assert abs(observed / total - prob) <= 5.0 * se

    def test_entry_symmetry(self):
        """The empirical mean sits within 5 standard errors of zero."""
        p = 0.05
        m = sample_matrix(2000, 520, p, 11)
        variance = 2.0 * p * (1.0 - p)
        se = math.sqrt(variance / (2000 * 520))
        assert abs(float(m.to_dense().sum()) / (2000 * 520)) <= 5.0 * se


class TestApply:
    def test_explicit_product(self):
        m = explicit_matrix([[1, 0], [-1, 1]])
        assert np.array_equal(apply(m, [2.0, 3.0]), [2.0, 1.0])

    def test_no_nonzeros_gives_float_zeros(self):
        out = apply(empty_matrix(), np.ones(4))
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros(3))

    def test_zero_vector(self):
        m = sample_matrix(30, 20, 0.2, 4)
        assert np.array_equal(apply(m, np.zeros(20)), np.zeros(30))

    def test_matches_dense_oracle(self):
        """Sparse product equals the dense brute-force product on random
        matrices up to 100 x 100 (relative error <= 1e-12)."""
        rng = np.random.default_rng(42)
        for trial in range(30):
            n_rows = int(rng.integers(1, 101))
            n_cols = int(rng.integers(1, 101))
            p = float(rng.uniform(0.02, 0.5))
            m = sample_matrix(n_rows, n_cols, p, int(rng.integers(0, 2**32)))
            x = rng.standard_normal(n_cols)
            got = apply(m, x)
            want = m.to_dense() @ x
            scale = max(1e-300, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_paper_shape_matches_dense(self):
        m = sample_matrix(200, 50, 0.05, 7)
        x = np.random.default_rng(0).standard_normal(50)
        got = apply(m, x)
        want = m.to_dense() @ x
        scale = max(1e-300, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_output_is_new_and_row_major(self):
        """A vector and blocks of 1, 2 and 32 rows come back as new
        C-contiguous arrays that own their data, equal to the dense
        product (small integer inputs, so every sum is exact)."""
        m = sample_matrix(300, 40, 0.1, 6)
        dense = m.to_dense()
        rng = np.random.default_rng(6)
        for shape in ((40,), (1, 40), (2, 40), (32, 40)):
            x = rng.integers(-3, 4, shape).astype(np.float64)
            out = apply(m, x)
            assert out.flags.c_contiguous and out.flags.owndata
            assert np.array_equal(out, x @ dense.T)

    def test_linearity(self):
        m = sample_matrix(40, 25, 0.2, 6)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(25), rng.standard_normal(25)
        lhs = apply(m, 2.5 * x - 0.5 * y)
        rhs = 2.5 * apply(m, x) - 0.5 * apply(m, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_leaves_matrix_unchanged(self):
        """apply only reads the matrix: no field is added or rebound."""
        m = sample_matrix(30, 20, 0.2, 4)
        before = dict(vars(m))
        apply(m, np.ones(20))
        after = vars(m)
        assert after.keys() == before.keys()
        assert all(after[name] is before[name] for name in before)

    def test_errors(self):
        m = sample_matrix(10, 5, 0.2, 2)
        with pytest.raises(ValueError):
            apply(m, np.zeros(6))
        with pytest.raises(ValueError):
            apply(m, np.array([1.0, np.nan, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            apply(m, np.zeros((2, 6)))
        with pytest.raises(ValueError):
            apply(m, np.zeros((1, 2, 5)))
        with pytest.raises(ValueError):
            apply(m, np.array([[0.0] * 5, [0.0, 0.0, np.inf, 0.0, 0.0]]))


def bincount_product(m, x):
    """The former product: one bincount over the triplets, adding each
    row's terms in storage (column) order from 0.0."""
    rows, cols, values = dense_triplets(m)
    return np.bincount(rows, weights=x[cols] * values, minlength=m.n_rows)


def ordered_dense_product(m, x):
    """Dense oracle summed in the same order: 0.0, then each nonzero
    term of the row from the lowest column up."""
    dense = m.to_dense()
    out = np.zeros(m.n_rows)
    for r in range(m.n_rows):
        total = 0.0
        for c in np.flatnonzero(dense[r]):
            total += dense[r, c] * x[c]
        out[r] = total
    return out


BLOCK_CASES = {
    "empty_rows": explicit_matrix(
        [[0, 0, 0, 0], [1, -1, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 1, 1]]
    ),
    "all_zero": empty_matrix(5, 4),
    "one_row": sample_matrix(1, 40, 0.3, 8),
    "one_col": sample_matrix(40, 1, 0.3, 8),
    "one_by_one": explicit_matrix([[-1]]),
    "sampled": sample_matrix(300, 70, 0.1, 9),
}


def assert_block_equals_rows_and_oracles(m, n_block):
    rng = np.random.default_rng(n_block)
    block = rng.standard_normal((n_block, m.n_cols))
    block[:, ::3] = 0.0
    block[:, 1::5] = -0.0
    got = apply(m, block)
    assert got.shape == (n_block, m.n_rows) and got.flags.c_contiguous
    for row, out in zip(block, got):
        alone = apply(m, row)
        assert alone.tobytes() == out.tobytes()
        assert bincount_product(m, row).tobytes() == out.tobytes()
        assert ordered_dense_product(m, row).tobytes() == out.tobytes()


class TestBlockApply:
    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("n_block", [0, 1, 7])
    def test_block_equals_rows_and_oracles(self, case, n_block):
        """A block, each row alone, the former bincount and the ordered
        dense oracle agree bit for bit, zeros and signed zeros included."""
        assert_block_equals_rows_and_oracles(BLOCK_CASES[case], n_block)

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    @pytest.mark.parametrize("n_block", [0, 1, 7])
    @pytest.mark.parametrize("tile_rows", [3, 7])
    def test_tiles_equal_rows_and_oracles(self, case, n_block, tile_rows, monkeypatch):
        """The same agreement when every product, block or single row,
        runs over tiles of 3 or 7 output rows: the 5-, 40- and 300-row
        cases span several tiles and end in a partial one."""
        monkeypatch.setattr(projection, "_TILE_ENTRIES", tile_rows * max(1, n_block))
        assert_block_equals_rows_and_oracles(BLOCK_CASES[case], n_block)

    def test_negative_zero_terms_sum_to_positive_zero(self):
        m = explicit_matrix([[-1, 0], [1, 1]])
        out = apply(m, np.array([0.0, -0.0]))
        assert np.signbit(out).tolist() == [False, False]
