"""Sampling distribution, product correctness, and storage invariants
of the sparse sign matrix."""

import dataclasses
import math

import numpy as np
import pytest

from flycap import projection
from flycap.projection import (
    SparseSignMatrix,
    apply,
    entry_stats,
    sample_matrix,
    sign_entries,
)


def empty_matrix(n_rows=3, n_cols=4):
    return SparseSignMatrix(
        n_rows,
        n_cols,
        0.05,
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.int8),
    )


def explicit_matrix(rows):
    """Build storage from a dense list-of-lists with entries in {-1,0,1}."""
    dense = np.asarray(rows)
    n_rows, n_cols = dense.shape
    nz_rows, nz_cols = np.nonzero(dense)
    return SparseSignMatrix(
        n_rows,
        n_cols,
        0.5,
        nz_rows.astype(np.int64),
        nz_cols.astype(np.int64),
        dense[nz_rows, nz_cols].astype(np.int8),
    )


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

    def test_deterministic_regeneration(self):
        a = sample_matrix(50, 40, 0.1, 123)
        b = sample_matrix(50, 40, 0.1, 123)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_matrix(self):
        a = sample_matrix(50, 40, 0.1, 123)
        b = sample_matrix(50, 40, 0.1, 124)
        assert not (
            np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
        )

    def test_rows_have_independent_streams(self):
        """A shorter sample shares its leading rows with a taller one,
        because row i depends only on (seed, i, n_cols)."""
        tall = sample_matrix(30, 25, 0.2, 9)
        short = sample_matrix(6, 25, 0.2, 9)
        end = np.searchsorted(tall.rows, 6)
        assert np.array_equal(short.rows, tall.rows[:end])
        assert np.array_equal(short.indices, tall.indices[:end])
        assert np.array_equal(short.values, tall.values[:end])

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
            u = np.stack([
                np.random.Generator(
                    np.random.Philox(key=np.array([seed, i], dtype=np.uint64))
                ).random(n_cols)
                for i in range(n_rows)
            ])
            rows, cols, values = sign_entries(u, p)
            assert np.array_equal(m.rows, rows)
            assert np.array_equal(m.indices, cols)
            assert np.array_equal(m.values, values)

    def test_storage_invariants(self):
        """Row ids are nondecreasing, each row holds as many entries as
        its stream has nonzeros, and columns are sorted within a row."""
        n_rows, n_cols, p, seed = 80, 60, 0.3, 5
        m = sample_matrix(n_rows, n_cols, p, seed)
        assert m.rows.shape == m.indices.shape == m.values.shape
        assert set(np.unique(m.values)) <= {-1, 1}
        assert np.all(np.diff(m.rows) >= 0)
        assert m.rows[0] >= 0 and m.rows[-1] < n_rows
        counts = np.bincount(m.rows, minlength=n_rows)
        for r in range(n_rows):
            u = np.random.Generator(
                np.random.Philox(key=np.array([seed, r], dtype=np.uint64))
            ).random(n_cols)
            assert counts[r] == np.count_nonzero(u < 2.0 * p * (1.0 - p))
            cols = m.indices[m.rows == r]
            assert np.all(np.diff(cols) > 0)
            assert cols.size == 0 or cols.max() < n_cols

    def test_frozen(self):
        m = sample_matrix(5, 4, 0.2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.rows = np.zeros(m.nnz, dtype=np.int64)

    def test_extreme_p_gives_nearly_empty_matrix(self):
        # zero probability 2p^2 - 2p + 1 approaches 1 as p -> 1
        m = sample_matrix(200, 200, 0.999, 3)
        assert entry_stats(m).zero_fraction > 0.99

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5])
    def test_entry_distribution(self, p):
        """Empirical sign frequencies within 5 standard errors of
        p(1-p) / p(1-p) / 2p^2-2p+1 over more than 1e6 positions."""
        n_rows, n_cols = 2000, 520
        total = n_rows * n_cols
        m = sample_matrix(n_rows, n_cols, p, 77)
        q = p * (1.0 - p)
        plus = int(np.sum(m.values == 1))
        minus = int(np.sum(m.values == -1))
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
        assert abs(entry_stats(m).mean) <= 5.0 * se


class TestEntryStats:
    def test_empty_matrix(self):
        st = entry_stats(empty_matrix())
        assert st.zero_fraction == 1.0
        assert st.mean == 0.0
        assert st.variance == 0.0

    def test_paper_scale_zero_fraction(self):
        """2000 x 433 at p = 0.05: zero fraction near 0.905 and mean
        near 0, both to binomial/CLT precision."""
        m = sample_matrix(2000, 433, 0.05, 42)
        st = entry_stats(m)
        total = 2000 * 433
        se_zero = math.sqrt(0.905 * 0.095 / total)
        assert abs(st.zero_fraction - 0.905) <= 4.0 * se_zero
        se_mean = math.sqrt(0.095 / total)
        assert abs(st.mean) <= 4.0 * se_mean

    def test_counts_consistent(self):
        m = sample_matrix(100, 90, 0.2, 8)
        st = entry_stats(m)
        assert st.zero_fraction == 1.0 - m.nnz / (100 * 90)
        assert st.variance >= 0.0


class TestApply:
    def test_explicit_product(self):
        m = explicit_matrix([[1, 0], [-1, 1]])
        assert np.array_equal(apply(m, [2.0, 3.0]), [2.0, 1.0])

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
