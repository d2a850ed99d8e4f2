"""Projection-then-cap composition: shapes, sparsity, determinism."""

import numpy as np
import pytest

from flycap import projection, transform
from flycap.cap import cap
from flycap.projection import apply, sample_matrix
from flycap.transform import Transform, TransformConfig, build


def small_config(**overrides):
    fields = dict(input_dim=30, output_dim=120, bernoulli_p=0.1, cap_k=15, seed=5)
    fields.update(overrides)
    return TransformConfig(**fields)


class TestConfig:
    def test_paper_scale_build(self):
        t = build(
            TransformConfig(
                input_dim=433, output_dim=2000, bernoulli_p=0.05, cap_k=200, seed=1
            )
        )
        assert (t.matrix.n_rows, t.matrix.n_cols) == (2000, 433)
        want = sample_matrix(2000, 433, 0.05, t.config.seed)
        assert t.matrix.order.tobytes() == want.order.tobytes()
        got = [d.tobytes() for d in t.matrix.diagonals]
        assert got == [d.tobytes() for d in want.diagonals]

    def test_validation(self):
        with pytest.raises(ValueError):
            TransformConfig(input_dim=0, output_dim=5, bernoulli_p=0.1, cap_k=1, seed=0)
        with pytest.raises(ValueError):
            TransformConfig(input_dim=5, output_dim=5, bernoulli_p=0.1, cap_k=6, seed=0)
        with pytest.raises(ValueError):
            TransformConfig(input_dim=5, output_dim=5, bernoulli_p=0.0, cap_k=2, seed=0)
        with pytest.raises(ValueError):
            TransformConfig(input_dim=5, output_dim=5, bernoulli_p=0.1, cap_k=-1, seed=0)


class TestForward:
    def test_zero_input_gives_zero_output(self):
        t = build(small_config())
        out = t.forward(np.zeros(30))
        assert np.array_equal(out, np.zeros(120))

    def test_cap_zero_gives_zero_output(self):
        t = build(small_config(cap_k=0))
        out = t.forward(np.random.default_rng(0).standard_normal(30))
        assert np.array_equal(out, np.zeros(120))

    def test_cap_zero_checks_input_and_makes_no_product(self, monkeypatch):
        t = build(small_config(cap_k=0))

        def no_product(*args):
            raise AssertionError("a k=0 transform called apply")

        monkeypatch.setattr(projection, "apply", no_product)
        assert np.array_equal(t.forward(np.ones(30)), np.zeros(120))
        assert np.array_equal(t.forward_batch(np.ones((3, 30))), np.zeros((3, 120)))
        bad = np.ones(30)
        bad[4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            t.forward(bad)
        with pytest.raises(ValueError, match="non-finite"):
            t.forward_batch(np.stack([np.ones(30), bad]))
        with pytest.raises(ValueError):
            t.forward(np.ones(29))
        with pytest.raises(ValueError):
            t.forward_batch(np.ones((2, 31)))

    def test_matches_projection_plus_cap(self):
        t = build(small_config())
        x = np.random.default_rng(1).standard_normal(30)
        projected = apply(t.matrix, x)
        out = t.forward(x)
        kept = out != 0.0
        assert np.array_equal(out[kept], projected[kept])

    def test_sparsity_budget(self):
        t = build(
            TransformConfig(
                input_dim=433, output_dim=2000, bernoulli_p=0.05, cap_k=200, seed=2
            )
        )
        out = t.forward(np.random.default_rng(3).standard_normal(433))
        nnz = int(np.sum(out != 0.0))
        assert nnz <= 200
        assert np.mean(out == 0.0) >= 0.9

    def test_full_cap_equals_raw_projection(self):
        t = build(small_config(cap_k=120))
        x = np.random.default_rng(4).standard_normal(30)
        assert np.array_equal(t.forward(x), apply(t.matrix, x))

    def test_deterministic_across_builds(self):
        config = small_config()
        a, b = build(config), build(config)
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(30)
            assert np.array_equal(a.forward(x), b.forward(x))

    def test_errors(self):
        t = build(small_config())
        with pytest.raises(ValueError):
            t.forward(np.zeros(29))
        with pytest.raises(ValueError):
            t.forward(np.full(30, np.nan))


class TestForwardBatch:
    def test_empty_batch(self):
        t = build(small_config())
        out = t.forward_batch(np.empty((0, 30)))
        assert out.shape == (0, 120)

    def test_single_row_equals_forward(self):
        t = build(small_config())
        x = np.random.default_rng(6).standard_normal(30)
        assert np.array_equal(t.forward_batch(x[None, :])[0], t.forward(x))

    def test_batch_equals_per_row_loop(self):
        t = build(small_config())
        rows = np.random.default_rng(7).standard_normal((1000, 30))
        batch = t.forward_batch(rows)
        for i in range(0, 1000, 97):
            assert np.array_equal(batch[i], t.forward(rows[i]))
        assert batch.shape == (1000, 120)

    def test_partial_last_block(self):
        """70 rows at n=2000 run as blocks of 32, 32 and 6 rows; each
        row equals its own forward bit for bit."""
        t = build(small_config(output_dim=2000, cap_k=200))
        rows = np.random.default_rng(8).standard_normal((70, 30))
        batch = t.forward_batch(rows)
        for i in range(70):
            assert batch[i].tobytes() == t.forward(rows[i]).tobytes()

    def test_blocks_spanning_several_tiles(self):
        """At n=7000 a 32-row block is summed over four tiles of 2048
        output rows, the last partial, while forward sums one tile; 70
        rows end in a 6-row block. Each row equals its own forward bit
        for bit."""
        t = build(small_config(output_dim=7000, cap_k=700))
        assert projection._TILE_ENTRIES // transform._BLOCK_ROWS * 3 < 7000
        rows = np.random.default_rng(9).standard_normal((70, 30))
        batch = t.forward_batch(rows)
        for i in range(70):
            assert batch[i].tobytes() == t.forward(rows[i]).tobytes()

    def test_non_finite_rows_rejected(self):
        t = build(small_config())
        rows = np.zeros((3, 30))
        rows[2, 7] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            t.forward_batch(rows)

    def test_ragged_rows_rejected(self):
        t = build(small_config())
        with pytest.raises(ValueError):
            t.forward_batch([[1.0] * 30, [1.0] * 29])

    def test_non_numeric_rows_rejected(self):
        """numpy's reason is passed on, not reported as ragged rows."""
        t = build(small_config(input_dim=3))
        with pytest.raises(ValueError, match="could not convert string to float: 'a'") as err:
            t.forward_batch([["a", 1, 2]])
        assert "ragged" not in str(err.value)
        with pytest.raises(ValueError, match="not 'dict'"):
            t.forward_batch([[{}, 1, 2]])

    def test_wrong_width_rejected(self):
        t = build(small_config())
        with pytest.raises(ValueError):
            t.forward_batch(np.zeros((4, 31)))
        with pytest.raises(ValueError, match="expected a 2-D batch"):
            t.forward_batch([])


def scatter(columns, values, n):
    """Dense rows from (column, value) pairs, one row at a time."""
    out = np.zeros((values.shape[0], n))
    for i in range(values.shape[0]):
        out[i, columns[i]] = values[i]
    return out


class TestForwardPairs:
    """forward_batch is the scatter of forward_pairs, bit for bit."""

    def check(self, t, rows):
        columns, values = t.forward_pairs(rows)
        n, k = t.config.output_dim, t.config.cap_k
        assert columns.dtype == np.int32 and values.dtype == np.float64
        assert columns.shape == values.shape == (len(rows), k)
        assert np.all(np.diff(columns, axis=1) > 0)
        assert np.all((0 <= columns) & (columns < n))
        assert scatter(columns, values, n).tobytes() == t.forward_batch(rows).tobytes()
        return columns, values

    def test_k_zero(self):
        t = build(small_config(cap_k=0))
        columns, values = self.check(t, np.random.default_rng(20).standard_normal((5, 30)))
        assert columns.shape == (5, 0)

    def test_k_equal_to_n_holds_one_arange(self):
        t = build(small_config(cap_k=120))
        rows = np.random.default_rng(21).standard_normal((40, 30))
        columns, values = self.check(t, rows)
        assert columns.strides[0] == 0 and columns.base is not None
        assert np.array_equal(columns[0], np.arange(120))
        assert values.tobytes() == apply(t.matrix, rows).tobytes()

    def test_ties_at_the_kth_magnitude(self):
        """Small integer rows project to integers, so many rows tie at
        their k-th magnitude; the lower columns win, as in `cap`."""
        t = build(small_config(bernoulli_p=0.3, cap_k=40))
        rows = np.random.default_rng(22).integers(-2, 3, (50, 30)).astype(float)
        columns, values = self.check(t, rows)
        projected = apply(t.matrix, rows)
        mags = np.sort(np.abs(projected), axis=1)[:, ::-1]
        assert np.any(mags[:, 39] == mags[:, 40])
        assert np.array_equal(scatter(columns, values, 120), [cap(row, 40) for row in projected])

    def test_all_zero_row_keeps_explicit_zeros(self):
        t = build(small_config())
        rows = np.zeros((3, 30))
        rows[1] = np.random.default_rng(23).standard_normal(30)
        columns, values = self.check(t, rows)
        for i in (0, 2):
            assert np.array_equal(columns[i], np.arange(15))
            assert values[i].tobytes() == np.zeros(15).tobytes()

    def test_negative_zero_inputs(self):
        """`apply` sums each entry from +0.0, so a row of -0.0 projects
        to +0.0 entries, all tied: the first k columns are kept."""
        t = build(small_config())
        rows = np.full((4, 30), -0.0)
        rows[2, ::3] = np.random.default_rng(24).standard_normal(10)
        columns, values = self.check(t, rows)
        assert np.array_equal(columns[0], np.arange(15))
        assert values[0].tobytes() == np.zeros(15).tobytes()
        self.check(build(small_config(cap_k=120)), rows)
