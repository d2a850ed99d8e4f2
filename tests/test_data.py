"""Dataset ingestion, synthesis, noise injection, splits, scaling."""

import math
import re

import numpy as np
import pytest

from flycap.data import (
    CsvFormatError,
    FeatureDataset,
    SplitSpec,
    add_noise,
    load_csv,
    save_csv,
    split,
    standardize,
    synth_blobs,
)


class TestCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# comment\n0,1.5,2.5,3.5\n1,-1,0,4\n")
        d = load_csv(path)
        assert d.features.shape == (2, 3)
        assert list(d.labels) == [0, 1]
        assert d.class_names is None

    def test_string_labels_first_seen(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("rock,1,2\njazz,3,4\nrock,5,6\n")
        d = load_csv(path)
        assert d.class_names == ["rock", "jazz"]
        assert list(d.labels) == [0, 1, 0]

    def test_classes_directive_pins_mapping(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# classes=jazz,rock\nrock,1,2\njazz,3,4\n")
        d = load_csv(path)
        assert d.class_names == ["jazz", "rock"]
        assert list(d.labels) == [1, 0]

    def test_unknown_label_with_directive(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# classes=jazz,rock\npop,1,2\n")
        with pytest.raises(CsvFormatError, match="unknown label"):
            load_csv(path)

    @pytest.mark.parametrize("text, error", [
        ("# comment\n# classes=a,a,b\na,1,2\nb,3,4\n", "line 2: repeated class name"),
        ("# classes=a,b\na,1,2\n# classes=b,a\nb,3,4\n", "line 3: second `# classes=` line"),
    ])
    def test_malformed_classes_line_rejected(self, tmp_path, text, error):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=re.escape(f"{path}: {error}")):
            load_csv(path)

    def test_negative_integer_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("-1,1,2\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

    @pytest.mark.parametrize("label", ["1_0", "+1", "\u0661"])
    def test_only_ascii_digit_labels_are_ids(self, tmp_path, label):
        """A label int() would read (`1_0` as 10, `+1`, an Arabic-Indic
        one) is a name, so every label of its file is a name."""
        path = tmp_path / "d.csv"
        path.write_text(f"{label},1,2\n10,3,4\n0,5,6\n")
        d = load_csv(path)
        assert d.class_names == [label, "10", "0"]
        assert list(d.labels) == [0, 1, 2]

    def test_no_samples(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("# just a comment\n")
        with pytest.raises(CsvFormatError, match="no samples"):
            load_csv(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1,2\n1,nope,4\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_non_finite_values_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        for bad in ("nan", "inf", "-Infinity", "1e400"):
            path.write_text(f"# comment\n0,1,2\n1,3,{bad}\n")
            with pytest.raises(CsvFormatError, match=re.escape(f"{path}: line 3")):
                load_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,1,2\n1,3\n")
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nowhere.csv")

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(17)
        d = FeatureDataset(
            rng.standard_normal((20, 7)) * 10.0 ** rng.integers(-8, 8, (20, 7)),
            rng.integers(0, 3, 20),
        )
        path = tmp_path / "d.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert np.array_equal(back.features, d.features)
        assert np.array_equal(back.labels, d.labels)

    def test_bytes_match_formatting_every_entry(self, tmp_path):
        """Only nonzeros are formatted; the text equals formatting every
        entry with 17 significant digits, signed zeros and extremes too."""
        rng = np.random.default_rng(3)
        features = rng.standard_normal((30, 40)) * (rng.random((30, 40)) < 0.2)
        features[0, :4] = [-0.0, 0.0, 5e-324, -1e308]
        features[1] = -0.0
        d = FeatureDataset(features, rng.integers(0, 4, 30))
        path = tmp_path / "d.csv"
        save_csv(d, path)
        want = "".join(
            f"{label}," + ",".join(f"{v:.17g}" for v in row) + "\n"
            for label, row in zip(d.labels, d.features)
        )
        assert path.read_text() == want
        assert np.array_equal(np.signbit(load_csv(path).features), np.signbit(features))

    def test_round_trip_with_class_names(self, tmp_path):
        d = FeatureDataset(
            np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1, 0]), ["blues", "metal"]
        )
        path = tmp_path / "d.csv"
        save_csv(d, path)
        back = load_csv(path)
        assert back.class_names == ["blues", "metal"]
        assert np.array_equal(back.labels, d.labels)
        assert np.array_equal(back.features, d.features)


class TestSynthBlobs:
    def test_paper_shape(self):
        d = synth_blobs(10, 100, 433, 1.0, 0.3, 1)
        assert d.features.shape == (1000, 433)
        assert d.num_classes == 10
        assert np.all(np.bincount(d.labels) == 100)

    def test_zero_noise_collapses_classes(self):
        d = synth_blobs(3, 5, 10, 2.0, 0.0, 2)
        for c in range(3):
            rows = d.features[d.labels == c]
            assert np.all(rows == rows[0])

    def test_deterministic(self):
        a = synth_blobs(4, 6, 20, 1.0, 0.2, 3)
        b = synth_blobs(4, 6, 20, 1.0, 0.2, 3)
        assert np.array_equal(a.features, b.features)

    def test_center_distances_concentrate(self):
        """Random unit directions in high dimension are nearly
        orthogonal, so center distances cluster near scale*sqrt(2)."""
        scale = 3.0
        d = synth_blobs(10, 1, 500, scale, 0.0, 4)
        centers = d.features
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        assert abs(np.mean(dists) - scale * math.sqrt(2)) < 0.3 * scale

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_blobs(0, 5, 5, 1.0, 0.1, 0)
        for noise_sigma in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="noise_sigma"):
                synth_blobs(2, 5, 5, 1.0, noise_sigma, 0)
        for center_scale in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="center_scale"):
                synth_blobs(2, 5, 5, center_scale, 0.1, 0)


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        d = synth_blobs(2, 10, 8, 1.0, 0.5, 5)
        noisy = add_noise(d, 0.0, 9)
        assert np.array_equal(noisy.features, d.features)

    def test_sigma_zero_returns_the_dataset_itself(self):
        """No copy at sigma = 0: the sweep's split copies the rows anyway."""
        d = synth_blobs(2, 10, 8, 1.0, 0.5, 5)
        assert add_noise(d, 0.0, 9) is d

    def test_negative_sigma_rejected(self):
        d = synth_blobs(2, 3, 4, 1.0, 0.1, 5)
        with pytest.raises(ValueError):
            add_noise(d, -0.5, 1)

    def test_non_finite_sigma_rejected(self):
        d = synth_blobs(2, 3, 4, 1.0, 0.1, 5)
        for sigma in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                add_noise(d, sigma, 0)

    def test_noise_moments(self):
        """Mean and variance of the injected noise match N(0, sigma^2)
        to 5 standard errors over 1e5 entries."""
        sigma = 0.7
        d = synth_blobs(2, 100, 500, 1.0, 0.2, 6)
        noisy = add_noise(d, sigma, 10)
        delta = (noisy.features - d.features).ravel()
        n = delta.size
        assert n == 100000
        assert abs(delta.mean()) <= 5.0 * sigma / math.sqrt(n)
        se_var = sigma**2 * math.sqrt(2.0 / (n - 1))
        assert abs(delta.var() - sigma**2) <= 5.0 * se_var

    def test_deterministic(self):
        d = synth_blobs(2, 5, 6, 1.0, 0.3, 7)
        a = add_noise(d, 0.5, 3)
        b = add_noise(d, 0.5, 3)
        assert np.array_equal(a.features, b.features)

    def test_repeated_rows_get_independent_noise(self):
        """Rows that repeat still get their own noise: a noiseless blob
        set has 5 distinct rows, and every noisy row is distinct."""
        d = synth_blobs(5, 20, 10, 1.5, 0.0, 7)
        assert np.unique(d.features, axis=0).shape[0] == 5
        noisy = add_noise(d, 8.0, 11)
        assert np.unique(noisy.features, axis=0).shape[0] == d.n_samples

    def test_pairs_are_refused(self):
        """Noise goes on every entry of dense rows; rows of pairs would
        lose their columns, so they are refused, at sigma = 0 too."""
        (train, _), _ = pairs_sets(12)
        for sigma in (0.0, 0.5):
            with pytest.raises(ValueError, match="pairs"):
                add_noise(train, sigma, 1)


class TestSplit:
    def test_800_200(self):
        d = synth_blobs(10, 100, 5, 1.0, 0.1, 9)
        train, test = split(d, SplitSpec(train_fraction=0.8, seed=1))
        assert train.n_samples == 800
        assert test.n_samples == 200

    def test_stratified_per_class(self):
        d = synth_blobs(10, 100, 5, 1.0, 0.1, 10)
        train, test = split(d, SplitSpec(train_fraction=0.8, seed=2))
        assert np.all(np.bincount(train.labels) == 80)
        assert np.all(np.bincount(test.labels) == 20)

    def test_disjoint_and_exhaustive(self):
        d = synth_blobs(3, 40, 4, 1.0, 0.2, 11)
        # tag each row uniquely through an extra feature
        d = FeatureDataset(
            np.hstack([d.features, np.arange(d.n_samples)[:, None]]), d.labels
        )
        train, test = split(d, SplitSpec(train_fraction=0.7, seed=3))
        tags = np.concatenate([train.features[:, -1], test.features[:, -1]])
        assert sorted(tags.tolist()) == list(range(d.n_samples))

    def test_degenerate_fraction_rejected(self):
        d = synth_blobs(2, 2, 3, 1.0, 0.2, 13)
        with pytest.raises(ValueError):
            split(d, SplitSpec(train_fraction=0.999, seed=5))

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0, seed=0)


class TestStandardize:
    def test_train_statistics(self):
        """Train columns get unit std and keep their own mean over std:
        nothing is centred, so zeros stay zeros."""
        d = synth_blobs(3, 50, 6, 1.0, 0.5, 14)
        d.features[::3, 2] = 0.0
        train, test = split(d, SplitSpec(train_fraction=0.8, seed=6))
        train_z, _ = standardize(train, test)
        np.testing.assert_allclose(train_z.features.std(axis=0), 1.0, atol=1e-9)
        np.testing.assert_allclose(
            train_z.features.mean(axis=0),
            train.features.mean(axis=0) / train.features.std(axis=0),
            rtol=1e-12,
        )
        assert np.array_equal(train_z.features == 0.0, train.features == 0.0)

    def test_constant_feature_dropped(self):
        train = FeatureDataset(
            np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]), np.array([0, 1, 0])
        )
        test = FeatureDataset(np.array([[9.0, 7.0]]), np.array([1]))
        assert train.features[:, 1].std() == 0.0
        train_z, test_z = standardize(train, test)
        assert train_z.dim == test_z.dim == 1
        std = train.features[:, 0].std()
        assert np.array_equal(train_z.features[:, 0], train.features[:, 0] / std)
        assert np.array_equal(test_z.features[:, 0], test.features[:, 0] / std)

    def test_test_uses_train_statistics(self):
        """The test set is scaled by the train std, not its own."""
        rng = np.random.default_rng(15)
        train = FeatureDataset(rng.standard_normal((40, 3)) * 4.0, rng.integers(0, 2, 40))
        test = FeatureDataset(rng.standard_normal((10, 3)) * 0.25, rng.integers(0, 2, 10))
        _, test_z = standardize(train, test)
        expected = test.features / train.features.std(axis=0)
        assert np.array_equal(test_z.features, expected)
        assert test_z.features.std() < 0.2  # far from unit std on itself

    @pytest.mark.parametrize("constant_column", [False, True])
    def test_inputs_unchanged_and_unshared(self, constant_column):
        """The outputs are new arrays, with every column kept or one
        dropped, and the inputs keep every byte."""
        d = synth_blobs(3, 20, 5, 1.0, 0.5, 16)
        if constant_column:
            d.features[:, 1] = 2.0
        train, test = split(d, SplitSpec(train_fraction=0.75, seed=3))
        before = [(s.features.tobytes(), s.labels.tobytes()) for s in (train, test)]
        out = standardize(train, test)
        assert out[0].dim == (4 if constant_column else 5)
        assert [(s.features.tobytes(), s.labels.tobytes()) for s in (train, test)] == before
        for given in (train, test):
            for made in out:
                assert not np.shares_memory(made.features, given.features)
                assert not np.shares_memory(made.labels, given.labels)

    @pytest.mark.parametrize("constant_column", [False, True])
    def test_outputs_are_row_major(self, constant_column):
        """The kept columns come back C-contiguous, so a row of them is one
        contiguous run for `svm.train` to gather."""
        d = synth_blobs(3, 20, 5, 1.0, 0.5, 16)
        if constant_column:
            d.features[:, 1] = 2.0
        train, test = split(d, SplitSpec(train_fraction=0.75, seed=3))
        for made in standardize(train, test):
            assert made.features.flags.c_contiguous

    def test_empty_train_rejected(self):
        empty = FeatureDataset(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            standardize(empty, empty)


def pairs_sets(seed, dim=40, k=6):
    """A train and a test set as k (column, value) pairs per row, and the
    same sets as dense rows. Values hold explicit zeros and -0.0, and
    train repeats five rows under other labels. Column 0 is 5.0 in every
    train row; column 7 is stored in train only as zeros, but as
    nonzeros in every test row."""
    rng = np.random.default_rng(seed)

    def make(n_rows, fixed):
        rest = np.setdiff1d(np.arange(dim), fixed)
        picks = rng.permuted(np.tile(rest, (n_rows, 1)), axis=1)[:, : k - len(fixed)]
        columns = np.hstack([np.tile(fixed, (n_rows, 1)), picks])
        columns = np.sort(columns, axis=1).astype(np.int32)
        values = rng.standard_normal((n_rows, k))
        values[rng.random(values.shape) < 0.1] = 0.0
        values[rng.random(values.shape) < 0.1] = -0.0
        return columns, values, np.arange(n_rows) % 3

    columns, values, labels = make(60, [0])
    values[:, 0] = 5.0
    values[columns == 7] = 0.0
    columns[10:15], values[10:15], labels[10:15] = columns[:5], values[:5], labels[:5] + 1
    train = FeatureDataset(values, labels % 3, None, columns, dim)
    columns, values, labels = make(20, [0, 7])
    values[columns == 7] += 3.0
    test = FeatureDataset(values, labels, None, columns, dim)
    return (train, test), tuple(FeatureDataset(dense_rows(d), d.labels) for d in (train, test))


def dense_rows(d):
    """The dense scatter of a set of pairs, one row at a time; padding
    falls in a column past the last and is dropped."""
    out = np.zeros((d.n_samples, d.dim + 1))
    for i in range(d.n_samples):
        out[i, d.columns[i]] = d.features[i]
    return out[:, : d.dim]


class TestStandardizePairs:
    def test_pairs_scale_as_their_dense_scatter(self):
        (train, test), (dense_train, dense_test) = pairs_sets(30)
        assert np.all(dense_train.features[:, 7] == 0.0)
        assert np.all(dense_test.features[:, 7] != 0.0)
        before = [(s.features.tobytes(), s.columns.tobytes()) for s in (train, test)]
        pairs = standardize(train, test)
        dense = standardize(dense_train, dense_test)
        assert [(s.features.tobytes(), s.columns.tobytes()) for s in (train, test)] == before
        assert pairs[0].dim == pairs[1].dim == dense[0].dim == 38
        for made, want in zip(pairs, dense):
            assert made.columns.shape == made.features.shape == (made.n_samples, 6)
            assert dense_rows(made).tobytes() == want.features.tobytes()
        # test's pairs in the dropped columns 0 and 7 become padding, +0.0 at column dim
        padding = pairs[1].columns == pairs[1].dim
        assert np.all(padding.sum(axis=1) == 2)
        assert pairs[1].features[padding].tobytes() == np.zeros(40).tobytes()

    def test_save_csv_writes_the_dense_rows(self, tmp_path):
        (train, _), (dense_train, _) = pairs_sets(31)
        save_csv(train, tmp_path / "pairs.csv")
        save_csv(dense_train, tmp_path / "dense.csv")
        assert (tmp_path / "pairs.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


class TestRowSumPairs:
    def test_pairs_sum_to_the_dense_scatter_bits(self):
        """One bincount over the pairs gives the bits of the row loop over
        their dense scatter, in any row order: with -0.0 values, a column
        stored only as -0.0, and the padding `select` leaves where it
        drops columns 0, 3 and 7."""
        (train, _), _ = pairs_sets(36)
        train.features[train.columns == 7] = -0.0
        keep = np.setdiff1d(np.arange(train.dim), [0, 3, 7])
        order = np.random.default_rng(37).permutation(train.n_samples)
        for made in (train, train.select(keep)):
            dense = FeatureDataset(dense_rows(made), made.labels)
            assert np.any(made.columns == made.dim) == (made is not train)
            for rows in (None, order, order[:7]):
                assert made.row_sum(rows).tobytes() == dense.row_sum(rows).tobytes()
        assert train.row_sum()[7] == 0.0 and not np.signbit(train.row_sum()[7])


class TestPairsLayout:
    def test_columns_outside_the_dim_are_refused(self):
        """-1 would wrap to the padding column and dim + 1 past it, so
        the constructor refuses both, and a padding pair holding a value."""
        (train, _), _ = pairs_sets(32)
        for bad in (-1, train.dim + 1):
            columns = train.columns.copy()
            columns[3, 2] = bad
            with pytest.raises(ValueError, match=r"columns must lie in \[0, 40\]"):
                FeatureDataset(train.features, train.labels, None, columns, train.dim)
        columns = train.columns.copy()
        columns[3, 2] = train.dim
        with pytest.raises(ValueError, match="padding"):
            FeatureDataset(train.features + 1.0, train.labels, None, columns, train.dim)

    def test_selecting_every_column_shares_the_arrays(self):
        """Every column kept unscaled gives the set itself, pairs and
        dense rows alike; a scale or a dropped column gives new arrays."""
        (train, _), (dense_train, _) = pairs_sets(3)
        every = np.arange(train.dim)
        made = train.select(every)
        assert np.shares_memory(made.features, train.features)
        assert np.shares_memory(made.columns, train.columns)
        assert dense_train.select(every) is dense_train
        for d in (train, dense_train):
            for made in (d.select(every, np.full(d.dim, 2.0)), d.select(every[1:])):
                assert not np.shares_memory(made.features, d.features)

    def test_dense_windows_are_the_dense_scatter(self):
        (train, _), (dense_train, _) = pairs_sets(33)
        train = standardize(train, train)[1]  # padding where columns 0 and 7 were
        dense_train = standardize(dense_train, dense_train)[1]
        rows = np.random.default_rng(34).permutation(train.n_samples)[:25]
        for lo, hi in ((0, None), (0, 5), (5, 38), (37, 38), (10, 10)):
            made, want = train.dense(rows, lo, hi), dense_train.dense(rows, lo, hi)
            assert made.tobytes() == want.tobytes() == dense_train.features[rows, lo:hi].tobytes()

    def test_capped_rows_are_dense_when_every_column_is_kept(self):
        labels = np.arange(3)
        values = np.random.default_rng(35).standard_normal((3, 4))
        every = np.broadcast_to(np.arange(4, dtype=np.int32), (3, 4))
        dense = FeatureDataset.capped((every, values), labels, None, 4)
        assert dense.columns is None and dense.features is values
        pairs = FeatureDataset.capped((every[:, :2], values[:, :2]), labels, None, 4)
        assert pairs.dim == 4 and np.array_equal(pairs.columns, every[:, :2])
        assert np.array_equal(pairs.dense(labels), np.hstack([values[:, :2], np.zeros((3, 2))]))


class TestBatchStep:
    """The pairs half of `batch_step` on rows with padding where `select`
    drops columns 0, 3 and 7, explicit +0.0 and -0.0 values, a batch row
    inactive for every class and a class inactive for every row."""

    @staticmethod
    def step_inputs():
        (train, _), _ = pairs_sets(60)
        made = train.select(np.setdiff1d(np.arange(train.dim), [0, 3, 7]))
        rng = np.random.default_rng(61)
        rows = rng.permutation(made.n_samples)[:24]
        means = rng.standard_normal(made.dim)
        weights = rng.standard_normal((4, made.dim + 1))
        g = rng.choice([-1.0, -0.0, 0.0, 1.0], (rows.size, 4))
        g[5] = -0.0
        g[:, 2] = 0.0
        held = made.columns[rows] < made.dim
        assert np.any(~held) and np.any(held & (made.features[rows] == 0.0))
        return made, rows, means, weights, g

    def test_add_is_the_bincount_over_every_term(self):
        """Leaving out the terms of a zero g changes no bit of the sum
        over all classes x rows x pairs terms, taken class-major."""
        made, rows, means, weights, g = self.step_inputs()
        scores, add = made.batch_step(means, rows.size)
        scores(rows, weights)
        got = weights.copy()
        add(g, 0.37 * rows.size, got)
        h = g / (0.37 * rows.size)
        classes, width = weights.shape
        bins = made.columns[rows][None] + width * np.arange(classes)[:, None, None]
        products = h.T[:, :, None] * made.features[rows][None]
        summed = np.bincount(bins.ravel(), products.ravel(), minlength=weights.size)
        want = weights + summed.reshape(classes, width)
        want += np.einsum("c,j->cj", h.sum(axis=0), np.append(-means, 1.0))
        assert got.tobytes() == want.tobytes()

    def test_scores_are_the_dense_scatters(self):
        made, rows, means, weights, _ = self.step_inputs()
        scores, _ = made.batch_step(means, rows.size)
        z = np.hstack([dense_rows(made)[rows] - means, np.ones((rows.size, 1))])
        want = np.einsum("bj,cj->bc", z, weights)
        np.testing.assert_allclose(scores(rows, weights), want, rtol=1e-13, atol=1e-13)
