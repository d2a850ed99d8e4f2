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

    def test_negative_integer_label_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("-1,1,2\n")
        with pytest.raises(CsvFormatError):
            load_csv(path)

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
        with pytest.raises(ValueError):
            synth_blobs(2, 5, 5, 1.0, -0.1, 0)


class TestAddNoise:
    def test_sigma_zero_is_identity(self):
        d = synth_blobs(2, 10, 8, 1.0, 0.5, 5)
        noisy = add_noise(d, 0.0, 9)
        assert np.array_equal(noisy.features, d.features)

    def test_negative_sigma_rejected(self):
        d = synth_blobs(2, 3, 4, 1.0, 0.1, 5)
        with pytest.raises(ValueError):
            add_noise(d, -0.5, 1)

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

    def test_commutes_with_split(self):
        """noise-then-split equals split-then-noise per sample, because
        each row's noise stream depends only on (seed, row content)."""
        d = synth_blobs(4, 25, 12, 1.0, 0.4, 8)
        spec = SplitSpec(train_fraction=0.8, seed=21)
        noise_seed = 31

        noisy_first = add_noise(d, 0.6, noise_seed)
        train_a, test_a = split(noisy_first, spec)

        # same partition is induced by the same split seed on clean data
        train_b, test_b = split(d, spec)
        train_b = add_noise(train_b, 0.6, noise_seed)
        test_b = add_noise(test_b, 0.6, noise_seed)

        assert np.array_equal(train_a.features, train_b.features)
        assert np.array_equal(test_a.features, test_b.features)


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

    def test_unstratified(self):
        d = synth_blobs(2, 50, 3, 1.0, 0.2, 12)
        train, test = split(d, SplitSpec(train_fraction=0.5, seed=4, stratified=False))
        assert train.n_samples == 50 and test.n_samples == 50

    def test_degenerate_fraction_rejected(self):
        d = synth_blobs(2, 2, 3, 1.0, 0.2, 13)
        with pytest.raises(ValueError):
            split(d, SplitSpec(train_fraction=0.999, seed=5))

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0, seed=0)


class TestStandardize:
    def test_train_statistics(self):
        d = synth_blobs(3, 50, 6, 1.0, 0.5, 14)
        train, test = split(d, SplitSpec(train_fraction=0.8, seed=6))
        train_z, _ = standardize(train, test)
        np.testing.assert_allclose(train_z.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(train_z.features.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        train = FeatureDataset(
            np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]), np.array([0, 1, 0])
        )
        test = FeatureDataset(np.array([[9.0, 7.0]]), np.array([1]))
        assert train.features[:, 1].std() == 0.0
        train_z, test_z = standardize(train, test)
        assert np.all(train_z.features[:, 1] == 0.0)
        assert np.all(test_z.features[:, 1] == 0.0)

    def test_test_uses_train_statistics(self):
        """The test set is shifted and scaled by train moments, not its
        own."""
        rng = np.random.default_rng(15)
        train = FeatureDataset(rng.standard_normal((40, 3)) + 5.0, rng.integers(0, 2, 40))
        test = FeatureDataset(rng.standard_normal((10, 3)) - 5.0, rng.integers(0, 2, 10))
        _, test_z = standardize(train, test)
        means = train.features.mean(axis=0)
        stds = train.features.std(axis=0)
        expected = (test.features - means) / stds
        np.testing.assert_allclose(test_z.features, expected, atol=1e-12)
        assert abs(test_z.features.mean()) > 1.0  # far from centered on itself

    def test_empty_train_rejected(self):
        empty = FeatureDataset(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            standardize(empty, empty)
