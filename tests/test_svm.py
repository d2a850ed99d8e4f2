"""Multiclass linear SVM: separability, determinism, loss descent."""

import numpy as np
import pytest

from flycap.data import FeatureDataset, SplitSpec, split, standardize, synth_blobs
from flycap.seeding import derive_rng
from flycap.svm import _BATCH, TrainSpec, _canonical_order, evaluate, train
from test_data import dense_rows, pairs_sets


def assert_close(weights, reference):
    """Entries agree to 1e-13 relative, or to 1e-13 of the largest weight.
    Measured worst: 8.1e-14 relative, and 3.2e-16 of the largest weight."""
    tol = 1e-13
    np.testing.assert_allclose(
        weights, reference, rtol=tol, atol=tol * np.abs(reference).max()
    )


def assert_near(weights, reference, tol):
    """Entries agree to `tol` of the largest reference weight."""
    np.testing.assert_allclose(weights, reference, rtol=0.0, atol=tol * np.abs(reference).max())


def predict(weights, features):
    """The class with the highest score per dense row, ties to the lowest,
    as `evaluate` scores it."""
    return np.argmax(np.einsum("bj,cj->bc", features, weights[:, :-1]) + weights[:, -1], axis=1)


def hinge_objective(weights, d, lambda_):
    """Summed per-class regularized hinge objective on a dataset."""
    x = np.hstack([d.features, np.ones((d.n_samples, 1))])
    targets = np.where(
        d.labels[None, :] == np.arange(weights.shape[0])[:, None], 1.0, -1.0
    )
    hinge = np.maximum(0.0, 1.0 - targets * (weights @ x.T)).mean(axis=1)
    reg = 0.5 * lambda_ * (weights**2).sum(axis=1)
    return float((hinge + reg).sum())


def separable_1d(n_per_side=50, seed=0):
    """x < -1 labeled 0, x > 1 labeled 1: linearly separable with margin."""
    rng = np.random.default_rng(seed)
    left = -1.0 - rng.uniform(0.5, 3.0, n_per_side)
    right = 1.0 + rng.uniform(0.5, 3.0, n_per_side)
    features = np.concatenate([left, right])[:, None]
    labels = np.array([0] * n_per_side + [1] * n_per_side)
    return FeatureDataset(features, labels)


class TestTrain:
    def test_separable_reaches_full_accuracy(self):
        d = separable_1d()
        weights = train(d, TrainSpec(lambda_=1e-3, epochs=30, seed=1))
        assert evaluate(weights, d) == 1.0

    def test_separable_generalizes(self):
        d = separable_1d(200, seed=2)
        train_set, test_set = split(d, SplitSpec(train_fraction=0.75, seed=3))
        weights = train(train_set, TrainSpec(lambda_=1e-3, epochs=30, seed=4))
        assert evaluate(weights, test_set) == 1.0

    def test_spec_domain(self):
        for bad in (0.0, -1e-3, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda_"):
                TrainSpec(lambda_=bad)
        with pytest.raises(ValueError, match="epochs"):
            TrainSpec(epochs=0)

    def test_single_class_rejected(self):
        d = FeatureDataset(np.random.default_rng(0).standard_normal((10, 3)), np.zeros(10, dtype=int))
        with pytest.raises(ValueError):
            train(d, TrainSpec())

    def test_empty_rejected(self):
        d = FeatureDataset(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            train(d, TrainSpec())

    def test_empty_class_rejected(self):
        d = FeatureDataset(np.ones((4, 2)), np.array([0, 0, 2, 2]))
        with pytest.raises(ValueError, match="class 1"):
            train(d, TrainSpec())

    def test_class_names_change_nothing_but_the_class_count(self):
        """Named labels train the same weights; a pinned name with no rows
        is an empty class."""
        d = synth_blobs(3, 20, 5, 2.0, 0.3, 7)
        spec = TrainSpec(lambda_=1e-3, epochs=5, seed=9)
        named = FeatureDataset(d.features, d.labels, ["a", "b", "c"])
        assert np.array_equal(train(named, spec), train(d, spec))
        pinned = FeatureDataset(d.features, d.labels, ["a", "b", "c", "d"])
        with pytest.raises(ValueError, match="class 3 has no samples"):
            train(pinned, spec)

    def test_deterministic(self):
        d = synth_blobs(3, 20, 10, 1.0, 0.3, 5)
        spec = TrainSpec(lambda_=1e-3, epochs=5, seed=6)
        a = train(d, spec)
        b = train(d, spec)
        assert np.array_equal(a, b)

    def test_input_order_invariance(self):
        """Permuting dataset rows leaves the weights bit-identical: the
        visit order is seed-derived over a canonical sample order."""
        d = synth_blobs(3, 20, 10, 1.0, 0.3, 7)
        rng = np.random.default_rng(8)
        perm = rng.permutation(d.n_samples)
        shuffled = FeatureDataset(d.features[perm], d.labels[perm])
        spec = TrainSpec(lambda_=1e-3, epochs=5, seed=9)
        assert np.array_equal(train(d, spec), train(shuffled, spec))

    def test_objective_descends(self):
        """Full-dataset regularized hinge loss after training never
        exceeds its value at the zero model (which is 1 per class)."""
        d = synth_blobs(4, 30, 8, 1.0, 0.4, 10)
        spec = TrainSpec(lambda_=1e-3, epochs=10, seed=11)
        weights = train(d, spec)
        trained = hinge_objective(weights, d, spec.lambda_)
        assert trained <= hinge_objective(np.zeros((4, 9)), d, spec.lambda_)

    def test_chance_level_on_permuted_labels(self):
        """Shuffled labels carry no signal: held-out accuracy sits at
        chance (1/num_classes) within 0.05."""
        d = synth_blobs(10, 100, 40, 1.0, 0.2, 12)
        rng = np.random.default_rng(13)
        scrambled = FeatureDataset(d.features, rng.permutation(d.labels))
        train_set, test_set = split(scrambled, SplitSpec(train_fraction=0.8, seed=14))
        weights = train(train_set, TrainSpec(lambda_=1e-3, epochs=10, seed=15))
        assert abs(evaluate(weights, test_set) - 0.1) <= 0.05


class TestPredict:
    def test_zero_weights_tie_to_class_zero(self):
        assert evaluate(np.zeros((4, 6)), FeatureDataset(np.ones((1, 5)), [0])) == 1.0

    def test_positive_scaling_keeps_argmax(self):
        rng = np.random.default_rng(16)
        weights = rng.standard_normal((5, 8))
        xs = rng.standard_normal((50, 7))
        d = FeatureDataset(xs, predict(weights, xs))
        assert evaluate(weights, d) == evaluate(3.7 * weights, d) == 1.0

    def test_dimension_mismatch(self):
        d = FeatureDataset(np.zeros((1, 4)), [0])
        with pytest.raises(ValueError, match="do not match dim"):
            evaluate(np.zeros((2, 4)), d)
        with pytest.raises(ValueError, match="2-D"):
            evaluate(np.zeros(5), d)

    def test_non_finite_weights_rejected(self):
        weights = np.zeros((2, 4))
        weights[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            evaluate(weights, FeatureDataset(np.zeros((1, 3)), [0]))

    def test_batch_matches_single(self):
        """A row is predicted the same alone as in a batch of 20."""
        rng = np.random.default_rng(17)
        weights = rng.standard_normal((3, 5))
        xs = rng.standard_normal((20, 4))
        alone = [
            next(c for c in range(3) if evaluate(weights, FeatureDataset(x[None, :], [c])) == 1.0)
            for x in xs
        ]
        assert evaluate(weights, FeatureDataset(xs, alone)) == 1.0


class TestEvaluate:
    def test_constant_predictor_on_balanced_data(self):
        """A bias-only model predicts one class everywhere: accuracy is
        exactly 1/num_classes on balanced labels."""
        d = synth_blobs(10, 20, 6, 1.0, 0.3, 18)
        weights = np.zeros((10, 7))
        weights[3, -1] = 1.0  # constant winner: class 3
        assert evaluate(weights, d) == pytest.approx(0.1)

    def test_empty_dataset_is_an_error(self):
        empty = FeatureDataset(np.empty((0, 3)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            evaluate(np.zeros((2, 4)), empty)



class TestConstantFeatures:
    """standardize drops features that are constant in train. The
    reference is the zero column such a feature used to become: train
    contracts only over columns with a nonzero in train, so zero columns
    change no bit."""

    def test_zero_columns_stay_zero_and_change_nothing(self):
        d = synth_blobs(3, 20, 20, 1.0, 0.3, 19)
        at = np.sort(np.random.default_rng(20).choice(30, 20, replace=False))
        padded = np.zeros((d.n_samples, 30))
        padded[:, at] = d.features
        spec = TrainSpec(lambda_=1e-3, epochs=5, seed=21)
        dropped = train(d, spec)
        weights = train(FeatureDataset(padded, d.labels), spec)
        zero = np.setdiff1d(np.arange(30), at)
        assert np.all(weights[:, zero] == 0.0) and not np.any(np.signbit(weights[:, zero]))
        assert np.array_equal(weights[:, np.append(at, 30)], dropped)

    def test_all_columns_constant_is_bit_identical(self):
        labels = np.repeat(np.arange(4), 10)
        bias_only = FeatureDataset(np.empty((40, 0)), labels)
        padded = FeatureDataset(np.zeros((40, 5)), labels)
        spec = TrainSpec(lambda_=1e-3, epochs=5, seed=23)
        dropped = train(bias_only, spec)
        weights = train(padded, spec)
        assert dropped.shape == (4, 1)
        assert np.array_equal(weights[:, -1:], dropped)
        assert np.all(weights[:, :-1] == 0.0) and not np.any(np.signbit(weights[:, :-1]))
        assert evaluate(dropped, bias_only) == evaluate(weights, padded)

    def test_predict_on_width_zero_features_takes_the_bias(self):
        weights = np.array([[0.5], [2.0], [-1.0]])
        assert evaluate(weights, FeatureDataset(np.empty((4, 0)), np.ones(4, dtype=int))) == 1.0


def masked_reference(d, spec):
    """`train` as a dense, per-class masked mini-batch Pegasos step on
    features centred by their train mean, with the bias mapped back to
    the uncentred features. Returns the averaged weights and, over all
    steps, how many had some but not all of a batch's (sample, class)
    pairs active, and how many projected or skipped the projection for
    some class."""
    order = np.lexsort((d.labels,) + tuple(d.features[:, ::-1].T))
    means = d.features.mean(axis=0)
    x = np.hstack([d.features[order] - means, np.ones((d.n_samples, 1))])
    labels = d.labels[order]
    targets = np.where(labels[None, :] == np.arange(d.num_classes)[:, None], 1.0, -1.0)
    lam = spec.lambda_
    radius = 1.0 / np.sqrt(lam)
    weights = np.zeros((d.num_classes, d.dim + 1))
    averaged = np.zeros_like(weights)
    partial = projected = kept = 0
    rng = derive_rng(spec.seed)
    t = 0
    for _ in range(spec.epochs):
        perm = rng.permutation(d.n_samples)
        for start in range(0, d.n_samples, _BATCH):
            batch = perm[start : start + _BATCH]
            t += 1
            eta = 1.0 / (lam * t)
            xb = x[batch]
            step = []
            for c in range(d.num_classes):
                y = targets[c, batch]
                active = y * (xb * weights[c]).sum(axis=1) < 1.0
                partial += bool(active.any() and not active.all())
                step.append((y[active][:, None] * xb[active]).sum(axis=0) * eta / batch.size)
            weights *= 1.0 - eta * lam
            weights += np.array(step)
            norms = np.sqrt((weights * weights).sum(axis=1))
            over = norms > radius
            projected += bool(over.any())
            kept += bool(not over.all())
            weights[over] *= radius / norms[over][:, None]
            averaged += (weights - averaged) / t
    averaged[:, -1] -= averaged[:, :-1] @ means
    return averaged, partial, projected, kept


class TestCentredStep:
    """`train` centres explicitly and steps all classes at once through
    einsum contractions, so it matches the per-class dense step on
    centred features to rounding, not bit for bit."""

    @pytest.mark.parametrize(
        "d, spec",
        [
            (synth_blobs(4, 15, 12, 1.0, 0.5, 31), TrainSpec(lambda_=1e-2, epochs=3, seed=32)),
            (synth_blobs(3, 50, 40, 2.0, 0.3, 33), TrainSpec(lambda_=1e-3, epochs=4, seed=34)),
            (
                FeatureDataset(np.empty((150, 0)), np.repeat(np.arange(3), (30, 30, 90))),
                TrainSpec(lambda_=0.2, epochs=4, seed=35),
            ),
        ],
        ids=["small_ball", "large_ball", "width_zero"],
    )
    def test_matches_centred_masked_step(self, d, spec):
        reference, partial, projected, kept = masked_reference(d, spec)
        assert partial > 0 and projected > 0 and kept > 0
        weights = train(d, spec)
        assert_close(weights, reference)


def test_column_shift_leaves_predictions():
    """Training centres on the train means, so shifting every column of
    train and test by a constant leaves the predictions as they were."""
    d = synth_blobs(4, 40, 15, 1.0, 0.6, 38)
    train_set, test_set = split(d, SplitSpec(train_fraction=0.75, seed=39))
    shift = np.random.default_rng(40).uniform(-3.0, 3.0, d.dim)
    spec = TrainSpec(lambda_=1e-3, epochs=10, seed=41)
    weights = train(train_set, spec)
    shifted = train(FeatureDataset(train_set.features + shift, train_set.labels), spec)
    expected = predict(weights, test_set.features)
    assert evaluate(shifted, FeatureDataset(test_set.features + shift, expected)) == 1.0
    assert 0.3 < evaluate(weights, test_set) < 1.0


def test_large_column_offset_leaves_weights():
    """Training centres each row explicitly, so an offset of 1e6 on every
    column moves the feature weights only by the rounding of x - means
    (measured 6.8e-10 of the largest weight)."""
    d = synth_blobs(4, 40, 15, 1.0, 0.6, 38)
    train_set, test_set = split(d, SplitSpec(train_fraction=0.75, seed=39))
    spec = TrainSpec(lambda_=1e-3, epochs=10, seed=41)
    weights = train(train_set, spec)
    shifted = train(FeatureDataset(train_set.features + 1e6, train_set.labels), spec)
    w = weights[:, :-1]
    np.testing.assert_allclose(shifted[:, :-1], w, rtol=0.0, atol=1e-8 * np.abs(w).max())
    expected = predict(weights, test_set.features)
    assert evaluate(shifted, FeatureDataset(test_set.features + 1e6, expected)) == 1.0


class TestPairs:
    """Rows of pairs train to the weights of their dense scatter within
    rounding, 1e-12 of the largest weight, and score the same. The pairs
    step centres implicitly: it sums the stored values and then
    subtracts the means, where the dense step subtracts first."""

    @pytest.mark.parametrize("scaled", [False, True])
    def test_train_equals_the_dense_scatter(self, scaled):
        """Column 0 is 5.0 in every unscaled train row: dense centring
        gives it an exact +0.0 weight, and the pairs step one of rounding
        size (measured 3.7e-14 of the largest weight unscaled, 2.2e-16
        scaled)."""
        pairs, dense = pairs_sets(50, dim=150)  # the order sorts three blocks of columns
        if scaled:
            pairs, dense = standardize(*pairs), standardize(*dense)
        assert np.array_equal(_canonical_order(pairs[0]), _canonical_order(dense[0]))
        spec = TrainSpec(lambda_=1e-2, epochs=4, seed=51)
        weights = train(pairs[0], spec)
        reference = train(dense[0], spec)
        assert_near(weights, reference, 1e-12)
        for made, want in zip(pairs, dense):
            assert evaluate(weights, made) == evaluate(weights, want) == evaluate(reference, want)

    @pytest.mark.parametrize("kind", ["padding", "width_zero"])
    def test_padding_and_width_zero_train_as_the_dense_scatter(self, kind):
        """Pairs that `select` turned into padding, and rows of no pairs
        (as a k=0 cap gives them), train as their dense scatter."""
        (pairs, _), _ = pairs_sets(59)
        if kind == "padding":
            pairs = pairs.select(np.arange(0, pairs.dim, 2))
            assert np.any(pairs.columns == pairs.dim)
        else:
            empty = np.empty((pairs.n_samples, 0))
            pairs = FeatureDataset(empty, pairs.labels, None, empty.astype(np.int32), pairs.dim)
        dense = FeatureDataset(dense_rows(pairs), pairs.labels)
        spec = TrainSpec(lambda_=1e-2, epochs=4, seed=60)
        weights = train(pairs, spec)
        reference = train(dense, spec)
        assert_near(weights, reference, 1e-12)
        assert evaluate(weights, pairs) == evaluate(reference, dense)

    def test_large_column_offset_stays_near_the_dense_scatter(self):
        """Three columns stored in every row at 1e6 + N(0, 0.5^2): summing
        before subtracting the means loses digits that dense centring
        keeps, but the feature weights stay within the bound of
        test_large_column_offset_leaves_weights (measured 3.1e-10)."""
        rng = np.random.default_rng(61)
        rest = rng.permuted(np.tile(np.arange(3, 40), (60, 1)), axis=1)[:, :5]
        columns = np.hstack([np.tile([0, 1, 2], (60, 1)), np.sort(rest, axis=1)])
        values = rng.standard_normal(columns.shape)
        values[:, :3] = 1e6 + rng.normal(0.0, 0.5, (60, 3))
        pairs = FeatureDataset(values, np.arange(60) % 3, None, columns, 40)
        dense = FeatureDataset(dense_rows(pairs), pairs.labels)
        spec = TrainSpec(lambda_=1e-2, epochs=4, seed=62)
        weights = train(pairs, spec)
        reference = train(dense, spec)
        assert_near(weights[:, :-1], reference[:, :-1], 1e-8)
        assert evaluate(weights, pairs) == evaluate(reference, dense)

    def test_row_and_pair_order_change_nothing(self):
        """Permuting a pairs set's rows, and the pairs inside each row,
        leaves the weights and the accuracy bit-identical."""
        rng = np.random.default_rng(55)

        def shuffle(d):
            perm = rng.permutation(d.n_samples)
            within = rng.permuted(np.tile(np.arange(d.columns.shape[1]), (d.n_samples, 1)), axis=1)
            columns = np.take_along_axis(d.columns[perm], within, axis=1)
            values = np.take_along_axis(d.features[perm], within, axis=1)
            return FeatureDataset(values, d.labels[perm], None, columns, d.dim)

        for scaled in (False, True):
            pairs, _ = pairs_sets(54)
            if scaled:
                pairs = standardize(*pairs)
            spec = TrainSpec(lambda_=1e-2, epochs=4, seed=56)
            weights = train(pairs[0], spec)
            shuffled = [shuffle(d) for d in pairs]
            moved = train(shuffled[0], spec)
            assert moved.tobytes() == weights.tobytes()
            assert evaluate(moved, shuffled[1]) == evaluate(weights, pairs[1])

    def test_order_is_one_lexsort_over_every_column(self):
        """Repeated rows order by label, then by position."""
        pairs, dense = pairs_sets(52, dim=150)
        wide = synth_blobs(3, 20, 150, 1.0, 0.3, 53)
        wide.features[20:25] = wide.features[:5]
        for d, reference in ((pairs[0], dense[0]), (wide, wide)):
            keys = (reference.labels,) + tuple(reference.features[:, ::-1].T)
            assert np.array_equal(_canonical_order(d), np.lexsort(keys))

    def test_pairs_off_the_model_are_refused(self):
        pairs, _ = pairs_sets(53)
        with pytest.raises(ValueError, match="do not match dim"):
            evaluate(np.zeros((3, 30)), pairs[1])


def tied_sets():
    """Sets, by name, whose rows tie across windows of columns."""
    rng = np.random.default_rng(58)
    windows = rng.standard_normal((14, 200))
    windows[1:4, :64] = windows[0, :64]  # tie on the first window only
    windows[5:9, :128] = windows[4, :128]  # tie on two windows
    windows[6, 128:199] = windows[5, 128:199]  # differ in the last column
    windows[7] = windows[8]  # tie on every column
    duplicates = np.repeat(rng.standard_normal((4, 70)), 3, axis=0)
    signed_zeros = rng.choice([0.0, -0.0, 1.0], (30, 70), p=[0.45, 0.45, 0.1])
    zero_rows = rng.standard_normal((12, 130))
    zero_rows[[2, 5, 6, 11]] = 0.0
    zero_rows[6, 129] = -0.0
    # two runs of ties on the first window, whose neighbouring rows tie on
    # the second and then differ in the order of the runs
    adjacent_runs = np.zeros((4, 150))
    adjacent_runs[2:, :64] = 1.0
    adjacent_runs[:, 64:128] = [[1.0], [2.0], [2.0], [3.0]]
    adjacent_runs[1, 140] = 5.0
    narrow = rng.integers(-1, 2, (40, 5)).astype(np.float64)
    # 3 pairs of small integers per row, nearly all past column 200 of
    # 300, so most rows tie on the first three windows; rows 5 to 7 hold
    # only padding or explicit zeros
    columns = rng.permuted(np.tile(np.arange(200, 300), (40, 1)), axis=1)[:, :3]
    columns[:4, 0] = rng.integers(0, 200, 4)
    columns = np.sort(columns, axis=1).astype(np.int32)
    values = rng.integers(-1, 2, columns.shape).astype(np.float64)
    values[rng.random(values.shape) < 0.2] = -0.0
    columns[5:7], values[5:7] = 300, 0.0
    columns[8, 2], values[8, 2] = 300, 0.0
    values[7] = [0.0, -0.0, 0.0]
    return {
        "windows": FeatureDataset(windows, np.arange(14) % 2),
        "adjacent_runs": FeatureDataset(adjacent_runs[[3, 1, 0, 2]], np.zeros(4, dtype=int)),
        "duplicates": FeatureDataset(duplicates, np.arange(12) % 4),
        "signed_zeros": FeatureDataset(signed_zeros, rng.integers(0, 2, 30)),
        "zero_rows": FeatureDataset(zero_rows, np.zeros(12, dtype=int)),
        "narrow": FeatureDataset(narrow, rng.integers(0, 3, 40)),
        "one_row": FeatureDataset(rng.standard_normal((1, 10)), np.array([0])),
        "dim_zero": FeatureDataset(np.empty((6, 0)), np.array([1, 0, 1, 0, 0, 1])),
        "pairs_late_columns": FeatureDataset(values, rng.integers(0, 3, 40), None, columns, 300),
    }


@pytest.mark.parametrize("name", list(tied_sets()))
def test_canonical_order_is_one_lexsort(name):
    """Ties on a window are broken by the next, full ties by the label
    and then by the row index; -0.0 ties with 0.0."""
    d = tied_sets()[name]
    features = d.features if d.columns is None else dense_rows(d)
    reference = np.lexsort((d.labels, *features[:, ::-1].T))
    assert np.array_equal(_canonical_order(d), reference)
