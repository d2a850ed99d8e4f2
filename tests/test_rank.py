"""Exact invertibility testing against a big-integer determinant oracle."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import flycap.rank as rank
from flycap.rank import _positive_definite, det_exact, is_invertible
from flycap.seeding import derive_rng
from flycap.verify import _TAG_INVERT, sample_square_sign_matrix


def counted_det_exact(monkeypatch) -> list:
    """Route rank's det_exact through a wrapper; returns its call log."""
    calls = []

    def counted(a):
        calls.append(a)
        return det_exact(a)

    monkeypatch.setattr(rank, "det_exact", counted)
    return calls


def gram(a: np.ndarray) -> np.ndarray:
    """a^T a in float64, exact for the small entries used here."""
    f = a.astype(np.float64)
    return f.T @ f


def fraction_det(a: np.ndarray) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    rows = [[Fraction(int(v)) for v in row] for row in a]
    m = len(rows)
    det = Fraction(1)
    for k in range(m):
        pivot = next((i for i in range(k, m) if rows[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, m):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    assert det.denominator == 1
    return int(det)


def planted_singular(m: int, p: float, kind: str, seed: int) -> np.ndarray:
    """A sign matrix with a linear dependency planted in it."""
    rng = np.random.default_rng(seed)
    a = np.zeros((m, m), dtype=np.int64)
    while not a.any():
        a = sample_square_sign_matrix(rng, m, p)
    i, j, k = rng.permutation(m)[:3] if m >= 3 else (0, 1, 0)
    if kind == "duplicate_row":
        a[j] = a[i]
    elif kind == "negated_row":
        a[j] = -a[i]
    else:
        a[:, j] = a[:, i] + a[:, k]
    return a


class TestDetExact:
    def test_known_values(self):
        assert det_exact(np.array([[1, 1], [1, 1]])) == 0
        assert det_exact(np.array([[0, 1], [-1, 0]])) == 1
        assert det_exact(np.array([[2]])) == 2

    def test_matches_float_det_small(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            a = rng.integers(-3, 4, size=(m, m))
            assert det_exact(a) == round(np.linalg.det(a.astype(float)))

    def test_matches_rational_elimination(self):
        """Sparse and dense draws with m from 7 to 30, so pivots need
        swaps and entries grow past int64; planted dependencies give
        determinant 0, and int8 draws hold -128, whose negation wraps."""
        rng = np.random.default_rng(3)
        values = np.array([-128, -1, 0, 1, 127], dtype=np.int8)
        zeros = 0
        for m in (7, 9, 12, 16, 20, 25, 30):
            cases = [
                rng.integers(-3, 4, size=(m, m)) * (rng.random((m, m)) < 0.3),
                rng.integers(-1000, 1001, size=(m, m)),
                rng.choice(values, size=(m, m)),
                *(planted_singular(m, 0.3, kind, m) for kind in
                  ("duplicate_row", "negated_row", "column_sum")),
            ]
            twins = rng.choice(values, size=(m, m))
            twins[m - 1] = twins[0]
            for a in (*cases, twins):
                want = fraction_det(a)
                assert det_exact(a) == want
                zeros += want == 0
        assert zeros >= 4 * 7
        assert det_exact(np.array([[1, -128], [-1, -128]], dtype=np.int8)) == -256
        assert det_exact(np.array([[-128, 1], [-128, 1]], dtype=np.int8)) == 0
        assert det_exact(np.array([[-1, 127], [1, -127]], dtype=np.int8)) == 0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_exact(np.zeros((2, 3), dtype=int))

    def test_rejects_float_matrix(self):
        with pytest.raises(ValueError, match="integer"):
            det_exact(np.eye(3))


class TestIsInvertible:
    def test_agrees_with_exact_determinant(self):
        """The certified verdict equals the big-integer oracle on 500 random
        sign matrices."""
        rng = np.random.default_rng(2)
        for _ in range(500):
            m = int(rng.integers(1, 7))
            a = rng.integers(-1, 2, size=(m, m))
            assert is_invertible(a) == (det_exact(a) != 0)

    def test_singular_examples(self):
        assert not is_invertible(np.zeros((3, 3), dtype=int))
        assert not is_invertible(np.array([[1, -1], [1, -1]]))

    def test_invertible_examples(self):
        assert is_invertible(np.eye(4, dtype=np.int64))
        assert is_invertible(np.array([[1, 1], [0, -1]]))

    def test_entries_beyond_the_certificate_range(self):
        """Beyond m * max|a|^2 <= 2^53 the float64 Gram matrix may be inexact,
        so the Cholesky proof is skipped; the exact determinant decides."""
        assert is_invertible(np.array([[2147483647 * 2147483629]]))
        assert is_invertible(np.diag([2147483647] * 2))

    def test_singular_without_zero_row_or_column(self, monkeypatch):
        """Two rows, or two columns, equal up to sign, and a row that is the
        sum of two others leave no zero line; the exact determinant
        decides each."""
        calls = counted_det_exact(monkeypatch)
        assert not is_invertible(np.array([[1, -1, 1], [-1, 1, -1], [0, 1, 1]]))
        assert not is_invertible(np.array([[1, -1, 0], [1, -1, 1], [0, 0, 1]]))
        assert not is_invertible(np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2]]))
        assert len(calls) == 3

    @pytest.mark.parametrize("kind", ["duplicate_row", "negated_row", "column_sum"])
    @pytest.mark.parametrize("p", [0.02, 0.1, 0.5])
    @pytest.mark.parametrize("m", [2, 3, 10, 48, 100])
    def test_planted_dependency_never_certified(self, m, p, kind):
        for seed in range(5):
            a = planted_singular(m, p, kind, seed)
            assert not _positive_definite(gram(a))
            assert not is_invertible(a)

    def test_shift_refuses_what_unshifted_cholesky_accepts(self):
        """Rounding lets a float Cholesky of many singular Gram matrices
        complete; only the shift c keeps them from being proved."""
        completed = 0
        for kind in ("duplicate_row", "negated_row", "column_sum"):
            for seed in range(20):
                g = gram(planted_singular(48, 0.5, kind, seed))
                try:
                    np.linalg.cholesky(g)
                    completed += 1
                except np.linalg.LinAlgError:
                    pass
                assert not _positive_definite(g)
        assert completed > 0

    def test_zero_gram_matrix_is_not_proved(self):
        """A zero trace gives c = 1, so the Cholesky of -I fails."""
        for m in (1, 3, 50):
            assert not _positive_definite(np.zeros((m, m)))

    def test_ill_conditioned_falls_back_to_determinant(self, monkeypatch):
        """Unit upper-triangular with -1 above the diagonal: determinant 1,
        condition number ~5e18, so only the exact determinant proves it."""
        a = np.eye(60, dtype=np.int64) - np.triu(np.ones((60, 60), dtype=np.int64), 1)
        assert not _positive_definite(gram(a))
        calls = counted_det_exact(monkeypatch)
        assert is_invertible(a)
        assert len(calls) == 1

    def test_criterion_2_draws_never_reach_the_determinant(self, monkeypatch):
        """The first 20 m=100, p=0.05 draws of criterion 2's stream."""
        calls = counted_det_exact(monkeypatch)
        for trial in range(20):
            rng = derive_rng(2, _TAG_INVERT, 100, trial)
            is_invertible(sample_square_sign_matrix(rng, 100, 0.05))
        assert calls == []

    def test_criterion_2_draw_beyond_the_proof_reaches_the_determinant(self, monkeypatch):
        """Draw 587 of criterion 2's m=100, p=0.05 stream is invertible with
        smallest singular value ~6.6e-6. Its Gram matrix has lambda_min
        4.40e-11 < c = 2^-34, and G - cI is indefinite by more than the
        Cholesky's backward error (1.03e-11), so no LAPACK proves it and
        Bareiss decides."""
        a = sample_square_sign_matrix(derive_rng(2, _TAG_INVERT, 100, 587), 100, 0.05)
        assert not _positive_definite(gram(a))
        calls = counted_det_exact(monkeypatch)
        assert is_invertible(a)
        assert len(calls) == 1

    def test_int8_draws_decide_as_int64(self, monkeypatch):
        """Criterion 2's first 50 m=100, p=0.05 draws and draw 587 get the
        same verdict as int8, as the sampler draws them, and as int64; as
        int8, only draw 587 reaches the determinant, once."""
        calls = counted_det_exact(monkeypatch)
        for trial in (*range(50), 587):
            a = sample_square_sign_matrix(derive_rng(2, _TAG_INVERT, 100, trial), 100, 0.05)
            assert a.dtype == np.int8
            want = is_invertible(a.astype(np.int64))
            calls.clear()
            assert is_invertible(a) == want
            assert len(calls) == (trial == 587)

    def test_proof_holds_two_float_matrices(self):
        """The Cholesky proof at m=100 holds at most the Gram matrix and the
        Cholesky's output at once (tracemalloc sees numpy's array data, not
        LAPACK's work copy): no float copy of a, identity or shifted copy
        outlives its use. Each such 80 KB temporary adds heap churn that
        glibc may trim and fault back in on every call."""
        a = sample_square_sign_matrix(derive_rng(2, _TAG_INVERT, 100, 0), 100, 0.05)
        assert is_invertible(a)
        tracemalloc.start()
        try:
            is_invertible(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * a.size * 8

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            is_invertible(np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="nonempty"):
            is_invertible(np.zeros((0, 0), dtype=int))

    def test_rejects_float_matrix(self):
        with pytest.raises(ValueError, match="integer"):
            is_invertible(np.eye(3))
