"""Exact invertibility testing against a big-integer determinant oracle."""

import numpy as np
import pytest

import flycap.rank as rank
from flycap.rank import PRIME, det_exact, is_invertible


def test_primes_are_prime():
    assert PRIME > 2
    assert all(PRIME % d for d in range(2, int(PRIME**0.5) + 1))


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

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            det_exact(np.zeros((2, 3), dtype=int))


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

    def test_determinant_divisible_by_the_prime(self):
        """Singular modulo the prime but not over the integers: the exact
        determinant decides."""
        assert is_invertible(np.array([[PRIME * 2147483629]]))
        assert is_invertible(np.diag([PRIME, PRIME]))

    def test_singular_without_zero_row_or_column(self, monkeypatch):
        """Rows equal up to sign leave no zero row or column, so the
        singular verdict comes from the exact determinant."""
        calls = []

        def counted(a):
            calls.append(a)
            return det_exact(a)

        monkeypatch.setattr(rank, "det_exact", counted)
        a = np.array([[1, -1, 1], [-1, 1, -1], [0, 1, 1]])
        assert not is_invertible(a)
        assert len(calls) == 1

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            is_invertible(np.zeros((2, 3), dtype=int))
