"""Cap operator: selection rules, norm sandwich, and the residual bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flycap.cap import cap, cap_error_bound

finite_vectors = arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


def norm(x, p):
    """p-norm computed on magnitudes rescaled by the max, so powers of
    tiny entries cannot underflow to zero."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    peak = float(x.max()) if x.size else 0.0
    if p == np.inf or peak == 0.0:
        return peak
    return peak * float(np.sum((x / peak) ** p) ** (1.0 / p))


class TestSelection:
    def test_basic_magnitude_order(self):
        assert np.array_equal(cap(np.array([3.0, -5.0, 1.0, 0.0]), 2), [3.0, -5.0, 0.0, 0.0])

    def test_k_zero_gives_zero_vector(self):
        assert np.array_equal(cap(np.array([4.0, -2.0, 9.0]), 0), np.zeros(3))

    def test_tie_break_lowest_index(self):
        assert np.array_equal(cap(np.array([2.0, -2.0, 2.0]), 2), [2.0, -2.0, 0.0])

    def test_k_at_least_length_is_identity(self):
        x = np.array([1.0, -3.0, 0.0])
        for k in (3, 4, 100):
            r = cap(x, k)
            assert np.array_equal(r, x)
            assert not np.shares_memory(r, x)

    def test_zeros_fill_the_budget(self):
        assert np.array_equal(cap(np.array([0.0, 0.0, 5.0, 0.0]), 2), [0.0, 0.0, 5.0, 0.0])

    def test_errors(self):
        with pytest.raises(ValueError):
            cap(np.array([1.0, np.inf]), 1)
        with pytest.raises(ValueError):
            cap(np.array([1.0]), -1)


class TestCapInvariants:
    @given(finite_vectors, st.integers(min_value=0, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_result_contract(self, x, k):
        r = cap(x, k)
        assert r.dtype == np.float64 and r.shape == x.shape
        assert not np.shares_memory(r, x)
        kept = r != 0.0
        assert np.count_nonzero(kept) == min(k, np.count_nonzero(x))
        assert np.array_equal(r[kept], x[kept])
        if kept.any() and not kept.all():
            assert np.min(np.abs(x[kept])) >= np.max(np.abs(x[~kept]))

    @given(finite_vectors, st.integers(min_value=0, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, x, k):
        once = cap(x, k)
        twice = cap(once, k)
        assert np.array_equal(once, twice)

    @given(finite_vectors, st.integers(min_value=1, max_value=50))
    @settings(max_examples=200, deadline=None)
    def test_norm_sandwich(self, x, k):
        """|x|_inf <= |cap_k(x)|_p <= |x|_p for every k >= 1."""
        capped = cap(x, k)
        slack = 1.0 + 1e-12
        for p in (0.5, 1.0, 2.0, np.inf):
            assert norm(x, np.inf) <= norm(capped, p) * slack
            assert norm(capped, p) <= norm(x, p) * slack

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            # distinct magnitudes so the tie rule plays no role
            mags = np.sort(rng.uniform(0.1, 10.0, n)) + np.arange(n) * 1e-3
            x = mags * rng.choice([-1.0, 1.0], n)
            perm = rng.permutation(n)
            k = int(rng.integers(0, n + 1))
            direct = cap(x[perm], k)
            permuted = cap(x, k)[perm]
            assert np.array_equal(direct, permuted)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            mags = np.sort(rng.uniform(0.1, 10.0, n)) + np.arange(n) * 1e-3
            x = mags * rng.choice([-1.0, 1.0], n)
            k = int(rng.integers(0, n + 1))
            base = cap(x, k)
            for alpha in (2.5, -3.0, 1e-6):
                # same support, values scaled
                assert np.array_equal(cap(alpha * x, k), alpha * base)


class TestErrorBound:
    def test_k_zero_p1(self):
        assert cap_error_bound(7.0, 0, 1.0) == 7.0

    def test_k3_p1(self):
        assert cap_error_bound(10.0, 3, 1.0) == pytest.approx(5.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            cap_error_bound(1.0, 1, 2.0)
        with pytest.raises(ValueError):
            cap_error_bound(1.0, 1, 0.0)
        with pytest.raises(ValueError):
            cap_error_bound(-1.0, 1, 1.0)

    def test_residual_never_exceeds_bound(self):
        """Measured |x - cap_k(x)|_2 stays below the bound on 1000 random
        vectors, across k and p."""
        rng = np.random.default_rng(11)
        slack = 1.0 + 1e-12
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            k = int(rng.integers(0, n + 2))
            residual = np.linalg.norm(x - cap(x, k))
            for p in (0.5, 1.0, 1.5):
                bound = cap_error_bound(norm(x, p), k, p)
                assert residual <= bound * slack

    def test_one_sparse_vector_zero_residual(self):
        x = np.zeros(20)
        x[7] = -4.2
        for k in (1, 5):
            residual = np.linalg.norm(x - cap(x, k))
            assert residual == 0.0
            assert cap_error_bound(norm(x, 1.0), k, 1.0) > 0.0

    def test_all_zero_vector(self):
        x = np.zeros(10)
        assert np.linalg.norm(x - cap(x, 3)) == 0.0
        assert cap_error_bound(0.0, 3, 1.0) == 0.0
