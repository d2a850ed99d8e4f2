"""Closed-form evaluators: frozen values, domains, and monotonicities."""

import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from flycap.bounds import (
    BoundSpec,
    det_lower_threshold,
    entry_moments,
    jl_success_bound,
)
from flycap.cap import cap, cap_error_bound
from flycap.projection import entry_stats, sample_matrix


class TestEntryMoments:
    def test_p_005(self):
        mean, zero_prob, variance = entry_moments(0.05)
        assert mean == 0.0
        assert zero_prob == pytest.approx(0.905, abs=1e-15)
        assert variance == pytest.approx(0.095, abs=1e-15)

    def test_p_05(self):
        mean, zero_prob, variance = entry_moments(0.5)
        assert (mean, zero_prob, variance) == (0.0, 0.5, 0.5)

    def test_probabilities_sum_to_one(self):
        for p in np.linspace(0.01, 0.99, 25):
            _, zero_prob, _ = entry_moments(float(p))
            assert zero_prob + 2.0 * p * (1.0 - p) == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                entry_moments(bad)

    @pytest.mark.parametrize("p", [0.05, 0.1, 0.3, 0.5])
    def test_matches_sampled_matrices(self, p):
        """Sampled empirical stats agree with the closed-form moments
        to 5 standard errors."""
        n_rows, n_cols = 1000, 400
        total = n_rows * n_cols
        _, zero_prob, variance = entry_moments(p)
        st = entry_stats(sample_matrix(n_rows, n_cols, p, 2024))
        se_zero = math.sqrt(zero_prob * (1.0 - zero_prob) / total)
        assert abs(st.zero_fraction - zero_prob) <= 5.0 * se_zero
        se_mean = math.sqrt(variance / total)
        assert abs(st.mean - 0.0) <= 5.0 * se_mean


class TestBoundSpec:
    def test_derived_quantities(self):
        spec = BoundSpec(epsilon=0.5, n=2000, p=0.05)
        assert spec.sigma2 == pytest.approx(0.095, abs=1e-15)
        assert spec.subgaussian_l2 == pytest.approx(1.0 / 0.095, rel=1e-15)

    def test_sigma2_range_and_l2_floor(self):
        for p in np.linspace(0.01, 0.99, 50):
            spec = BoundSpec(epsilon=0.3, n=10, p=float(p))
            assert 0.0 < spec.sigma2 <= 0.5
            assert spec.subgaussian_l2 >= 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BoundSpec(epsilon=0.0, n=10, p=0.1)
        with pytest.raises(ValueError):
            BoundSpec(epsilon=0.5, n=0, p=0.1)
        with pytest.raises(ValueError):
            BoundSpec(epsilon=0.5, n=10, p=1.0)


class TestJlSuccessBound:
    def test_reference_value(self):
        """epsilon=0.5, n=2000, p=0.05: the two exponentials are
        exp(-62.5) (negligible) and exp(-250/23.0526...) ~ 1.945e-5."""
        bound = jl_success_bound(BoundSpec(epsilon=0.5, n=2000, p=0.05))
        term = math.exp(-0.125 * 2000 / (2.0 * (1.0 / 0.095 + 1.0)))
        assert bound == pytest.approx(1.0 - term, abs=1e-12)
        assert bound == pytest.approx(1.0 - 1.95e-5, abs=5e-7)

    def test_clamped_at_zero_for_tiny_n(self):
        assert jl_success_bound(BoundSpec(epsilon=0.5, n=1, p=0.3)) == 0.0

    def test_monotone_in_n(self):
        values = [
            jl_success_bound(BoundSpec(epsilon=0.4, n=n, p=0.05))
            for n in (1, 10, 100, 1000, 10000)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            jl_success_bound(BoundSpec(epsilon=1.0, n=100, p=0.1))
        with pytest.raises(ValueError):
            jl_success_bound(BoundSpec(epsilon=1.5, n=100, p=0.1))


class TestDetLowerThreshold:
    def test_m1_reference_value(self):
        # 0.5*log(0.5) + 0.5*log(1!) - 1 = -1.3465735902799727
        got = det_lower_threshold(1, 0.5, 0.5)
        assert got == pytest.approx(-1.3465735902799727, abs=1e-14)

    def test_decreases_away_from_half(self):
        mid = det_lower_threshold(20, 0.5, 0.2)
        assert det_lower_threshold(20, 0.1, 0.2) < mid
        assert det_lower_threshold(20, 0.9, 0.2) < mid

    def test_high_precision_oracle(self):
        """m=64, p=0.3, eps=0.1 cross-checked against a Decimal
        evaluation of (m/2) ln(2p(1-p)) + (1/2) ln(m!) - m^0.6."""
        getcontext().prec = 60
        m = 64
        sigma2 = Decimal(2) * Decimal("0.3") * (1 - Decimal("0.3"))
        expected = (
            Decimal(m) / 2 * sigma2.ln()
            + Decimal(math.factorial(m)).ln() / 2
            - Decimal(m) ** (Decimal(1) / 2 + Decimal("0.1"))
        )
        got = det_lower_threshold(64, 0.3, 0.1)
        assert got == pytest.approx(float(expected), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            det_lower_threshold(0, 0.5, 0.1)
        with pytest.raises(ValueError):
            det_lower_threshold(5, 1.0, 0.1)
        with pytest.raises(ValueError):
            det_lower_threshold(5, 0.5, 0.0)


class TestCappedResidualBound:
    def test_k_zero_identity(self):
        assert cap_error_bound(7.0, 0, 1.0) == 7.0

    def test_monte_carlo_residuals(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 50))
            x = rng.standard_normal(n)
            k = int(rng.integers(0, n + 1))
            residual = np.linalg.norm(x - cap(x, k))
            for p in (0.5, 1.0, 1.5):
                norm_p = float(np.sum(np.abs(x) ** p) ** (1.0 / p))
                assert residual <= cap_error_bound(norm_p, k, p) * (1 + 1e-12)
