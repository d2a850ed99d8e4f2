"""Monte Carlo suites: closed-form oracles at small scale, seeded
regressions, and determinism of serialized outputs."""

import itertools
import math

import numpy as np
import pytest

from flycap.projection import SparseSignMatrix, sample_matrix
from flycap.rank import det_exact
from flycap.verify import (
    McConfig,
    cap_bound_sweep,
    det_bound_incidence,
    distance_preserved,
    invertibility_curve,
    jl_preservation,
    operator_norm,
    opnorm_scaling,
    sample_square_sign_matrix,
)


def enumerate_2x2_nonsingular_probability(p):
    """Exhaustive oracle: sum the trinomial weights of all 3^4 sign
    patterns with nonzero determinant."""
    q = p * (1.0 - p)
    weight = {1: q, -1: q, 0: 1.0 - 2.0 * q}
    total = 0.0
    for a, b, c, d in itertools.product((-1, 0, 1), repeat=4):
        if a * d - b * c != 0:
            total += weight[a] * weight[b] * weight[c] * weight[d]
    return total


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0, seed=1, p=0.1)
        with pytest.raises(ValueError):
            McConfig(trials=5, seed=1, p=1.0)
        with pytest.raises(ValueError):
            McConfig(trials=5, seed=1, p=0.1, grid=(3, 2))


class TestSquareSampling:
    def test_distribution(self):
        rng = np.random.default_rng(1)
        a = sample_square_sign_matrix(rng, 400, 0.2)
        q = 0.2 * 0.8
        total = a.size
        for value, prob in ((1, q), (-1, q), (0, 1 - 2 * q)):
            se = math.sqrt(prob * (1 - prob) / total)
            assert abs(np.mean(a == value) - prob) <= 5 * se

    def test_matches_dense_sign_rule(self):
        """The scattered nonzeros equal the dense mapping of the same
        uniforms: +1 below p(1-p), -1 below 2p(1-p), else 0."""
        for m, p in ((1, 0.05), (37, 0.3), (100, 0.05)):
            a = sample_square_sign_matrix(np.random.default_rng(m), m, p)
            u = np.random.default_rng(m).random((m, m))
            q = p * (1.0 - p)
            want = np.where(u < q, 1, np.where(u < 2.0 * q, -1, 0)).astype(np.int64)
            assert a.dtype == want.dtype and np.array_equal(a, want)


class TestInvertibilityCurve:
    def test_m1_matches_closed_form(self):
        """At m=1 the invertibility probability is exactly 2p(1-p)."""
        p = 0.05
        cfg = McConfig(trials=4000, seed=42, p=p, grid=(1,))
        rec = invertibility_curve(cfg).records[0]
        oracle = 2.0 * p * (1.0 - p)
        se = math.sqrt(oracle * (1.0 - oracle) / cfg.trials)
        assert abs(rec["estimate"] - oracle) <= 5.0 * se
        assert rec["bound"] == oracle
        assert rec["passed"]

    def test_m2_matches_enumeration_oracle(self):
        p = 0.5
        cfg = McConfig(trials=3000, seed=7, p=p, grid=(2,))
        rec = invertibility_curve(cfg).records[0]
        oracle = enumerate_2x2_nonsingular_probability(p)
        se = math.sqrt(oracle * (1.0 - oracle) / cfg.trials)
        assert abs(rec["estimate"] - oracle) <= 5.0 * se

    def test_seeded_regression_counts(self):
        """Pinned invertible counts: any change to the trial streams or
        to the exact verdicts moves them."""
        cfg = McConfig(trials=300, seed=11, p=0.2, grid=(1, 3))
        records = invertibility_curve(cfg).records
        assert [rec["estimate"] for rec in records] == [76 / 300, 47 / 300]

    def test_estimates_are_probabilities_with_stderr(self):
        cfg = McConfig(trials=200, seed=3, p=0.3, grid=(2, 4, 8))
        result = invertibility_curve(cfg)
        for rec in result.records:
            assert 0.0 <= rec["estimate"] <= 1.0
            q = rec["estimate"]
            assert rec["stderr"] == pytest.approx(math.sqrt(q * (1 - q) / 200))


class TestJlPreservation:
    def test_small_run_passes_bound(self):
        cfg = McConfig(trials=100, seed=5, p=0.05, epsilon=0.5)
        result = jl_preservation(cfg, m=10, n=400)
        rec = result.records[0]
        assert rec["passed"]
        assert rec["estimate"] >= rec["bound"] - 3.0 * rec["stderr"]

    def test_indicator_scale_invariant(self):
        """Scaling u and v together cannot change the per-pair verdict."""
        matrix = sample_matrix(300, 20, 0.05, 9)
        rng = np.random.default_rng(10)
        for _ in range(20):
            u, v = rng.standard_normal(20), rng.standard_normal(20)
            base = distance_preserved(matrix, u, v, 0.5)
            for alpha in (2.0, 1e-3, -7.0):
                assert distance_preserved(matrix, alpha * u, alpha * v, 0.5) == base

    def test_identical_pair_rejected(self):
        matrix = sample_matrix(50, 5, 0.1, 1)
        u = np.ones(5)
        with pytest.raises(ValueError):
            distance_preserved(matrix, u, u.copy(), 0.5)

    def test_epsilon_near_one_still_reports(self):
        cfg = McConfig(trials=50, seed=6, p=0.1, epsilon=0.99)
        rec = jl_preservation(cfg, m=5, n=50).records[0]
        assert 0.0 <= rec["estimate"] <= 1.0
        assert rec["bound"] >= 0.0

    def test_epsilon_domain(self):
        cfg = McConfig(trials=10, seed=6, p=0.1, epsilon=1.2)
        with pytest.raises(ValueError):
            jl_preservation(cfg, m=5, n=50)


class TestOperatorNorm:
    def test_zero_matrix(self):
        empty = SparseSignMatrix(
            4,
            3,
            0.05,
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int8),
        )
        sigma, converged = operator_norm(empty, np.random.default_rng(0))
        assert sigma == 0.0 and converged

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            m = sample_matrix(60, 15, 0.15, seed)
            sigma, converged = operator_norm(m, rng)
            want = np.linalg.svd(m.to_dense(), compute_uv=False)[0]
            assert converged
            assert sigma == pytest.approx(want, rel=1e-5)

    def test_suite_ratios_under_envelope(self):
        cfg = McConfig(trials=10, seed=42, p=0.05)
        result = opnorm_scaling(cfg, m=30, n_grid=[100, 200, 400])
        assert result.passed
        for rec in result.records:
            assert rec["estimate"] <= rec["bound"]

    def test_seeded_regression_value(self):
        """First run locked: n=2000, m=100, p=0.05, 5 trials, seed 42."""
        cfg = McConfig(trials=5, seed=42, p=0.05)
        rec = opnorm_scaling(cfg, m=100, n_grid=[2000]).records[0]
        assert rec["estimate"] == pytest.approx(0.37760621264017735, abs=1e-12)

    def test_bad_grid(self):
        cfg = McConfig(trials=2, seed=1, p=0.1)
        with pytest.raises(ValueError):
            opnorm_scaling(cfg, m=5, n_grid=[10, 10])


class TestDetBoundIncidence:
    def test_m2_enumeration_oracle(self):
        """At m=2, p=0.5 every nonsingular sample clears the (negative)
        threshold, so the incidence equals the nonsingular probability."""
        from flycap.bounds import det_lower_threshold

        assert det_lower_threshold(2, 0.5, 0.1) < 0.0
        cfg = McConfig(trials=3000, seed=12, p=0.5)
        rec = det_bound_incidence(cfg, m=2, epsilon=0.1).records[0]
        oracle = enumerate_2x2_nonsingular_probability(0.5)
        se = math.sqrt(oracle * (1.0 - oracle) / cfg.trials)
        assert abs(rec["estimate"] - oracle) <= 5.0 * se

    def test_singular_counts_below_threshold(self):
        """With p pushed toward 0 almost every sample is the zero matrix,
        whose log|det| is -inf: the incidence collapses."""
        cfg = McConfig(trials=200, seed=13, p=0.001)
        rec = det_bound_incidence(cfg, m=2, epsilon=0.1).records[0]
        assert rec["estimate"] <= 0.05

    def test_seeded_regression_value(self):
        """First run locked: m=16, p=0.3, eps=0.1, 200 trials, seed 42."""
        cfg = McConfig(trials=200, seed=42, p=0.3)
        rec = det_bound_incidence(cfg, m=16, epsilon=0.1).records[0]
        assert rec["estimate"] == 0.985

    def test_nearby_seed_lands_close(self):
        base = det_bound_incidence(McConfig(trials=200, seed=42, p=0.3), 16, 0.1)
        other = det_bound_incidence(McConfig(trials=200, seed=43, p=0.3), 16, 0.1)
        assert abs(base.records[0]["estimate"] - other.records[0]["estimate"]) <= 0.05

    def test_m_domain(self):
        with pytest.raises(ValueError):
            det_bound_incidence(McConfig(trials=5, seed=1, p=0.3), m=1, epsilon=0.1)


class TestCapBoundSweep:
    def test_no_violations(self):
        cfg = McConfig(trials=200, seed=14, p=0.5)
        result = cap_bound_sweep(cfg, length=100)
        assert result.passed
        for rec in result.records:
            assert rec["estimate"] == 1.0

    def test_length_domain(self):
        with pytest.raises(ValueError):
            cap_bound_sweep(McConfig(trials=5, seed=1, p=0.5), length=0)

    def test_residual_tail_matches_direct_cap(self):
        """The vectorized residual per k equals literally capping."""
        from flycap.cap import cap
        from flycap.verify import _residual_tail

        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            x = rng.standard_normal(n)
            tails = _residual_tail(x)
            for k in range(n + 1):
                direct = np.linalg.norm(x - cap(x, k))
                assert tails[k] == pytest.approx(direct, abs=1e-12)


class TestSerialization:
    def test_csv_and_json_are_deterministic(self, tmp_path):
        cfg = McConfig(trials=100, seed=21, p=0.2, grid=(1, 2))
        paths = []
        for tag in ("a", "b"):
            result = invertibility_curve(cfg)
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            result.write_csv(csv_path, header_line="invocation")
            result.write_json(json_path, header_line="invocation")
            paths.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_header_line_present(self, tmp_path):
        result = cap_bound_sweep(McConfig(trials=10, seed=1, p=0.5), length=20)
        out = tmp_path / "cap.csv"
        result.write_csv(out, header_line="flycap verify cap --length 20")
        first = out.read_text().splitlines()[0]
        assert first == "# flycap verify cap --length 20"
