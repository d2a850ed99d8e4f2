"""Closed-form probability and norm bounds for the sign-projection family.

These evaluators are the oracles that the Monte Carlo suites compare
against; they are pure functions of their parameters.
"""

from __future__ import annotations

import math


def entry_moments(p: float) -> tuple[float, float, float]:
    """(mean, zero probability, variance) of one difference-of-Bernoulli entry.

    mean = 0, P(entry = 0) = 2p^2 - 2p + 1, variance = 2p(1-p).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return 0.0, 2.0 * p * p - 2.0 * p + 1.0, 2.0 * p * (1.0 - p)


def jl_success_bound(epsilon: float, n: int, p: float) -> float:
    """Lower bound on the probability that one pairwise squared distance
    is preserved within (1 +- epsilon) after projection and 1/(n sigma^2)
    rescaling.

    Evaluates max(0, 1 - exp(-(e^2 - e^3) n / 4)
                   - exp(-(e^2 - e^3) n / (2 (1/sigma^2 + 1)))),
    with entry variance sigma^2 = 2p(1-p); 1/sigma^2 is the moment-growth
    constant that makes the upper-tail bound hold for these entries.
    The raw expression can be negative for small n; it is clamped at 0.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    sigma2 = entry_moments(p)[2]
    e2e3 = epsilon**2 - epsilon**3
    upper = math.exp(-e2e3 * n / 4.0)
    lower = math.exp(-e2e3 * n / (2.0 * (1.0 / sigma2 + 1.0)))
    return max(0.0, 1.0 - upper - lower)


def det_lower_threshold(m: int, p: float, epsilon: float) -> float:
    """Log-scale determinant threshold for m x m sign submatrices.

    Returns log of (2p(1-p))^(m/2) * sqrt(m!) * exp(-m^(1/2+epsilon)),
    evaluated as (m/2) log(2p(1-p)) + (1/2) lgamma(m+1) - m^(1/2+epsilon).
    Log-domain evaluation avoids overflow of sqrt(m!).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    sigma2 = entry_moments(p)[2]
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    return 0.5 * m * math.log(sigma2) + 0.5 * math.lgamma(m + 1) - m ** (0.5 + epsilon)
