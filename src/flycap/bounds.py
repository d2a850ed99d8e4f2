"""Closed-form probability and norm bounds for the sign-projection family.

These evaluators are the oracles that the Monte Carlo suites compare
against; they are pure functions of their parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BoundSpec:
    """Parameters shared by the concentration bounds.

    sigma2 is the entry variance 2p(1-p); subgaussian_l2 = 1/sigma2 is
    the moment-growth constant that makes the upper-tail bound hold for
    these entries.
    """

    epsilon: float
    n: int
    p: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")

    @property
    def sigma2(self) -> float:
        return 2.0 * self.p * (1.0 - self.p)

    @property
    def subgaussian_l2(self) -> float:
        return 1.0 / self.sigma2


def entry_moments(p: float) -> tuple[float, float, float]:
    """(mean, zero probability, variance) of one difference-of-Bernoulli entry.

    mean = 0, P(entry = 0) = 2p^2 - 2p + 1, variance = 2p(1-p).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return 0.0, 2.0 * p * p - 2.0 * p + 1.0, 2.0 * p * (1.0 - p)


def jl_success_bound(spec: BoundSpec) -> float:
    """Lower bound on the probability that one pairwise squared distance
    is preserved within (1 +- epsilon) after projection and 1/(n sigma^2)
    rescaling.

    Evaluates max(0, 1 - exp(-(e^2 - e^3) n / 4)
                   - exp(-(e^2 - e^3) n / (2 (1/sigma^2 + 1)))).
    The raw expression can be negative for small n; it is clamped at 0.
    """
    if spec.epsilon >= 1.0:
        raise ValueError(
            f"epsilon must be below 1 for a meaningful bound, got {spec.epsilon}"
        )
    e2e3 = spec.epsilon**2 - spec.epsilon**3
    upper = math.exp(-e2e3 * spec.n / 4.0)
    lower = math.exp(-e2e3 * spec.n / (2.0 * (spec.subgaussian_l2 + 1.0)))
    return max(0.0, 1.0 - upper - lower)


def det_lower_threshold(m: int, p: float, epsilon: float) -> float:
    """Log-scale determinant threshold for m x m sign submatrices.

    Returns log of (2p(1-p))^(m/2) * sqrt(m!) * exp(-m^(1/2+epsilon)),
    evaluated as (m/2) log(2p(1-p)) + (1/2) lgamma(m+1) - m^(1/2+epsilon).
    Log-domain evaluation avoids overflow of sqrt(m!).
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    sigma2 = 2.0 * p * (1.0 - p)
    return 0.5 * m * math.log(sigma2) + 0.5 * math.lgamma(m + 1) - m ** (0.5 + epsilon)
