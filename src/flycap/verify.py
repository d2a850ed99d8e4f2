"""Monte Carlo suites that check the probabilistic claims empirically.

Each suite samples seed-derived trials, aggregates per grid point, and
compares against the matching closed-form oracle where one exists.
Each trial's stream is keyed by its trial index, so a seeded estimate
is reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import projection, rank
from .bounds import det_lower_threshold, entry_moments, jl_success_bound
from .seeding import check_seed, derive_rng, derive_seed

# leading stream tags, one per suite, so equal seeds never share streams
_TAG_INVERT = 1
_TAG_JL_MATRIX = 2
_TAG_JL_PAIR = 3
_TAG_OPNORM_MATRIX = 4
_TAG_OPNORM_START = 5
_TAG_DET = 6
_TAG_CAP = 7

# power-iteration stopping rule of operator_norm
_OPNORM_REL_TOL = 1e-6
_OPNORM_MAX_ITERS = 1000


@dataclass(frozen=True)
class McConfig:
    """Common knobs for the Monte Carlo suites.

    grid is the list of dimensions being swept (meaning depends on the
    suite).
    """

    trials: int
    seed: int
    p: float
    grid: tuple[int, ...] = ()
    epsilon: float = 0.5

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        check_seed(self.seed)
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        if self.grid:
            if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
                raise ValueError("grid must be strictly increasing")
            if self.grid[0] < 1:
                raise ValueError("grid entries must be positive")


@dataclass
class SuiteResult:
    """One suite run: its per-grid-point records."""

    suite: str
    records: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(rec.get("passed", True) for rec in self.records)

    def to_json_obj(self) -> dict:
        return {"suite": self.suite, "passed": self.passed, "records": self.records}


def _proportion_stderr(q: float, trials: int) -> float:
    return math.sqrt(q * (1.0 - q) / trials)


def sample_square_sign_matrix(rng: np.random.Generator, m: int, p: float) -> np.ndarray:
    """Dense int8 m x m draw, one rng call mapped by `projection.sign_entries`."""
    return projection.sign_entries(rng.random((m, m)), p)


def invertibility_curve(cfg: McConfig) -> SuiteResult:
    """Fraction of exactly-invertible m x m sign matrices, per grid m.

    At m = 1 the fraction has the closed form 2p(1-p) and the record is
    checked against it (5 standard errors); larger m carry no
    closed-form oracle, so those records always pass.
    """
    if not cfg.grid:
        raise ValueError("invertibility_curve needs a grid of m values")
    records = []
    for m in cfg.grid:
        count = 0
        for trial in range(cfg.trials):
            rng = derive_rng(cfg.seed, _TAG_INVERT, m, trial)
            count += rank.is_invertible(sample_square_sign_matrix(rng, m, cfg.p))
        estimate = count / cfg.trials
        stderr = _proportion_stderr(estimate, cfg.trials)
        if m == 1:
            oracle = 2.0 * cfg.p * (1.0 - cfg.p)
            passed = abs(estimate - oracle) <= 5.0 * _proportion_stderr(
                oracle, cfg.trials
            )
        else:
            oracle = None
            passed = True
        records.append(
            {
                "m": m,
                "p": cfg.p,
                "trials": cfg.trials,
                "estimate": estimate,
                "stderr": stderr,
                "bound": oracle,
                "passed": passed,
            }
        )
    return SuiteResult("invertibility", records)


def distance_preserved(
    matrix: projection.SparseSignMatrix, u: np.ndarray, v: np.ndarray, epsilon: float
) -> bool:
    """Whether one pair's rescaled squared distance lands in (1 +- eps)."""
    diff = u - v
    base = float(diff @ diff)
    if base == 0.0:
        raise ValueError("u and v must differ")
    sigma2 = entry_moments(matrix.p)[2]
    image = projection.apply(matrix, diff)
    scaled = float(image @ image) / (matrix.n_rows * sigma2)
    return (1.0 - epsilon) * base <= scaled <= (1.0 + epsilon) * base


def jl_preservation(cfg: McConfig, m: int, n: int) -> SuiteResult:
    """Empirical distance-preservation frequency versus its closed-form bound.

    Each trial draws a fresh projection matrix and an independent
    standard-normal pair (u, v). Passes when the frequency is no more
    than 3 binomial standard errors below the bound.
    """
    bound = jl_success_bound(cfg.epsilon, n, cfg.p)
    hits = 0
    for trial in range(cfg.trials):
        mat_seed = derive_seed(cfg.seed, _TAG_JL_MATRIX, trial)
        matrix = projection.sample_matrix(n, m, cfg.p, mat_seed)
        pair_rng = derive_rng(cfg.seed, _TAG_JL_PAIR, trial)
        u = pair_rng.standard_normal(m)
        v = pair_rng.standard_normal(m)
        if distance_preserved(matrix, u, v, cfg.epsilon):
            hits += 1
    estimate = hits / cfg.trials
    stderr = _proportion_stderr(estimate, cfg.trials)
    record = {
        "n": n,
        "m": m,
        "p": cfg.p,
        "epsilon": cfg.epsilon,
        "trials": cfg.trials,
        "estimate": estimate,
        "stderr": stderr,
        "bound": bound,
        "passed": estimate >= bound - 3.0 * stderr,
    }
    return SuiteResult("jl_preservation", [record])


def operator_norm(
    matrix: projection.SparseSignMatrix, start_rng: np.random.Generator
) -> tuple[float, bool]:
    """Largest singular value by power iteration on the m x m Gram matrix.

    Returns (sigma, converged); an all-zero matrix reports (0.0, True).
    The Gram matrix holds small integers, which BLAS sums exactly in any
    order; the iteration's products, dots and norms are einsum reductions
    in a fixed order, never BLAS, so no BLAS kernel changes a bit of sigma.
    """
    dense = matrix.to_dense()
    gram = dense.T @ dense
    v = start_rng.standard_normal(matrix.n_cols)
    v /= math.sqrt(np.einsum("i,i->", v, v))
    w = np.einsum("ij,j->i", gram, v)
    lam_prev = 0.0
    for _ in range(_OPNORM_MAX_ITERS):
        norm_w = math.sqrt(np.einsum("i,i->", w, w))
        if norm_w == 0.0:
            return 0.0, True
        v = w / norm_w
        w = np.einsum("ij,j->i", gram, v)
        lam = float(np.einsum("i,i->", v, w))
        if abs(lam - lam_prev) <= _OPNORM_REL_TOL * abs(lam):
            return math.sqrt(lam), True
        lam_prev = lam
    return math.sqrt(lam_prev), False


def opnorm_scaling(cfg: McConfig, m: int, n_grid) -> SuiteResult:
    """Ratio of the operator norm to sqrt(n) across growing n.

    The ratio should stay below the generous desk-scale envelope
    2*sigma*(1 + sqrt(m/n)) + 0.5 with sigma = sqrt(2p(1-p)); every
    trial must land under it. Non-converged power iterations are
    reported per grid point, not fatal.
    """
    n_grid = [int(n) for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or not n_grid:
        raise ValueError("n_grid must be nonempty and strictly increasing")
    sigma = math.sqrt(entry_moments(cfg.p)[2])
    records = []
    for n in n_grid:
        ratios = np.empty(cfg.trials)
        unconverged = 0
        for trial in range(cfg.trials):
            mat_seed = derive_seed(cfg.seed, _TAG_OPNORM_MATRIX, n, trial)
            matrix = projection.sample_matrix(n, m, cfg.p, mat_seed)
            start_rng = derive_rng(cfg.seed, _TAG_OPNORM_START, n, trial)
            opnorm, converged = operator_norm(matrix, start_rng)
            if not converged:
                unconverged += 1
            ratios[trial] = opnorm / math.sqrt(n)
        envelope = 2.0 * sigma * (1.0 + math.sqrt(m / n)) + 0.5
        records.append(
            {
                "n": n,
                "m": m,
                "p": cfg.p,
                "trials": cfg.trials,
                "estimate": float(ratios.max()),
                "stderr": float(ratios.std(ddof=1)) if cfg.trials > 1 else 0.0,
                "bound": envelope,
                "passed": bool(ratios.max() <= envelope),
                "mean_ratio": float(ratios.mean()),
                "unconverged": unconverged,
            }
        )
    return SuiteResult("opnorm_scaling", records)


def det_bound_incidence(cfg: McConfig, m: int, epsilon: float) -> SuiteResult:
    """Fraction of trials whose log|det| clears the closed-form threshold.

    log|det| comes from LU with partial pivoting of a float64 copy of the
    int8 draw (log-domain accumulation). Float LU can leave a tiny pivot
    on an exactly singular sample, so a clearing sample counts only once
    `rank.is_invertible` proves the int8 draw nonsingular. There is no hard pass
    criterion; the fraction is locked as a seeded regression value.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    threshold = det_lower_threshold(m, cfg.p, epsilon)
    above = 0
    for trial in range(cfg.trials):
        rng = derive_rng(cfg.seed, _TAG_DET, m, trial)
        a = sample_square_sign_matrix(rng, m, cfg.p)
        logdet = np.linalg.slogdet(a.astype(np.float64))[1]
        if logdet >= threshold and rank.is_invertible(a):
            above += 1
    estimate = above / cfg.trials
    record = {
        "m": m,
        "p": cfg.p,
        "epsilon": epsilon,
        "trials": cfg.trials,
        "estimate": estimate,
        "stderr": _proportion_stderr(estimate, cfg.trials),
        "bound": threshold,
        "passed": True,
    }
    return SuiteResult("det_bound", [record])


# relative slack for float evaluation of inequalities that hold exactly
# in real arithmetic (1-ulp effects at equality cases)
_FLOAT_SLACK = 1e-12


def _residual_tail(x: np.ndarray) -> np.ndarray:
    """residual[k] = |x - cap_k(x)|_2 for every k in 0..len(x).

    Under lowest-index tie-breaking the capped vector always keeps a
    maximal-magnitude set, so the residual depends only on the sorted
    magnitudes; summing squares from the smallest up keeps it accurate.
    """
    mags_desc = np.sort(np.abs(x))[::-1]
    tail_sq = np.zeros(x.size + 1)
    tail_sq[:-1] = np.cumsum((mags_desc[::-1] ** 2))[::-1]
    return np.sqrt(tail_sq)


def cap_bound_sweep(cfg: McConfig, length: int) -> SuiteResult:
    """Check the cap residual bound on random vectors, for every k at once.

    Half the vectors are standard Gaussian, half sparse Laplacian-style
    (heavy-tailed with most entries masked to zero). For each p-norm in
    {0.5, 1, 1.5} the record passes only with zero violations.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    p_norms = (0.5, 1.0, 1.5)
    violations = {p_norm: 0 for p_norm in p_norms}
    ks = np.arange(length + 1)
    for trial in range(cfg.trials):
        rng = derive_rng(cfg.seed, _TAG_CAP, trial)
        if trial % 2 == 0:
            x = rng.standard_normal(length)
        else:
            x = rng.laplace(scale=1.0, size=length)
            x *= rng.random(length) < 0.1
        residual = _residual_tail(x)
        for p_norm in p_norms:
            norm_p = float(np.sum(np.abs(x) ** p_norm) ** (1.0 / p_norm))
            bound = norm_p * (ks + 1.0) ** (0.5 - 1.0 / p_norm)
            bad = residual > bound * (1.0 + _FLOAT_SLACK)
            violations[p_norm] += int(bad.sum())
    checks = cfg.trials * (length + 1)
    records = []
    for p_norm in p_norms:
        ok = checks - violations[p_norm]
        records.append(
            {
                "length": length,
                "p_norm": p_norm,
                "trials": cfg.trials,
                "estimate": ok / checks,
                "stderr": 0.0,
                "bound": 1.0,
                "passed": violations[p_norm] == 0,
            }
        )
    return SuiteResult("cap_bound", records)
