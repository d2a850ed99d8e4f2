"""Winner-take-all capping: keep the k largest-magnitude entries.

The cap never increases any p-norm, never drops the largest entry (for
k >= 1), and its residual is controlled by
``|x - cap_k(x)|_2 <= |x|_p * (k+1)^(1/2 - 1/p)`` for p in (0, 2).
"""

from __future__ import annotations

import numpy as np


def cap(x: np.ndarray, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries of x, in a new array.

    Ties in magnitude are broken toward the lower index, which makes
    the operation deterministic and idempotent. k = 0 yields the zero
    vector; k >= len(x) is the identity. Selection uses an
    expected-linear-time partition of the magnitudes rather than a full
    sort.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input vector has non-finite entries")
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")

    n = x.shape[0]
    if k == 0:
        return np.zeros(n)
    if k >= n:
        return x.copy()

    mags = np.abs(x)
    threshold = np.partition(mags, n - k)[n - k]
    keep = mags > threshold
    need = k - np.count_nonzero(keep)
    if need > 0:
        keep[np.flatnonzero(mags == threshold)[:need]] = True
    return np.where(keep, x, 0.0)


def cap_error_bound(norm_p_of_x: float, k: int, p_norm: float) -> float:
    """Closed-form bound on |x - cap_k(x)|_2 given |x|_p.

    Returns norm_p_of_x * (k+1)**(1/2 - 1/p_norm); valid for
    p_norm in (0, 2).
    """
    if not 0.0 < p_norm < 2.0:
        raise ValueError(f"p_norm must lie in (0, 2), got {p_norm}")
    if norm_p_of_x < 0.0:
        raise ValueError(f"norm must be non-negative, got {norm_p_of_x}")
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return norm_p_of_x * float(k + 1) ** (0.5 - 1.0 / p_norm)
