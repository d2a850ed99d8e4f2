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
    vector; k >= len(x) is the identity. This is the scatter of
    `kept_columns`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    columns = kept_columns(x[None, :], k)[0]
    out = np.zeros(x.shape[0])
    out[columns] = x[columns]
    return out


def kept_columns(x: np.ndarray, k: int) -> np.ndarray:
    """The columns `cap` keeps in each row of a 2-D array, as int32
    (rows x min(k, n)), ascending in each row.

    Selection uses an expected-linear-time partition of each row's
    magnitudes rather than a full sort. k >= n keeps every column and
    returns a broadcast view of one arange.
    """
    if not np.all(np.isfinite(x)):
        raise ValueError("input has non-finite entries")
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    rows, n = x.shape
    if k >= n:
        return np.broadcast_to(np.arange(n, dtype=np.int32), (rows, n))
    if k == 0:
        return np.empty((rows, 0), dtype=np.int32)

    mags = np.abs(x)
    threshold = np.partition(mags, n - k, axis=1)[:, n - k, None]
    # every row has fewer than k above its k-th largest; its lowest ties fill it up
    keep = mags > threshold
    need = k - np.count_nonzero(keep, axis=1)
    for i in range(rows):
        keep[i, np.flatnonzero(mags[i] == threshold[i])[: need[i]]] = True
    flat = np.flatnonzero(keep).reshape(rows, k)  # row-major, so ascending in each row
    return (flat - np.arange(0, rows * n, n)[:, None]).astype(np.int32)


def cap_error_bound(norm_p_of_x: float, k: int, p_norm: float) -> float:
    """Closed-form bound on |x - cap_k(x)|_2 given |x|_p.

    Returns norm_p_of_x * (k+1)**(1/2 - 1/p_norm); valid for
    p_norm in (0, 2).
    """
    if not 0.0 < p_norm < 2.0:
        raise ValueError(f"p_norm must lie in (0, 2), got {p_norm}")
    if not 0.0 <= norm_p_of_x < np.inf:
        raise ValueError(f"norm must be finite and non-negative, got {norm_p_of_x}")
    k = int(k)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return norm_p_of_x * float(k + 1) ** (0.5 - 1.0 / p_norm)
