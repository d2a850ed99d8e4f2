"""Exact invertibility of integer matrices: the first step that applies decides.

1. A zero row or column proves singular (how almost every singular
   sparse sign matrix is singular).
2. A residual certificate proves invertible. X = rint(s * inv(a)) with
   s = 2^e, e >= 0, and every row of X has sum_k |X_ik| * max|a| <= 2^52,
   so every partial sum of X @ a is an integer below 2^53 and the float64
   product is exact in any order. If E = s*I - X @ a has every absolute
   row sum below s (in int64), ||I - (X/s) a||_inf < 1.
3. Two rows, or two columns, equal up to sign prove singular (about half
   of the singular sign matrices with no zero line).
4. Otherwise the exact fraction-free big-integer determinant decides.
"""

from __future__ import annotations

import math

import numpy as np


def _certified_invertible(a: np.ndarray) -> bool:
    """True proves the square integer matrix a nonsingular; False proves nothing."""
    amax = max(int(a.max()), -int(a.min()))
    if amax > 2**20:
        return False
    try:
        r = np.linalg.inv(a.astype(np.float64))
    except np.linalg.LinAlgError:
        return False
    row_norm = float(np.abs(r).sum(axis=1).max())
    if not 0.0 < row_norm < math.inf:
        return False
    m = a.shape[0]
    budget = 2**52 // amax
    # rint adds <= 1/2 per entry; m * s < 2^62 keeps E's clipped row sums in int64
    e = min(math.frexp((budget - m) / row_norm)[1] - 1, 62 - m.bit_length())
    if e < 0:
        return False
    s = 2**e
    x = np.rint(r * s)
    # float sums of integers are exact below 2^53 and round monotonically above
    if np.abs(x).sum(axis=1).max() > budget:
        return False
    resid = (x @ a.astype(np.float64)).astype(np.int64)
    resid[np.diag_indices(m)] -= s
    return bool(np.minimum(np.abs(resid), s).sum(axis=1).max() < s)


def _has_signed_twin_rows(a: np.ndarray) -> bool:
    """True proves two rows of a (none of them zero) equal up to sign."""
    lead = np.sign(a[np.arange(a.shape[0]), (a != 0).argmax(axis=1)])
    # |x| and sign(x) * lead never overflow, and |x| == |y| iff x == +-y
    key = np.hstack([np.abs(a), np.sign(a) * lead[:, None]])
    return np.unique(key, axis=0).shape[0] < a.shape[0]


def det_exact(a: np.ndarray) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    mat = [[int(v) for v in row] for row in np.asarray(a)]
    m = len(mat)
    if m == 0 or any(len(row) != m for row in mat):
        raise ValueError("det_exact requires a nonempty square matrix")
    sign = 1
    prev = 1
    for k in range(m - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[m - 1][m - 1]


def is_invertible(a: np.ndarray) -> bool:
    """Exact invertibility of a nonempty square integer matrix (steps above)."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"expected an integer matrix, got dtype {a.dtype}")
    if not (a.any(axis=0).all() and a.any(axis=1).all()):
        return False
    if _certified_invertible(a):
        return True
    if _has_signed_twin_rows(a) or _has_signed_twin_rows(a.T):
        return False
    return det_exact(a) != 0
