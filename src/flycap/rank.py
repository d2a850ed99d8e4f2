"""Exact invertibility of integer matrices: the first step that applies decides.

1. A zero row or column proves singular (how almost every singular
   sparse sign matrix is singular).
2. A Cholesky proves G = a^T a positive definite, so a invertible; when
   m * max|a|^2 <= 2^53 the float64 product G is exact in any order.
3. Two rows, or two columns, equal up to sign prove singular (about half
   of the singular sign matrices with no zero line).
4. Otherwise the exact fraction-free big-integer determinant decides.
"""

from __future__ import annotations

import math

import numpy as np


def _positive_definite(g: np.ndarray) -> bool:
    """True proves the symmetric m x m float64 matrix g, with integer entries
    and a nonnegative diagonal, positive definite; False proves nothing.

    If a float64 Cholesky of h completes, R^T R = h + dh with ||dh||_2 <=
    gamma/(1 - gamma) tr h, gamma = (m+1)u / (1 - (m+1)u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3;
    Rump, BIT 2006). So g = R^T R - dh + cI is positive definite when
    h = g - cI and c, the least power of two above 4(m+1)u tr g, clears
    that bound with margin for the rounding of tr g. As c >= 2^-51 g_jj,
    each positive g_jj - c is exact; any other fails the Cholesky, so a
    zero trace, which gives c = 1, fails it. g is overwritten with h, so
    the Cholesky's output and work copy are its only m x m temporaries.
    Assumes BLAS and LAPACK use no Strassen-type products.
    """
    m = g.shape[0]
    trace = float(np.trace(g))
    c = 2.0 ** math.frexp(4 * (m + 1) * 2.0**-53 * trace)[1]
    g.flat[:: m + 1] -= c
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return False
    return True


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
    amax = max(int(a.max()), -int(a.min()))
    # m * max|a|^2 <= 2^53 keeps every partial sum of g.T @ g an exact integer
    if a.shape[0] * amax**2 <= 2**53:
        g = a.astype(np.float64)
        g = g.T @ g  # rebinding frees the float copy before the Cholesky
        if _positive_definite(g):
            return True
    if _has_signed_twin_rows(a) or _has_signed_twin_rows(a.T):
        return False
    return det_exact(a) != 0
