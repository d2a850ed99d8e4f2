"""Exact invertibility of integer matrices: the first step that applies decides.

1. A zero row or column proves singular (how almost every singular
   sparse sign matrix is singular).
2. A Cholesky proves G = a^T a positive definite, so a invertible; when
   m * max|a|^2 <= 2^53 the float64 product G is exact in any order.
3. Otherwise the exact fraction-free big-integer determinant decides.
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


def _square_integer(a: np.ndarray) -> np.ndarray:
    """a as an array, if it is a nonempty square integer matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"expected an integer matrix, got dtype {a.dtype}")
    return a


def det_exact(a: np.ndarray) -> int:
    """Exact determinant of a nonempty square integer matrix by Bareiss
    fraction-free elimination (Math. Comp. 1968).

    Each step updates the whole trailing block on Python ints, so no
    entry overflows and every division is exact.
    """
    mat = _square_integer(a).astype(object)
    sign = 1
    prev = 1
    for k in range(mat.shape[0] - 1):
        if mat[k, k] == 0:
            below = np.flatnonzero(mat[k + 1 :, k])
            if below.size == 0:
                return 0
            swap = k + 1 + below[0]
            mat[[k, swap]] = mat[[swap, k]]
            sign = -sign
        pivot = mat[k, k]
        trailing = mat[k + 1 :, k + 1 :]
        trailing[...] = (trailing * pivot - np.outer(mat[k + 1 :, k], mat[k, k + 1 :])) // prev
        prev = pivot
    return sign * mat[-1, -1]


def is_invertible(a: np.ndarray) -> bool:
    """Exact invertibility of a nonempty square integer matrix (steps above)."""
    a = _square_integer(a)
    if not (a.any(axis=0).all() and a.any(axis=1).all()):
        return False
    amax = max(int(a.max()), -int(a.min()))
    # m * max|a|^2 <= 2^53 keeps every partial sum of g.T @ g an exact integer
    if a.shape[0] * amax**2 <= 2**53:
        g = a.astype(np.float64)
        g = g.T @ g  # rebinding frees the float copy before the Cholesky
        if _positive_definite(g):
            return True
    return det_exact(a) != 0
