"""Exact singularity testing for integer matrices.

Floating-point determinants near zero cannot certify singularity, so
every verdict here is a proof. Full rank modulo one prime proves the
determinant nonzero. A zero row or column proves it zero; that is how
almost every singular sparse sign matrix is singular. Any other matrix
singular modulo the prime (a nonsingular integer matrix is, with
probability on the order of m/prime) goes to an exact fraction-free
big-integer elimination.

The prime sits just below 2^31 so that products of two residues fit in
int64 and the elimination stays vectorized.
"""

from __future__ import annotations

import numpy as np

PRIME = 2147483647


def _full_rank_mod(a: np.ndarray) -> bool:
    """Early-exit full-rank test for a square matrix over GF(PRIME)."""
    a = np.mod(np.asarray(a, dtype=np.int64), PRIME)
    m = a.shape[0]
    for c in range(m):
        pivots = np.flatnonzero(a[c:, c])
        if pivots.size == 0:
            return False
        piv = c + pivots[0]
        if piv != c:
            a[[c, piv]] = a[[piv, c]]
        inv = pow(int(a[c, c]), -1, PRIME)
        a[c, c:] = a[c, c:] * inv % PRIME
        below = np.flatnonzero(a[c + 1 :, c])
        if below.size:
            rows = c + 1 + below
            # residues < 2^31, so the outer product fits in int64
            a[rows, c:] = (a[rows, c:] - np.outer(a[rows, c], a[c, c:])) % PRIME
    return True


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
    """Exact invertibility verdict for a square integer matrix.

    Full rank modulo PRIME proves invertibility and a zero row or column
    proves singularity; only a matrix that is neither falls back to the
    exact big-integer determinant.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if _full_rank_mod(a):
        return True
    if not (a.any(axis=0).all() and a.any(axis=1).all()):
        return False
    return det_exact(a) != 0
