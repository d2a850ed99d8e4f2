"""Sparse random sign projection with winner-take-all capping.

The package implements the two-stage transform (expand a feature vector
through a sparse {-1,0,+1} random matrix, then keep only the k
largest-magnitude coordinates), the closed-form bounds that govern it,
Monte Carlo suites that verify those bounds empirically, and a
self-contained classification benchmark harness (datasets, a linear
SVM, and parameter sweeps).
"""
