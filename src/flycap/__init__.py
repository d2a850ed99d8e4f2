"""Sparse random sign projection with winner-take-all capping.

The package implements the two-stage transform (expand a feature vector
through a sparse {-1,0,+1} random matrix, then keep only the k
largest-magnitude coordinates), the closed-form bounds that govern it,
Monte Carlo suites that verify those bounds empirically, and a
self-contained classification benchmark harness (datasets, a linear
SVM, and parameter sweeps).
"""

from .bounds import (
    BoundSpec,
    det_lower_threshold,
    entry_moments,
    jl_success_bound,
)
from .cap import cap, cap_error_bound
from .data import FeatureDataset, SplitSpec, add_noise, load_csv, save_csv, split, standardize, synth_blobs
from .experiments import ExperimentReport, GridPoint, SweepSpec, SynthSpec, fig_tables, run_sweep
from .projection import (
    EntryStats,
    SparseSignMatrix,
    apply,
    entry_stats,
    sample_matrix,
)
from .svm import SvmModel, TrainSpec, evaluate, train
from .transform import Transform, TransformConfig, build
from .verify import (
    McConfig,
    SuiteResult,
    cap_bound_sweep,
    det_bound_incidence,
    invertibility_curve,
    jl_preservation,
    opnorm_scaling,
)

__version__ = "0.1.0"
