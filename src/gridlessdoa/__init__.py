"""Gridless DoA / line-spectrum estimation on sparse linear arrays.

The library fits structured (sampled-Toeplitz) covariance models to sample
covariance matrices in the maximum-likelihood sense, interpolates missing
correlation lags on arrays with coarray holes, runs grid-based sparse
Bayesian learning with a likelihood-driven off-grid finish for arbitrary
sensor placements, and ships a reproducible experiment harness.
"""

from .geometry import ArrayGeometry, LagStructure, coarray, structured_matrix, toeplitz_embed
from .sigmodel import SnapshotMatrix, SourceScene, manifold, scm, simulate
from .mlesolve import MleConfig, structcov_mle, em_gridless
from .estimate import DoaEstimate, root_music, vandermonde_decompose

__all__ = [
    "ArrayGeometry",
    "LagStructure",
    "coarray",
    "structured_matrix",
    "toeplitz_embed",
    "SnapshotMatrix",
    "SourceScene",
    "manifold",
    "scm",
    "simulate",
    "MleConfig",
    "structcov_mle",
    "em_gridless",
    "DoaEstimate",
    "root_music",
    "vandermonde_decompose",
]

__version__ = "0.1.0"
