"""repro.core.engines — the numerical backend of the extended K-means.

The clustering *algorithm* (Section 4.3's initial/repetition process,
outlier handling, convergence on ``G``) lives once, in
:class:`~repro.core.NoveltyKMeans`. The *numerics* — cluster
representatives, the Eq. 21-26 incremental accounting, and the
assignment-sweep gain queries — live behind the :class:`Engine`
protocol.

The library has one engine, :class:`MatrixEngine`: a CSR document
matrix whose assignment passes are answered by blockwise matrix
products (requires scipy). The paper's one-document-at-a-time
reference lives with the tests as an oracle, which the parity suites
pass as ``NoveltyKMeans(engine=DenseEngine)`` and hold to identical
decisions.
"""

from .base import (
    NO_GAIN,
    Engine,
    EngineClass,
    EngineView,
    affine_gain_coefficients,
    best_affine_gain,
)
from .matrix import MatrixEngine, SweepCounts

__all__ = [
    "NO_GAIN",
    "Engine",
    "EngineClass",
    "EngineView",
    "MatrixEngine",
    "SweepCounts",
    "affine_gain_coefficients",
    "best_affine_gain",
]
