"""repro.core.engines — pluggable backends for the extended K-means.

The clustering *algorithm* (Section 4.3's initial/repetition process,
outlier handling, convergence on ``G``) lives once, in
:class:`~repro.core.NoveltyKMeans`. The *numerics* — cluster
representatives, the Eq. 21-26 incremental accounting, and the
assignment-sweep gain queries — live behind the :class:`Engine`
protocol, selected by name through a registry:

============  ==========================================================
``"sparse"``  Reference implementation over :class:`~repro.core.Cluster`
              dict-backed vectors; mirrors the paper line-by-line.
``"dense"``   numpy K×V representative matrix; per-document gains as one
              fancy-indexed matrix-vector product.
``"matrix"``  CSR document matrix + blockwise sweep matmuls; answers an
              entire assignment pass with matrix products (requires
              scipy). The default (:data:`~repro.core.config.
              DEFAULT_PATH`) and the fastest end to end.
``"pruned"``  Inverted term→cluster index with exact upper-bound
              candidate pruning over column-major representatives;
              skips every cluster that provably cannot win a document
              before its dot product is taken. Assignment-identical to
              the exact path; pays off only at very large K × large
              vocabulary (numpy only).
============  ==========================================================

Register your own with :func:`register_engine`::

    from repro.core.engines import Engine, register_engine

    def build_my_engine(k, vectors, criterion):
        return MyEngine(k, vectors, criterion)

    register_engine("mine", build_my_engine)
    NoveltyKMeans(k=8, engine="mine")
"""

from .base import NO_GAIN, Engine, EngineBase, affine_gain_coefficients
from .dense import DenseEngine
from .matrix import MatrixEngine
from .pruned import PrunedEngine
from .registry import (
    EngineFactory,
    available_engines,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from .sparse import SparseEngine

register_engine("sparse", SparseEngine)
register_engine("dense", DenseEngine)
register_engine("matrix", MatrixEngine)
register_engine("pruned", PrunedEngine)

__all__ = [
    "NO_GAIN",
    "Engine",
    "EngineBase",
    "EngineFactory",
    "SparseEngine",
    "DenseEngine",
    "MatrixEngine",
    "PrunedEngine",
    "affine_gain_coefficients",
    "register_engine",
    "unregister_engine",
    "available_engines",
    "resolve_engine",
]
