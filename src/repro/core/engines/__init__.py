"""repro.core.engines — the numerical backend of the extended K-means.

The clustering *algorithm* (Section 4.3's initial/repetition process,
outlier handling, convergence on ``G``) lives once, in
:class:`~repro.core.NoveltyKMeans`. The *numerics* — cluster
representatives, the Eq. 21-26 incremental accounting, and the
assignment-sweep gain queries — live behind the :class:`Engine`
protocol, selected by name through a registry.

The library registers one engine, ``"matrix"``
(:class:`MatrixEngine`, :data:`DEFAULT_ENGINE`): a CSR document matrix
whose assignment passes are answered by blockwise matrix products
(requires scipy). The paper's one-document-at-a-time reference lives
with the tests as an oracle, and the parity suites hold the two to
identical decisions.

Register your own with :func:`register_engine`::

    from repro.core.engines import Engine, register_engine

    def build_my_engine(k, vectors, criterion):
        return MyEngine(k, vectors, criterion)

    register_engine("mine", build_my_engine)
    NoveltyKMeans(k=8, engine="mine")
"""

from .base import (
    NO_GAIN,
    Engine,
    EngineBase,
    EngineView,
    affine_gain_coefficients,
    best_affine_gain,
)
from .matrix import MatrixEngine
from .registry import (
    DEFAULT_ENGINE,
    EngineFactory,
    available_engines,
    register_engine,
    resolve_engine,
    unregister_engine,
)

register_engine(DEFAULT_ENGINE, MatrixEngine)

__all__ = [
    "DEFAULT_ENGINE",
    "NO_GAIN",
    "Engine",
    "EngineBase",
    "EngineFactory",
    "EngineView",
    "MatrixEngine",
    "affine_gain_coefficients",
    "best_affine_gain",
    "register_engine",
    "unregister_engine",
    "available_engines",
    "resolve_engine",
]
