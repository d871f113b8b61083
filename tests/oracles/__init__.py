"""Reference implementations kept as test oracles.

Each module here is the paper's line-by-line version of a computation
whose production form lives in ``src/repro`` on arrays:

* :mod:`.dense` — the ``"dense"`` engine, the one-document-at-a-time
  assignment sweep the ``"matrix"`` engine is compared against;
* :mod:`.dict_backend` — the ``"dict"`` statistics backend, the
  eager-decay store the ``"columnar"`` backend is compared against;
* :mod:`.cluster` — :class:`Cluster`, one cluster's representative and
  Eq. 21-26 accounting over dict vectors, the state the engines keep for
  all K clusters and freeze into an ``EngineView``;
* :mod:`.repair` — split repair and outlier rescue over ``Cluster``
  objects;
* :mod:`.vectors` — the bridge between the engines' CSR batches and
  ``{doc_id: SparseVector}`` dicts;
* :mod:`.serialisation` — the dict-then-``json.dumps`` writer of
  checkpoints and journal lines, the byte oracle for the library's
  composition from per-document fragments.
* :mod:`.text` — the text pipeline run token by token, the oracle for
  the memoised ``TextPipeline``.

Nothing in the library imports these. :func:`register_oracles` puts the
two oracles into the library's registries under ``"dense"`` and
``"dict"`` so the parity suites can select them by name, through
``ClustererConfig(engine=..., statistics_backend=...)``,
``NoveltyKMeans(engine=...)`` and ``CorpusStatistics(backend=...)``.
"""

from __future__ import annotations

from repro.core.engines import register_engine
from repro.forgetting.backends import register_backend

from .cluster import Cluster
from .dense import DenseEngine
from .dict_backend import DictStatisticsBackend

__all__ = [
    "Cluster",
    "DenseEngine",
    "DictStatisticsBackend",
    "ORACLE_BACKEND",
    "ORACLE_ENGINE",
    "register_oracles",
]

#: Registry names of the oracles.
ORACLE_ENGINE = "dense"
ORACLE_BACKEND = "dict"


def register_oracles() -> None:
    """Register the oracle engine and backend (idempotent)."""
    register_engine(ORACLE_ENGINE, DenseEngine, overwrite=True)
    register_backend(ORACLE_BACKEND, DictStatisticsBackend, overwrite=True)
