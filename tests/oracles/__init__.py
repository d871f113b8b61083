"""Reference implementations kept as test oracles.

Each module here is the paper's line-by-line version of a computation
whose production form lives in ``src/repro`` on arrays:

* :mod:`.dense` — :class:`DenseEngine`, the one-document-at-a-time
  assignment sweep :class:`~repro.core.engines.MatrixEngine` is
  compared against;
* :mod:`.dict_backend` — :class:`DictStatisticsBackend`, the
  eager-decay store
  :class:`~repro.forgetting.backends.ColumnarStatisticsBackend` is
  compared against;
* :mod:`.cluster` — :class:`Cluster`, one cluster's representative and
  Eq. 21-26 accounting over dict vectors, the state the engines keep for
  all K clusters and freeze into an ``EngineView``;
* :mod:`.repair` — split repair and outlier rescue over ``Cluster``
  objects;
* :mod:`.sparse` — :class:`~.sparse.SparseVector`, the dict vector
  the oracles and hand-written test cases speak;
* :mod:`.vectors` — the paper-literal ``w⃗_i`` one term at a time
  (:func:`~.vectors.weighted_vector`, the oracle for
  :meth:`~repro.vectors.NoveltyTfidfWeighter.weighted_arrays`), and
  the bridge between the engines' CSR batches and
  ``{doc_id: SparseVector}`` dicts;
* :mod:`.serialisation` — the dict-then-``json.dumps`` writer of
  checkpoints and journal lines, the byte oracle for the library's
  composition from per-document fragments;
* :mod:`.text` — the text pipeline run token by token, the oracle for
  the memoised ``TextPipeline``;
* :mod:`.stemmer` — :class:`~.stemmer.ReferenceStemmer`, Porter's
  rules one condition at a time, the oracle for the map-based
  :class:`~repro.text.PorterStemmer`.
* :mod:`.gac` — GAC's agglomeration rescoring every pair after every
  merge, the oracle for ``GACClusterer._agglomerate``, which scores
  each pair once.

Nothing in the library imports these (reprolint REP007 checks it). The parity suites pass the two
oracle classes in where the library takes an engine or a backend:
``IncrementalClusterer(model, k=..., engine=DenseEngine,
statistics_backend=DictStatisticsBackend)``,
``NoveltyKMeans(engine=DenseEngine)`` and
``CorpusStatistics(backend=DictStatisticsBackend)``.
"""

from __future__ import annotations

from .cluster import Cluster
from .dense import DenseEngine
from .dict_backend import DictStatisticsBackend

__all__ = [
    "Cluster",
    "DenseEngine",
    "DictStatisticsBackend",
]
