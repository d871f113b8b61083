"""Pluggable state stores for :class:`~repro.forgetting.CorpusStatistics`.

Public surface:

* :class:`StatisticsBackend` — the protocol a backend implements
  (state queries + the four mutations: decay, batch insert, remove,
  expiry scan).
* :func:`register_backend` / :func:`unregister_backend` /
  :func:`available_backends` / :func:`resolve_backend` — the registry
  that maps names to factories.
* ``"dict"`` — :class:`DictStatisticsBackend`, the plain-Python
  reference implementation (the semantics every other backend is
  property-tested against).
* ``"columnar"`` — :class:`ColumnarStatisticsBackend`, numpy arrays
  with interned term ids: decay is two scalar multiplies, batch insert
  one scatter-add, expiry one threshold mask. The pipelines' default
  (:data:`repro.core.config.DEFAULT_PATH`); a bare ``CorpusStatistics``
  still defaults to ``"dict"``.
"""

from .base import SCALE_FLOOR, StatisticsBackend
from .columnar import ColumnarStatisticsBackend
from .dict_backend import DictStatisticsBackend
from .registry import (
    available_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
)

__all__ = [
    "SCALE_FLOOR",
    "StatisticsBackend",
    "DictStatisticsBackend",
    "ColumnarStatisticsBackend",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "resolve_backend",
]

register_backend("dict", DictStatisticsBackend)
register_backend("columnar", ColumnarStatisticsBackend)
