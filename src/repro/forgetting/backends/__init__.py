"""Pluggable state stores for :class:`~repro.forgetting.CorpusStatistics`.

Public surface:

* :class:`StatisticsBackend` — the protocol a backend implements
  (state queries + the four mutations: decay, batch insert, remove,
  expiry scan).
* :func:`register_backend` / :func:`unregister_backend` /
  :func:`available_backends` / :func:`resolve_backend` — the registry
  that maps names to factories.
* ``"columnar"`` — :class:`ColumnarStatisticsBackend`
  (:data:`DEFAULT_BACKEND`), numpy arrays with interned term ids:
  decay is two scalar multiplies, batch insert one scatter-add, expiry
  one threshold mask. The paper's eager-decay dict store lives with
  the tests as the oracle it is property-tested against.
"""

from .base import SCALE_FLOOR, StatisticsBackend
from .columnar import ColumnarStatisticsBackend
from .registry import (
    DEFAULT_BACKEND,
    available_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "SCALE_FLOOR",
    "StatisticsBackend",
    "ColumnarStatisticsBackend",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "resolve_backend",
]

register_backend(DEFAULT_BACKEND, ColumnarStatisticsBackend)
