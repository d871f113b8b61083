"""State stores for :class:`~repro.forgetting.CorpusStatistics`.

Public surface:

* :class:`StatisticsBackend` — the protocol a backend implements
  (state queries + the four mutations: decay, batch insert, remove,
  expiry scan), and :class:`TermRows`, the held term rows it hands the
  vectoriser.
* :class:`ColumnarStatisticsBackend` — the library's one backend and
  ``CorpusStatistics``'s default: numpy arrays with interned term ids;
  decay is two scalar multiplies, batch insert one scatter-add, expiry
  one threshold mask. The paper's eager-decay dict store lives with
  the tests as the oracle it is property-tested against.
"""

from .base import SCALE_FLOOR, StatisticsBackend, TermRows
from .columnar import ColumnarStatisticsBackend

__all__ = [
    "SCALE_FLOOR",
    "StatisticsBackend",
    "TermRows",
    "ColumnarStatisticsBackend",
]
