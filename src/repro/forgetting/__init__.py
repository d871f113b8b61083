"""Document forgetting model and incremental corpus statistics (paper §3, §5.1)."""

from .frozen import FrozenStatistics
from .model import ForgettingModel
from .statistics import CorpusStatistics

__all__ = [
    "ForgettingModel",
    "CorpusStatistics",
    "FrozenStatistics",
]
