"""Novelty tf·idf weighting into CSR batches of weighted vectors."""

from .tfidf import NoveltyTfidfWeighter

__all__ = ["NoveltyTfidfWeighter"]
