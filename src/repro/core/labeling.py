"""Human-readable cluster labels.

The paper presents clustering results as "recent topics", which needs a
label per cluster. Two scorers are provided:

* :func:`representative_terms` — the top components of the cluster
  representative ``c⃗_p`` (Eq. 19-20), read from the
  :class:`~repro.core.engines.EngineView` the fit froze. Since ``c⃗_p``
  sums ``Pr(d)·tf·idf/len`` over members, its largest coordinates are
  the terms that are frequent *in the cluster's recent documents* and
  rare in the corpus — a novelty-weighted label, for free.
* :func:`discriminative_terms` — frequency²/corpus-frequency scoring
  with no statistics dependency; useful for labelling baseline results
  that have no forgetting model.

:func:`label_clustering` labels every non-empty cluster of a view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .._validation import require_positive_int
from ..corpus.document import Document, stack_rows
from ..forgetting.statistics import CorpusStatistics
from ..text.vocabulary import Vocabulary
from ..vectors.tfidf import NoveltyTfidfWeighter
from .engines import EngineView


@dataclass(frozen=True)
class ClusterLabel:
    """Label of one cluster: ranked terms with their scores."""

    cluster_id: int
    size: int
    terms: Tuple[str, ...]
    scores: Tuple[float, ...]

    def __str__(self) -> str:
        return ", ".join(self.terms)


def representative_terms(
    view: EngineView,
    cluster_id: int,
    vocabulary: Vocabulary,
    limit: int = 5,
) -> List[Tuple[str, float]]:
    """Top-``limit`` components of cluster ``cluster_id``'s
    representative (Eq. 20) in ``view``.

    Returns ``(term, weight)`` pairs sorted by descending weight, ties
    by ascending term id.
    """
    require_positive_int("limit", limit)
    row = view.representatives[cluster_id]
    carried = np.flatnonzero(row)
    # the columns ascend with the term ids, so the stable sort breaks
    # weight ties by term id
    top = carried[np.argsort(-row[carried], kind="stable")[:limit]]
    return [
        (vocabulary.term(int(view.term_ids[col])), float(row[col]))
        for col in top.tolist()
    ]


def discriminative_terms(
    members: Sequence[Document],
    corpus_counts: Mapping[int, int],
    vocabulary: Vocabulary,
    limit: int = 5,
) -> List[Tuple[str, float]]:
    """Top-``limit`` terms by ``count² / (1 + corpus count)``.

    ``corpus_counts`` maps term id to its total frequency in the whole
    corpus (see :func:`corpus_term_counts`); the ratio suppresses
    background words while still favouring frequent cluster terms.
    """
    require_positive_int("limit", limit)
    totals = corpus_term_counts(members)
    scored = [
        (term_id, count * count / (1.0 + corpus_counts.get(term_id, 0)))
        for term_id, count in totals.items()
    ]
    scored.sort(key=lambda item: item[1], reverse=True)
    return [
        (vocabulary.term(term_id), score)
        for term_id, score in scored[:limit]
    ]


def corpus_term_counts(documents: Sequence[Document]) -> Dict[int, int]:
    """Total term frequencies over ``documents`` (for the
    discriminative scorer)."""
    counts: Dict[int, int] = {}
    _, term_ids, values = stack_rows(documents)
    for term_id, count in zip(term_ids.tolist(), values.tolist()):
        counts[term_id] = counts.get(term_id, 0) + count
    return counts


def medoid_document(
    members: Sequence[Document],
    statistics: CorpusStatistics,
) -> Optional[Document]:
    """The cluster's most central document (max mean similarity).

    A one-document extractive summary: the story whose novelty-weighted
    similarity to the rest of the cluster is highest — per member,
    ``Σ_{j≠d} sim(d, d_j) = c⃗·w⃗_d − w⃗_d·w⃗_d`` over the members' CSR
    batch. ``None`` for empty input; the single member for singletons;
    ties go to the earlier member.
    """
    if not members:
        return None
    if len(members) == 1:
        return members[0]
    vectors = NoveltyTfidfWeighter(statistics).weighted_arrays(members)
    n = len(members)
    owner, cols, data = vectors.gather(np.arange(n, dtype=np.int64))
    representative = np.bincount(cols, weights=data,
                                 minlength=vectors.columns()[0].size)
    scores = (
        np.bincount(owner, weights=data * representative[cols], minlength=n)
        - vectors.self_similarities()
    )
    return members[int(np.argmax(scores))]


def label_clustering(
    view: EngineView,
    vocabulary: Vocabulary,
    limit: int = 5,
) -> List[ClusterLabel]:
    """Label every non-empty cluster of ``view`` with its
    :func:`representative_terms` (novelty-weighted labels)."""
    require_positive_int("limit", limit)
    labels: List[ClusterLabel] = []
    for cluster_id in np.flatnonzero(view.sizes).tolist():
        ranked = representative_terms(view, cluster_id, vocabulary, limit)
        labels.append(
            ClusterLabel(
                cluster_id=cluster_id,
                size=int(view.sizes[cluster_id]),
                terms=tuple(term for term, _ in ranked),
                scores=tuple(score for _, score in ranked),
            )
        )
    return labels
