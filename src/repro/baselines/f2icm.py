"""F²ICM — the paper's predecessor method (Ishikawa et al., ECDL 2001).

"F²ICM first computes the seeds from documents and then classifies
documents sequentially based on the seeds" (paper Section 2.2), with
seed selection "partially based on C²ICM" (Can 1993). It shares the
same forgetting-factor similarity and incremental statistics as the
paper's method; the difference is the clustering step — one assignment
pass against K fixed seed documents rather than an iterated K-means.

Seed selection follows C²ICM's cover-coefficient idea, novelty-weighted:
a document's *seed power* is its weight times the sum over its terms of
``p·(1-p)`` coupling terms (``p`` = the term's within-document share
scaled by corpus rarity), so seeds are recent documents that cover many
discriminative terms. A diversity pass skips candidates too similar to
an already-chosen seed.
"""

from __future__ import annotations

from typing import List, Sequence

from .._validation import require_positive_int, require_probability
from ..corpus.document import Document
from ..core.result import ClusteringResult
from ..exceptions import ClusteringError
from ..forgetting.statistics import CorpusStatistics
from .similarity import NoveltySimilarity


class F2ICMClusterer:
    """Seed-based single-pass clustering under novelty similarity.

    Parameters
    ----------
    k:
        Number of seeds/clusters.
    diversity_threshold:
        A candidate whose (normalised) similarity to any chosen seed
        exceeds this is skipped during seed selection, preventing K
        near-duplicate seeds. Expressed as a fraction of the candidate's
        self-similarity (0 disables the check).
    """

    def __init__(
        self, k: int, diversity_threshold: float = 0.5
    ) -> None:
        self.k = require_positive_int("k", k)
        self.diversity_threshold = require_probability(
            "diversity_threshold", diversity_threshold
        )

    def fit(
        self,
        documents: Sequence[Document],
        statistics: CorpusStatistics,
    ) -> ClusteringResult:
        """One seed-selection pass plus one assignment pass."""
        docs = list(documents)
        if len(docs) < self.k:
            raise ClusteringError(
                f"need at least k={self.k} documents, got {len(docs)}"
            )
        similarity = NoveltySimilarity(statistics)
        seeds = self._select_seeds(docs, statistics, similarity)
        clusters: List[List[str]] = [[seed.doc_id] for seed in seeds]
        outliers: List[str] = []
        seed_ids = {seed.doc_id for seed in seeds}

        for doc in docs:
            if doc.doc_id in seed_ids:
                continue
            best_cluster = -1
            best_sim = 0.0
            for cluster_id, seed in enumerate(seeds):
                sim = similarity.similarity(doc, seed)
                if sim > best_sim:
                    best_sim = sim
                    best_cluster = cluster_id
            if best_cluster >= 0:
                clusters[best_cluster].append(doc.doc_id)
            else:
                outliers.append(doc.doc_id)

        return ClusteringResult(
            clusters=tuple(tuple(c) for c in clusters),
            outliers=tuple(outliers),
            clustering_index=0.0,
            index_history=(),
            iterations=1,
            converged=True,
        )

    # -- seed selection ------------------------------------------------------

    def _select_seeds(
        self,
        docs: Sequence[Document],
        statistics: CorpusStatistics,
        similarity: NoveltySimilarity,
    ) -> List[Document]:
        powers = [
            (self._seed_power(doc, statistics), doc) for doc in docs
        ]
        powers.sort(key=lambda item: item[0], reverse=True)
        seeds: List[Document] = []
        for power, doc in powers:
            if power <= 0.0:
                break
            if self._too_close(doc, seeds, similarity):
                continue
            seeds.append(doc)
            if len(seeds) == self.k:
                return seeds
        # not enough diverse candidates: fill with the next-strongest
        for power, doc in powers:
            if len(seeds) == self.k:
                break
            if doc not in seeds and power > 0.0:
                seeds.append(doc)
        if not seeds:
            raise ClusteringError("no document qualifies as a seed")
        return seeds

    @staticmethod
    def _seed_power(doc: Document, statistics: CorpusStatistics) -> float:
        """Novelty-weighted cover-coefficient seed power."""
        if doc.length == 0:
            return 0.0
        weight = statistics.dw(doc.doc_id)
        coupling = 0.0
        for term_id, count in zip(doc.term_ids.tolist(),
                                  doc.counts.tolist()):
            pr_t = statistics.pr_term(term_id)
            if pr_t <= 0.0:
                continue
            share = (count / doc.length) * (1.0 - pr_t)
            coupling += share * (1.0 - share)
        return weight * coupling

    def _too_close(
        self,
        candidate: Document,
        seeds: List[Document],
        similarity: NoveltySimilarity,
    ) -> bool:
        if not seeds or self.diversity_threshold <= 0.0:
            return False
        self_sim = similarity.self_similarity(candidate)
        if self_sim <= 0.0:
            return True
        for seed in seeds:
            if (
                similarity.similarity(candidate, seed)
                > self.diversity_threshold * self_sim
            ):
                return True
        return False
