"""External clustering-quality measures beyond the paper's F1 protocol.

The paper evaluates only with marked-cluster precision/recall/F1
(Section 6.2.3). For a usable library we also provide two standard
external measures — purity and normalised mutual information — plus a
**recency-weighted micro F1** that scores what the novelty method
actually optimises: contingency cells weighted by each document's
forgetting weight, so mistakes on stale documents matter less.

All functions take ``clusters`` (sequences of doc ids) and ``truth``
(``doc_id -> topic_id``; ``None`` labels are ignored) and operate on
the *labelled documents assigned to some cluster* unless stated
otherwise; outliers are treated per function documentation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..corpus.document import Document
from ..forgetting.model import ForgettingModel
from .matching import DEFAULT_PRECISION_THRESHOLD, topic_membership


def _labelled_assignments(
    clusters: Sequence[Sequence[str]],
    truth: Mapping[str, Optional[str]],
) -> List[Tuple[int, str]]:
    """(cluster_id, topic_id) pairs for labelled, clustered documents."""
    pairs: List[Tuple[int, str]] = []
    for cluster_id, members in enumerate(clusters):
        for doc_id in members:
            topic = truth.get(doc_id)
            if topic is not None:
                pairs.append((cluster_id, topic))
    return pairs


def _contingency_counts(
    pairs: List[Tuple[int, str]]
) -> Tuple[Dict[Tuple[int, str], int], Dict[int, int], Dict[str, int]]:
    joint: Dict[Tuple[int, str], int] = {}
    by_cluster: Dict[int, int] = {}
    by_topic: Dict[str, int] = {}
    for cluster_id, topic in pairs:
        joint[(cluster_id, topic)] = joint.get((cluster_id, topic), 0) + 1
        by_cluster[cluster_id] = by_cluster.get(cluster_id, 0) + 1
        by_topic[topic] = by_topic.get(topic, 0) + 1
    return joint, by_cluster, by_topic


def purity(
    clusters: Sequence[Sequence[str]],
    truth: Mapping[str, Optional[str]],
) -> float:
    """Fraction of clustered documents matching their cluster majority.

    ``purity = (1/N) Σ_p max_t |C_p ∩ T_t|``. 1.0 when every cluster is
    topic-pure; trivially maximised by singleton clusters (read it
    beside :func:`normalized_mutual_information`).
    """
    pairs = _labelled_assignments(clusters, truth)
    if not pairs:
        return 0.0
    joint, by_cluster, _ = _contingency_counts(pairs)
    best: Dict[int, int] = {}
    for (cluster_id, _), count in joint.items():
        best[cluster_id] = max(best.get(cluster_id, 0), count)
    return sum(best.values()) / len(pairs)


def normalized_mutual_information(
    clusters: Sequence[Sequence[str]],
    truth: Mapping[str, Optional[str]],
) -> float:
    """NMI between the clustering and the topic labelling.

    ``NMI = 2·I(C;T) / (H(C) + H(T))`` over clustered labelled
    documents; 0.0 when either partition is trivial (one block).
    """
    pairs = _labelled_assignments(clusters, truth)
    n = len(pairs)
    if n == 0:
        return 0.0
    joint, by_cluster, by_topic = _contingency_counts(pairs)

    def entropy(counts: Mapping[object, int]) -> float:
        total = 0.0
        for count in counts.values():
            p = count / n
            total -= p * math.log(p)
        return total

    h_c = entropy(by_cluster)
    h_t = entropy(by_topic)
    if h_c == 0.0 or h_t == 0.0:
        return 0.0
    mutual = 0.0
    for (cluster_id, topic), count in joint.items():
        p_joint = count / n
        p_c = by_cluster[cluster_id] / n
        p_t = by_topic[topic] / n
        mutual += p_joint * math.log(p_joint / (p_c * p_t))
    return max(0.0, 2.0 * mutual / (h_c + h_t))


def recency_weighted_micro_f1(
    clusters: Sequence[Sequence[str]],
    documents: Sequence[Document],
    model: ForgettingModel,
    at_time: float,
    threshold: float = DEFAULT_PRECISION_THRESHOLD,
) -> float:
    """Micro F1 with forgetting-weighted contingency cells.

    Each document contributes its weight ``dw = λ^(at_time - T)`` to the
    ``a``/``b``/``c`` cells instead of 1, so the measure rewards getting
    *recent* documents right — the objective the novelty method
    optimises and plain F1 ignores (the paper notes F1 "does not
    consider the novelty of topics"). Cluster marking uses unweighted
    precision against ``threshold``, matching the paper's protocol,
    with one deliberate extension: a topic that no marked cluster
    carries contributes its whole weight to ``c`` (the paper's
    marked-clusters-only pooling would silently forgive missing an
    entire hot topic, which defeats the measure's purpose).
    """
    weight = {
        doc.doc_id: model.weight(doc.timestamp, at_time)
        for doc in documents
    }
    truth: Dict[str, Optional[str]] = {
        doc.doc_id: doc.topic_id for doc in documents
    }
    topics = topic_membership(truth)
    a = b = c = 0.0
    marked_topics = set()
    for members in clusters:
        if not members:
            continue
        member_set = set(members)
        counts: Dict[str, int] = {}
        for doc_id in member_set:
            topic = truth.get(doc_id)
            if topic is not None:
                counts[topic] = counts.get(topic, 0) + 1
        if not counts:
            continue
        best = max(counts, key=lambda t: (counts[t], t))
        if counts[best] / len(member_set) < threshold:
            continue
        marked_topics.add(best)
        topic_docs = topics[best]
        a += sum(weight[d] for d in member_set & topic_docs
                 if d in weight)
        b += sum(weight[d] for d in member_set - topic_docs
                 if d in weight)
        c += sum(weight[d] for d in topic_docs - member_set
                 if d in weight)
    for topic, topic_docs in topics.items():
        if topic not in marked_topics:
            c += sum(weight[d] for d in topic_docs if d in weight)
    denominator = 2 * a + b + c
    return 2 * a / denominator if denominator else 0.0
