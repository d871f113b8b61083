"""Readers of the frozen engine view agree with a view built from scratch.

Search (:meth:`ClusterSnapshot.search`), labels
(:func:`~repro.core.label_clustering`) and medoids read the
representatives the fit already holds. After every batch of a seeded
TDT2-like stream, each reader runs on the published
``clusterer.view()`` and on an oracle view rebuilt from the final
members alone — one :class:`tests.oracles.Cluster` per slot, so it carries no residue of
members that came and went — and both must give the same answers.

The view's support is pinned too: an entry is non-zero exactly when a
member of its cluster carries the term, and no entry is negative.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro import (
    ClusterSnapshot,
    SyntheticCorpusConfig,
    TDT2Generator,
    build_clusterer,
    label_clustering,
)
from repro.core import medoid_document
from repro.core.engines import EngineView, affine_gain_coefficients
from repro.corpus.streams import iter_batches
from tests.oracles import Cluster
from tests.oracles.vectors import weighted_vector

K = 16
TOL = 1e-9
#: Label weights this close (relative) are a tie their order may break
#: either way.
TIE = 1e-12


def oracle_view(clusterer):
    """The clusterer's committed state rebuilt from its members alone."""
    statistics = clusterer.statistics
    vectors = {
        doc.doc_id: weighted_vector(statistics, doc)
        for doc in statistics.documents()
    }
    term_ids = np.array(
        sorted({t for vector in vectors.values() for t in vector.keys()}),
        dtype=np.int64,
    )
    column = {t: c for c, t in enumerate(term_ids.tolist())}
    clusters = [Cluster(p) for p in range(K)]
    for doc_id, p in clusterer.assignments().items():
        clusters[p].add(doc_id, vectors[doc_id])
    representatives = np.zeros((K, term_ids.size))
    for p, cluster in enumerate(clusters):
        for t, value in cluster.representative.items():
            representatives[p, column[t]] = value
    coefficients = [
        affine_gain_coefficients("g", c.size, c.self_similarity, c.ss)
        for c in clusters
    ]
    contributions = np.array([c.index_contribution() for c in clusters])
    return EngineView(
        criterion="g",
        term_ids=term_ids,
        representatives=representatives,
        sizes=np.array([c.size for c in clusters], dtype=np.int64),
        crpp=np.array([c.self_similarity for c in clusters]),
        ss=np.array([c.ss for c in clusters]),
        gain_a=np.array([a for a, _ in coefficients]),
        gain_b=np.array([b for _, b in coefficients]),
        contributions=contributions,
        clustering_index=float(contributions.sum()),
    )


def oracle_medoid(members, vectors):
    """Scores ``c⃗·w⃗ − w⃗·w⃗`` per member over dict vectors."""
    cluster = Cluster(0)
    for doc in members:
        cluster.add(doc.doc_id, vectors[doc.doc_id])
    return [
        cluster.representative.dot(vectors[doc.doc_id])
        - vectors[doc.doc_id].dot(vectors[doc.doc_id])
        for doc in members
    ]


@pytest.fixture(scope="module")
def stream():
    """``(version, clusterer state, snapshot, oracle view)`` per batch."""
    generator = TDT2Generator(
        SyntheticCorpusConfig(seed=1998, total_documents=1500)
    )
    repository = generator.generate()
    queries = [topic.name for topic in generator.topics] + [
        " ".join(topic.keywords[:3]) for topic in generator.topics
    ]
    clusterer = build_clusterer(k=K, seed=1998, half_life=7.0,
                                life_span=14.0)
    states = []
    batches = iter_batches(list(repository.documents()), 7.0)
    for version, (at_time, batch) in enumerate(batches, start=1):
        clusterer.process_batch(batch, at_time=at_time)
        snapshot = ClusterSnapshot.from_clusterer(
            version, clusterer, vocabulary=repository.vocabulary,
            pipeline=repository.pipeline,
        )
        statistics = clusterer.statistics
        members = {
            p: [statistics.document(d) for d in snapshot.clusters[p]]
            for p in range(K) if snapshot.clusters[p]
        }
        vectors = {
            doc.doc_id: weighted_vector(statistics, doc)
            for doc in statistics.documents()
        }
        medoids = {
            p: (medoid_document(docs, statistics),
                oracle_medoid(docs, vectors))
            for p, docs in members.items()
        }
        states.append((at_time, snapshot, oracle_view(clusterer), medoids))
    return repository.vocabulary, queries, states


def test_view_support_is_exactly_the_members_terms(stream):
    _, _, states = stream
    for at_time, snapshot, oracle, _ in states:
        view = snapshot.view
        np.testing.assert_array_equal(view.term_ids, oracle.term_ids)
        np.testing.assert_array_equal(
            view.representatives != 0.0, oracle.representatives != 0.0,
            err_msg=f"t={at_time}",
        )
        assert (view.representatives >= 0.0).all(), at_time


def contribution(snapshot, cluster_id, query):
    """Per query term, its contribution ``c_pt·q_t`` to the (unnormalised)
    cosine numerator of cluster ``cluster_id`` in ``snapshot``."""
    counts = snapshot.pipeline.term_frequencies(query)
    view = snapshot.view

    def weight(term):
        term_id = snapshot.vocabulary.get(term)
        col = int(np.searchsorted(view.term_ids, term_id))
        return (view.representatives[cluster_id, col] * counts[term]
                * snapshot.frozen.idf(term_id))
    return weight


def test_search_matches_oracle(stream):
    _, queries, states = stream
    hits_seen = 0
    for at_time, snapshot, oracle, _ in states:
        reference = dataclasses.replace(snapshot, view=oracle)
        for query in queries:
            got = snapshot.search(query, limit=K)
            want = reference.search(query, limit=K)
            assert [(h.cluster_id, h.size) for h in got] \
                == [(h.cluster_id, h.size) for h in want], (at_time, query)
            for g, w in zip(got, want):
                assert math.isclose(g.score, w.score, rel_tol=TOL,
                                    abs_tol=TOL), (at_time, query)
                assert sorted(g.matched_terms) == sorted(w.matched_terms)
                weight = contribution(reference, w.cluster_id, query)
                for g_term, w_term in zip(g.matched_terms, w.matched_terms):
                    if g_term != w_term:
                        # a tie in the paper's arithmetic, broken by
                        # float noise: the two terms contribute the same
                        assert math.isclose(weight(g_term), weight(w_term),
                                            rel_tol=TIE), (at_time, query)
            hits_seen += len(got)
    assert hits_seen > 0


def test_labels_match_oracle(stream):
    vocabulary, _, states = stream
    for at_time, snapshot, oracle, _ in states:
        got = label_clustering(snapshot.view, vocabulary)
        want = label_clustering(oracle, vocabulary)
        assert [(l.cluster_id, l.size) for l in got] == [
            (l.cluster_id, l.size) for l in want], at_time
        for g, w in zip(got, want):
            assert len(g.terms) == len(w.terms)
            for i, (g_score, w_score) in enumerate(zip(g.scores, w.scores)):
                assert math.isclose(g_score, w_score, rel_tol=TOL), at_time
                if g.terms[i] != w.terms[i]:
                    # an exact tie in the paper's arithmetic, broken by
                    # float noise: the two terms weigh the same
                    assert math.isclose(g_score, w_score, rel_tol=TIE), (
                        at_time, g.cluster_id, g.terms, w.terms)


def test_medoid_matches_oracle(stream):
    _, _, states = stream
    for at_time, snapshot, _, medoids in states:
        for p, (medoid, scores) in medoids.items():
            members = snapshot.clusters[p]
            expected = members[int(np.argmax(scores))]
            if medoid.doc_id != expected:
                # only a float-noise tie may pick another member
                picked = scores[members.index(medoid.doc_id)]
                assert math.isclose(picked, max(scores), rel_tol=TIE), (
                    at_time, p)
