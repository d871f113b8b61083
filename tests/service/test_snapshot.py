"""ClusterSnapshot: immutability, correctness of the precomputed view."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro import ClusterSnapshot, Document
from repro.api import build_clusterer
from repro.core.engines import affine_gain_coefficients, best_affine_gain
from repro.exceptions import ConfigurationError
from repro.obs import InMemoryRecorder, use_recorder
from repro.text import TextPipeline
from repro.vectors.tfidf import NoveltyTfidfWeighter

from .conftest import SERVICE_KWARGS, assert_snapshot_parity, probe_like


def run_clusterer(batches, upto=None):
    clusterer = build_clusterer(**SERVICE_KWARGS)
    for at_time, batch in batches[:upto]:
        clusterer.process_batch(list(batch), at_time=at_time)
    return clusterer


class TestConstruction:
    def test_reflects_clusterer_state(self, stream):
        _, batches = stream
        clusterer = run_clusterer(batches)
        snapshot = ClusterSnapshot.from_clusterer(7, clusterer)
        assert snapshot.version == 7
        assert snapshot.at_time == clusterer.statistics.now
        assert snapshot.k == clusterer.kmeans.k
        result = clusterer.last_result
        assert snapshot.clustering_index == result.clustering_index
        assert snapshot.clusters == tuple(
            tuple(sorted(members)) for members in result.clusters
        )
        assert set(snapshot.outliers) == set(result.outliers)
        assert snapshot.frozen.size == clusterer.statistics.size
        sizes = [len(members) for members in snapshot.clusters]
        np.testing.assert_array_equal(snapshot.view.sizes, sizes)

    def test_gain_coefficients_match_engine_formula(self, stream):
        _, batches = stream
        view = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        ).view
        for p in range(view.k):
            a, b = affine_gain_coefficients(
                view.criterion,
                int(view.sizes[p]),
                float(view.crpp[p]),
                float(view.ss[p]),
            )
            assert view.gain_a[p] == a
            assert view.gain_b[p] == b

    def test_publishes_the_fits_own_view(self, stream):
        # the snapshot shares the committing fit's frozen engine state
        # instead of rebuilding a second copy of it
        _, batches = stream
        clusterer = run_clusterer(batches)
        snapshot = ClusterSnapshot.from_clusterer(1, clusterer)
        assert snapshot.view is clusterer.view()
        assert snapshot.clustering_index == \
            clusterer.last_result.clustering_index
        np.testing.assert_array_equal(
            snapshot.idf, snapshot.frozen.idf_array(snapshot.view.term_ids)
        )

    def test_view_matches_a_from_scratch_rebuild(self, stream):
        # representatives, sizes and the Eq. 21-23 aggregates agree with
        # a direct sum over the members' weighted vectors
        _, batches = stream
        clusterer = run_clusterer(batches)
        view = ClusterSnapshot.from_clusterer(1, clusterer).view
        arrays = NoveltyTfidfWeighter(clusterer.statistics).weighted_arrays(
            clusterer.statistics.documents()
        )
        terms, columns = arrays.columns()
        np.testing.assert_array_equal(view.term_ids, terms)
        assignment = clusterer.assignments()
        representatives = np.zeros((view.k, terms.size))
        ss = np.zeros(view.k)
        sizes = np.zeros(view.k, dtype=np.int64)
        for row, doc_id in enumerate(arrays.doc_ids):
            cluster_id = assignment.get(doc_id)
            if cluster_id is None:
                continue
            lo, hi = arrays.indptr[row], arrays.indptr[row + 1]
            representatives[cluster_id, columns[lo:hi]] += arrays.data[lo:hi]
            ss[cluster_id] += arrays.data[lo:hi] @ arrays.data[lo:hi]
            sizes[cluster_id] += 1
        np.testing.assert_array_equal(view.sizes, sizes)
        np.testing.assert_allclose(
            view.representatives, representatives, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(view.ss, ss, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(
            view.crpp, (representatives ** 2).sum(axis=1),
            rtol=1e-9, atol=1e-15,
        )

    def test_never_fed_clusterer_snapshots_empty(self):
        snapshot = ClusterSnapshot.from_clusterer(
            0, build_clusterer(**SERVICE_KWARGS)
        )
        assert snapshot.version == 0
        assert snapshot.at_time is None
        assert snapshot.view.term_ids.size == 0
        assert snapshot.view.representatives.shape == (3, 0)
        assert snapshot.clusters == ((), (), ())
        assert snapshot.outliers == ()
        assert snapshot.clustering_index == 0.0
        assert snapshot.top_clusters() == []
        assert snapshot.assign({1: 2}).is_outlier

    def test_parity_against_reference_builder(self, stream):
        _, batches = stream
        clusterer = run_clusterer(batches, upto=4)
        observed = ClusterSnapshot.from_clusterer(4, clusterer)
        from .conftest import reference_snapshot

        assert_snapshot_parity(observed, reference_snapshot(batches, 4))


class TestImmutability:
    def test_arrays_are_read_only(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        view = snapshot.view
        for array in (
            view.term_ids, snapshot.idf, view.representatives,
            view.sizes, view.crpp, view.ss,
            view.gain_a, view.gain_b, view.contributions,
            snapshot.frozen.term_ids, snapshot.frozen.term_masses,
        ):
            with pytest.raises(ValueError):
                array[..., 0] = 1

    def test_dataclass_is_frozen(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            snapshot.version = 99

    def test_snapshot_detached_from_live_statistics(self, stream):
        _, batches = stream
        clusterer = run_clusterer(batches, upto=3)
        snapshot = ClusterSnapshot.from_clusterer(3, clusterer)
        before = (
            snapshot.frozen.tdw,
            snapshot.clusters,
            snapshot.clustering_index,
        )
        at_time, batch = batches[3]
        clusterer.process_batch(list(batch), at_time=at_time)
        assert (
            snapshot.frozen.tdw,
            snapshot.clusters,
            snapshot.clustering_index,
        ) == before


class TestAssign:
    def test_topic_probe_lands_in_its_topic_cluster(self, stream):
        _, batches = stream
        clusterer = run_clusterer(batches)
        snapshot = ClusterSnapshot.from_clusterer(1, clusterer)
        # probe with the exact terms of an active document: must land in
        # that document's cluster
        some_doc = batches[-1][1][0]
        answer = snapshot.assign(probe_like(some_doc))
        assert not answer.is_outlier
        assert answer.gain > 0.0
        assert some_doc.doc_id in snapshot.members(answer.cluster_id)
        assert answer.version == snapshot.version

    def test_mapping_and_document_queries_agree(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        doc = probe_like(batches[-1][1][1])
        via_doc = snapshot.assign(doc)
        via_map = snapshot.assign(dict(doc.term_counts))
        assert via_doc.cluster_id == via_map.cluster_id
        assert math.isclose(via_doc.gain, via_map.gain, rel_tol=1e-12)

    def test_unknown_terms_only_is_outlier(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        unseen = int(snapshot.view.term_ids.max()) + 1000
        answer = snapshot.assign({unseen: 3})
        assert answer.is_outlier
        assert answer.cluster_id is None

    def test_empty_query_is_outlier(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        assert snapshot.assign({}).is_outlier
        assert snapshot.assign(
            Document(doc_id="e", timestamp=9.0, term_counts={})
        ).is_outlier

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf"), -3, -0.5]
    )
    def test_hostile_counts_raise(self, stream, bad):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        term = int(snapshot.view.term_ids[0])
        with pytest.raises(ConfigurationError, match="finite non-negative"):
            snapshot.assign({term: bad, term + 1: 3})

    def test_zero_counts_are_dropped(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        counts = dict(batches[-1][1][1].term_counts)
        unseen = int(snapshot.view.term_ids.max()) + 7
        assert snapshot.assign({**counts, unseen: 0}) == \
            snapshot.assign(counts)
        assert snapshot.assign({1: 0, 2: 0.0}).is_outlier

    def test_query_scored_like_the_engine_scores_a_document(self, stream):
        # an active document's terms, weighted at the snapshot clock,
        # are scored by the same argmax the assignment sweep uses
        _, batches = stream
        clusterer = run_clusterer(batches)
        snapshot = ClusterSnapshot.from_clusterer(1, clusterer)
        view = snapshot.view
        doc = batches[-1][1][0]
        answer = snapshot.assign(doc)
        weights = np.zeros(view.term_ids.size)
        for term_id, count in doc.term_counts.items():
            column = int(np.searchsorted(view.term_ids, term_id))
            if column < view.term_ids.size and \
                    view.term_ids[column] == term_id:
                weights[column] = (
                    count * snapshot.idf[column]
                    / snapshot.frozen.tdw / doc.length
                )
        expected = best_affine_gain(
            view.gain_a, view.gain_b, view.representatives @ weights
        )
        assert answer.cluster_id == expected[0]
        assert math.isclose(answer.gain, expected[1], rel_tol=1e-12)

    def test_text_query_without_front_end_raises(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        with pytest.raises(ConfigurationError, match="text front-end"):
            snapshot.assign("sports teams playing games")


class TestTextQueries:
    def snapshot(self, stream):
        vocabulary, batches = stream
        return ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches), vocabulary=vocabulary,
            pipeline=TextPipeline(),
        )

    def test_text_query_scores_its_known_terms_over_every_term(
        self, stream
    ):
        snapshot = self.snapshot(stream)
        vocabulary = snapshot.vocabulary
        text = "sports teams playing games zyzzyva quux"
        raw = snapshot.pipeline.term_frequencies(text)
        known = {vocabulary.id(term): count for term, count in raw.items()
                 if term in vocabulary}
        assert 0 < len(known) < len(raw)
        ids, values, length = snapshot._query_counts(text)
        assert dict(zip(ids.tolist(), values.tolist())) == known
        assert length == sum(raw.values())
        size = len(vocabulary)
        snapshot.assign(text)
        assert len(vocabulary) == size  # a reader interns nothing

    def test_assign_emits_a_span_tagged_with_the_query_kind(self, stream):
        snapshot = self.snapshot(stream)
        document = stream[1][-1][1][0]
        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            snapshot.assign("sports teams playing games")
            snapshot.assign(document)
            snapshot.assign(dict(document.term_counts))
            with pytest.raises(ConfigurationError):
                snapshot.assign({1: -1})
        spans = [e for e in recorder.events if e.name == "snapshot.assign"]
        assert [e.tags["query"] for e in spans] == [
            "text", "document", "counts", "counts",
        ]
        assert spans[-1].tags["error"] == "ConfigurationError"
        assert all(e.value >= 0.0 for e in spans)


class TestReads:
    def test_top_clusters_sorted_by_size(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        infos = snapshot.top_clusters(10)
        assert infos, "expected non-empty clusters"
        sizes = [info.size for info in infos]
        assert sizes == sorted(sizes, reverse=True)
        for info in infos:
            assert info.size == len(snapshot.members(info.cluster_id))

    def test_top_clusters_respects_n(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        assert len(snapshot.top_clusters(1)) == 1

    def test_members_bounds_checked(self, stream):
        _, batches = stream
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches)
        )
        with pytest.raises(ConfigurationError, match="outside"):
            snapshot.members(99)
        with pytest.raises(ConfigurationError, match="outside"):
            snapshot.members(-1)

    def test_stats_summary(self, stream):
        _, batches = stream
        clusterer = run_clusterer(batches)
        snapshot = ClusterSnapshot.from_clusterer(6, clusterer)
        stats = snapshot.stats()
        assert stats.version == 6
        assert stats.active_documents == clusterer.statistics.size
        assert stats.k == 3
        assert stats.non_empty_clusters == sum(
            1 for members in snapshot.clusters if members
        )
        assert stats.terms == snapshot.view.term_ids.size
        assert stats.clustering_index == snapshot.clustering_index


class TestReadOnlyTextQueries:
    def test_a_text_query_leaves_the_term_memo_alone(self, stream):
        """Readers count through the pipeline's own query memo: a query
        answers every word, seen or not, without storing it in the
        producer's term memo or moving the counters that
        ``text.stemmer_hit_ratio`` reads."""
        from repro.text import MemoizedStemmer

        from tests.oracles.text import ReferencePipeline

        vocabulary, batches = stream
        stemmer = MemoizedStemmer()
        pipeline = TextPipeline(stemmer=stemmer)
        pipeline.term_frequencies("the goal of the team was a win")
        snapshot = ClusterSnapshot.from_clusterer(
            1, run_clusterer(batches), vocabulary=vocabulary,
            pipeline=pipeline,
        )
        reference = dataclasses.replace(snapshot, pipeline=ReferencePipeline())
        query = "A goal and a win for the team; zeitgeist quokkas banking"
        before = stemmer.cache_info()
        answer = snapshot.assign(query)
        assert stemmer.cache_info() == before
        assert answer == reference.assign(query)
        assert pipeline.query_frequencies(query) == (
            TextPipeline(stemmer=MemoizedStemmer()).term_frequencies(query)
        )
        assert stemmer.cache_info() == before
