"""Unit tests for repro.text.TextPipeline."""

from hypothesis import given
from hypothesis import strategies as st

from repro.text import TextPipeline, Tokenizer


class TestPipelineStages:
    def test_full_pipeline(self):
        tf = TextPipeline().term_frequencies(
            "The markets rallied; markets rose."
        )
        assert tf == {"market": 2, "ralli": 1, "rose": 1}

    def test_stopwords_removed_before_stemming(self):
        # "was" is a stopword; if stemmed first it would become "wa"
        assert TextPipeline().terms("was") == []

    def test_no_stemmer(self):
        pipeline = TextPipeline(stemmer=None)
        assert pipeline.terms("markets rallied") == ["markets", "rallied"]

    def test_custom_stopwords(self):
        pipeline = TextPipeline(stopwords=frozenset({"markets"}),
                                stemmer=None)
        assert pipeline.terms("the markets fell") == ["the", "fell"]

    def test_empty_stopword_set_keeps_everything(self):
        pipeline = TextPipeline(stopwords=frozenset(), stemmer=None)
        assert pipeline.terms("the cat") == ["the", "cat"]

    def test_custom_tokenizer(self):
        pipeline = TextPipeline(tokenizer=Tokenizer(min_length=6),
                                stemmer=None)
        assert pipeline.terms("short longerword") == ["longerword"]

    def test_empty_text(self):
        assert TextPipeline().term_frequencies("") == {}

    def test_terms_preserve_order(self):
        assert TextPipeline(stemmer=None).terms("zebra apple") == [
            "zebra", "apple",
        ]

    def test_batch(self):
        batch = TextPipeline().batch_term_frequencies(
            ["markets fell", "markets rose"]
        )
        assert len(batch) == 2
        assert batch[0]["market"] == 1


class TestPipelineProperties:
    @given(st.text(max_size=300))
    def test_counts_sum_to_term_sequence_length(self, text):
        pipeline = TextPipeline()
        terms = pipeline.terms(text)
        counts = pipeline.term_frequencies(text)
        assert sum(counts.values()) == len(terms)
        assert set(counts) == set(terms)

    @given(st.text(max_size=300))
    def test_all_counts_positive(self, text):
        for count in TextPipeline().term_frequencies(text).values():
            assert count >= 1


class TestBatchTermFrequencies:
    TEXTS = [
        "Asian markets fell sharply in early trading.",
        "The central bank held interest rates steady.",
        "Stocks rallied; traders cheered the rally.",
        "",
        "Bank of England lending rates rose again today.",
    ] * 30

    def test_serial_matches_per_text_calls(self):
        pipeline = TextPipeline()
        assert pipeline.batch_term_frequencies(self.TEXTS) == [
            pipeline.term_frequencies(text) for text in self.TEXTS
        ]

    def test_emits_span_and_cache_gauges(self):
        from repro.obs import InMemoryRecorder, use_recorder

        pipeline = TextPipeline()
        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            pipeline.batch_term_frequencies(self.TEXTS[:5])
        names = {event.name for event in recorder.events}
        assert "text.batch_terms" in names
        assert "text.stemmer_cache.hits" in names
        assert "text.stemmer_cache.misses" in names

    def test_default_stemmer_is_shared_memo(self):
        from repro.text.stemmer import MemoizedStemmer

        first = TextPipeline()
        second = TextPipeline()
        assert isinstance(first.stemmer, MemoizedStemmer)
        assert first.stemmer is second.stemmer

    def test_stemmer_none_still_disables_stemming(self):
        pipeline = TextPipeline(stemmer=None)
        assert pipeline.term_frequencies("markets rallied") == {
            "markets": 1, "rallied": 1,
        }
