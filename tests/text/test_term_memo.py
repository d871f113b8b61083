"""The text pipeline's term memo: its bound, its counters, its span."""

from __future__ import annotations

from repro.obs import InMemoryRecorder, use_recorder
from repro.text import MemoizedStemmer, TextPipeline, Tokenizer
from repro.text.memo import TermMemo
from repro.text.tokenizer import surface_tokens
from tests.text.conftest import EDGE_TEXTS


def memo_of(pipeline: TextPipeline) -> TermMemo:
    return pipeline.stemmer.term_memo(pipeline.tokenizer, pipeline.stopwords)


class TestBound:
    def test_memo_never_exceeds_maxsize(self, stream_texts):
        stemmer = MemoizedStemmer(maxsize=16)
        pipeline = TextPipeline(stemmer=stemmer)
        memo = memo_of(pipeline)
        for text in EDGE_TEXTS + stream_texts[:300]:
            pipeline.term_frequencies(text)
            assert len(memo) <= 16
            assert stemmer.cache_info()["currsize"] <= 16
        assert len(memo) > 0


class TestCounters:
    def test_hits_plus_misses_is_surface_tokens_looked_up(
        self, stream_texts
    ):
        stemmer = MemoizedStemmer()
        pipeline = TextPipeline(stemmer=stemmer)
        texts = EDGE_TEXTS + stream_texts[:500]
        for text in texts:
            pipeline.terms(text)
        info = stemmer.cache_info()
        assert info["hits"] + info["misses"] == sum(
            len(surface_tokens(text)) for text in texts
        )
        assert info["hits"] > 0 and info["misses"] > 0

    def test_after_cache_clear_the_next_document_is_a_full_miss(
        self, stream_texts
    ):
        stemmer = MemoizedStemmer()
        pipeline = TextPipeline(stemmer=stemmer)
        for text in stream_texts[:100]:
            pipeline.term_frequencies(text)
        assert len(memo_of(pipeline)) > 0
        stemmer.cache_clear()
        assert stemmer.cache_info() == {
            "hits": 0, "misses": 0, "maxsize": stemmer.maxsize,
            "currsize": 0,
        }
        text = stream_texts[0]
        pipeline.term_frequencies(text)
        info = stemmer.cache_info()
        assert info["hits"] == 0
        assert info["misses"] == len(surface_tokens(text)) > 0

    def test_stemmer_runs_once_per_unseen_surface_form(self):
        calls = []

        def stem(word: str) -> str:
            calls.append(word)
            return word[:3]

        pipeline = TextPipeline(stemmer=stem)
        pipeline.terms("alpha beta alpha gamma the beta")
        pipeline.terms("gamma alpha delta")
        assert calls == ["alpha", "beta", "gamma", "delta"]


class TestSharing:
    def test_equal_settings_share_one_memo(self):
        stemmer = MemoizedStemmer()
        first = TextPipeline(stemmer=stemmer)
        second = TextPipeline(stemmer=stemmer, tokenizer=Tokenizer())
        assert memo_of(first) is memo_of(second)

    def test_different_settings_keep_separate_memos(self):
        stemmer = MemoizedStemmer()
        plain = TextPipeline(stemmer=stemmer)
        strict = TextPipeline(stemmer=stemmer,
                              tokenizer=Tokenizer(min_length=5))
        bare = TextPipeline(stemmer=stemmer, stopwords=frozenset())
        assert len({id(memo_of(p)) for p in (plain, strict, bare)}) == 3
        assert strict.terms("the market fell") == ["market"]
        assert bare.terms("the market fell") == ["the", "market", "fell"]
        assert plain.terms("the market fell") == ["market", "fell"]

    def test_cache_clear_empties_every_memo_it_holds(self):
        stemmer = MemoizedStemmer()
        pipelines = [TextPipeline(stemmer=stemmer),
                     TextPipeline(stemmer=stemmer, stopwords=frozenset())]
        for pipeline in pipelines:
            pipeline.terms("markets rallied")
        stemmer.cache_clear()
        assert all(len(memo_of(p)) == 0 for p in pipelines)

    def test_memo_ignores_later_changes_to_the_tokenizer(self):
        tokenizer = Tokenizer()
        pipeline = TextPipeline(tokenizer=tokenizer, stemmer=None)
        tokenizer.min_length = 10
        assert pipeline.terms("market fell") == ["market", "fell"]


class TestQueryMemo:
    def test_a_repeated_unseen_query_word_is_stemmed_once(self):
        calls = []

        def stem(word: str) -> str:
            calls.append(word)
            return word[:3]

        stemmer = MemoizedStemmer(stem)
        pipeline = TextPipeline(stemmer=stemmer)
        pipeline.term_frequencies("alpha beta")
        before = stemmer.cache_info()
        for _ in range(3):
            assert pipeline.query_frequencies("gamma alpha gamma") == {
                "gam": 2, "alp": 1,
            }
        # the query memo is the pipeline's own: "alpha" is stemmed
        # again there, once, and the document memo never sees a query
        assert calls == ["alpha", "beta", "gamma", "alpha"]
        assert stemmer.cache_info() == before

    def test_query_memo_is_bounded_by_maxsize(self, stream_texts):
        pipeline = TextPipeline(stemmer=MemoizedStemmer(maxsize=16))
        for text in stream_texts[:50]:
            assert pipeline.query_frequencies(text) == (
                pipeline.term_frequencies(text)
            )
            assert len(pipeline._query_memo) <= 16


class TestSpan:
    def test_term_frequencies_emits_text_terms(self):
        recorder = InMemoryRecorder()
        with use_recorder(recorder):
            TextPipeline().term_frequencies("markets rallied")
            TextPipeline().term_frequencies("markets fell")
        spans = [e for e in recorder.events if e.name == "text.terms"]
        assert len(spans) == 2
        assert all(e.value >= 0.0 for e in spans)
