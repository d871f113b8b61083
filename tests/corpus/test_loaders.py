"""Unit tests for JSONL save/load round-tripping."""

import json

import pytest

from repro import DocumentRepository, Vocabulary, load_jsonl, save_jsonl
from tests.conftest import build_topic_repository


class TestRoundTrip:
    def test_roundtrip_preserves_documents(self, tmp_path):
        repo = build_topic_repository(days=2)
        path = tmp_path / "corpus.jsonl"
        written = save_jsonl(repo.documents(), repo.vocabulary, path)
        assert written == repo.size

        vocab = Vocabulary()
        loaded = load_jsonl(path, vocab)
        assert len(loaded) == repo.size
        by_id = {d.doc_id: d for d in loaded}
        for original in repo:
            restored = by_id[original.doc_id]
            assert restored.timestamp == original.timestamp
            assert restored.topic_id == original.topic_id
            assert restored.length == original.length
            # term strings (not ids) must match across vocabularies
            original_terms = {
                repo.vocabulary.term(t): c
                for t, c in original.term_counts.items()
            }
            restored_terms = {
                vocab.term(t): c for t, c in restored.term_counts.items()
            }
            assert original_terms == restored_terms

    def test_loading_into_existing_vocabulary_reuses_ids(self, tmp_path):
        repo = DocumentRepository()
        repo.add_text("d1", 0.0, "alpha beta")
        path = tmp_path / "one.jsonl"
        save_jsonl(repo.documents(), repo.vocabulary, path)
        loaded = load_jsonl(path, repo.vocabulary)
        assert loaded[0].term_counts == repo.get("d1").term_counts

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_jsonl(path, Vocabulary()) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        record = {"doc_id": "d", "timestamp": 0.0, "terms": {"x": 1}}
        path.write_text("\n" + json.dumps(record) + "\n\n")
        assert len(load_jsonl(path, Vocabulary())) == 1


class TestErrors:
    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "d"\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            load_jsonl(path, Vocabulary())

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text(json.dumps({"doc_id": "d", "timestamp": 0.0}) + "\n")
        with pytest.raises(ValueError, match="missing field 'terms'"):
            load_jsonl(path, Vocabulary())

    @pytest.mark.parametrize("record", [
        {"doc_id": "d", "timestamp": 0.0, "terms": {"x": 2.9}},
        {"doc_id": "d", "timestamp": 0.0, "terms": {"x": True}},
        {"doc_id": 7, "timestamp": 0.0, "terms": {"x": 1}},
    ], ids=["float-count", "bool-count", "int-doc-id"])
    def test_malformed_record_reports_line(self, tmp_path, record):
        # 2.9 used to be truncated to 2 and true counted as 1
        path = tmp_path / "bad.jsonl"
        good = {"doc_id": "ok", "timestamp": 0.0, "terms": {"x": 1}}
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"bad\.jsonl:2: "):
            load_jsonl(path, Vocabulary())

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_jsonl(tmp_path / "nope.jsonl", Vocabulary())
