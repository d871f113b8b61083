"""Tests for the Experiment 1 (Table 1) driver at reduced scale."""

import pytest

from repro.corpus.synthetic import SyntheticCorpusConfig, TDT2_TOPIC_CATALOG
from repro.experiments import ExperimentOneConfig, run_experiment1


def small_config():
    return ExperimentOneConfig(
        seed=42,
        days=6,
        k=6,
        corpus=SyntheticCorpusConfig(
            seed=42,
            total_documents=900,
            n_topics=len(TDT2_TOPIC_CATALOG),
        ),
    )


@pytest.fixture(scope="module")
def result():
    return run_experiment1(small_config())


class TestExperimentOne:
    def test_phases_timed(self, result):
        for phase in ("statistics", "clustering"):
            assert result.non_incremental[phase] > 0.0
            assert result.incremental[phase] > 0.0

    def test_incremental_statistics_faster(self, result):
        """The reproduction target: incremental statistics update beats
        the from-scratch rebuild."""
        assert result.speedup("statistics") > 1.0

    def test_document_counts(self, result):
        assert result.total_documents > 0
        assert 0 < result.last_day_documents < result.total_documents

    def test_rows_shape(self, result):
        rows = result.rows()
        assert len(rows) == 2
        assert rows[0][0] == "Non-incremental"
        assert rows[1][0] == "Incremental"

    def test_render_mentions_paper(self, result):
        text = result.render()
        assert "Table 1" in text
        assert "paper" in text
        assert "speedup" in text

