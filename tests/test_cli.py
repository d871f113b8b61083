"""Tests for the command-line interface (invoked in-process)."""

import json
from functools import partial

import pytest

from repro import ClusterSnapshot, Vocabulary, api, iter_batches
from repro.cli import main
from repro.corpus.loaders import load_jsonl, save_jsonl
from repro.durability import recover
from tests.conftest import build_topic_repository
from tests.durability.conftest import CadenceCheckpointer
from tests.service.conftest import assert_snapshot_parity


@pytest.fixture
def stream_file(tmp_path):
    repo = build_topic_repository(days=6, docs_per_topic_per_day=2, seed=1)
    path = tmp_path / "stream.jsonl"
    save_jsonl(repo.documents(), repo.vocabulary, path)
    return path


#: Pipeline flags of the resume tests: one-day windows over the 6-day
#: stream, which is shorter than the default 14-day life span, so no
#: document expires and every input id ends active.
RUN = ["--k", "4", "--seed", "0", "--batch-days", "1"]


def input_ids(path):
    return {json.loads(line)["doc_id"] for line in open(path)}


def write_prefix(stream_file, prefix, windows):
    """Write the records of the first ``windows`` one-day batches of
    ``stream_file`` to ``prefix``: a run over it stops on the grid."""
    documents = load_jsonl(stream_file, Vocabulary())
    batches = list(iter_batches(documents, 1.0))
    kept = {d.doc_id for _, batch in batches[:windows] for d in batch}
    with open(stream_file) as source, open(prefix, "w") as target:
        target.writelines(
            line for line in source if json.loads(line)["doc_id"] in kept
        )
    return len(batches)


def recovered(path):
    recovery = recover(path)
    return ClusterSnapshot.from_clusterer(
        recovery.sequence, recovery.clusterer
    )


def held_ids(snapshot):
    return {d for cluster in snapshot.clusters for d in cluster} | set(
        snapshot.outliers
    )


def run_clean(capsys, argv):
    """Run one command; it must exit 0 and print nothing to stderr."""
    code = main(argv)
    err = capsys.readouterr().err
    assert (code, err) == (0, "")


def assert_resume_continues_the_run(command, stream_file, tmp_path, capsys):
    """A run over a prefix, resumed over the whole input, ends where
    one uninterrupted run ends."""
    whole = tmp_path / "whole.json"
    run_clean(capsys, [command, "--input", str(stream_file), *RUN,
                       "--checkpoint", str(whole)])
    prefix = tmp_path / "prefix.jsonl"
    batches = write_prefix(stream_file, prefix, 3)
    state = tmp_path / "state.json"
    run_clean(capsys, [command, "--input", str(prefix), *RUN,
                       "--checkpoint", str(state)])
    assert recovered(state).version == 3
    run_clean(capsys, [command, "--input", str(stream_file),
                       "--resume", str(state), "--batch-days", "1"])
    expected = recovered(whole)
    assert expected.version == batches
    assert held_ids(expected) == input_ids(stream_file)
    assert_snapshot_parity(recovered(state), expected)


def assert_resume_loses_no_id(command, stream_file, tmp_path, capsys):
    """Resumed with another window width, the grid shifts; every
    document after the recovered clock still lands."""
    prefix = tmp_path / "prefix.jsonl"
    write_prefix(stream_file, prefix, 3)
    state = tmp_path / "state.json"
    run_clean(capsys, [command, "--input", str(prefix), *RUN,
                       "--checkpoint", str(state)])
    run_clean(capsys, [command, "--input", str(stream_file),
                       "--resume", str(state), "--batch-days", "0.75"])
    assert held_ids(recovered(state)) == input_ids(stream_file)


class TestGenerate:
    def test_writes_scaled_corpus(self, tmp_path, capsys):
        output = tmp_path / "corpus.jsonl"
        code = main([
            "generate", "--output", str(output),
            "--seed", "5", "--total-docs", "300",
        ])
        assert code == 0
        assert "wrote 300 documents" in capsys.readouterr().out
        assert output.exists()
        assert sum(1 for _ in open(output)) == 300


class TestCluster:
    def test_clusters_stream_and_reports(self, stream_file, capsys):
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final clusters:" in out
        assert "micro F1" in out  # topic labels present -> evaluation

    def test_quiet_suppresses_batch_lines(self, stream_file, capsys):
        main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2", "--quiet",
        ])
        out = capsys.readouterr().out
        assert "t=" not in out
        assert "final clusters:" in out

    def test_checkpoint_roundtrip(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "3",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 0
        assert state.exists()
        code = main([
            "cluster", "--input", str(stream_file),
            "--resume", str(state), "--batch-days", "3", "--quiet",
        ])
        assert code == 0
        assert "resumed from" in capsys.readouterr().out

    def test_engine_flag_roundtrips_checkpoint(self, stream_file, tmp_path,
                                               capsys):
        state = tmp_path / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "3",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 0
        assert json.loads(state.read_text())["kmeans"]["engine"] == "matrix"
        code = main([
            "cluster", "--input", str(stream_file),
            "--resume", str(state), "--batch-days", "3", "--quiet",
        ])
        assert code == 0
        assert "resumed from" in capsys.readouterr().out

    def test_resume_over_whole_input_after_prefix(
        self, stream_file, tmp_path, capsys
    ):
        assert_resume_continues_the_run(
            "cluster", stream_file, tmp_path, capsys
        )

    def test_resume_on_a_shifted_grid_loses_no_id(
        self, stream_file, tmp_path, capsys
    ):
        assert_resume_loses_no_id("cluster", stream_file, tmp_path, capsys)

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["cluster", "--input", str(empty)])
        assert code == 1
        assert "no documents" in capsys.readouterr().err

    def test_missing_input_clean_error(self, tmp_path, capsys):
        code = main(["cluster", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "file not found" in err
        assert "Traceback" not in err

    def test_bad_parameter_clean_error(self, stream_file, capsys):
        code = main(["cluster", "--input", str(stream_file), "--k", "0"])
        assert code == 2
        assert "k must be >= 1" in capsys.readouterr().err

    def test_corrupt_checkpoint_clean_error(self, stream_file, tmp_path,
                                            capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = main(["cluster", "--input", str(stream_file),
                     "--resume", str(bad)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err


def compact_every(monkeypatch, every):
    """Make ``repro cluster --checkpoint`` rewrite its base on every
    ``every``-th batch instead of by size (the suites' fixed cadence).
    The command's session builds its checkpointer in ``open_stream``."""
    monkeypatch.setattr(
        api, "Checkpointer", partial(CadenceCheckpointer, every=every)
    )


class TestDurability:
    def test_checkpoint_creates_missing_parent_dirs(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "not" / "yet" / "there" / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "3",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 0
        assert state.exists()
        assert "checkpoint written to" in capsys.readouterr().out

    def test_unwritable_checkpoint_fails_before_clustering(
        self, stream_file, tmp_path, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main([
            "cluster", "--input", str(stream_file),
            "--checkpoint", str(blocker / "state.json"), "--quiet",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert "cannot create checkpoint directory" in captured.err
        assert "t=" not in captured.out  # no batch ever ran

    def test_periodic_checkpoints_and_journal_on_disk(
        self, stream_file, tmp_path, capsys, monkeypatch
    ):

        compact_every(monkeypatch, 2)
        state = tmp_path / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 0
        final = json.loads(state.read_text())
        assert final["sequence"] == 3  # 6 days / 2-day batches
        assert (tmp_path / "state.json.bak").exists()
        assert (tmp_path / "state.json.journal").exists()

    def test_resume_recovers_from_backup_generation(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 0
        capsys.readouterr()
        state.write_text("{torn by a crash")
        code = main([
            "cluster", "--input", str(stream_file),
            "--resume", str(state), "--batch-days", "2", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered from" in out
        assert "state.json.bak" in out

    def test_resume_replays_journaled_batches(
        self, stream_file, tmp_path, capsys, monkeypatch
    ):
        """With a sparse checkpoint cadence, the tail of the run lives
        only in the journal — resume must replay it."""
        compact_every(monkeypatch, 100)
        state = tmp_path / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 0
        capsys.readouterr()
        # drop the final flush back to the anchor: the journal alone
        # must carry the whole run

        from repro.durability.journal import read_journal

        assert json.loads(state.read_text())["sequence"] == 3
        journal = tmp_path / "state.json.journal"
        anchor_header = read_journal(journal)
        assert anchor_header.base_sequence == 3  # rotated at close

    def test_crash_resume_replays_and_continues(
        self, stream_file, tmp_path, capsys, monkeypatch
    ):
        """Kill the run mid-stream (checkpoint write explodes), then
        resume: the journaled batches come back and the run finishes."""
        import os

        state = tmp_path / "state.json"
        real_replace = os.replace
        calls = {"n": 0}

        def dies_on_third_checkpoint(src, dst):
            if str(dst) == str(state):
                calls["n"] += 1
                if calls["n"] >= 3:
                    raise OSError("simulated power loss")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", dies_on_third_checkpoint)
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2",
            "--checkpoint", str(state), "--quiet",
        ])
        assert code == 2  # the crash surfaced as an error
        monkeypatch.undo()
        capsys.readouterr()

        code = main([
            "cluster", "--input", str(stream_file),
            "--resume", str(state), "--checkpoint", str(state),
            "--batch-days", "2", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "final clusters:" in out


class TestServe:
    def test_one_shot_run_with_checkpoint(
        self, stream_file, tmp_path, capsys
    ):
        state = tmp_path / "state.json"
        code = main(["serve", "--input", str(stream_file), *RUN,
                     "--checkpoint", str(state)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert "checkpoint written to" in captured.out
        snapshot = recovered(state)
        documents = load_jsonl(stream_file, Vocabulary())
        assert snapshot.version == len(list(iter_batches(documents, 1.0)))
        assert held_ids(snapshot) == input_ids(stream_file)

    def test_resume_over_whole_input_after_prefix(
        self, stream_file, tmp_path, capsys
    ):
        assert_resume_continues_the_run(
            "serve", stream_file, tmp_path, capsys
        )

    def test_resume_on_a_shifted_grid_loses_no_id(
        self, stream_file, tmp_path, capsys
    ):
        assert_resume_loses_no_id("serve", stream_file, tmp_path, capsys)

    def test_journal_failure_in_the_final_flush_exits_2(
        self, stream_file, tmp_path, capsys, monkeypatch
    ):
        # one 7-day window: the only batch is submitted by the flush
        def disk_gone(self, documents, at_time):
            raise OSError("journal disk gone")

        monkeypatch.setattr(api.Checkpointer, "record_batch", disk_gone)
        code = main(["serve", "--input", str(stream_file), "--k", "4",
                     "--checkpoint", str(tmp_path / "state.json")])
        assert code == 2
        assert "journal disk gone" in capsys.readouterr().err


class TestTrace:
    def test_trace_writes_valid_jsonl(self, stream_file, tmp_path, capsys):

        trace = tmp_path / "trace.jsonl"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2", "--quiet",
            "--trace", str(trace),
        ])
        assert code == 0
        assert "trace written to" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        names = {record["name"] for record in records}
        # all three pipeline phases present in the trace
        assert "pipeline.statistics" in names
        assert "kmeans.vectorise" in names
        assert "pipeline.clustering" in names
        for record in records:
            assert record["kind"] in ("counter", "gauge", "span")
            assert isinstance(record["value"], (int, float))
            assert "t" in record

    def test_trace_with_resume(self, stream_file, tmp_path, capsys):
        state = tmp_path / "state.json"
        main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "3",
            "--checkpoint", str(state), "--quiet",
        ])
        capsys.readouterr()
        trace = tmp_path / "trace.jsonl"
        code = main([
            "cluster", "--input", str(stream_file),
            "--resume", str(state), "--batch-days", "3", "--quiet",
            "--trace", str(trace),
        ])
        assert code == 0
        assert trace.read_text().strip()  # resumed pipeline was traced


class TestExperiments:
    def test_experiment1_small(self, capsys, monkeypatch):
        import repro.experiments.experiment1 as exp1
        from repro.corpus.synthetic import (
            SyntheticCorpusConfig, TDT2_TOPIC_CATALOG,
        )

        original = exp1.ExperimentOneConfig

        def small_config(seed, unlabeled_per_day):
            return original(
                seed=seed,
                days=5,
                k=4,
                corpus=SyntheticCorpusConfig(
                    seed=seed,
                    total_documents=600,
                    n_topics=len(TDT2_TOPIC_CATALOG),
                ),
            )

        monkeypatch.setattr(exp1, "ExperimentOneConfig", small_config)
        code = main(["experiment1", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "speedup" in out

    def test_experiment2_selected_window(self, capsys, monkeypatch):
        import repro.experiments.experiment2 as exp2
        from repro.corpus.synthetic import (
            SyntheticCorpusConfig, TDT2_TOPIC_CATALOG,
        )

        original_init = exp2.ExperimentTwoConfig

        def small_config(seed, betas):
            return original_init(
                seed=seed, betas=betas, k=6,
                corpus=SyntheticCorpusConfig(
                    seed=seed,
                    total_documents=800,
                    n_topics=len(TDT2_TOPIC_CATALOG),
                ),
            )

        monkeypatch.setattr(exp2, "ExperimentTwoConfig", small_config)
        code = main([
            "experiment2", "--seed", "3", "--windows", "1", "--betas", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 4" in out


class TestReport:
    def test_quick_report_to_file(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        code = main(["report", "--quick", "--seed", "5",
                     "--output", str(output)])
        assert code == 0
        text = output.read_text()
        assert "# Reproduction report" in text
        assert "Table 1" in text
        assert "Table 4" in text
        assert "speedup" in text

    def test_quick_report_to_stdout(self, capsys):
        code = main(["report", "--quick", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "## Table 2" in out


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2



class TestStatsBackendFlag:
    def test_backend_flag_round_trips_checkpoint(self, stream_file,
                                                 tmp_path, capsys):
        state = tmp_path / "state.json"
        code = main([
            "cluster", "--input", str(stream_file),
            "--k", "4", "--batch-days", "2", "--quiet",
            "--checkpoint", str(state),
        ])
        assert code == 0
        assert json.load(open(state))["statistics_backend"] == "columnar"

        code = main([
            "cluster", "--input", str(stream_file),
            "--resume", str(state), "--quiet",
        ])
        assert code == 0


class TestRawText:
    def test_raw_text_records_cluster_end_to_end(self, tmp_path, capsys):

        path = tmp_path / "raw.jsonl"
        topics = [
            "asian markets fell sharply stocks tumbled",
            "election campaign votes polls candidate",
            "storm rainfall flooding rivers weather",
        ]
        with open(path, "w") as handle:
            for i in range(30):
                handle.write(json.dumps({
                    "doc_id": f"r{i}",
                    "timestamp": float(i % 5),
                    "text": topics[i % 3] + f" filler{i % 3}",
                }) + "\n")
        code = main([
            "cluster", "--input", str(path),
            "--k", "3", "--batch-days", "2", "--quiet",
        ])
        assert code == 0
        assert "final clusters:" in capsys.readouterr().out
