"""Command-line interface.

::

    repro generate --output stream.jsonl [--seed N] [--total-docs N]
    repro cluster  --input stream.jsonl [--k N] [--half-life D]
                   [--life-span D] [--batch-days D]
                   [--checkpoint state.json]
                   [--resume state.json] [--trace trace.jsonl]
    repro serve    --input stream.jsonl [--k N] [--batch-days D]
                   [--checkpoint state.json] [--resume state.json]
                   [--follow [--poll-interval S]] [--http PORT]
    repro experiment1 [--unlabeled-per-day N]
    repro experiment2 [--windows 1,4] [--betas 7,30]

``generate`` writes the synthetic TDT2-like stream as JSON Lines;
``cluster`` replays any JSONL stream through the incremental clusterer,
printing a report per batch (and an evaluation when ground-truth topic
labels are present); ``serve`` runs the streaming service
(:func:`repro.api.open_stream`) over a stream — optionally tailing the
file for appended records and exposing the snapshot query API over
HTTP; the experiment commands regenerate the paper's Table 1 and
Tables 2/4 from the command line.

With ``--checkpoint``, ``cluster`` and ``serve`` keep the run durable
(:mod:`repro.durability`): every committed batch is appended to a log
beside a base checkpoint, and the base is rewritten when the batch's
line would make the log larger than the base.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from . import __version__
from .api import build_clusterer, open_stream
from .corpus.loaders import load_jsonl, save_jsonl
from .corpus.streams import replay
from .corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from .core.labeling import label_clustering
from .eval.metrics import evaluate_clustering
from .durability import Checkpointer, recover
from .durability.atomic import prepare_checkpoint_path
from .text.vocabulary import Vocabulary

if TYPE_CHECKING:
    from .core.result import ClusteringResult
    from .corpus.document import Document
    from .obs import Recorder


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Novelty-based incremental document clustering "
                    "(ICDE 2006 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write the synthetic TDT2-like stream as JSONL"
    )
    generate.add_argument("--output", required=True,
                          help="destination .jsonl path")
    generate.add_argument("--seed", type=int, default=1998)
    generate.add_argument("--total-docs", type=int, default=None,
                          help="scale the corpus (default: paper's 7578)")
    generate.add_argument("--unlabeled-per-day", type=float, default=0.0)

    cluster = commands.add_parser(
        "cluster", help="replay a JSONL stream through the clusterer"
    )
    cluster.add_argument("--input", required=True, help="stream .jsonl")
    cluster.add_argument("--k", type=int, default=16)
    cluster.add_argument("--half-life", type=float, default=7.0)
    cluster.add_argument("--life-span", type=float, default=14.0)
    cluster.add_argument("--batch-days", type=float, default=7.0)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--top-terms", type=int, default=4)
    cluster.add_argument("--checkpoint", default=None,
                         help="maintain a crash-safe checkpoint at this "
                              "path: a base, rewritten atomically, plus "
                              "an append-only log alongside that each "
                              "window appends to (fsynced); the base is "
                              "rewritten when the log would outgrow it "
                              "and at the end of the run")
    cluster.add_argument("--resume", default=None,
                         help="resume from a checkpoint written earlier; "
                              "falls back to its .bak generation and "
                              "replays the batch journal when the run "
                              "was interrupted")
    cluster.add_argument("--quiet", action="store_true",
                         help="only print the final report")
    cluster.add_argument("--trace", default=None, metavar="PATH",
                         help="write pipeline observability events "
                              "(phase spans, counters, gauges) to this "
                              "path as JSON Lines")

    serve = commands.add_parser(
        "serve", help="run the streaming service over a JSONL stream"
    )
    serve.add_argument("--input", default=None,
                       help="JSONL stream to ingest (with --follow, the "
                            "file is tailed for appended records and may "
                            "not exist yet)")
    serve.add_argument("--k", type=int, default=16)
    serve.add_argument("--half-life", type=float, default=7.0)
    serve.add_argument("--life-span", type=float, default=14.0)
    serve.add_argument("--batch-days", type=float, default=7.0,
                       help="width of the ingestion windows documents "
                            "are batched into")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--checkpoint", default=None,
                       help="journal every committed batch and keep a "
                            "crash-safe checkpoint at this path; "
                            "snapshot versions equal journal sequences")
    serve.add_argument("--resume", default=None,
                       help="recover from this checkpoint and continue "
                            "serving at the recovered snapshot version")
    serve.add_argument("--follow", action="store_true",
                       help="keep tailing --input for appended records "
                            "instead of ingesting it once")
    serve.add_argument("--poll-interval", type=float, default=0.5,
                       help="with --follow: seconds between file polls")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="expose the snapshot query API over HTTP on "
                            "this port (0 picks a free one)")
    serve.add_argument("--duration", type=float, default=None,
                       metavar="SECONDS",
                       help="with --follow/--http: serve for this long "
                            "and exit cleanly (default: until Ctrl-C)")
    serve.add_argument("--quiet", action="store_true",
                       help="only print errors")

    experiment1 = commands.add_parser(
        "experiment1", help="regenerate Table 1 (timing comparison)"
    )
    experiment1.add_argument("--seed", type=int, default=1998)
    experiment1.add_argument("--unlabeled-per-day", type=float,
                             default=215.0)

    experiment2 = commands.add_parser(
        "experiment2", help="regenerate Tables 2 and 4 (quality grid)"
    )
    experiment2.add_argument("--seed", type=int, default=1998)
    experiment2.add_argument("--windows", default=None,
                             help="comma-separated window numbers (1-6)")
    experiment2.add_argument("--betas", default="7,30",
                             help="comma-separated half-life values")

    report = commands.add_parser(
        "report", help="run all experiments, emit a Markdown report"
    )
    report.add_argument("--seed", type=int, default=1998)
    report.add_argument("--output", default=None,
                        help="write the report here (default: stdout)")
    report.add_argument("--quick", action="store_true",
                        help="scaled-down corpus, two windows (~15s)")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    kwargs = {"seed": args.seed,
              "unlabeled_per_day": args.unlabeled_per_day}
    if args.total_docs is not None:
        kwargs["total_documents"] = args.total_docs
    config = SyntheticCorpusConfig(**kwargs)
    repository = TDT2Generator(config).generate()
    written = save_jsonl(
        repository.documents(), repository.vocabulary, args.output
    )
    print(f"wrote {written} documents to {args.output}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.trace:
        from .obs import JsonlRecorder

        with JsonlRecorder(args.trace) as recorder:
            status = _run_cluster(args, recorder)
        print(f"trace written to {args.trace} "
              f"({recorder.events_written} events)")
        return status
    return _run_cluster(args, None)


def _run_cluster(
    args: argparse.Namespace, recorder: Optional["Recorder"]
) -> int:
    if args.checkpoint:
        # fail before the first batch, not after hours of clustering:
        # creates missing parent directories, rejects unwritable paths
        prepare_checkpoint_path(args.checkpoint)

    vocabulary = Vocabulary()
    sequence = 0
    if args.resume:
        recovery = recover(args.resume, vocabulary, recorder=recorder)
        clusterer = recovery.clusterer
        sequence = recovery.sequence
        recovered = ""
        if recovery.used_backup:
            recovered += (f" (primary checkpoint unreadable; recovered "
                          f"from {recovery.checkpoint_path})")
        if recovery.replayed_batches:
            recovered += (f" (replayed {recovery.replayed_batches} "
                          f"journaled batches)")
        print(f"resumed from {args.resume}: "
              f"{clusterer.statistics.size} active documents at "
              f"t={clusterer.statistics.now}"
              f"{recovered} "
              f"(checkpoint parameters take precedence over "
              f"--k/--half-life/--life-span/--seed; documents older "
              f"than the checkpoint clock are treated as already "
              f"processed)")
    else:
        clusterer = build_clusterer(
            k=args.k, seed=args.seed,
            half_life=args.half_life, life_span=args.life_span,
            recorder=recorder,
        )

    if recorder is not None:
        # make the recorder ambient during loading so the text
        # front-end's span and stemmer-cache gauges land in --trace
        from .obs import use_recorder

        with use_recorder(recorder):
            documents = load_jsonl(args.input, vocabulary)
    else:
        documents = load_jsonl(args.input, vocabulary)
    documents.sort(key=lambda d: d.timestamp)
    if not documents:
        print("no documents in input", file=sys.stderr)
        return 1
    already = (
        clusterer.statistics.now
        if clusterer.statistics.now is not None else float("-inf")
    )
    documents = [d for d in documents if d.timestamp >= already]

    checkpointer: Optional[Checkpointer] = None
    if args.checkpoint:
        checkpointer = Checkpointer(
            clusterer, vocabulary, args.checkpoint,
            sequence=sequence, recorder=recorder,
        )
        clusterer.add_commit_hook(checkpointer.record_batch)
    try:
        if documents:
            def report(
                at_time: float,
                batch: List["Document"],
                batch_result: "ClusteringResult",
            ) -> None:
                if not args.quiet:
                    print(f"t={at_time:8.1f}  +{len(batch):5d} docs  "
                          f"{batch_result.summary()}")

            # resume continues the original batch grid from the
            # checkpoint clock; a fresh run anchors at the first document
            origin = clusterer.statistics.now if args.resume else None
            result = replay(
                clusterer, documents, args.batch_days,
                origin=origin, on_batch=report,
            )
        else:
            # resumed past the whole stream: re-cluster the carried state
            print("no new documents beyond the checkpoint; re-clustering "
                  "the carried state")
            at_time = clusterer.statistics.now
            if at_time is None:
                # a fresh (never-fed) clusterer has no clock to
                # re-cluster at; previously this leaked ``None`` into
                # process_batch
                print("no batches processed", file=sys.stderr)
                return 1
            result = clusterer.process_batch([], at_time=at_time)
    finally:
        # flushes a final checkpoint when batches are pending and closes
        # the journal handle, even when replay dies mid-stream — the
        # whole point of this PR
        if checkpointer is not None:
            checkpointer.close()

    if result is None:
        print("no batches processed", file=sys.stderr)
        return 1

    print("\nfinal clusters:")
    active = clusterer.statistics.documents()
    labels = label_clustering(
        clusterer.view(), vocabulary, limit=args.top_terms
    )
    for label in sorted(labels, key=lambda l: -l.size):
        print(f"  [{label.size:5d} docs] {label}")
    if result.outliers:
        print(f"  ({len(result.outliers)} outliers)")

    truth = {d.doc_id: d.topic_id for d in active}
    if any(topic is not None for topic in truth.values()):
        evaluation = evaluate_clustering(result.clusters, truth)
        print(f"\nevaluation vs ground-truth labels: "
              f"micro F1 {evaluation.micro_f1:.2f}, "
              f"macro F1 {evaluation.macro_f1:.2f}, "
              f"{evaluation.n_marked} marked clusters")

    if args.checkpoint:
        print(f"\ncheckpoint written to {args.checkpoint}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading
    import time

    if not args.input and args.http is None:
        raise ValueError("serve needs --input and/or --http")
    if args.follow and not args.input:
        raise ValueError("--follow requires --input")

    if args.resume:
        session = open_stream(
            resume=args.resume,
            checkpoint=args.checkpoint,
            window_days=args.batch_days,
        )
        if not args.quiet:
            print(f"resumed from {args.resume} at snapshot "
                  f"version {session.version}")
    else:
        session = open_stream(
            k=args.k, seed=args.seed,
            half_life=args.half_life, life_span=args.life_span,
            checkpoint=args.checkpoint,
            window_days=args.batch_days,
        )
    with session:
        server = None
        if args.http is not None:
            server = session.serve_http(port=args.http)
            if not args.quiet:
                print(f"query API listening on {server.url}")
        if args.input and args.follow:
            session.tail_jsonl(args.input, poll_interval=args.poll_interval)
            if not args.quiet:
                print(f"tailing {args.input} "
                      f"(windows of {args.batch_days} days)")
        elif args.input:
            documents = load_jsonl(args.input, session.vocabulary)
            documents.sort(key=lambda d: d.timestamp)
            if not documents:
                print("no documents in input", file=sys.stderr)
                return 1
            for document in documents:
                session.feed(document)
            snapshot = session.flush()
            if not args.quiet:
                stats = snapshot.stats()
                print(f"ingested {len(documents)} documents; snapshot "
                      f"v{stats.version}: {stats.active_documents} active "
                      f"docs in {stats.non_empty_clusters} clusters, "
                      f"G={stats.clustering_index:.4f}")
                for info in snapshot.top_clusters(5):
                    print(f"  cluster {info.cluster_id:3d}: "
                          f"{info.size:5d} docs")
        if args.follow or server is not None:
            try:
                if args.duration is not None:
                    time.sleep(args.duration)
                else:  # pragma: no cover - interactive path
                    threading.Event().wait()
            except KeyboardInterrupt:  # pragma: no cover - interactive
                if not args.quiet:
                    print("shutting down")
            if args.follow and not args.quiet:
                final = session.flush().stats()
                print(f"final snapshot v{final.version}: "
                      f"{final.active_documents} active docs in "
                      f"{final.non_empty_clusters} clusters")
        if session.errors:
            print(f"{len(session.errors)} batches rejected "
                  f"(first: {session.errors[0]})", file=sys.stderr)
    if args.checkpoint or args.resume:
        target = args.checkpoint or args.resume
        if not args.quiet:
            print(f"checkpoint written to {target}")
    return 0


def _cmd_experiment1(args: argparse.Namespace) -> int:
    from .experiments.experiment1 import (
        ExperimentOneConfig,
        run_experiment1,
    )

    config = ExperimentOneConfig(
        seed=args.seed, unlabeled_per_day=args.unlabeled_per_day
    )
    print("running Experiment 1 (this generates the corpus and runs "
          "both pipelines) ...\n")
    print(run_experiment1(config).render())
    return 0


def _cmd_experiment2(args: argparse.Namespace) -> int:
    from .experiments.experiment2 import (
        ExperimentTwoConfig,
        run_experiment2,
    )

    betas = tuple(float(b) for b in args.betas.split(","))
    windows: Optional[List[int]] = None
    if args.windows:
        windows = []
        for token in args.windows.split(","):
            number = int(token)
            if not 1 <= number <= 6:
                raise ValueError(
                    f"--windows values must be 1-6, got {number}"
                )
            windows.append(number - 1)
    config = ExperimentTwoConfig(seed=args.seed, betas=betas)
    print("running Experiment 2 (full grid takes ~2 minutes) ...\n")
    result = run_experiment2(config, windows=windows)
    print(result.render_table2())
    print()
    print(result.render_table4(betas))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import ReportConfig, generate_report

    print("running the reproduction report "
          f"({'quick' if args.quick else 'full'} mode) ...",
          file=sys.stderr)
    text = generate_report(ReportConfig(seed=args.seed, quick=args.quick))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "cluster": _cmd_cluster,
    "serve": _cmd_serve,
    "experiment1": _cmd_experiment1,
    "experiment2": _cmd_experiment2,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    User-input failures (missing files, bad parameter values, corrupt
    checkpoints) print one-line errors and exit 2; genuine bugs still
    traceback.
    """
    from .exceptions import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}",
              file=sys.stderr)
        return 2
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # disk full, permissions, torn writes — environment, not a bug;
        # any checkpoint/journal on disk is still intact for --resume
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
