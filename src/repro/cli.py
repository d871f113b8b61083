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
``cluster`` and ``serve`` both feed a JSONL stream through one
streaming session (:func:`repro.api.open_stream`) in ``--batch-days``
windows. ``cluster`` prints a report per batch and the final clusters
(with an evaluation when ground-truth topic labels are present);
``serve`` can also tail the file for appended records and expose the
snapshot query API over HTTP. The experiment commands regenerate the
paper's Table 1 and Tables 2/4 from the command line.

With ``--checkpoint``, ``cluster`` and ``serve`` keep the run durable
(:mod:`repro.durability`): every committed batch is appended to a log
beside a base checkpoint, and the base is rewritten when the batch's
line would make the log larger than the base. ``--resume PATH``
recovers that state and keeps checkpointing to ``PATH``; the input can
be fed again whole, since the session skips each document before the
recovered clock or already held, and continues the recovered window
grid. Both commands exit 2 when a batch was rejected or the session
degraded.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence

from . import __version__
from .api import StreamSession, open_stream
from .core.labeling import label_clustering
from .corpus.loaders import load_jsonl, save_jsonl
from .corpus.synthetic import SyntheticCorpusConfig, TDT2Generator
from .eval.metrics import evaluate_clustering
from .obs import get_recorder, use_recorder

if TYPE_CHECKING:
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
                         help="resume from a checkpoint written earlier "
                              "(falling back to its .bak generation and "
                              "replaying the batch journal) and keep "
                              "checkpointing to it unless --checkpoint "
                              "names another path; input documents it "
                              "holds or that precede its clock are "
                              "skipped")
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


def _open_session(
    args: argparse.Namespace,
    recorder: Optional["Recorder"],
    announce: bool,
) -> StreamSession:
    """The one session both ingesting commands drive: fresh from the
    pipeline flags, or recovered from ``--resume`` (which implies
    ``--checkpoint`` at the same path unless another is given)."""
    if not args.resume:
        return open_stream(
            k=args.k, seed=args.seed,
            half_life=args.half_life, life_span=args.life_span,
            checkpoint=args.checkpoint, window_days=args.batch_days,
            recorder=recorder,
        )
    session = open_stream(
        resume=args.resume, checkpoint=args.checkpoint,
        window_days=args.batch_days, recorder=recorder,
    )
    if announce:
        recovery = session.recovery
        assert recovery is not None
        stats = session.snapshot().stats()
        print(f"resumed from {args.resume} at snapshot version "
              f"{stats.version}: {stats.active_documents} active "
              f"documents at t={stats.at_time}"
              + (f" (primary checkpoint unreadable; recovered from "
                 f"{recovery.checkpoint_path})"
                 if recovery.used_backup else "")
              + f" (replayed {recovery.replayed_batches} journaled "
              f"batches; checkpoint parameters take precedence over "
              f"--k/--half-life/--life-span/--seed; documents before "
              f"the checkpoint clock or already held are skipped)")
    return session


def _load_sorted(
    path: str, session: StreamSession, recorder: Optional["Recorder"]
) -> List["Document"]:
    """Load ``path`` into the session's vocabulary, in the
    ``(timestamp, doc_id)`` order of :func:`repro.iter_batches`."""
    # an ambient --trace recorder catches the text front-end's span
    # and stemmer-cache gauges
    with use_recorder(recorder if recorder is not None else get_recorder()):
        documents = load_jsonl(path, session.vocabulary)
    documents.sort(key=lambda d: (d.timestamp, d.doc_id))
    return documents


def _exit_status(session: StreamSession) -> int:
    """The exit rule of both commands: 2 once the session rejected a
    batch or degraded, else 0."""
    errors = session.errors
    if not errors:
        return 0
    print(f"{len(errors)} batches rejected (first: {errors[0]})",
          file=sys.stderr)
    return 2


def _run_cluster(
    args: argparse.Namespace, recorder: Optional["Recorder"]
) -> int:
    with _open_session(args, recorder, announce=True) as session:
        documents = _load_sorted(args.input, session, recorder)
        if not documents:
            print("no documents in input", file=sys.stderr)
            return 1
        if not args.quiet:
            clusterer = session.clusterer

            def report(batch: List["Document"], at_time: float) -> None:
                assert clusterer.last_result is not None
                print(f"t={at_time:8.1f}  +{len(batch):5d} docs  "
                      f"{clusterer.last_result.summary()}")

            clusterer.add_commit_hook(report)
        for document in documents:
            session.feed(document)
        snapshot = session.flush()

    print("\nfinal clusters:")
    labels = label_clustering(
        snapshot.view, session.vocabulary, limit=args.top_terms
    )
    for label in sorted(labels, key=lambda l: -l.size):
        print(f"  [{label.size:5d} docs] {label}")
    if snapshot.outliers:
        print(f"  ({len(snapshot.outliers)} outliers)")

    held = set(snapshot.outliers).union(*snapshot.clusters)
    truth = {d.doc_id: d.topic_id for d in documents if d.doc_id in held}
    if any(topic is not None for topic in truth.values()):
        evaluation = evaluate_clustering(snapshot.clusters, truth)
        print(f"\nevaluation vs ground-truth labels: "
              f"micro F1 {evaluation.micro_f1:.2f}, "
              f"macro F1 {evaluation.macro_f1:.2f}, "
              f"{evaluation.n_marked} marked clusters")

    if args.checkpoint or args.resume:
        print(f"\ncheckpoint written to {args.checkpoint or args.resume}")
    return _exit_status(session)


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading
    import time

    if not args.input and args.http is None:
        raise ValueError("serve needs --input and/or --http")
    if args.follow and not args.input:
        raise ValueError("--follow requires --input")

    with _open_session(args, None, announce=not args.quiet) as session:
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
            documents = _load_sorted(args.input, session, None)
            if not documents:
                print("no documents in input", file=sys.stderr)
                return 1
            for document in documents:
                session.feed(document)
            snapshot = session.flush()
            if not args.quiet:
                stats = snapshot.stats()
                print(f"read {len(documents)} documents; snapshot "
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
    if (args.checkpoint or args.resume) and not args.quiet:
        print(f"checkpoint written to {args.checkpoint or args.resume}")
    return _exit_status(session)


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
