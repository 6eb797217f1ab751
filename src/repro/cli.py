"""Command-line interface.

Six subcommands mirror an operator's workflow:

* ``repro-dns simulate OUTDIR`` — generate a campus capture to disk;
* ``repro-dns stats TRACEDIR`` — Figure-1 traffic statistics;
* ``repro-dns detect TRACEDIR`` — run the full pipeline, print ranked
  domain scores (and write them to a TSV);
* ``repro-dns cluster TRACEDIR`` — mine and annotate domain clusters;
* ``repro-dns describe`` — print the stage graph, each stage's artifact
  inputs/outputs, and (with ``--checkpoint-dir``) restorability;
* ``repro-dns serve MODELDIR`` — online scoring over a published model.

Serving: ``detect`` and ``cluster`` take ``--save-model DIR`` to publish
the trained model into a versioned registry, which ``serve`` then
answers from over HTTP (``POST /v1/score``; see docs/serving.md) —
scoring no longer requires retraining on every invocation.

Run any subcommand with ``-h`` for its options. The entry point is also
callable as ``python -m repro.cli``.

Observability: every subcommand takes ``-v/--verbose`` (repeatable) for
structured logfmt logs on stderr; ``detect`` and ``cluster`` print a
per-stage timing table and accept ``--metrics-out PATH`` to dump the
full metrics snapshot as JSON (see docs/observability.md). Bad input
paths exit with status 2 instead of a traceback.

Parallelism: ``detect`` and ``cluster`` accept ``--workers N``
(``auto``, the default, one per usable CPU; ``0`` serial) and
``--parallel-backend`` to fan LINE training and CV folds out over
workers; results are byte-identical to the serial run for the same
seed (see docs/parallelism.md).

Out-of-core ingestion: ``detect`` and ``cluster`` accept
``--chunk-records`` / ``--chunk-seconds`` to stream the trace in
bounded batches instead of materializing it, ``--checkpoint-dir`` to
persist a resumable checkpoint after every pipeline stage, and
``--resume`` to continue a crashed run from its last complete stage —
with outputs byte-identical to a monolithic cold run (see
docs/ingestion.md).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro import __version__
from repro.analysis.reporting import format_series_table
from repro.analysis.stats import compute_traffic_statistics
from repro.core.clustering import DomainClusterer
from repro.core.dataflow import detection_graph
from repro.core.detector import ClassifierConfig
from repro.ml.svm import DEFAULT_CACHE_MB
from repro.core.pipeline import (
    STAGE_CLUSTER,
    MaliciousDomainDetector,
    PipelineConfig,
)
from repro.core.stages import span_name
from repro.obs.tracing import trace
from repro.dns.dhcp import DhcpLog
from repro.dns.logfmt import DnsTraceReader
from repro.dns.types import DnsQuery, DnsResponse
from repro.embedding.line import LineConfig
from repro.errors import ArtifactIntegrityError
from repro.ingest import (
    CheckpointedPipeline,
    ChunkPolicy,
    ChunkedIngestStage,
    IngestConfig,
    PipelineCheckpointer,
    PipelineOutcome,
    pipeline_fingerprint,
)
from repro.labels import (
    IntelligenceFeed,
    SimulatedThreatBook,
    SimulatedVirusTotal,
    build_labeled_dataset,
)
from repro.obs import configure as configure_logging
from repro.obs import default_registry, get_logger
from repro.parallel import BACKENDS, ParallelConfig
from repro.obs.export import render_timing_table, write_snapshot
from repro.serve import (
    UNKNOWN_POLICIES,
    ModelBundle,
    ModelRegistry,
    ScoringService,
    ServiceConfig,
)
from repro.simulation import SimulationConfig, TraceGenerator
from repro.simulation.groundtruth import GroundTruth

_log = get_logger(__name__)


def _reject_trace_dir(directory: Path) -> str | None:
    """Why ``directory`` can't be read as a trace dir, or ``None`` if OK."""
    if not directory.exists():
        return f"trace directory does not exist: {directory}"
    if not directory.is_dir():
        return f"not a directory: {directory}"
    if not (directory / "dns.log").is_file():
        return f"no dns.log in {directory}"
    return None


def _require_trace_dir(args) -> Path | None:
    """Validated trace directory, or ``None`` after printing an error."""
    directory = Path(args.tracedir)
    error = _reject_trace_dir(directory)
    if error is not None:
        print(f"repro-dns {args.command}: {error}", file=sys.stderr)
        return None
    return directory


def _reject_model_outdir(directory: Path) -> str | None:
    """Why ``directory`` can't receive a model bundle, or ``None``.

    Checked *before* the expensive pipeline run, mirroring the trace-dir
    validation: a typo'd ``--save-model`` path fails in milliseconds
    with exit 2 instead of after minutes of training.
    """
    if directory.exists():
        if not directory.is_dir():
            return f"model output path is not a directory: {directory}"
        if not os.access(directory, os.W_OK):
            return f"model output directory is not writable: {directory}"
        return None
    parent = directory.parent
    if not parent.is_dir():
        return f"parent directory does not exist: {parent}"
    if not os.access(parent, os.W_OK):
        return f"parent directory is not writable: {parent}"
    return None


def _require_model_outdir(args) -> tuple[Path | None, bool]:
    """(validated --save-model dir or None, ok). Prints errors itself."""
    save_model = args.save_model
    if save_model is None:
        return None, True
    directory = Path(save_model)
    error = _reject_model_outdir(directory)
    if error is not None:
        print(f"repro-dns {args.command}: {error}", file=sys.stderr)
        return None, False
    return directory, True


def _publish_model(detector, outdir: Path) -> int:
    """Publish the fitted detector's bundle into the registry at outdir."""
    registry = ModelRegistry(outdir)
    version = registry.publish(ModelBundle.from_detector(detector))
    print(f"published model v{version:04d} to {outdir}")
    return version


def _emit_observability(args) -> None:
    """Print the stage-timing table; write the JSON snapshot if asked."""
    registry = default_registry()
    print("\nstage timings:")
    print(render_timing_table(registry))
    metrics_out = args.metrics_out
    if metrics_out:
        path = write_snapshot(registry, Path(metrics_out))
        print(f"wrote metrics snapshot to {path}", file=sys.stderr)


def _load_trace_dir(directory: Path):
    """Read (queries, responses, dhcp, truth-or-None) from a trace dir."""
    records = list(DnsTraceReader(directory / "dns.log"))
    queries = [r for r in records if isinstance(r, DnsQuery)]
    responses = [r for r in records if isinstance(r, DnsResponse)]
    dhcp_path = directory / "dhcp.log"
    dhcp = DhcpLog.load(dhcp_path) if dhcp_path.exists() else None
    truth_path = directory / "groundtruth.tsv"
    truth = GroundTruth.load(truth_path) if truth_path.exists() else None
    return queries, responses, dhcp, truth


def _parse_workers(value: str) -> int | str:
    """Argparse type for ``--workers``: ``"auto"`` or a non-negative int."""
    if value == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError("workers must be non-negative")
    return workers


_PARALLEL_DEFAULTS = ParallelConfig()


def _pipeline_config(args) -> PipelineConfig:
    return PipelineConfig(
        embedding=LineConfig(dimension=args.dimension, seed=args.seed),
        parallel=ParallelConfig(
            workers=args.workers, backend=args.parallel_backend
        ),
        classifier=ClassifierConfig(kernel_cache_mb=args.svm_cache_mb),
    )


def _build_detector(args, queries, responses, dhcp) -> MaliciousDomainDetector:
    detector = MaliciousDomainDetector(_pipeline_config(args))
    detector.build_graphs(queries, responses, dhcp)
    print(detector.pruning_report.summary(), file=sys.stderr)
    detector.build_similarity_graphs()
    detector.learn_embeddings()
    return detector


def _chunked_requested(args) -> bool:
    """Whether any chunked-ingestion flag engages the out-of-core path."""
    return (
        args.chunk_records is not None
        or args.chunk_seconds is not None
        or args.checkpoint_dir is not None
        or args.resume
    )


def _reject_ingest_args(args) -> str | None:
    """Why the chunked-ingestion flags are inconsistent, or ``None``."""
    if args.resume and not args.checkpoint_dir:
        return "--resume requires --checkpoint-dir"
    chunk_records = args.chunk_records
    if chunk_records is not None and chunk_records < 1:
        return f"--chunk-records must be >= 1, got {chunk_records}"
    chunk_seconds = args.chunk_seconds
    if chunk_seconds is not None and chunk_seconds <= 0:
        return f"--chunk-seconds must be positive, got {chunk_seconds}"
    return None


def _run_chunked_pipeline(
    args,
    directory: Path,
    dhcp,
    dataset_for,
    *,
    cluster_k_max: int | None = None,
    cluster_seed: int = 0,
) -> PipelineOutcome:
    """Run the memory-bounded chunked pipeline for detect / cluster."""
    config = _pipeline_config(args)
    default_policy = ChunkPolicy()
    policy = ChunkPolicy(
        max_records=args.chunk_records
        if args.chunk_records is not None
        else default_policy.max_records,
        max_seconds=args.chunk_seconds,
    )
    dns_log = directory / "dns.log"
    checkpointer = None
    if args.checkpoint_dir is not None:
        fingerprint = pipeline_fingerprint(
            config, {"dns": dns_log.resolve()}
        )
        checkpointer = PipelineCheckpointer(args.checkpoint_dir, fingerprint)
    pipeline = CheckpointedPipeline(
        config, IngestConfig(chunk=policy), checkpointer, dhcp=dhcp
    )
    outcome = pipeline.run(
        dns_log,
        dataset_for,
        resume=args.resume,
        cluster_k_max=cluster_k_max,
        cluster_seed=cluster_seed,
    )
    if outcome.resumed_from is not None:
        print(
            f"resumed from checkpoint stage '{outcome.resumed_from}'",
            file=sys.stderr,
        )
    report = outcome.detector.pruning_report
    if report is not None:
        print(report.summary(), file=sys.stderr)
    return outcome


def cmd_simulate(args) -> int:
    outdir = Path(args.outdir)
    if outdir.exists() and not outdir.is_dir():
        print(
            f"repro-dns simulate: output path is not a directory: {outdir}",
            file=sys.stderr,
        )
        return 2
    if args.scale == "tiny":
        config = SimulationConfig.tiny(seed=args.seed)
    elif args.scale == "paper":
        config = SimulationConfig.paper_scale(seed=args.seed)
    else:
        config = SimulationConfig(seed=args.seed)
    if args.days is not None:
        config.duration_days = args.days
    trace = TraceGenerator(config).generate()
    trace.save(outdir)
    print(trace.metadata.description)
    print(f"wrote dns.log / dhcp.log / groundtruth.tsv under {outdir}")
    return 0


def cmd_stats(args) -> int:
    directory = _require_trace_dir(args)
    if directory is None:
        return 2
    queries, __, __, __ = _load_trace_dir(directory)
    stats = compute_traffic_statistics(queries, bin_seconds=args.bin_seconds)
    print(
        format_series_table(
            ["metric", "value"],
            [
                ["total queries", stats.total_queries],
                ["unique FQDNs", stats.total_unique_fqdns],
                ["unique e2LDs", stats.total_unique_e2lds],
                ["bins", stats.bin_count],
                ["peak bin volume", int(stats.query_volume.max())],
            ],
        )
    )
    if args.profile:
        profile = stats.daily_profile()
        print("\nhour-of-day profile (mean queries per hour):")
        for hour, value in enumerate(profile):
            bar = "#" * int(50 * value / max(profile.max(), 1e-9))
            print(f"  {hour:02d}:00 {value:10.1f} {bar}")
    return 0


def cmd_detect(args) -> int:
    directory = _require_trace_dir(args)
    if directory is None:
        return 2
    model_outdir, outdir_ok = _require_model_outdir(args)
    if not outdir_ok:
        return 2
    ingest_error = _reject_ingest_args(args)
    if ingest_error is not None:
        print(f"repro-dns detect: {ingest_error}", file=sys.stderr)
        return 2
    if _chunked_requested(args):
        dhcp_path = directory / "dhcp.log"
        dhcp = DhcpLog.load(dhcp_path) if dhcp_path.exists() else None
        truth_path = directory / "groundtruth.tsv"
        truth = GroundTruth.load(truth_path) if truth_path.exists() else None
        if truth is None:
            print(
                "detect requires groundtruth.tsv for the simulated label "
                "feeds",
                file=sys.stderr,
            )
            return 2
        feed = IntelligenceFeed(truth)
        virustotal = SimulatedVirusTotal(truth)
        outcome = _run_chunked_pipeline(
            args,
            directory,
            dhcp,
            lambda ds: build_labeled_dataset(feed, virustotal, ds),
        )
        detector = outcome.detector
        domains = outcome.domains
        scores = outcome.scores
    else:
        queries, responses, dhcp, truth = _load_trace_dir(directory)
        if truth is None:
            print(
                "detect requires groundtruth.tsv for the simulated label "
                "feeds",
                file=sys.stderr,
            )
            return 2
        detector = _build_detector(args, queries, responses, dhcp)
        feed = IntelligenceFeed(truth)
        virustotal = SimulatedVirusTotal(truth)
        dataset = build_labeled_dataset(feed, virustotal, detector.domains)
        detector.fit(dataset)
        domains = detector.domains
        scores = detector.decision_scores(domains)

    order = np.argsort(-scores)
    out_path = directory / "scores.tsv"
    with open(out_path, "w", encoding="utf-8") as stream:
        for index in order:
            stream.write(f"{domains[int(index)]}\t{scores[index]:.6f}\n")
    print(f"wrote {len(scores)} scored domains to {out_path}")
    print("\ntop suspects:")
    for index in order[: args.top]:
        print(f"  {scores[index]:+8.3f}  {domains[int(index)]}")
    if model_outdir is not None:
        _publish_model(detector, model_outdir)
    _emit_observability(args)
    return 0


def cmd_cluster(args) -> int:
    directory = _require_trace_dir(args)
    if directory is None:
        return 2
    model_outdir, outdir_ok = _require_model_outdir(args)
    if not outdir_ok:
        return 2
    ingest_error = _reject_ingest_args(args)
    if ingest_error is not None:
        print(f"repro-dns cluster: {ingest_error}", file=sys.stderr)
        return 2
    if _chunked_requested(args):
        dhcp_path = directory / "dhcp.log"
        dhcp = DhcpLog.load(dhcp_path) if dhcp_path.exists() else None
        truth_path = directory / "groundtruth.tsv"
        truth = GroundTruth.load(truth_path) if truth_path.exists() else None
        if model_outdir is not None and truth is None:
            print(
                "repro-dns cluster: --save-model requires groundtruth.tsv "
                "to train the classifier",
                file=sys.stderr,
            )
            return 2
        dataset_for = None
        if truth is not None:
            feed = IntelligenceFeed(truth)
            virustotal = SimulatedVirusTotal(truth)
            dataset_for = lambda ds: build_labeled_dataset(  # noqa: E731
                feed, virustotal, ds
            )
        outcome = _run_chunked_pipeline(
            args,
            directory,
            dhcp,
            dataset_for,
            cluster_k_max=args.k_max,
            cluster_seed=args.seed,
        )
        detector = outcome.detector
        clusters = outcome.clusters or []
        print(f"{len(clusters)} clusters")
        if truth is not None:
            threatbook = SimulatedThreatBook(truth)
            for cluster in clusters:
                category, share = threatbook.dominant_category(
                    cluster.domains
                )
                if category == "unknown":
                    continue
                members = cluster.domains
                print(
                    f"  cluster {cluster.cluster_id:3d}: {len(members):5d} "
                    f"domains, {share:.0%} "
                    f"{category}: {', '.join(members[:3])}..."
                )
        else:
            for cluster in clusters:
                print(
                    f"  cluster {cluster.cluster_id:3d}: {len(cluster):5d} "
                    f"domains: {', '.join(cluster.domains[:3])}..."
                )
        if model_outdir is not None and truth is not None:
            _publish_model(detector, model_outdir)
        _emit_observability(args)
        return 0
    queries, responses, dhcp, truth = _load_trace_dir(directory)
    if model_outdir is not None and truth is None:
        print(
            "repro-dns cluster: --save-model requires groundtruth.tsv "
            "to train the classifier",
            file=sys.stderr,
        )
        return 2
    detector = _build_detector(args, queries, responses, dhcp)
    clusterer = DomainClusterer(k_min=4, k_max=args.k_max, seed=args.seed)
    with trace(span_name(STAGE_CLUSTER)):
        clusters = clusterer.fit(
            detector.domains, detector.features_for(detector.domains)
        )
    print(f"{len(clusters)} clusters")
    if truth is not None:
        threatbook = SimulatedThreatBook(truth)
        for report in clusterer.annotate(threatbook):
            if report.dominant_category == "unknown":
                continue
            members = report.cluster.domains
            print(
                f"  cluster {report.cluster.cluster_id:3d}: {len(members):5d} "
                f"domains, {report.category_share:.0%} "
                f"{report.dominant_category}: {', '.join(members[:3])}..."
            )
    else:
        for cluster in clusters:
            print(
                f"  cluster {cluster.cluster_id:3d}: {len(cluster):5d} domains: "
                f"{', '.join(cluster.domains[:3])}..."
            )
    if model_outdir is not None and truth is not None:
        feed = IntelligenceFeed(truth)
        virustotal = SimulatedVirusTotal(truth)
        detector.fit(build_labeled_dataset(feed, virustotal, detector.domains))
        _publish_model(detector, model_outdir)
    _emit_observability(args)
    return 0


def cmd_describe(args) -> int:
    """Print the detection stage graph and checkpoint restorability."""
    # A representative full graph: the chunked source plus every
    # optional stage, so the whole dataflow is visible. Nothing runs —
    # describe() is a static summary of the validated DAG.
    graph = detection_graph(
        PipelineConfig(),
        source=ChunkedIngestStage("dns.log", ChunkPolicy()),
        dataset_for=None,
        score_all=True,
        cluster_k_max=60,
    )
    checkpointer = (
        PipelineCheckpointer(args.checkpoint_dir)
        if args.checkpoint_dir is not None
        else None
    )
    print("detection pipeline stages (execution order):")
    for position, info in enumerate(graph.describe()):
        print(f"\n  {position:02d} {info.name}  [span {span_name(info.name)}]")
        print(f"     inputs:  {', '.join(info.inputs) or '(trace records)'}")
        print(f"     outputs: {', '.join(info.outputs)}")
        notes = []
        if not info.checkpointed:
            notes.append("not checkpointed")
        if info.supersedes:
            notes.append(f"supersedes {', '.join(info.supersedes)}")
        if notes:
            print(f"     notes:   {'; '.join(notes)}")
        if checkpointer is None:
            continue
        manifest = checkpointer.peek(info.name)
        if manifest is None:
            status = "none"
        elif manifest.complete:
            status = "restorable (complete)"
        else:
            cursor = manifest.meta.get("cursor")
            status = f"restorable (partial, cursor={cursor})"
        print(f"     checkpoint: {status}")
    if args.checkpoint_dir is not None and checkpointer is not None:
        latest = None
        for info in graph.describe():
            if checkpointer.peek(info.name) is not None:
                latest = info.name
        print(
            f"\ncheckpoints under {args.checkpoint_dir}: "
            + (f"latest stage is '{latest}'" if latest else "none found")
        )
    return 0


def cmd_serve(args) -> int:
    root = Path(args.model)
    if not root.exists():
        print(
            f"repro-dns serve: model directory does not exist: {root}",
            file=sys.stderr,
        )
        return 2
    if not root.is_dir():
        print(
            f"repro-dns serve: model path is not a directory: {root}",
            file=sys.stderr,
        )
        return 2
    registry = ModelRegistry(root)
    if registry.latest_version() is None:
        print(
            f"repro-dns serve: no published model versions under {root} "
            "(create one with detect --save-model)",
            file=sys.stderr,
        )
        return 2
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        unknown_policy=args.unknown_policy,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        batch_window_seconds=args.batch_window_ms / 1000.0,
        deadline_seconds=args.deadline_ms / 1000.0,
    )
    try:
        config.validate()
    except ValueError as error:
        print(f"repro-dns serve: {error}", file=sys.stderr)
        return 2
    service = ScoringService(registry, config)
    host, port = service.start()
    print(
        f"serving model v{service.active_version:04d} "
        f"on http://{host}:{port}"
    )
    print(
        "endpoints: POST /v1/score, POST /admin/reload, "
        "GET /healthz /readyz /metrics (Ctrl-C to stop)"
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        service.stop()
    return 0


def _pipeline_parent() -> argparse.ArgumentParser:
    """Pipeline flags shared by detect and cluster, declared once."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--dimension", type=int, default=16)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--workers", type=_parse_workers,
                        default=_PARALLEL_DEFAULTS.workers, metavar="N",
                        help="LINE and CV workers: 'auto' (default) one "
                        "per usable CPU, 0 serial, or a count")
    parser.add_argument("--parallel-backend", choices=list(BACKENDS),
                        default=_PARALLEL_DEFAULTS.backend,
                        help="worker backend when --workers > 1")
    parser.add_argument("--svm-cache-mb", type=float,
                        default=DEFAULT_CACHE_MB, dest="svm_cache_mb",
                        metavar="MB",
                        help="kernel row-cache budget for the SMO solver "
                        "(MiB, default %(default)s)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write a JSON metrics snapshot to PATH")
    parser.add_argument("--save-model", metavar="DIR", default=None,
                        dest="save_model",
                        help="publish the trained model as a new version "
                        "in registry DIR (servable with 'serve'; requires "
                        "groundtruth.tsv)")
    # Chunked ingestion / checkpointing.
    parser.add_argument("--chunk-records", type=int, default=None,
                        metavar="N",
                        help="ingest the trace in bounded chunks of at most "
                        "N records (memory stays bounded by the chunk size) "
                        "instead of one in-memory pass; outputs are "
                        "byte-identical either way")
    parser.add_argument("--chunk-seconds", type=float, default=None,
                        metavar="S",
                        help="additionally bound each chunk to S seconds of "
                        "trace time")
    parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                        dest="checkpoint_dir",
                        help="persist a resumable checkpoint after each "
                        "pipeline stage under DIR")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the last complete checkpoint in "
                        "--checkpoint-dir (torn or mismatched checkpoints "
                        "are rejected)")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dns",
        description="Malicious-domain detection via behavioral modeling "
        "and graph embedding (ICDCS 2019 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="structured logs on stderr (-v info, -vv debug)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
                           help="generate a campus DNS capture")
    p_sim.add_argument("outdir")
    p_sim.add_argument("--scale", choices=["tiny", "default", "paper"],
                       default="tiny")
    p_sim.add_argument("--seed", type=int, default=7)
    p_sim.add_argument("--days", type=float, default=None)
    p_sim.set_defaults(handler=cmd_simulate)

    p_stats = sub.add_parser("stats", parents=[common],
                             help="Figure-1 traffic statistics")
    p_stats.add_argument("tracedir")
    p_stats.add_argument("--bin-seconds", type=float, default=3600.0)
    p_stats.add_argument("--profile", action="store_true",
                         help="print the hour-of-day profile")
    p_stats.set_defaults(handler=cmd_stats)

    pipeline = _pipeline_parent()
    p_detect = sub.add_parser("detect", parents=[common, pipeline],
                              help="score domains in a capture")
    p_detect.add_argument("tracedir")
    p_detect.add_argument("--top", type=int, default=15)
    p_detect.set_defaults(handler=cmd_detect)

    p_cluster = sub.add_parser("cluster", parents=[common, pipeline],
                               help="mine domain clusters")
    p_cluster.add_argument("tracedir")
    p_cluster.add_argument("--k-max", type=int, default=50)
    p_cluster.set_defaults(handler=cmd_cluster)

    p_describe = sub.add_parser("describe", parents=[common],
                                help="print the pipeline stage graph")
    p_describe.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                            dest="checkpoint_dir",
                            help="also report which stages are restorable "
                            "from the checkpoints under DIR")
    p_describe.set_defaults(handler=cmd_describe)

    p_serve = sub.add_parser("serve", parents=[common],
                             help="online scoring over a published model")
    p_serve.add_argument("model",
                         help="model registry directory (from --save-model)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8053,
                         help="bind port (0 for an ephemeral one)")
    p_serve.add_argument("--cache-size", type=int, default=4096,
                         help="verdict LRU cache size (0 disables)")
    p_serve.add_argument("--unknown-policy", choices=list(UNKNOWN_POLICIES),
                         default="zero", dest="unknown_policy",
                         help="unknown domains: score the zero 'no "
                         "evidence' vector, or reject without a score")
    p_serve.add_argument("--max-inflight", type=int, default=8,
                         dest="max_inflight", metavar="N",
                         help="scoring requests allowed to execute "
                         "concurrently (default 8)")
    p_serve.add_argument("--queue-depth", type=int, default=32,
                         dest="queue_depth", metavar="N",
                         help="requests allowed to wait for a slot before "
                         "excess load is shed with 429 (default 32)")
    p_serve.add_argument("--batch-window-ms", type=float, default=0.0,
                         dest="batch_window_ms", metavar="MS",
                         help="coalesce concurrent requests arriving within "
                         "MS milliseconds into one vectorized scoring call "
                         "(0 disables micro-batching; default 0)")
    p_serve.add_argument("--deadline-ms", type=float, default=5000.0,
                         dest="deadline_ms", metavar="MS",
                         help="per-request budget; requests not served "
                         "within it get 503 (default 5000)")
    p_serve.set_defaults(handler=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose)
    # Each invocation reports its own run: the timing table and
    # --metrics-out snapshot cover exactly this command.
    default_registry().reset()
    _log.debug("command_started", command=args.command)
    try:
        return args.handler(args)
    except ArtifactIntegrityError as error:
        # A torn or tampered bundle or checkpoint is bad input, not a
        # crash: one line on stderr, like a missing trace directory.
        print(f"repro-dns {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
