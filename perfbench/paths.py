"""Set-up and the two detection paths the workloads time.

Every call into the program goes through a span of the given
:class:`~tracing.Tracer`, so a traced run can split the path by layer.
All knobs are library defaults except the three the benchmark fixes:
the capture length, the number of cross-validation folds and X-Means'
``k_max``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import MaliciousDomainDetector
from repro.core.pipeline import PipelineConfig
from repro.dns.dhcp import DhcpLog, HostIdentityResolver
from repro.dns.logfmt import DnsTraceReader
from repro.dns.types import DnsQuery, DnsResponse
from repro.graphs.bipartite import BipartiteGraph, fold_records_into_graphs
from repro.graphs.core import VertexTable
from repro.ingest import (
    CheckpointedPipeline,
    ChunkedTraceReader,
    ChunkPolicy,
    IngestConfig,
    PipelineCheckpointer,
    pipeline_fingerprint,
)
from repro.labels import IntelligenceFeed, SimulatedVirusTotal
from repro.labels.dataset import LabeledDataset, build_labeled_dataset
from repro.ml.metrics import roc_auc_score
from repro.obs.metrics import default_registry
from repro.serve import ModelBundle, ModelRegistry
from repro.simulation.config import SimulationConfig
from repro.simulation.generator import TraceGenerator
from repro.simulation.groundtruth import GroundTruth

from tracing import Tracer

# The default preset's hosts, catalog and malware over one day instead
# of fourteen. LINE's per-view sample cap is already reached at one day,
# so embedding does the same work as at fourteen, while a run fits its
# time budget (see README.md, "Scale").
CAPTURE_DAYS = 1.0
CV_FOLDS = 10
CLUSTER_K_MAX = 50


def simulate_trace(seed: int, directory: str) -> dict[str, float]:
    """Simulate a capture from ``seed`` and write it under ``directory``.

    Runs in a set-up child process, so the simulator's memory never
    counts toward the detection path's peak RSS.
    """
    started = time.perf_counter()
    config = SimulationConfig(seed=seed, duration_days=CAPTURE_DAYS)
    trace = TraceGenerator(config).generate()
    generated = time.perf_counter()
    trace.save(directory)
    return {
        "generate_s": generated - started,
        "save_s": time.perf_counter() - generated,
        "records": len(trace.queries) + len(trace.responses),
    }


@dataclass(slots=True)
class Detection:
    """What one detection path produced."""

    domains: list[str]
    scores: np.ndarray
    auc: float
    clusters: int
    bundle: ModelBundle
    version: int


def _label_sources(trace_dir: Path):
    truth = GroundTruth.load(trace_dir / "groundtruth.tsv")
    return IntelligenceFeed(truth), SimulatedVirusTotal(truth)


def _cross_validated_auc(
    detector: MaliciousDomainDetector, dataset: LabeledDataset, tracer: Tracer
) -> float:
    with tracer.span("ml.cv", folds=CV_FOLDS):
        scores, __ = detector.cross_validate(dataset, n_splits=CV_FOLDS)
        return float(roc_auc_score(dataset.labels, scores))


def _publish(
    detector: MaliciousDomainDetector, registry_root: Path, tracer: Tracer
) -> tuple[ModelBundle, int]:
    with tracer.span("serve.publish") as attrs:
        bundle = ModelBundle.from_detector(detector)
        registry = ModelRegistry(registry_root)
        version = registry.publish(bundle)
        attrs["bundle_bytes"] = _directory_bytes(registry.slot_path(version))
    return bundle, version


def _directory_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def detect_batch(
    trace_dir: Path, registry_root: Path, tracer: Tracer
) -> Detection:
    """The whole paper path in memory, from ``dns.log`` to a bundle."""
    with tracer.span("detect.batch"):
        with tracer.span("dns.parse") as attrs:
            records = list(DnsTraceReader(trace_dir / "dns.log"))
            queries = [r for r in records if isinstance(r, DnsQuery)]
            responses = [r for r in records if isinstance(r, DnsResponse)]
            dhcp = DhcpLog.load(trace_dir / "dhcp.log")
            feed, virustotal = _label_sources(trace_dir)
            attrs["records"] = len(records)
        del records
        detector = MaliciousDomainDetector()
        with tracer.span("graphs.build_prune") as attrs:
            report = detector.build_graphs(queries, responses, dhcp)
            attrs["domains_before"] = report.domains_before
            attrs["domains_after"] = report.domains_after
        del queries, responses
        with tracer.span("graphs.project") as attrs:
            for view, graph in detector.build_similarity_graphs().items():
                attrs[f"sim_edges.{view.value}"] = graph.edge_count
        samples = default_registry().counter("line.edges_sampled")
        with tracer.span("embedding.train") as attrs:
            before = samples.value
            detector.learn_embeddings()
            attrs["samples"] = samples.value - before
        with tracer.span("labels.build") as attrs:
            dataset = build_labeled_dataset(feed, virustotal, detector.domains)
            attrs["n"] = len(dataset)
        auc = _cross_validated_auc(detector, dataset, tracer)
        with tracer.span("ml.fit") as attrs:
            detector.fit(dataset)
            attrs["support_vectors"] = detector.classifier.support_vector_count
        domains = detector.domains
        with tracer.span("ml.score", domains=len(domains)):
            scores = detector.decision_scores(domains)
        with tracer.span("ml.cluster") as attrs:
            clusters = len(detector.cluster(k_max=CLUSTER_K_MAX))
            attrs["clusters"] = clusters
        bundle, version = _publish(detector, registry_root, tracer)
    return Detection(domains, scores, auc, clusters, bundle, version)


class _TracedCheckpointer(PipelineCheckpointer):
    """The pipeline's checkpointer, with a span around every save."""

    def __init__(self, tracer: Tracer, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tracer = tracer

    def save(self, stage, populate, meta=None, *, complete=True):
        with self._tracer.span("ingest.checkpoint", stage=stage):
            return super().save(stage, populate, meta, complete=complete)


def detect_chunked(
    trace_dir: Path, registry_root: Path, checkpoint_dir: Path, tracer: Tracer
) -> Detection:
    """The same trace through the chunked, checkpointed pipeline."""
    with tracer.span("detect.chunked"):
        with tracer.span("dns.side_logs"):
            dhcp = DhcpLog.load(trace_dir / "dhcp.log")
            feed, virustotal = _label_sources(trace_dir)
        config = PipelineConfig()
        dns_log = trace_dir / "dns.log"
        checkpointer = _TracedCheckpointer(
            tracer,
            checkpoint_dir,
            pipeline_fingerprint(config, {"dns": dns_log.resolve()}),
        )
        datasets: list[LabeledDataset] = []

        def dataset_for(domains: list[str]) -> LabeledDataset:
            with tracer.span("labels.build") as attrs:
                dataset = build_labeled_dataset(feed, virustotal, domains)
                attrs["n"] = len(dataset)
            datasets.append(dataset)
            return dataset

        pipeline = CheckpointedPipeline(
            config, IngestConfig(), checkpointer, dhcp=dhcp
        )
        with tracer.span("ingest.pipeline_run") as attrs:
            outcome = pipeline.run(
                dns_log, dataset_for, cluster_k_max=CLUSTER_K_MAX
            )
            attrs["records"] = outcome.records_ingested
            attrs["checkpoint_bytes"] = checkpointer.total_bytes()
        auc = _cross_validated_auc(outcome.detector, datasets[-1], tracer)
        bundle, version = _publish(outcome.detector, registry_root, tracer)
    return Detection(
        outcome.domains,
        outcome.scores,
        auc,
        len(outcome.clusters or ()),
        bundle,
        version,
    )


def replay_ingest(trace_dir: Path, tracer: Tracer) -> None:
    """Time the reader and the fold the chunked pipeline composes.

    ``CheckpointedPipeline.run`` hides them in one call; replaying them
    on the same input splits its ingest time into reading and folding.
    """
    dhcp = DhcpLog.load(trace_dir / "dhcp.log")
    domains = VertexTable()
    graphs = (
        BipartiteGraph(kind="host", left=domains),
        BipartiteGraph(kind="ip", left=domains),
        BipartiteGraph(kind="time", left=domains),
    )
    identity = HostIdentityResolver(dhcp)
    with tracer.span("ingest.replay") as attrs:
        with ChunkedTraceReader(trace_dir / "dns.log", ChunkPolicy()) as reader:
            batches = iter(reader)
            while True:
                with tracer.span("ingest.read"):
                    batch = next(batches, None)
                if batch is None:
                    break
                with tracer.span("graphs.fold"):
                    fold_records_into_graphs(
                        batch.records, *graphs, identity=identity
                    )
            attrs["chunks"] = reader.chunks_read
        with tracer.span("graphs.fold", compact=True):
            for graph in graphs:
                graph.edges.compact()
