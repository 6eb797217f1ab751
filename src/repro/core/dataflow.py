"""The paper's detection dataflow as stage objects over the engine.

This module instantiates :mod:`repro.core.stages` for the actual system
(paper section 3, Figure 2): canonical stage names, the typed artifact
keys every execution path shares, and one :class:`Stage` subclass per
pipeline step::

    ingest   -> graphs.raw          (batch source; chunked source lives
                                     in repro.ingest.runner)
    prune    -> graphs.pruned, domains.order, pruning.report
    project  -> similarity.graphs
    embed    -> features.space
    classify -> classifier.model (+ scores.* when scoring all domains)
    cluster  -> clusters

:func:`detection_graph` assembles them into a validated
:class:`~repro.core.stages.StageGraph`; the batch facade
(:class:`~repro.core.pipeline.MaliciousDomainDetector`), the streaming
refresh, and the checkpointed runner all execute this one graph under
different policies. Each stage's ``save_artifacts`` /
``load_artifacts`` hooks reproduce the pre-engine checkpoint layout
byte for byte, so existing checkpoint directories stay valid.

:func:`pipeline_fingerprint` lives here too: it hashes exactly the
result-affecting configuration, and both checkpointing and serving bind
artifacts to it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.clustering import DomainCluster, DomainClusterer
from repro.core.detector import ClassifierConfig, MaliciousDomainClassifier
from repro.core.features import FeatureSpace, FeatureView
from repro.core.persistence import (
    load_bipartite_graph,
    load_classifier,
    load_feature_space,
    load_similarity_graph,
    save_bipartite_graph,
    save_classifier,
    save_feature_space,
    save_similarity_graph,
)
from repro.core.stages import (
    ArtifactKey,
    ArtifactStore,
    CheckpointManifest,
    ExecutionContext,
    Stage,
    StageGraph,
)
from repro.dns.dhcp import DhcpLog, HostIdentityResolver
from repro.dns.types import DnsQuery, DnsResponse
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import ArtifactIntegrityError
from repro.graphs.bipartite import (
    BipartiteGraph,
    build_domain_ip_graph,
    build_query_graphs,
)
from repro.graphs.core import VertexTable
from repro.graphs.projection import SimilarityGraph, project_to_similarity
from repro.graphs.pruning import PruningReport, PruningRules, prune_graphs
from repro.labels.dataset import LabeledDataset
from repro.obs.logging import get_logger
from repro.parallel.executor import ParallelConfig
from repro.parallel.train import train_views

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.pipeline import PipelineConfig

__all__ = [
    "CHECKPOINT_STAGES",
    "PIPELINE_STAGES",
    "STAGE_CLASSIFY",
    "STAGE_CLUSTER",
    "STAGE_EMBED",
    "STAGE_INGEST",
    "STAGE_PROJECT",
    "STAGE_PRUNE",
    "CLASSIFIER",
    "CLUSTERS",
    "DECISION_SCORES",
    "DOMAIN_ORDER",
    "FEATURE_SPACE",
    "GRAPH_FILES",
    "INGEST_CURSOR",
    "PRUNED_GRAPHS",
    "PRUNING_REPORT",
    "RAW_GRAPHS",
    "RECORDS_INGESTED",
    "SCORED_DOMAINS",
    "SIMILARITY_GRAPHS",
    "VERDICTS",
    "BatchGraphStage",
    "ClassifyStage",
    "ClusterStage",
    "EmbedStage",
    "GraphTriple",
    "ProjectStage",
    "PruneStage",
    "detection_graph",
    "detection_stages",
    "line_config_for",
    "load_shared_graphs",
    "pipeline_fingerprint",
    "write_graph_files",
]

_log = get_logger(__name__)

# -- canonical stage names ------------------------------------------------
#
# One vocabulary for spans, metrics, checkpoints, and the CLI: a stage
# named "prune" traces as pipeline.prune, reports
# stage.pipeline.prune.seconds, and checkpoints under 01-prune/.

STAGE_INGEST = "ingest"
STAGE_PRUNE = "prune"
STAGE_PROJECT = "project"
STAGE_EMBED = "embed"
STAGE_CLASSIFY = "classify"
STAGE_CLUSTER = "cluster"

#: Every pipeline stage, in execution order.
PIPELINE_STAGES: tuple[str, ...] = (
    STAGE_INGEST,
    STAGE_PRUNE,
    STAGE_PROJECT,
    STAGE_EMBED,
    STAGE_CLASSIFY,
    STAGE_CLUSTER,
)

#: Checkpointable stages (all of them); kept as a distinct name because
#: the checkpoint layer re-exports it and indexes directories by it.
CHECKPOINT_STAGES: tuple[str, ...] = PIPELINE_STAGES

# -- artifact keys --------------------------------------------------------

#: The three bipartite graphs (HDBG, DIBG, DTBG) over one shared
#: domain interner, in that order.
GraphTriple = tuple[BipartiteGraph, BipartiteGraph, BipartiteGraph]

RAW_GRAPHS: ArtifactKey[GraphTriple] = ArtifactKey("graphs.raw")
RECORDS_INGESTED: ArtifactKey[int] = ArtifactKey("ingest.records")
INGEST_CURSOR: ArtifactKey[int] = ArtifactKey("ingest.cursor")
PRUNED_GRAPHS: ArtifactKey[GraphTriple] = ArtifactKey("graphs.pruned")
DOMAIN_ORDER: ArtifactKey[list[str]] = ArtifactKey("domains.order")
PRUNING_REPORT: ArtifactKey[PruningReport] = ArtifactKey("pruning.report")
SIMILARITY_GRAPHS: ArtifactKey[dict[FeatureView, SimilarityGraph]] = (
    ArtifactKey("similarity.graphs")
)
FEATURE_SPACE: ArtifactKey[FeatureSpace] = ArtifactKey("features.space")
CLASSIFIER: ArtifactKey[MaliciousDomainClassifier] = ArtifactKey(
    "classifier.model"
)
SCORED_DOMAINS: ArtifactKey[list[str]] = ArtifactKey("scores.domains")
DECISION_SCORES: ArtifactKey[np.ndarray] = ArtifactKey("scores.decision")
VERDICTS: ArtifactKey[np.ndarray] = ArtifactKey("scores.verdicts")
CLUSTERS: ArtifactKey[list[DomainCluster]] = ArtifactKey("clusters")

#: On-disk names of the graph-triple artifacts inside a checkpoint.
GRAPH_FILES: tuple[str, str, str] = (
    "host_domain.npz",
    "domain_ip.npz",
    "domain_time.npz",
)

_VIEWS = (FeatureView.QUERY, FeatureView.IP, FeatureView.TEMPORAL)

# Derived, not shared: each view trains from its own seed offset so the
# three views are independent tasks (serial or parallel).
_VIEW_SEED_OFFSETS = {
    FeatureView.QUERY: 0,
    FeatureView.IP: 1,
    FeatureView.TEMPORAL: 2,
}


def line_config_for(base: LineConfig, view: FeatureView) -> LineConfig:
    """Per-view LINE hyperparameters derived from the shared template."""
    return replace(base, seed=base.seed + _VIEW_SEED_OFFSETS[view])


def pipeline_fingerprint(
    config: "PipelineConfig", sources: Mapping[str, object]
) -> str:
    """Hash binding artifacts to one pipeline config + trace source.

    Only result-affecting knobs participate: parallelism settings are
    excluded (embeddings are byte-identical across backends), chunk
    bounds are excluded (chunking never changes outputs). ``sources``
    should identify the input trace (e.g. path and size), so a
    checkpoint directory is never resumed against the wrong capture.
    """
    payload = {
        "time_window_seconds": config.time_window_seconds,
        "pruning": asdict(config.pruning),
        # LineConfig once carried a "kernel" selector that was always
        # "segment" on this path; hashing it keeps existing checkpoints
        # and bundles bound to the same fingerprint.
        "embedding": {**asdict(config.embedding), "kernel": "segment"},
        "min_similarity": config.min_similarity,
        "views": [view.value for view in config.views],
        "sources": {str(k): str(v) for k, v in sorted(sources.items())},
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _refuse_other_settings(
    directory: Path, saved: Mapping[str, object], wanted: Mapping[str, object]
) -> None:
    """Refuse a checkpoint whose stage settings, which
    :func:`pipeline_fingerprint` leaves out, differ from this run's."""
    if saved != wanted:
        raise ArtifactIntegrityError(
            f"checkpoint under {directory} was written with {saved}, not "
            f"{wanted}; refusing to resume from it"
        )


# -- shared graph persistence helpers -------------------------------------


def write_graph_files(staging: Path, graphs: GraphTriple) -> None:
    """Write the graph triple into ``staging`` under the canonical names."""
    for graph, name in zip(graphs, GRAPH_FILES):
        save_bipartite_graph(graph, staging / name)


def load_shared_graphs(directory: Path) -> GraphTriple:
    """Load the three bipartite graphs, re-linking one shared left table.

    The graphs were built over a single domain interner; persistence
    writes each graph's (identical) copy of it, so the loader restores
    one authoritative table and rebinds the other two graphs to it —
    ``fold_records_into_graphs`` requires that identity on resume.
    """
    host, ip_graph, time_graph = (
        load_bipartite_graph(directory / name) for name in GRAPH_FILES
    )
    shared = host.left
    for other in (ip_graph, time_graph):
        if len(other.left) != len(shared):
            raise ArtifactIntegrityError(
                f"checkpointed graphs under {directory} disagree on the "
                "shared domain table"
            )
    ip_graph = BipartiteGraph(
        kind=ip_graph.kind,
        left=shared,
        right=ip_graph.right,
        edges=ip_graph.edges,
    )
    time_graph = BipartiteGraph(
        kind=time_graph.kind,
        left=shared,
        right=time_graph.right,
        edges=time_graph.edges,
    )
    return host, ip_graph, time_graph


# -- stages ---------------------------------------------------------------


class BatchGraphStage(Stage[None, GraphTriple]):
    """In-memory graph construction from materialized record lists.

    The batch source: one pass over the queries builds HDBG + DTBG over
    a shared domain interner, one pass over the responses builds DIBG.
    Not checkpointed — the out-of-core source
    (:class:`repro.ingest.runner.ChunkedIngestStage`) owns persistence.
    """

    name = STAGE_INGEST
    outputs = (RAW_GRAPHS, RECORDS_INGESTED)
    checkpointed = False

    def __init__(
        self,
        queries: Iterable[DnsQuery],
        responses: Iterable[DnsResponse],
        dhcp: DhcpLog | None = None,
        *,
        window_seconds: float = 60.0,
    ) -> None:
        self.queries = queries
        self.responses = responses
        self.dhcp = dhcp
        self.window_seconds = window_seconds

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        identity = (
            HostIdentityResolver(self.dhcp) if self.dhcp is not None else None
        )
        queries = list(self.queries)
        # One shared domain interner across all three views: ids (and
        # therefore every downstream ordering) agree without re-sorting,
        # and HDBG + DTBG come from a single pass.
        domains = VertexTable()
        host_domain, domain_time = build_query_graphs(
            queries,
            identity,
            window_seconds=self.window_seconds,
            domains=domains,
        )
        domain_ip = build_domain_ip_graph(self.responses, domains=domains)
        store.put(RAW_GRAPHS, (host_domain, domain_ip, domain_time))
        store.put(RECORDS_INGESTED, len(queries))


class PruneStage(Stage[GraphTriple, GraphTriple]):
    """Drop over-popular and single-host domains (paper section 4.2).

    A complete pruned checkpoint supersedes the (much larger) raw ingest
    graphs, which are never needed downstream — so resume skips loading
    them entirely.
    """

    name = STAGE_PRUNE
    inputs = (RAW_GRAPHS,)
    outputs = (PRUNED_GRAPHS, DOMAIN_ORDER, PRUNING_REPORT)
    supersedes = (STAGE_INGEST,)

    def __init__(self, rules: PruningRules) -> None:
        self.rules = rules

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        host_domain, domain_ip, domain_time = store.get(RAW_GRAPHS)
        pruned_host, pruned_ip, pruned_time, report = prune_graphs(
            host_domain, domain_ip, domain_time, self.rules
        )
        store.put(PRUNED_GRAPHS, (pruned_host, pruned_ip, pruned_time))
        store.put(PRUNING_REPORT, report)
        store.put(DOMAIN_ORDER, sorted(report.surviving_domains))

    def save_artifacts(
        self, staging: Path, store: ArtifactStore
    ) -> dict[str, object]:
        write_graph_files(staging, store.get(PRUNED_GRAPHS))
        report = store.get(PRUNING_REPORT)
        np.savez_compressed(
            staging / "domains.npz",
            surviving=np.array(store.get(DOMAIN_ORDER), dtype=np.str_),
            dropped_popular=np.array(report.dropped_popular, dtype=np.str_),
            dropped_single_host=np.array(
                report.dropped_single_host, dtype=np.str_
            ),
        )
        return {
            "records_ingested": store.maybe(RECORDS_INGESTED) or 0,
            "total_hosts": report.total_hosts,
            "domains_before": report.domains_before,
        }

    def load_artifacts(
        self,
        directory: Path,
        manifest: CheckpointManifest,
        store: ArtifactStore,
    ) -> None:
        graphs = load_shared_graphs(directory)
        with np.load(directory / "domains.npz") as archive:
            order = [str(d) for d in archive["surviving"]]
            report = PruningReport(
                total_hosts=int(manifest.meta["total_hosts"]),
                domains_before=int(manifest.meta["domains_before"]),
                dropped_popular=[str(d) for d in archive["dropped_popular"]],
                dropped_single_host=[
                    str(d) for d in archive["dropped_single_host"]
                ],
                surviving_domains=set(order),
            )
        store.put(PRUNED_GRAPHS, graphs)
        store.put(DOMAIN_ORDER, order)
        store.put(PRUNING_REPORT, report)
        store.put(
            RECORDS_INGESTED, int(manifest.meta.get("records_ingested", 0))
        )


class ProjectStage(
    Stage[GraphTriple, "dict[FeatureView, SimilarityGraph]"]
):
    """One-mode Jaccard projection of each bipartite view (section 5.1)."""

    name = STAGE_PROJECT
    inputs = (PRUNED_GRAPHS, DOMAIN_ORDER)
    outputs = (SIMILARITY_GRAPHS,)

    def __init__(self, min_similarity: float) -> None:
        self.min_similarity = min_similarity

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        host_domain, domain_ip, domain_time = store.get(PRUNED_GRAPHS)
        order = store.get(DOMAIN_ORDER)
        threshold = self.min_similarity
        similarity = {
            FeatureView.QUERY: project_to_similarity(
                host_domain, order, threshold
            ),
            FeatureView.IP: project_to_similarity(
                domain_ip, order, threshold
            ),
            FeatureView.TEMPORAL: project_to_similarity(
                domain_time, order, threshold
            ),
        }
        store.put(SIMILARITY_GRAPHS, similarity)
        _log.debug(
            "projections_built",
            domains=len(order),
            edges=sum(g.edge_count for g in similarity.values()),
        )

    def save_artifacts(
        self, staging: Path, store: ArtifactStore
    ) -> dict[str, object]:
        for view, graph in store.get(SIMILARITY_GRAPHS).items():
            save_similarity_graph(graph, staging / f"{view.value}.npz")
        return {"domains": len(store.get(DOMAIN_ORDER))}

    def load_artifacts(
        self,
        directory: Path,
        manifest: CheckpointManifest,
        store: ArtifactStore,
    ) -> None:
        similarity = {
            view: load_similarity_graph(directory / f"{view.value}.npz")
            for view in _VIEWS
        }
        store.put(SIMILARITY_GRAPHS, similarity)
        if not store.has(DOMAIN_ORDER) and similarity:
            any_graph = next(iter(similarity.values()))
            store.put(DOMAIN_ORDER, list(any_graph.domains))


class EmbedStage(
    Stage["dict[FeatureView, SimilarityGraph]", FeatureSpace]
):
    """Train LINE per view and assemble the feature space (section 5.2).

    The per-view trainings (and, for ``order="both"``, the per-order
    halves) run under the parallel policy — over process workers by
    default, serially where the policy falls back. The resulting
    vectors are byte-identical either way.
    """

    name = STAGE_EMBED
    inputs = (SIMILARITY_GRAPHS,)
    outputs = (FEATURE_SPACE,)

    def __init__(self, embedding: LineConfig, parallel: ParallelConfig) -> None:
        self.embedding = embedding
        self.parallel = parallel

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        similarity = store.get(SIMILARITY_GRAPHS)
        trained = train_views(
            [
                (view.value, graph, line_config_for(self.embedding, view))
                for view, graph in similarity.items()
            ],
            self.parallel,
            progress=ctx.progress,
        )
        embeddings: dict[FeatureView, LineEmbedding] = {
            view: trained[view.value] for view in similarity
        }
        store.put(
            FEATURE_SPACE,
            FeatureSpace(
                query=embeddings[FeatureView.QUERY],
                ip=embeddings[FeatureView.IP],
                temporal=embeddings[FeatureView.TEMPORAL],
            ),
        )

    def save_artifacts(
        self, staging: Path, store: ArtifactStore
    ) -> dict[str, object]:
        space = store.get(FEATURE_SPACE)
        save_feature_space(space, staging)
        return {"dimension": int(space.query.vectors.shape[1])}

    def load_artifacts(
        self,
        directory: Path,
        manifest: CheckpointManifest,
        store: ArtifactStore,
    ) -> None:
        space = load_feature_space(directory)
        store.put(FEATURE_SPACE, space)
        if not store.has(DOMAIN_ORDER):
            store.put(DOMAIN_ORDER, list(space.query.domains))


class ClassifyStage(Stage[FeatureSpace, MaliciousDomainClassifier]):
    """Fit the paper's SVM on labeled domains (section 6.2).

    Inactive when no labeled dataset is supplied (cluster-only runs).
    With ``score_all`` the stage also scores every surviving domain —
    the checkpointed runner persists those scores so a resumed run
    answers without re-deriving features.
    """

    name = STAGE_CLASSIFY
    inputs = (DOMAIN_ORDER, FEATURE_SPACE)
    outputs = (CLASSIFIER,)

    def __init__(
        self,
        views: Sequence[FeatureView],
        dataset_for: Callable[[list[str]], LabeledDataset] | None,
        *,
        score_all: bool = False,
        classifier: ClassifierConfig | None = None,
    ) -> None:
        self.views = tuple(views)
        self.dataset_for = dataset_for
        self.score_all = score_all
        self.classifier = classifier if classifier is not None else ClassifierConfig()
        if score_all:
            self.outputs = (
                CLASSIFIER,
                SCORED_DOMAINS,
                DECISION_SCORES,
                VERDICTS,
            )

    def active(self, store: ArtifactStore) -> bool:
        return self.dataset_for is not None

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        assert self.dataset_for is not None
        order = list(store.get(DOMAIN_ORDER))
        dataset = self.dataset_for(order)
        space = store.get(FEATURE_SPACE)
        features = space.matrix(dataset.domains, self.views)
        classifier = self.classifier.build().fit(features, dataset.labels)
        store.put(CLASSIFIER, classifier)
        _log.info(
            "classifier_fitted",
            samples=len(dataset.domains),
            support_vectors=classifier.support_vector_count,
        )
        if self.score_all:
            matrix = space.matrix(order, self.views)
            store.put(SCORED_DOMAINS, order)
            store.put(DECISION_SCORES, classifier.decision_function(matrix))
            store.put(VERDICTS, classifier.predict(matrix))

    def save_artifacts(
        self, staging: Path, store: ArtifactStore
    ) -> dict[str, object]:
        save_classifier(store.get(CLASSIFIER), staging / "classifier.npz")
        domains = store.get(SCORED_DOMAINS)
        np.savez_compressed(
            staging / "scores.npz",
            domains=np.array(domains, dtype=np.str_),
            scores=store.get(DECISION_SCORES),
            verdicts=store.get(VERDICTS),
        )
        return {
            "domains": len(domains),
            "kernel_cache_mb": self.classifier.kernel_cache_mb,
        }

    def load_artifacts(
        self,
        directory: Path,
        manifest: CheckpointManifest,
        store: ArtifactStore,
    ) -> None:
        classifier = load_classifier(directory / "classifier.npz")
        svm, config = classifier._svm, self.classifier
        _refuse_other_settings(
            directory,
            {"c": svm.c, "gamma": svm.gamma, "threshold": classifier.threshold},
            {"c": config.c, "gamma": config.gamma, "threshold": config.threshold},
        )
        store.put(CLASSIFIER, classifier)
        with np.load(directory / "scores.npz") as archive:
            store.put(
                SCORED_DOMAINS, [str(d) for d in archive["domains"]]
            )
            store.put(
                DECISION_SCORES,
                np.asarray(archive["scores"], dtype=np.float64),
            )
            store.put(
                VERDICTS, np.asarray(archive["verdicts"], dtype=np.int64)
            )


class ClusterStage(Stage[FeatureSpace, "list[DomainCluster]"]):
    """X-Means clustering over the embedded domains (section 7)."""

    name = STAGE_CLUSTER
    inputs = (DOMAIN_ORDER, FEATURE_SPACE)
    outputs = (CLUSTERS,)

    def __init__(
        self,
        views: Sequence[FeatureView],
        *,
        k_max: int = 60,
        seed: int = 0,
        k_min: int = 2,
        domains: Sequence[str] | None = None,
    ) -> None:
        self.views = tuple(views)
        self.k_max = k_max
        self.seed = seed
        self.k_min = k_min
        self.domains = None if domains is None else list(domains)

    def _order(self, store: ArtifactStore) -> list[str]:
        if self.domains is not None:
            return list(self.domains)
        scored = store.maybe(SCORED_DOMAINS)
        return list(scored) if scored is not None else store.get(DOMAIN_ORDER)

    def run(self, store: ArtifactStore, ctx: ExecutionContext) -> None:
        order = self._order(store)
        features = store.get(FEATURE_SPACE).matrix(order, self.views)
        clusterer = DomainClusterer(
            k_min=self.k_min, k_max=self.k_max, seed=self.seed
        )
        clusters = clusterer.fit(order, features)
        store.put(CLUSTERS, clusters)
        _log.info(
            "clusters_mined", domains=len(order), clusters=len(clusters)
        )

    def save_artifacts(
        self, staging: Path, store: ArtifactStore
    ) -> dict[str, object]:
        order = self._order(store)
        clusters = store.get(CLUSTERS)
        index_of = {domain: i for i, domain in enumerate(order)}
        labels = np.full(len(order), -1, dtype=np.int64)
        for cluster in clusters:
            for member in cluster.domains:
                labels[index_of[member]] = cluster.cluster_id
        centers = (
            np.stack([c.center for c in clusters])
            if clusters
            else np.empty((0, 0), dtype=np.float64)
        )
        np.savez_compressed(
            staging / "clusters.npz",
            labels=labels,
            centers=centers,
            cluster_ids=np.array(
                [c.cluster_id for c in clusters], dtype=np.int64
            ),
        )
        return {"clusters": len(clusters), **self._settings()}

    def _settings(self) -> dict[str, int]:
        return {"k_min": self.k_min, "k_max": self.k_max, "seed": self.seed}

    def load_artifacts(
        self,
        directory: Path,
        manifest: CheckpointManifest,
        store: ArtifactStore,
    ) -> None:
        wanted = self._settings()
        # Checkpoints written before the settings were recorded resume.
        saved = {k: manifest.meta.get(k, v) for k, v in wanted.items()}
        _refuse_other_settings(directory, saved, wanted)
        order = self._order(store)
        with np.load(directory / "clusters.npz") as archive:
            labels = np.asarray(archive["labels"], dtype=np.int64)
            centers = np.asarray(archive["centers"], dtype=np.float64)
            cluster_ids = np.asarray(archive["cluster_ids"], dtype=np.int64)
        store.put(
            CLUSTERS,
            [
                DomainCluster(
                    cluster_id=int(cid),
                    domains=[
                        d
                        for d, label in zip(order, labels)
                        if label == cid
                    ],
                    center=centers[position],
                )
                for position, cid in enumerate(cluster_ids)
            ],
        )


# -- graph assembly -------------------------------------------------------


def detection_stages(
    config: "PipelineConfig",
    *,
    source: Stage[Any, Any] | None = None,
    dataset_for: Callable[[list[str]], LabeledDataset] | None = None,
    score_all: bool = False,
    cluster_k_max: int | None = None,
    cluster_seed: int = 0,
) -> list[Stage[Any, Any]]:
    """The paper's stage sequence for one configuration.

    Args:
        config: Pipeline knobs; each stage captures only the knobs it
            uses.
        source: Ingest stage producing the raw graph triple, or ``None``
            when the caller seeds :data:`RAW_GRAPHS` into the store
            (streaming refresh).
        dataset_for: Maps the surviving domain list to a labeled
            dataset; ``None`` leaves the classify stage inactive.
        score_all: Score every surviving domain after fitting (the
            checkpointed runner's contract).
        cluster_k_max: When set, append the X-Means stage with this
            ``k_max``.
        cluster_seed: Seed for the cluster stage.
    """
    stages: list[Stage[Any, Any]] = []
    if source is not None:
        stages.append(source)
    stages.append(PruneStage(config.pruning))
    stages.append(ProjectStage(config.min_similarity))
    stages.append(EmbedStage(config.embedding, config.parallel))
    stages.append(
        ClassifyStage(
            config.views,
            dataset_for,
            score_all=score_all,
            classifier=config.classifier,
        )
    )
    if cluster_k_max is not None:
        stages.append(
            ClusterStage(
                config.views, k_max=cluster_k_max, seed=cluster_seed
            )
        )
    return stages


def detection_graph(
    config: "PipelineConfig",
    *,
    source: Stage[Any, Any] | None = None,
    dataset_for: Callable[[list[str]], LabeledDataset] | None = None,
    score_all: bool = False,
    cluster_k_max: int | None = None,
    cluster_seed: int = 0,
) -> StageGraph:
    """Validated stage graph for the full detection dataflow.

    Without a ``source`` stage the raw graph triple is declared an
    initial artifact — the caller must seed it into the store.
    """
    stages = detection_stages(
        config,
        source=source,
        dataset_for=dataset_for,
        score_all=score_all,
        cluster_k_max=cluster_k_max,
        cluster_seed=cluster_seed,
    )
    initial: tuple[ArtifactKey[Any], ...] = (
        () if source is not None else (RAW_GRAPHS, RECORDS_INGESTED)
    )
    return StageGraph(stages, initial=initial)
