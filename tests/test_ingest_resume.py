"""Integration tests for checkpointed out-of-core ingestion.

The contract under test (docs/ingestion.md): chunked execution is
byte-identical to the monolithic in-memory pass, and a pipeline killed
at any point resumes from its last complete checkpoint to byte-identical
outputs — including a hard SIGKILL mid-run, which exercises the
manifest-written-last atomicity of the checkpoint format.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import ClassifierConfig
from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
from repro.dns.dhcp import DhcpLog
from repro.dns.logfmt import DnsTraceReader
from repro.dns.types import DnsQuery, DnsResponse
from repro.embedding.line import LineConfig
from repro.errors import ArtifactIntegrityError
from repro.ingest import (
    CheckpointedPipeline,
    ChunkPolicy,
    IngestConfig,
    PipelineCheckpointer,
    pipeline_fingerprint,
)
from repro.labels import (
    IntelligenceFeed,
    SimulatedVirusTotal,
    build_labeled_dataset,
)
from repro.simulation import SimulationConfig, TraceGenerator
from repro.simulation.groundtruth import GroundTruth

pytestmark = pytest.mark.slow

_CONFIG = PipelineConfig(
    embedding=LineConfig(dimension=8, total_samples=30_000, seed=13)
)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ingest-trace")
    TraceGenerator(SimulationConfig.tiny(seed=7)).generate().save(directory)
    return directory


@pytest.fixture(scope="module")
def label_feeds(trace_dir):
    truth = GroundTruth.load(trace_dir / "groundtruth.tsv")
    return IntelligenceFeed(truth), SimulatedVirusTotal(truth)


@pytest.fixture(scope="module")
def dataset_for(label_feeds):
    feed, virustotal = label_feeds

    def _build(domains):
        return build_labeled_dataset(feed, virustotal, domains)

    return _build


@pytest.fixture(scope="module")
def reference(trace_dir, dataset_for):
    """Monolithic cold-run outputs: (domains, scores, verdicts)."""
    records = list(DnsTraceReader(trace_dir / "dns.log"))
    queries = [r for r in records if isinstance(r, DnsQuery)]
    responses = [r for r in records if isinstance(r, DnsResponse)]
    dhcp = DhcpLog.load(trace_dir / "dhcp.log")
    detector = MaliciousDomainDetector(_CONFIG)
    detector.build_graphs(queries, responses, dhcp)
    detector.build_similarity_graphs()
    detector.learn_embeddings()
    detector.fit(dataset_for(detector.domains))
    domains = detector.domains
    return domains, detector.decision_scores(domains), detector.predict(
        domains
    )


def _chunked(trace_dir, checkpointer=None, max_records=700, config=_CONFIG):
    return CheckpointedPipeline(
        config,
        IngestConfig(
            chunk=ChunkPolicy(max_records=max_records),
            checkpoint_every_chunks=3,
        ),
        checkpointer,
        dhcp=DhcpLog.load(trace_dir / "dhcp.log"),
    )


class TestChunkedEquivalence:
    def test_chunked_matches_monolithic_bytes(
        self, trace_dir, dataset_for, reference
    ):
        domains, scores, verdicts = reference
        outcome = _chunked(trace_dir).run(
            trace_dir / "dns.log", dataset_for
        )
        assert outcome.resumed_from is None
        assert outcome.domains == domains
        assert np.array_equal(outcome.scores, scores)
        assert np.array_equal(outcome.verdicts, verdicts)

    def test_chunk_size_does_not_change_outputs(
        self, trace_dir, dataset_for, reference
    ):
        __, scores, __ = reference
        outcome = _chunked(trace_dir, max_records=233).run(
            trace_dir / "dns.log", dataset_for
        )
        assert np.array_equal(outcome.scores, scores)

    def test_full_resume_restores_all_stages(
        self, trace_dir, dataset_for, reference, tmp_path
    ):
        domains, scores, verdicts = reference
        fingerprint = pipeline_fingerprint(_CONFIG, {"dns": "trace"})
        cold = _chunked(
            trace_dir, PipelineCheckpointer(tmp_path, fingerprint)
        )
        cold.run(trace_dir / "dns.log", dataset_for)
        resumed = _chunked(
            trace_dir, PipelineCheckpointer(tmp_path, fingerprint)
        ).run(trace_dir / "dns.log", dataset_for, resume=True)
        assert resumed.resumed_from == "classify"
        assert resumed.domains == domains
        assert np.array_equal(resumed.scores, scores)
        assert np.array_equal(resumed.verdicts, verdicts)


class TestKillAndResume:
    def test_sigkill_mid_embedding_resumes_byte_identical(
        self, trace_dir, dataset_for, reference, tmp_path
    ):
        """SIGKILL the pipeline as embedding starts; resume must finish.

        The child process runs the checkpointed pipeline with the
        embedding stage replaced by a self-SIGKILL, so it dies *after*
        the ingest/prune/project checkpoints land but before embed —
        the worst spot, with hours of (real-trace) graph work behind
        it. The parent then resumes with the real embedding stage and
        must reproduce the monolithic run byte for byte.
        """
        domains, scores, verdicts = reference
        fingerprint = pipeline_fingerprint(_CONFIG, {"dns": "trace"})
        ckpt_dir = tmp_path / "ckpt"
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.core.pipeline import MaliciousDomainDetector
            from repro.dns.dhcp import DhcpLog
            from repro.embedding.line import LineConfig
            from repro.core.pipeline import PipelineConfig
            from repro.ingest import (CheckpointedPipeline, ChunkPolicy,
                                      IngestConfig, PipelineCheckpointer)
            from repro.labels import (IntelligenceFeed, SimulatedVirusTotal,
                                      build_labeled_dataset)
            from repro.simulation.groundtruth import GroundTruth

            def die(self, progress=None):
                os.kill(os.getpid(), signal.SIGKILL)

            MaliciousDomainDetector.learn_embeddings = die
            trace_dir = {str(trace_dir)!r}
            truth = GroundTruth.load(trace_dir + "/groundtruth.tsv")
            feed = IntelligenceFeed(truth)
            vt = SimulatedVirusTotal(truth)
            config = PipelineConfig(embedding=LineConfig(
                dimension=8, total_samples=30_000, seed=13))
            pipe = CheckpointedPipeline(
                config,
                IngestConfig(chunk=ChunkPolicy(max_records=700),
                             checkpoint_every_chunks=3),
                PipelineCheckpointer({str(ckpt_dir)!r}, {fingerprint!r}),
                dhcp=DhcpLog.load(trace_dir + "/dhcp.log"),
            )
            pipe.run(trace_dir + "/dns.log",
                     lambda ds: build_labeled_dataset(feed, vt, ds))
            raise SystemExit("pipeline survived the kill switch")
            """
        )
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[1] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr

        checkpointer = PipelineCheckpointer(ckpt_dir, fingerprint)
        stage, manifest = checkpointer.latest()
        assert stage == "project"
        assert manifest.complete

        resumed = _chunked(trace_dir, checkpointer).run(
            trace_dir / "dns.log", dataset_for, resume=True
        )
        assert resumed.resumed_from == "project"
        assert resumed.domains == domains
        assert np.array_equal(resumed.scores, scores)
        assert np.array_equal(resumed.verdicts, verdicts)

    def test_resume_from_partial_ingest_checkpoint(
        self, trace_dir, dataset_for, reference, tmp_path
    ):
        """A crash mid-ingest resumes from the rolling cursor checkpoint."""
        from repro.dns.dhcp import HostIdentityResolver
        from repro.graphs.bipartite import (
            BipartiteGraph,
            fold_records_into_graphs,
        )
        from repro.graphs.core import VertexTable
        from repro.core.persistence import save_bipartite_graph
        from repro.ingest import ChunkedTraceReader
        from repro.ingest.checkpoint import STAGE_INGEST

        domains_ref, scores, __ = reference
        fingerprint = pipeline_fingerprint(_CONFIG, {"dns": "trace"})
        checkpointer = PipelineCheckpointer(tmp_path, fingerprint)

        # Ingest 4 chunks by hand and write only a partial checkpoint,
        # exactly what a crash between rolling saves leaves behind.
        identity = HostIdentityResolver(
            DhcpLog.load(trace_dir / "dhcp.log")
        )
        table = VertexTable()
        graphs = (
            BipartiteGraph(kind="host", left=table),
            BipartiteGraph(kind="ip", left=table),
            BipartiteGraph(kind="time", left=table),
        )
        with ChunkedTraceReader(
            trace_dir / "dns.log", ChunkPolicy(max_records=700)
        ) as reader:
            for batch in reader:
                fold_records_into_graphs(
                    batch.records,
                    *graphs,
                    identity=identity,
                    window_seconds=_CONFIG.time_window_seconds,
                )
                if batch.index == 3:
                    break
            cursor = reader.cursor

        def populate(staging):
            names = ("host_domain.npz", "domain_ip.npz", "domain_time.npz")
            for graph, name in zip(graphs, names):
                save_bipartite_graph(graph, staging / name)

        checkpointer.save(
            STAGE_INGEST, populate, {"cursor": cursor}, complete=False
        )

        resumed = _chunked(trace_dir, checkpointer).run(
            trace_dir / "dns.log", dataset_for, resume=True
        )
        assert resumed.resumed_from == "ingest"
        assert resumed.domains == domains_ref
        assert np.array_equal(resumed.scores, scores)


class TestStageSettingsOnResume:
    """Knobs left out of the fingerprint are checked by their own stage."""

    @pytest.fixture(scope="class")
    def checkpoint_dir(self, trace_dir, dataset_for, tmp_path_factory):
        directory = tmp_path_factory.mktemp("knob-checkpoints")
        checkpointer = PipelineCheckpointer(
            directory, pipeline_fingerprint(_CONFIG, {"dns": "trace"})
        )
        _chunked(trace_dir, checkpointer).run(
            trace_dir / "dns.log", dataset_for, cluster_k_max=6
        )
        return directory

    def _resume(self, trace_dir, dataset_for, directory, config=_CONFIG,
                seed=0):
        checkpointer = PipelineCheckpointer(
            directory, pipeline_fingerprint(config, {"dns": "trace"})
        )
        return _chunked(trace_dir, checkpointer, config=config).run(
            trace_dir / "dns.log", dataset_for, resume=True,
            cluster_k_max=6, cluster_seed=seed,
        )

    def test_classify_refuses_other_classifier_settings(
        self, trace_dir, dataset_for, checkpoint_dir
    ):
        config = replace(_CONFIG, classifier=ClassifierConfig(c=5.0))
        with pytest.raises(ArtifactIntegrityError, match="gamma"):
            self._resume(trace_dir, dataset_for, checkpoint_dir, config)

    def test_cluster_refuses_other_seed(
        self, trace_dir, dataset_for, checkpoint_dir, tmp_path
    ):
        with pytest.raises(ArtifactIntegrityError, match="seed"):
            self._resume(trace_dir, dataset_for, checkpoint_dir, seed=7)
        # A checkpoint written before the settings were recorded resumes.
        legacy = tmp_path / "legacy"
        shutil.copytree(checkpoint_dir, legacy)
        manifest_path = legacy / "05-cluster" / "manifest.json"
        raw = json.loads(manifest_path.read_text())
        raw["meta"] = {"clusters": raw["meta"]["clusters"]}
        manifest_path.write_text(json.dumps(raw))
        outcome = self._resume(trace_dir, dataset_for, legacy, seed=7)
        assert outcome.resumed_from == "cluster"
