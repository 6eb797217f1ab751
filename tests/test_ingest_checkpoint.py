"""Unit tests for stage checkpoints (repro.ingest.checkpoint)."""

import json

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.embedding.line import LineConfig
from repro.errors import ArtifactIntegrityError, IngestError
from repro.ingest import PipelineCheckpointer, pipeline_fingerprint
from repro.ingest.checkpoint import (
    CHECKPOINT_STAGES,
    MANIFEST_FILENAME,
    STAGE_INGEST,
    STAGE_PROJECT,
    STAGE_PRUNE,
)
from repro.obs.metrics import default_registry


def _write_payload(values):
    def populate(staging):
        np.savez_compressed(staging / "data.npz", values=np.asarray(values))

    return populate


def _load_payload(directory):
    with np.load(directory / "data.npz") as archive:
        return archive["values"].tolist()


class TestSaveAndVerify:
    def test_round_trip(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path, "fp")
        ckpt.save(STAGE_PRUNE, _write_payload([1, 2, 3]), {"cursor": 42})
        directory, manifest = ckpt.verify(STAGE_PRUNE)
        assert _load_payload(directory) == [1, 2, 3]
        assert manifest.stage == STAGE_PRUNE
        assert manifest.fingerprint == "fp"
        assert manifest.complete
        assert manifest.meta["cursor"] == 42
        assert "data.npz" in manifest.files

    def test_stage_dirs_are_ordered(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        names = [ckpt.stage_dir(stage).name for stage in CHECKPOINT_STAGES]
        assert names == sorted(names)

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(IngestError):
            PipelineCheckpointer(tmp_path).save(
                "nonsense", _write_payload([1])
            )

    def test_save_overwrites_previous(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        ckpt.save(STAGE_PRUNE, _write_payload([2]))
        directory, __ = ckpt.verify(STAGE_PRUNE)
        assert _load_payload(directory) == [2]

    def test_failed_populate_leaves_no_checkpoint(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)

        def explode(staging):
            np.savez_compressed(staging / "data.npz", values=np.arange(3))
            raise RuntimeError("mid-save crash")

        with pytest.raises(RuntimeError):
            ckpt.save(STAGE_PRUNE, explode)
        assert not ckpt.has(STAGE_PRUNE)
        assert not list(tmp_path.glob(".*staging*"))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([7]))

        def explode(staging):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            ckpt.save(STAGE_PRUNE, explode)
        directory, __ = ckpt.verify(STAGE_PRUNE)
        assert _load_payload(directory) == [7]

    def test_checkpoint_bytes_gauge_updates(self, tmp_path):
        registry = default_registry()
        registry.reset()
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload(list(range(100))))
        value = registry.snapshot()["gauges"]["checkpoint.bytes"]["value"]
        assert value == ckpt.total_bytes() > 0


class TestIntegrityRejection:
    def test_missing_manifest(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        with pytest.raises(ArtifactIntegrityError, match="no checkpoint"):
            ckpt.verify(STAGE_PRUNE)

    def test_tampered_artifact_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1, 2]))
        target = ckpt.stage_dir(STAGE_PRUNE) / "data.npz"
        raw = bytearray(target.read_bytes())
        raw[-1] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            ckpt.verify(STAGE_PRUNE)

    def test_missing_artifact_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        (ckpt.stage_dir(STAGE_PRUNE) / "data.npz").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            ckpt.verify(STAGE_PRUNE)

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        PipelineCheckpointer(tmp_path, "one").save(
            STAGE_PRUNE, _write_payload([1])
        )
        other = PipelineCheckpointer(tmp_path, "two")
        with pytest.raises(ArtifactIntegrityError, match="different"):
            other.verify(STAGE_PRUNE)

    def test_unfingerprinted_checkpointer_accepts_any(self, tmp_path):
        PipelineCheckpointer(tmp_path, "one").save(
            STAGE_PRUNE, _write_payload([1])
        )
        PipelineCheckpointer(tmp_path, "").verify(STAGE_PRUNE)

    def test_schema_version_mismatch_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        manifest_path = ckpt.stage_dir(STAGE_PRUNE) / MANIFEST_FILENAME
        raw = json.loads(manifest_path.read_text())
        raw["schema_version"] = 999
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactIntegrityError, match="schema"):
            ckpt.verify(STAGE_PRUNE)

    def test_wrong_stage_name_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        manifest_path = ckpt.stage_dir(STAGE_PRUNE) / MANIFEST_FILENAME
        raw = json.loads(manifest_path.read_text())
        raw["stage"] = STAGE_PROJECT
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactIntegrityError, match="records stage"):
            ckpt.verify(STAGE_PRUNE)

    def test_garbage_manifest_rejected(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_PRUNE, _write_payload([1]))
        manifest_path = ckpt.stage_dir(STAGE_PRUNE) / MANIFEST_FILENAME
        manifest_path.write_text("{not json")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            ckpt.verify(STAGE_PRUNE)


class TestResumeBookkeeping:
    def test_latest_finds_most_advanced_stage(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        assert ckpt.latest() is None
        ckpt.save(STAGE_INGEST, _write_payload([1]), complete=False)
        ckpt.save(STAGE_PRUNE, _write_payload([2]))
        stage, manifest = ckpt.latest()
        assert stage == STAGE_PRUNE
        assert manifest.complete

    def test_partial_checkpoints_flagged(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(
            STAGE_INGEST, _write_payload([1]),
            {"cursor": 5}, complete=False,
        )
        __, manifest = ckpt.verify(STAGE_INGEST)
        assert not manifest.complete
        assert manifest.meta["cursor"] == 5

    def test_invalidate_after_drops_later_stages(self, tmp_path):
        ckpt = PipelineCheckpointer(tmp_path)
        ckpt.save(STAGE_INGEST, _write_payload([1]))
        ckpt.save(STAGE_PRUNE, _write_payload([2]))
        ckpt.save(STAGE_PROJECT, _write_payload([3]))
        ckpt.invalidate_after(STAGE_INGEST)
        assert ckpt.has(STAGE_INGEST)
        assert not ckpt.has(STAGE_PRUNE)
        assert not ckpt.has(STAGE_PROJECT)


class TestFingerprintCompatibility:
    """Fingerprints are pinned: a change strands every existing checkpoint.

    The values were computed before the LINE kernel and SVM solver
    selectors were removed; checkpoints and bundles written then must
    still resume and verify.
    """

    SOURCES = {"trace": "dns.log", "size": 123}

    def test_default_config(self):
        assert pipeline_fingerprint(PipelineConfig(), self.SOURCES) == (
            "f267e1526a6af6f6680f821a5db0b9d1194dd14ce5dd662f5866939cbc44d525"
        )

    def test_custom_embedding(self):
        config = PipelineConfig(
            embedding=LineConfig(dimension=8, total_samples=30000, seed=13)
        )
        assert pipeline_fingerprint(config, self.SOURCES) == (
            "b27c13c4a00708bb808b0f612f68a822ac8ef0b46cbd6c2c8618d9c2138fe6af"
        )
