"""Tests for model-artifact bundles (save/load, integrity checking)."""

import json

import numpy as np
import pytest

from repro.errors import ArtifactIntegrityError, DatasetError, NotFittedError
from repro.serve import BUNDLE_SCHEMA_VERSION, ModelBundle
from repro.serve.bundle import MANIFEST_FILENAME


class TestCreate:
    def test_manifest_filled_from_inputs(self, make_bundle):
        bundle = make_bundle(seed=3, count=10, dimension=4)
        manifest = bundle.manifest
        assert manifest.schema_version == BUNDLE_SCHEMA_VERSION
        assert manifest.domain_count == 10
        assert manifest.feature_dimension == 4
        assert manifest.config_fingerprint == "fp-3"
        assert manifest.threshold == bundle.classifier.threshold_
        assert manifest.created_at == pytest.approx(1_700_000_003.0)

    def test_row_mismatch_rejected(self, make_bundle):
        bundle = make_bundle()
        with pytest.raises(DatasetError, match="disagree"):
            ModelBundle.create(
                bundle.classifier, bundle.features, bundle.domains[:-1]
            )

    def test_non_matrix_features_rejected(self, make_bundle):
        bundle = make_bundle()
        with pytest.raises(DatasetError, match="2-D"):
            ModelBundle.create(
                bundle.classifier, bundle.features[0], bundle.domains[:1]
            )

    def test_from_detector_requires_fit(self):
        from repro.core.pipeline import MaliciousDomainDetector

        with pytest.raises(NotFittedError):
            ModelBundle.from_detector(MaliciousDomainDetector())


class TestRoundTrip:
    def test_byte_exact_scores(self, make_bundle, tmp_path):
        bundle = make_bundle(seed=1)
        bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.domains == bundle.domains
        assert np.array_equal(loaded.features, bundle.features)
        # Bit-equal inputs make the kernel expansion deterministic, so
        # the decision function must round-trip byte-exactly.
        assert np.array_equal(
            loaded.decision_scores(bundle.features),
            bundle.decision_scores(bundle.features),
        )

    def test_scaler_round_trips(self, make_bundle, tmp_path):
        bundle = make_bundle(seed=2, scaled=True)
        bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.scaler is not None
        assert np.array_equal(loaded.scaler.mean_, bundle.scaler.mean_)
        assert np.array_equal(
            loaded.decision_scores(bundle.features),
            bundle.decision_scores(bundle.features),
        )

    def test_manifest_round_trips(self, make_bundle, tmp_path):
        bundle = make_bundle(seed=4, metrics={"auc": 0.93})
        bundle.save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.manifest.config_fingerprint == "fp-4"
        assert loaded.manifest.metrics == {"auc": 0.93}
        assert loaded.manifest.threshold == bundle.manifest.threshold
        assert set(loaded.manifest.files) == {
            "classifier.npz", "features.npz",
        }


class TestIntegrity:
    def test_tampered_artifact_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        target = directory / "features.npz"
        raw = bytearray(target.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        target.write_bytes(bytes(raw))
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            ModelBundle.load(directory)

    def test_missing_artifact_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        (directory / "classifier.npz").unlink()
        with pytest.raises(ArtifactIntegrityError, match="missing"):
            ModelBundle.load(directory)

    def test_interrupted_save_rejected(self, make_bundle, tmp_path):
        # A save that died before the manifest must not load: the
        # manifest is written last precisely so this is detectable.
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        (directory / MANIFEST_FILENAME).unlink()
        with pytest.raises(ArtifactIntegrityError, match="manifest"):
            ModelBundle.load(directory)

    def test_unsupported_schema_version_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        manifest_path = directory / MANIFEST_FILENAME
        raw = json.loads(manifest_path.read_text())
        raw["schema_version"] = BUNDLE_SCHEMA_VERSION + 1
        manifest_path.write_text(json.dumps(raw))
        with pytest.raises(ArtifactIntegrityError, match="schema version"):
            ModelBundle.load(directory)

    def test_garbage_manifest_rejected(self, make_bundle, tmp_path):
        bundle = make_bundle()
        directory = bundle.save(tmp_path / "bundle")
        (directory / MANIFEST_FILENAME).write_text("not json {")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            ModelBundle.load(directory)

