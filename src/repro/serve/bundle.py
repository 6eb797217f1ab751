"""Model-artifact bundles: everything online scoring needs, in one place.

A :class:`ModelBundle` freezes the output of one training run — the
fitted :class:`~repro.core.detector.MaliciousDomainClassifier`, an
optional feature scaler, the concatenated per-domain feature matrix with
its domain vocabulary, and a :class:`BundleManifest` describing where
the model came from (schema version, creation time, pipeline-config
fingerprint, metric summary).

Bundles persist as a directory of typed ``.npz`` files plus a
``manifest.json`` sidecar, written and read with ``allow_pickle=False``
throughout so artifacts are safe to load from shared storage. Writing
and verifying go through :mod:`repro.artifacts`: every file's SHA-256
is recorded in the manifest and re-verified on load, and any integrity
failure raises :class:`~repro.errors.ArtifactIntegrityError` instead of
silently serving a corrupt model.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro import artifacts
from repro.artifacts import MANIFEST_FILENAME
from repro.core.dataflow import CLASSIFIER, DOMAIN_ORDER, FEATURE_SPACE
from repro.core.detector import MaliciousDomainClassifier
from repro.core.persistence import (
    load_classifier,
    load_scaler,
    save_classifier,
    save_scaler,
)
from repro.errors import DatasetError, NotFittedError
from repro.ml.preprocessing import StandardScaler

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.pipeline import MaliciousDomainDetector, PipelineConfig
    from repro.core.stages import ArtifactStore

__all__ = [
    "BUNDLE_SCHEMA_VERSION",
    "MANIFEST_FILENAME",
    "BundleManifest",
    "ModelBundle",
]

BUNDLE_SCHEMA_VERSION = 1

_CLASSIFIER_FILE = "classifier.npz"
_FEATURES_FILE = "features.npz"
_SCALER_FILE = "scaler.npz"


@dataclass(slots=True)
class BundleManifest:
    """Human- and machine-readable description of a saved bundle.

    Attributes:
        schema_version: Bundle format version; loaders reject mismatches.
        created_at: Unix timestamp of bundle creation.
        config_fingerprint: Opaque hash of the pipeline configuration
            that produced the model — two bundles with equal fingerprints
            were trained under identical knobs.
        metrics: Summary numbers from training (sample counts, support
            vectors, training accuracy, ...), for display and audit.
        domain_count: Rows in the feature matrix.
        feature_dimension: Columns in the feature matrix (3k).
        threshold: The classifier's calibrated decision threshold.
        files: Artifact filename -> hex SHA-256, filled in at save time
            and verified on load.
    """

    schema_version: int = BUNDLE_SCHEMA_VERSION
    created_at: float = 0.0
    config_fingerprint: str = ""
    metrics: dict[str, float] = field(default_factory=dict)
    domain_count: int = 0
    feature_dimension: int = 0
    threshold: float = 0.0
    files: dict[str, str] = field(default_factory=dict)


@dataclass(slots=True)
class ModelBundle:
    """A self-contained scoring artifact.

    Holds the fitted classifier, the feature matrix for every domain the
    model knows (row ``i`` is ``domains[i]``'s concatenated per-view
    embedding), an optional scaler applied before the decision function,
    and the manifest. Use :meth:`from_detector` to package a trained
    pipeline, :meth:`save`/:meth:`load` to move it through disk, and
    :class:`~repro.serve.scorer.DomainScorer` to answer queries from it.
    """

    classifier: MaliciousDomainClassifier
    features: np.ndarray
    domains: list[str]
    scaler: StandardScaler | None = None
    manifest: BundleManifest = field(default_factory=BundleManifest)

    @classmethod
    def create(
        cls,
        classifier: MaliciousDomainClassifier,
        features: np.ndarray,
        domains: list[str],
        scaler: StandardScaler | None = None,
        config_fingerprint: str = "",
        metrics: Mapping[str, float] | None = None,
        created_at: float | None = None,
    ) -> "ModelBundle":
        """Assemble a bundle and fill in its manifest."""
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise DatasetError("bundle features must be a 2-D matrix")
        if features.shape[0] != len(domains):
            raise DatasetError(
                f"feature rows ({features.shape[0]}) disagree with domain "
                f"vocabulary size ({len(domains)})"
            )
        manifest = BundleManifest(
            created_at=time.time() if created_at is None else created_at,
            config_fingerprint=config_fingerprint,
            metrics=dict(metrics or {}),
            domain_count=len(domains),
            feature_dimension=int(features.shape[1]),
            threshold=float(classifier.threshold_),
        )
        return cls(
            classifier=classifier,
            features=features,
            domains=list(domains),
            scaler=scaler,
            manifest=manifest,
        )

    @classmethod
    def from_artifacts(
        cls,
        store: "ArtifactStore",
        config: "PipelineConfig",
        scaler: StandardScaler | None = None,
        metrics: Mapping[str, float] | None = None,
        created_at: float | None = None,
    ) -> "ModelBundle":
        """Package a pipeline :class:`~repro.core.stages.ArtifactStore`.

        Reads the fitted classifier, feature space, and domain order
        straight from the stage-graph artifact store, so any execution
        path (batch facade, streaming refresh, checkpointed run) can be
        bundled without going through a detector object.
        """
        classifier = store.maybe(CLASSIFIER)
        if classifier is None:
            raise NotFittedError("MaliciousDomainDetector.fit")
        space = store.maybe(FEATURE_SPACE)
        if space is None:
            raise NotFittedError("MaliciousDomainDetector.learn_embeddings")
        order = store.maybe(DOMAIN_ORDER)
        domains = list(order) if order is not None else list(space.query.domains)
        features = space.matrix(domains, config.views)
        fingerprint = hashlib.sha256(
            repr(config).encode("utf-8")
        ).hexdigest()
        summary: dict[str, float] = {
            "support_vectors": float(classifier.support_vector_count),
        }
        summary.update(metrics or {})
        return cls.create(
            classifier=classifier,
            features=features,
            domains=domains,
            scaler=scaler,
            config_fingerprint=fingerprint,
            metrics=summary,
            created_at=created_at,
        )

    @classmethod
    def from_detector(
        cls,
        detector: "MaliciousDomainDetector",
        scaler: StandardScaler | None = None,
        metrics: Mapping[str, float] | None = None,
        created_at: float | None = None,
    ) -> "ModelBundle":
        """Package a fitted end-to-end detector for serving.

        The feature matrix covers every domain that survived pruning, so
        a :class:`~repro.serve.scorer.DomainScorer` over the bundle
        returns exactly the scores ``detector.decision_scores`` would.
        Thin delegate: the detector is itself a facade over an artifact
        store, so this just forwards to :meth:`from_artifacts`.
        """
        return cls.from_artifacts(
            detector.artifacts,
            detector.config,
            scaler=scaler,
            metrics=metrics,
            created_at=created_at,
        )

    @property
    def dimension(self) -> int:
        """Feature dimension the classifier expects."""
        return int(self.features.shape[1])

    def decision_scores(self, matrix: np.ndarray) -> np.ndarray:
        """d(x) for pre-assembled feature rows (scaled if applicable)."""
        if self.scaler is not None:
            matrix = self.scaler.transform(matrix)
        return self.classifier.decision_function(matrix)

    def save(self, directory: str | Path) -> Path:
        """Write the bundle to ``directory``; returns the directory.

        Follows :mod:`repro.artifacts`: a crash leaves the previous
        bundle or none, never a torn one. A previous bundle there is
        replaced; any other non-empty path raises :class:`OSError`.
        """
        directory = Path(directory).absolute()
        if directory.exists() and not (directory / MANIFEST_FILENAME).is_file():
            directory.rmdir()  # an empty directory only, never other files
        directory.parent.mkdir(parents=True, exist_ok=True)
        with artifacts.staging(
            directory.with_name(f".{directory.name}.staging")
        ) as staging:
            self.seal_into(staging)
            artifacts.install(staging, directory)
        return directory

    def seal_into(self, staging: Path) -> None:
        """Write the bundle's files and manifest into ``staging``, sealed."""
        save_classifier(self.classifier, staging / _CLASSIFIER_FILE)
        np.savez_compressed(
            staging / _FEATURES_FILE,
            features=self.features,
            domains=np.array(self.domains, dtype=np.str_),
        )
        if self.scaler is not None:
            save_scaler(self.scaler, staging / _SCALER_FILE)
        artifacts.seal(staging, self.manifest)

    @staticmethod
    def load(directory: str | Path) -> "ModelBundle":
        """Read a bundle; raises ArtifactIntegrityError if it fails
        :func:`repro.artifacts.verify`."""
        directory = Path(directory)
        manifest = artifacts.verify(
            directory, BundleManifest, BUNDLE_SCHEMA_VERSION, "bundle"
        )
        classifier = load_classifier(directory / _CLASSIFIER_FILE)
        with np.load(directory / _FEATURES_FILE) as archive:
            features = np.asarray(archive["features"], dtype=np.float64)
            domains = [str(d) for d in archive["domains"]]
        scaler: StandardScaler | None = None
        if _SCALER_FILE in manifest.files:
            scaler = load_scaler(directory / _SCALER_FILE)
        return ModelBundle(
            classifier=classifier,
            features=features,
            domains=domains,
            scaler=scaler,
            manifest=manifest,
        )
