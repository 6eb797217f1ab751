"""Persistence for pipeline artifacts.

A deployment runs the expensive stages (graphs, projections, LINE) once
per capture window and reuses the results; this module saves and restores
them — embeddings, feature spaces, graphs, and the trained classifier
and scaler (so scoring never requires retraining; see ``repro.serve``
for the bundle/registry layer built on top). Formats are plain ``.npz``
(numpy) plus small JSON sidecars — no pickle, so artifacts are safe to
share and stable across versions.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.npyio import NpzFile

from repro.core.detector import MaliciousDomainClassifier
from repro.core.features import FeatureSpace
from repro.embedding.line import LineConfig, LineEmbedding
from repro.errors import DatasetError, NotFittedError
from repro.graphs.bipartite import BipartiteGraph
from repro.graphs.core import EdgeList, VertexTable
from repro.graphs.projection import SimilarityGraph
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import DEFAULT_CACHE_MB, SupportVectorClassifier

_FORMAT_VERSION = 1


@contextmanager
def _open_archive(path: str | Path, what: str) -> Iterator[NpzFile]:
    """An ``.npz`` archive whose ``format_version`` this module reads."""
    with np.load(path) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(f"unsupported {what} format version {version}")
        yield archive


def save_embedding(embedding: LineEmbedding, path: str | Path) -> None:
    """Write one LINE embedding as ``<path>`` (.npz)."""
    path = Path(path)
    config = asdict(embedding.config)
    np.savez_compressed(
        path,
        vectors=embedding.vectors,
        domains=np.array(embedding.domains, dtype=np.str_),
        kind=np.array(embedding.kind),
        config_json=np.array(json.dumps(config)),
        format_version=np.array(_FORMAT_VERSION),
    )


def load_embedding(path: str | Path) -> LineEmbedding:
    """Read an embedding written by :func:`save_embedding`."""
    with _open_archive(path, "embedding") as archive:
        fields = json.loads(str(archive["config_json"]))
        # Older archives name the LINE inner loop ("kernel"); it chose
        # how vectors were trained, and the vectors are stored as-is.
        fields.pop("kernel", None)
        config = LineConfig(**fields)
        return LineEmbedding(
            kind=str(archive["kind"]),
            domains=[str(d) for d in archive["domains"]],
            vectors=np.asarray(archive["vectors"], dtype=np.float64),
            config=config,
        )


def save_feature_space(space: FeatureSpace, directory: str | Path) -> None:
    """Write all three view embeddings under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_embedding(space.query, directory / "query.npz")
    save_embedding(space.ip, directory / "ip.npz")
    save_embedding(space.temporal, directory / "temporal.npz")


def load_feature_space(directory: str | Path) -> FeatureSpace:
    """Read a feature space written by :func:`save_feature_space`."""
    directory = Path(directory)
    return FeatureSpace(
        query=load_embedding(directory / "query.npz"),
        ip=load_embedding(directory / "ip.npz"),
        temporal=load_embedding(directory / "temporal.npz"),
    )


def save_bipartite_graph(graph: BipartiteGraph, path: str | Path) -> None:
    """Write one bipartite graph as ``<path>`` (.npz).

    The columnar representation persists directly: both vertex-table
    interners (values as unicode strings plus a type-code column, so
    integer time-window vertices round-trip without pickle) and the
    deduplicated ``(left_id, right_id)`` edge arrays.
    """
    left_values, left_codes = graph.left.to_arrays()
    right_values, right_codes = graph.right.to_arrays()
    lefts, rights = graph.edges.columns()
    np.savez_compressed(
        Path(path),
        kind=np.array(graph.kind),
        left_values=left_values,
        left_codes=left_codes,
        right_values=right_values,
        right_codes=right_codes,
        lefts=lefts,
        rights=rights,
        format_version=np.array(_FORMAT_VERSION),
    )


def load_bipartite_graph(path: str | Path) -> BipartiteGraph:
    """Read a graph written by :func:`save_bipartite_graph`."""
    with _open_archive(path, "bipartite graph") as archive:
        left = VertexTable.from_arrays(
            archive["left_values"], archive["left_codes"]
        )
        right = VertexTable.from_arrays(
            archive["right_values"], archive["right_codes"]
        )
        edges = EdgeList()
        edges.extend_raw(
            np.asarray(archive["lefts"], dtype=np.int64),
            np.asarray(archive["rights"], dtype=np.int64),
        )
        edges.compact()
        return BipartiteGraph(
            kind=str(archive["kind"]), left=left, right=right, edges=edges
        )


def save_classifier(
    classifier: MaliciousDomainClassifier, path: str | Path
) -> None:
    """Write a fitted classifier as ``<path>`` (.npz, pickle-free).

    The archive holds the complete SVM decision rule — support vectors,
    signed dual coefficients (alpha_i * y_i), bias, kernel parameters —
    plus the calibrated threshold, so a loaded classifier reproduces
    ``decision_function`` byte-exactly without retraining.
    """
    svm = classifier._svm
    if (
        not classifier._fitted
        or svm._support_vectors is None
        or svm._support_coefficients is None
        or svm._classes is None
    ):
        raise NotFittedError("MaliciousDomainClassifier")
    params = {
        "c": svm.c,
        "kernel": svm.kernel,
        "gamma": svm.gamma,
        "degree": svm.degree,
        "coef0": svm.coef0,
        "tolerance": svm.tolerance,
        "max_iterations": svm.max_iterations,
        "kernel_cache_mb": svm.kernel_cache_mb,
        # The configured threshold (None = calibrate on fit) and the
        # value that calibration actually produced.
        "threshold": classifier.threshold,
        "threshold_": classifier.threshold_,
    }
    np.savez_compressed(
        Path(path),
        support_vectors=svm._support_vectors,
        dual_coefficients=svm._support_coefficients,
        bias=np.array(svm._bias, dtype=np.float64),
        classes=np.asarray(svm._classes),
        params_json=np.array(json.dumps(params)),
        format_version=np.array(_FORMAT_VERSION),
    )


def load_classifier(path: str | Path) -> MaliciousDomainClassifier:
    """Read a classifier written by :func:`save_classifier`.

    The returned classifier's ``decision_function`` is byte-identical to
    the saved one's: the kernel expansion is recomputed from bit-equal
    float64 support vectors, coefficients, and bias.
    """
    with _open_archive(path, "classifier") as archive:
        params = json.loads(str(archive["params_json"]))
        threshold = params["threshold"]
        # Archives written before the cached solver existed carry no
        # kernel_cache_mb; older ones also name a "solver", which only
        # chose how a model was fitted and is ignored here. The stored
        # decision rule is unaffected either way.
        kernel_cache_mb = float(params.get("kernel_cache_mb", DEFAULT_CACHE_MB))
        classifier = MaliciousDomainClassifier(
            c=float(params["c"]),
            gamma=float(params["gamma"]),
            threshold=None if threshold is None else float(threshold),
            kernel_cache_mb=kernel_cache_mb,
        )
        svm = SupportVectorClassifier(
            c=float(params["c"]),
            kernel=str(params["kernel"]),
            gamma=float(params["gamma"]),
            degree=int(params["degree"]),
            coef0=float(params["coef0"]),
            tolerance=float(params["tolerance"]),
            max_iterations=int(params["max_iterations"]),
            kernel_cache_mb=kernel_cache_mb,
        )
        svm._support_vectors = np.asarray(
            archive["support_vectors"], dtype=np.float64
        )
        svm._support_coefficients = np.asarray(
            archive["dual_coefficients"], dtype=np.float64
        )
        svm._bias = float(archive["bias"])
        svm._classes = np.asarray(archive["classes"])
        classifier._svm = svm
        classifier._fitted = True
        classifier.threshold_ = float(params["threshold_"])
        return classifier


def save_scaler(scaler: StandardScaler, path: str | Path) -> None:
    """Write a fitted :class:`StandardScaler` as ``<path>`` (.npz)."""
    if scaler.mean_ is None or scaler.scale_ is None:
        raise NotFittedError("StandardScaler")
    np.savez_compressed(
        Path(path),
        mean=scaler.mean_,
        scale=scaler.scale_,
        format_version=np.array(_FORMAT_VERSION),
    )


def load_scaler(path: str | Path) -> StandardScaler:
    """Read a scaler written by :func:`save_scaler`."""
    with _open_archive(path, "scaler") as archive:
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(archive["mean"], dtype=np.float64)
        scaler.scale_ = np.asarray(archive["scale"], dtype=np.float64)
        return scaler


def save_similarity_graph(graph: SimilarityGraph, path: str | Path) -> None:
    """Write one similarity graph as ``<path>`` (.npz)."""
    np.savez_compressed(
        Path(path),
        kind=np.array(graph.kind),
        domains=np.array(graph.domains, dtype=np.str_),
        rows=graph.rows,
        cols=graph.cols,
        weights=graph.weights,
        format_version=np.array(_FORMAT_VERSION),
    )


def load_similarity_graph(path: str | Path) -> SimilarityGraph:
    """Read a graph written by :func:`save_similarity_graph`."""
    with _open_archive(path, "graph") as archive:
        return SimilarityGraph(
            kind=str(archive["kind"]),
            domains=[str(d) for d in archive["domains"]],
            rows=np.asarray(archive["rows"], dtype=np.int64),
            cols=np.asarray(archive["cols"], dtype=np.int64),
            weights=np.asarray(archive["weights"], dtype=np.float64),
        )
