"""Cross-validation and data-splitting utilities (paper section 8.1).

The paper evaluates with k-fold cross-validation (k=10): shuffle the
labeled set, split into k groups, train on k-1 and test on the held-out
group, then average. :class:`StratifiedKFold` additionally preserves the
30/70 malicious/benign class ratio within each fold.

Fold evaluations are independent, so :func:`cross_validated_scores` can
fan them out through :func:`repro.parallel.run_tasks`. The determinism
contract matches the embedding layer's: fold splits are derived exactly
once in the caller (a pure function of ``seed``), the feature matrix and
labels are the batch's ``shared`` arguments — process workers inherit
them through ``fork``, so a task pickles only its fold indices — and
each fold task is a pure function of (data, split), so serial, thread,
and process backends return byte-identical scores.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterator

import numpy as np

from repro.obs.metrics import default_registry
from repro.parallel.executor import ParallelConfig, run_tasks


def _train_indices_for(sample_count: int, test: np.ndarray) -> np.ndarray:
    """All indices except ``test``, ascending — one O(n) mask pass.

    Equivalent to ``np.sort(np.setdiff1d(arange(n), test))`` without the
    per-fold sort: fold indices are a subset of ``arange(n)``, so
    clearing them in a boolean mask and reading back the set positions
    yields the same ascending order.
    """
    mask = np.ones(sample_count, dtype=bool)
    mask[test] = False
    return np.flatnonzero(mask)


class KFold:
    """Plain k-fold splitter with optional shuffling."""

    def __init__(self, n_splits: int = 10, shuffle: bool = True, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, sample_count: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) pairs."""
        if sample_count < self.n_splits:
            raise ValueError(
                f"cannot split {sample_count} samples into {self.n_splits} folds"
            )
        indices = np.arange(sample_count)
        if self.shuffle:
            np.random.default_rng(self.seed).shuffle(indices)
        for fold in np.array_split(indices, self.n_splits):
            test = np.sort(fold)
            yield _train_indices_for(sample_count, fold), test


class StratifiedKFold:
    """K-fold preserving the class ratio in every fold."""

    def __init__(self, n_splits: int = 10, shuffle: bool = True, seed: int = 0) -> None:
        if n_splits < 2:
            raise ValueError("n_splits must be at least 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.seed = seed

    def split(self, labels: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (train_indices, test_indices) stratified on ``labels``."""
        labels = np.asarray(labels)
        rng = np.random.default_rng(self.seed)
        per_class_folds: list[list[np.ndarray]] = []
        for value in np.unique(labels):
            class_indices = np.flatnonzero(labels == value)
            if class_indices.size < self.n_splits:
                raise ValueError(
                    f"class {value!r} has {class_indices.size} samples, "
                    f"fewer than n_splits={self.n_splits}"
                )
            if self.shuffle:
                rng.shuffle(class_indices)
            per_class_folds.append(np.array_split(class_indices, self.n_splits))
        for fold_number in range(self.n_splits):
            test = np.sort(
                np.concatenate([folds[fold_number] for folds in per_class_folds])
            )
            yield _train_indices_for(labels.size, test), test


def train_test_split(
    features: np.ndarray,
    labels: np.ndarray,
    test_fraction: float = 0.25,
    stratify: bool = True,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split into (train_x, test_x, train_y, test_y)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels disagree on sample count")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(labels.size, dtype=bool)
    if stratify:
        for value in np.unique(labels):
            class_indices = np.flatnonzero(labels == value)
            rng.shuffle(class_indices)
            take = max(1, int(round(class_indices.size * test_fraction)))
            test_mask[class_indices[:take]] = True
    else:
        indices = np.arange(labels.size)
        rng.shuffle(indices)
        take = max(1, int(round(labels.size * test_fraction)))
        test_mask[indices[:take]] = True
    return (
        features[~test_mask],
        features[test_mask],
        labels[~test_mask],
        labels[test_mask],
    )


def _fit_and_score_fold(
    features: np.ndarray,
    labels: np.ndarray,
    model_factory: Callable[[], Any],
    train: np.ndarray,
    test: np.ndarray,
) -> np.ndarray:
    """One fold: fit on ``train``, score ``test``. Pure — pickles cleanly.

    The model comes from ``model_factory`` (must be picklable for the
    process backend: a top-level class or function, not a lambda) and
    must expose ``fit`` plus ``decision_function`` or ``predict_proba``.
    """
    model = model_factory()
    model.fit(features[train], labels[train])
    scorer = getattr(model, "decision_function", None)
    if scorer is not None:
        fold_scores = scorer(features[test])
    else:
        fold_scores = model.predict_proba(features[test])[:, 1]
    return np.asarray(fold_scores, dtype=np.float64)


def run_fold_tasks(
    features: np.ndarray,
    labels: np.ndarray,
    model_factory: Callable[[], Any],
    splits: list[tuple[np.ndarray, np.ndarray]],
    parallel: ParallelConfig | None,
    *,
    label: str = "cv.folds",
) -> list[np.ndarray]:
    """Evaluate precomputed fold splits, serially or through a pool.

    Splits are computed by the caller (once, for all backends), so every
    backend sees identical folds; results come back in split order.
    With ``parallel=None`` the folds run inline and task exceptions
    propagate unwrapped; with a config, pool failures surface as
    :class:`~repro.errors.EmbeddingError`.
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    if parallel is None:
        return [
            _fit_and_score_fold(features, labels, model_factory, train, test)
            for train, test in splits
        ]
    return run_tasks(
        _fit_and_score_fold,
        [(model_factory, train, test) for train, test in splits],
        parallel,
        shared=(features, labels),
        label=label,
    )


def cross_validated_scores(
    features: np.ndarray,
    labels: np.ndarray,
    model_factory: Callable[[], Any],
    n_splits: int = 10,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Out-of-fold decision scores via stratified k-fold.

    Every sample is scored exactly once by a model that never saw it,
    giving a single pooled ROC over the whole labeled set. ``model_factory``
    must return objects exposing fit(X, y) and either decision_function or
    predict_proba.

    Args:
        parallel: ``None`` (default) runs folds inline; a
            :class:`~repro.parallel.ParallelConfig` fans them out through
            ``run_tasks``. Scores are byte-identical across backends —
            splits are derived once here and each fold task is pure.
            The process backend requires a picklable ``model_factory``.

    Returns:
        (scores, fold_ids) both aligned with the input sample order.
    """
    features = np.asarray(features)
    labels = np.asarray(labels)
    splitter = StratifiedKFold(n_splits=n_splits, seed=seed)
    splits = list(splitter.split(labels))
    started = time.perf_counter()
    fold_scores = run_fold_tasks(features, labels, model_factory, splits, parallel)
    elapsed = time.perf_counter() - started

    registry = default_registry()
    registry.counter("cv.folds").inc(len(splits))
    registry.histogram("cv.fold_seconds").observe(elapsed / max(len(splits), 1))

    scores = np.zeros(labels.size)
    fold_ids = np.zeros(labels.size, dtype=int)
    for fold_number, ((__, test), out) in enumerate(zip(splits, fold_scores)):
        scores[test] = out
        fold_ids[test] = fold_number
    return scores, fold_ids
