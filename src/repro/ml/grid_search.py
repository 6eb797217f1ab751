"""Hyperparameter grid search with cross-validated AUC.

The paper fixes the SVM's penalty (C = 0.09) and kernel coefficient
(gamma = 0.06) without showing the search. This utility reproduces how
such values are found: exhaustive grid evaluation under stratified
k-fold, scored by ROC AUC.

Every (cell x fold) evaluation is independent, so with a
:class:`~repro.parallel.ParallelConfig` the whole grid fans out through
``repro.parallel.run_tasks`` as one flat task batch — fold splits are
derived once in the caller and shared by every cell, process workers
inherit the feature matrix through ``fork``, and serial/thread/process
backends return byte-identical evaluations.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.ml.metrics import roc_auc_score
from repro.ml.model_selection import (
    StratifiedKFold,
    _fit_and_score_fold,
    cross_validated_scores,
)
from repro.obs.metrics import default_registry
from repro.parallel.executor import ParallelConfig, run_tasks


@dataclass(slots=True)
class GridSearchResult:
    """Outcome of one grid evaluation."""

    best_params: dict[str, object]
    best_score: float
    # Every evaluated cell: (params, score), in evaluation order.
    evaluations: list[tuple[dict[str, object], float]] = field(
        default_factory=list
    )

    def top(self, count: int = 5) -> list[tuple[dict[str, object], float]]:
        """The best ``count`` cells, strongest first."""
        return sorted(self.evaluations, key=lambda e: e[1], reverse=True)[
            :count
        ]


@dataclass(frozen=True)
class _CellFactory:
    """Picklable ``model_factory(**params)`` closure for pool workers."""

    factory: Callable[..., Any]
    params: dict[str, object]

    def __call__(self) -> Any:
        return self.factory(**self.params)


def grid_search(
    features: np.ndarray,
    labels: np.ndarray,
    model_factory: Callable[..., object],
    param_grid: Mapping[str, Sequence[object]],
    n_splits: int = 5,
    seed: int = 0,
    parallel: ParallelConfig | None = None,
) -> GridSearchResult:
    """Evaluate every parameter combination with k-fold CV AUC.

    Args:
        features: (n x d) feature matrix.
        labels: binary 0/1 labels.
        model_factory: Called with one combination's keyword arguments;
            must return an object with fit + decision_function (or
            predict_proba).
        param_grid: Parameter name -> candidate values.
        n_splits: Stratified folds per evaluation.
        seed: Fold-assignment seed (shared across cells, so every
            combination sees identical splits).
        parallel: ``None`` evaluates cells serially (exceptions
            propagate unwrapped); a ParallelConfig flattens the grid to
            (cell x fold) tasks for ``run_tasks``. Results are
            byte-identical across backends; the process backend needs a
            picklable ``model_factory``.

    Returns:
        The full evaluation record with the best cell marked.
    """
    names = list(param_grid)
    if not names:
        raise ValueError("param_grid must contain at least one parameter")
    cells = [
        dict(zip(names, values))
        for values in itertools.product(*(param_grid[name] for name in names))
    ]
    labels = np.asarray(labels)
    started = time.perf_counter()

    evaluations: list[tuple[dict[str, object], float]] = []
    if parallel is None:
        for params in cells:
            scores, __ = cross_validated_scores(
                features,
                labels,
                _CellFactory(model_factory, params),
                n_splits=n_splits,
                seed=seed,
            )
            evaluations.append((params, roc_auc_score(labels, scores)))
    else:
        splits = list(StratifiedKFold(n_splits=n_splits, seed=seed).split(labels))
        fold_count = len(splits)
        # One flat (cell x fold) batch: a slow cell can't serialize the
        # rest of the grid behind it.
        tasks = [
            (_CellFactory(model_factory, params), train, test)
            for params in cells
            for train, test in splits
        ]
        outputs = run_tasks(
            _fit_and_score_fold,
            tasks,
            parallel,
            shared=(np.asarray(features), labels),
            label="cv.grid",
        )
        for index, params in enumerate(cells):
            scores = np.zeros(labels.size)
            for fold_number, (__, test) in enumerate(splits):
                scores[test] = outputs[index * fold_count + fold_number]
            evaluations.append((params, roc_auc_score(labels, scores)))

    elapsed = time.perf_counter() - started
    registry = default_registry()
    registry.counter("cv.grid_cells").inc(len(cells))
    registry.histogram("cv.grid_seconds").observe(elapsed)

    best_params: dict[str, object] | None = None
    best_score = -np.inf
    for params, score in evaluations:
        if score > best_score:
            best_score = score
            best_params = params
    assert best_params is not None
    return GridSearchResult(
        best_params=best_params,
        best_score=float(best_score),
        evaluations=evaluations,
    )

