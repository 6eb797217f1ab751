"""Parallel multi-view LINE training orchestration.

:func:`train_views` is the single entry point the pipeline (all three
behavioral views at once) and :func:`~repro.embedding.line.train_line`
(one view) drive. It:

1. plans the independent single-order tasks (:mod:`.partition`);
2. resolves the backend (:class:`~repro.parallel.executor.ParallelConfig`
   fallback rules) — the serial path simply runs ``train_line`` per view
   under the usual ``trace()`` spans, so a degraded run is *exactly* the
   sequential pipeline;
3. for pool backends, hands the workers the ``(graph, config)`` views
   themselves — process workers inherit them through ``fork`` — so each
   task builds its own edge layout and alias tables where it
   runs and the caller allocates neither; multiplexes worker progress
   through a queue (:mod:`.progress`); and reassembles per-view
   matrices from whichever order results land in.

Determinism contract: a task's generator stream depends only on the
view config's seed and the task's position in the plan — never on the
backend, worker count, or completion order — so serial, thread, and
process runs produce byte-identical embeddings for the same seed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import time
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.embedding.kernels import train_order_segment
from repro.embedding.line import (
    LineConfig,
    LineEmbedding,
    _finalize_vectors,
    _record_training_metrics,
    _training_inputs,
    train_line,
)
from repro.errors import EmbeddingError
from repro.graphs.projection import SimilarityGraph
from repro.obs.logging import get_logger
from repro.obs.tracing import trace
from repro.parallel.executor import ParallelConfig, run_tasks
from repro.parallel.partition import (
    EmbeddingTask,
    plan_view_tasks,
    schedule_order,
)
from repro.parallel.progress import (
    LockedProgress,
    ProgressDrain,
    QueueProgress,
    record_stage_observation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.progress import ProgressCallback
    from repro.parallel.progress import ReportQueue

__all__ = ["train_views"]

_log = get_logger(__name__)


def _run_embedding_task(
    views: dict[str, tuple[SimilarityGraph, LineConfig]],
    report_queue: "ReportQueue | None",
    progress: "ProgressCallback | None",
    task: EmbeddingTask,
) -> tuple[int, np.ndarray, float]:
    """Worker entry: train one order, return (task_id, vectors, seconds).

    The first three arguments are the batch's ``shared`` ones; the task
    builds its view's edge layout and alias tables itself. Process
    workers report progress through ``report_queue``; thread and serial
    runs call ``progress`` (a locked shim) directly.
    """
    if report_queue is not None:
        progress = QueueProgress(report_queue, task.view)
    graph, config = views[task.view]
    sources, targets, edge_sampler, noise_sampler = _training_inputs(
        graph, config
    )
    rng = np.random.default_rng(task.seed)
    started = time.perf_counter()
    vectors = train_order_segment(
        sources,
        targets,
        edge_sampler,
        noise_sampler,
        graph.node_count,
        task.dimension,
        task.use_context,
        task.config,
        rng,
        task.total_samples,
        progress,
        task.epoch_offset,
        task.epoch_total,
    )
    elapsed = time.perf_counter() - started
    return task.task_id, vectors, elapsed


def train_views(
    views: Sequence[tuple[str, SimilarityGraph, LineConfig]],
    parallel: ParallelConfig,
    progress: "ProgressCallback | None" = None,
) -> dict[str, LineEmbedding]:
    """Train LINE over several views under one parallel policy.

    Args:
        views: ``(key, graph, config)`` triples; keys name the views in
            the returned dict and in progress/metric labels.
        parallel: Worker/backend policy; its fallback rules may resolve
            the whole run to serial execution.
        progress: Optional :class:`repro.obs.ProgressCallback`; receives
            the union of all views' reports (interleaved across views
            when they train concurrently).

    Returns:
        ``{key: LineEmbedding}`` — byte-identical to sequential
        ``train_line`` calls with the same configs.
    """
    for __, graph, config in views:
        config.validate()
        if graph.node_count == 0:
            raise EmbeddingError(
                f"cannot embed empty graph (kind={graph.kind!r})"
            )

    tasks = plan_view_tasks(views)
    backend = parallel.resolved_backend(sum(t.weight for t in tasks))
    if backend == "serial" or not tasks:
        embeddings: dict[str, LineEmbedding] = {}
        for key, graph, config in views:
            with trace(f"embedding.{key}") as span:
                embeddings[key] = train_line(graph, config, progress=progress)
            _log.debug(
                "view_embedded",
                view=key,
                nodes=graph.node_count,
                edges=graph.edge_count,
                seconds=span.elapsed,
                backend="serial",
            )
        return embeddings
    return _train_views_pooled(views, tasks, parallel, backend, progress)


def _train_views_pooled(
    views: Sequence[tuple[str, SimilarityGraph, LineConfig]],
    tasks: list[EmbeddingTask],
    parallel: ParallelConfig,
    backend: str,
    progress: "ProgressCallback | None",
) -> dict[str, LineEmbedding]:
    views_by_key = {key: (graph, config) for key, graph, config in views}
    report_queue = None
    shim = None
    drain: contextlib.AbstractContextManager[object] = contextlib.nullcontext()
    if progress is not None:
        if backend == "process":
            report_queue = multiprocessing.get_context("fork").Queue()
            drain = ProgressDrain(report_queue, progress)
        else:
            shim = LockedProgress(progress)

    started = time.perf_counter()
    try:
        with drain:
            outcomes = run_tasks(
                _run_embedding_task,
                [(task,) for task in schedule_order(tasks)],
                parallel,
                shared=(views_by_key, report_queue, shim),
                backend=backend,
                label="embedding",
            )
    finally:
        if report_queue is not None:
            report_queue.close()
            report_queue.join_thread()
    wall = time.perf_counter() - started

    by_id = {task_id: (vectors, elapsed) for task_id, vectors, elapsed in outcomes}
    embeddings: dict[str, LineEmbedding] = {}
    for key, graph, config in views:
        view_tasks = [t for t in tasks if t.view == key]
        if not view_tasks:  # edgeless: zero embedding, no training
            embeddings[key] = LineEmbedding(
                kind=graph.kind,
                domains=list(graph.domains),
                vectors=np.zeros((graph.node_count, config.dimension)),
                config=config,
            )
            continue
        vectors = np.empty((graph.node_count, config.dimension))
        view_seconds = 0.0
        view_samples = 0
        for task in view_tasks:
            part, elapsed = by_id[task.task_id]
            vectors[:, task.column : task.column + task.dimension] = part
            view_seconds += elapsed
            view_samples += task.total_samples
        _record_training_metrics(view_samples, view_seconds)
        record_stage_observation(f"embedding.{key}", view_seconds)
        _log.debug(
            "view_embedded",
            view=key,
            nodes=graph.node_count,
            edges=graph.edge_count,
            seconds=view_seconds,
            backend=backend,
        )
        embeddings[key] = LineEmbedding(
            kind=graph.kind,
            domains=list(graph.domains),
            vectors=_finalize_vectors(vectors, config),
            config=config,
        )
    _log.info(
        "views_trained",
        views=len(views),
        tasks=len(tasks),
        backend=backend,
        workers=parallel.resolved_workers(),
        seconds=wall,
    )
    return embeddings
