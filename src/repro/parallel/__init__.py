"""Parallel execution layer for embedding training.

The three behavioral views (and the two proximity orders of
``order="both"``) are independent by construction, so LINE training —
the pipeline's hottest stage — fans out across workers:

* :mod:`~repro.parallel.executor` — :class:`ParallelConfig` policy,
  deterministic seed spawning, and the generic :func:`run_tasks` loop,
  whose process workers inherit the read-only task inputs through
  ``fork``;
* :mod:`~repro.parallel.partition` — cost-model task splitting
  (views x orders, weighted by resolved sample counts);
* :mod:`~repro.parallel.progress` — queue multiplexing of worker
  ``on_epoch`` reports into the caller's ``repro.obs`` sinks;
* :mod:`~repro.parallel.train` — the :func:`train_views` orchestrator
  the pipeline and ``train_line`` drive.

See ``docs/parallelism.md`` for backend guidance and the determinism
contract (serial, thread, and process backends produce byte-identical
embeddings for the same seed).
"""

from repro.parallel.executor import (
    BACKENDS,
    ParallelConfig,
    fork_available,
    run_tasks,
    spawn_seeds,
)
from repro.parallel.partition import (
    EmbeddingTask,
    plan_line_tasks,
    plan_view_tasks,
    schedule_order,
)
from repro.parallel.train import train_views

__all__ = [
    "BACKENDS",
    "EmbeddingTask",
    "ParallelConfig",
    "fork_available",
    "plan_line_tasks",
    "plan_view_tasks",
    "run_tasks",
    "schedule_order",
    "spawn_seeds",
    "train_views",
]
