"""Cost-model task splitting for multi-view LINE training.

The pipeline trains three behavioral views (paper §4.2/§5), and each
view with ``order="both"`` trains two independent half-dimension orders
(first- and second-order proximity share nothing but the input graph).
That yields up to ``views x orders`` completely independent training
tasks; this module enumerates them with:

* a **cost weight** per task — ``LineConfig.resolved_samples`` over the
  view's edge count, split across orders — so the scheduler can hand
  out heavy tasks first (longest-processing-time order) and the
  executor can decide whether the whole batch is even worth a pool;
* a **deterministic seed** per task, spawned from the view config's
  seed in a fixed order (first-order child 0, second-order child 1), so
  every backend trains from identical generator streams;
* **assembly coordinates** (``column`` slot + epoch offsets) so results
  coming back in any order reassemble into exactly the matrix — and the
  progress-report sequence — serial training produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import EmbeddingError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.embedding.line import LineConfig
    from repro.graphs.projection import SimilarityGraph

__all__ = [
    "EmbeddingTask",
    "plan_line_tasks",
    "plan_view_tasks",
    "schedule_order",
]


@dataclass(slots=True)
class EmbeddingTask:
    """One independent single-order training unit.

    Picklable and self-contained apart from the (potentially huge)
    graph, which workers inherit through ``fork`` (see
    :func:`repro.parallel.run_tasks`).
    """

    task_id: int
    view: str
    order: str  # "first" | "second"
    use_context: bool
    dimension: int  # columns this task trains (half of config for "both")
    column: int  # 0-based column offset in the assembled view matrix
    total_samples: int
    seed: np.random.SeedSequence
    weight: float
    epoch_offset: int
    epoch_total: int
    config: "LineConfig"


def plan_line_tasks(
    view: str,
    edge_count: int,
    config: "LineConfig",
    *,
    first_task_id: int = 0,
) -> list[EmbeddingTask]:
    """Tasks for one ``train_line`` call (1 for single order, 2 for both).

    The sample budget, half-dimension split, and per-order seed children
    here *define* the training decomposition: the serial path runs these
    same tasks in ``task_id`` order, which is what makes parallel output
    byte-identical to serial output.
    """
    # Late import: partition is imported by embedding.line for planning.
    from repro.embedding.line import _REPORTS_PER_ORDER

    if edge_count < 1:
        raise EmbeddingError("cannot plan training tasks for an edgeless graph")
    total = config.resolved_samples(edge_count)
    orders: list[tuple[str, bool, int, int, int]]
    if config.order == "both":
        half = config.dimension // 2
        orders = [
            ("first", False, half, 0, total // 2),
            ("second", True, half, half, total - total // 2),
        ]
    elif config.order == "first":
        orders = [("first", False, config.dimension, 0, total)]
    else:
        orders = [("second", True, config.dimension, 0, total)]

    seeds = np.random.SeedSequence(config.seed).spawn(len(orders))
    epoch_total = len(orders) * _REPORTS_PER_ORDER
    tasks: list[EmbeddingTask] = []
    for position, (order, use_context, dim, column, samples) in enumerate(
        orders
    ):
        tasks.append(
            EmbeddingTask(
                task_id=first_task_id + position,
                view=view,
                order=order,
                use_context=use_context,
                dimension=dim,
                column=column,
                total_samples=samples,
                seed=seeds[position],
                weight=float(samples),
                epoch_offset=position * _REPORTS_PER_ORDER,
                epoch_total=epoch_total,
                config=config,
            )
        )
    return tasks


def plan_view_tasks(
    views: Sequence[tuple[str, "SimilarityGraph", "LineConfig"]],
) -> list[EmbeddingTask]:
    """Tasks for a multi-view embedding stage, ``task_id`` globally unique.

    Views with no edges are skipped (they embed as zero matrices without
    training); callers detect them by absence from the plan.
    """
    tasks: list[EmbeddingTask] = []
    for view, graph, config in views:
        if graph.edge_count == 0:
            continue
        tasks.extend(
            plan_line_tasks(
                view,
                graph.edge_count,
                config,
                first_task_id=len(tasks),
            )
        )
    return tasks


def schedule_order(tasks: Sequence[EmbeddingTask]) -> list[EmbeddingTask]:
    """Submission order: heaviest first (longest-processing-time rule).

    With a handful of unequal tasks over few workers, LPT keeps the
    makespan near the heaviest task instead of the heaviest tail.
    """
    return sorted(tasks, key=lambda task: (-task.weight, task.task_id))
