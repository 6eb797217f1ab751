"""One benchmark run: set-up, a detection path, then the serve phase.

Both workloads run the whole path — simulate, detect, publish, serve —
and differ in how the trace becomes a model: ``detect-batch`` reads it
into memory, ``detect-chunked`` folds it chunk by chunk through the
checkpointed pipeline. A traced run also executes the other path on
the same trace, checks that both give byte-identical scores and equal
AUC, and replays the chunked reader and fold on their own.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import paths
import serveload
from child import Worker
from repro.serve import ModelRegistry
from tracing import Tracer, rss_hwm_mb

WORKLOADS = ("detect-batch", "detect-chunked")
SETUP_REPEATS = 2


@dataclass(slots=True)
class Outcome:
    """Measured values, correctness checks and operation counts."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    details: dict[str, Any] = field(default_factory=dict)


def _detect(name: str, trace_dir: Path, work: Path, tracer: Tracer):
    registry = work / f"registry-{name}"
    if name == "detect-batch":
        return paths.detect_batch(trace_dir, registry, tracer), registry
    return (
        paths.detect_chunked(
            trace_dir, registry, work / f"checkpoints-{name}", tracer
        ),
        registry,
    )


def run(
    workload: str, seed: int, seconds: float, tracer: Tracer, work: Path
) -> Outcome:
    out = Outcome()
    trace_dir = work / "trace"

    src_dir = Path.cwd() / "src"
    # Set-up: simulate and write the trace, several times in a child
    # process; the median is the set-up cost.
    with Worker(src_dir) as worker:
        setups = [
            worker.call(paths.simulate_trace, seed, str(trace_dir))
            for __ in range(SETUP_REPEATS)
        ]
    simulate_s = statistics.median(s["generate_s"] + s["save_s"] for s in setups)

    started = time.perf_counter()
    detection, registry_root = _detect(workload, trace_dir, work, tracer)
    out.metrics["detect_s"] = (time.perf_counter() - started, "s")
    out.metrics["peak_rss_mb"] = (rss_hwm_mb(), "MiB")
    out.metrics["auc"] = (detection.auc, "fraction")
    out.attempted += 1
    out.checks["auc_above_chance"] = 0.5 < detection.auc <= 1.0
    out.checks["every_domain_scored"] = bool(
        len(detection.scores) == len(detection.domains) > 0
        and np.isfinite(detection.scores).all()
    )
    out.checks["clusters_found"] = detection.clusters >= 1

    if tracer.enabled:
        other = next(w for w in WORKLOADS if w != workload)
        twin, __ = _detect(other, trace_dir, work, tracer)
        out.attempted += 1
        out.checks["chunked_scores_identical_to_batch"] = (
            twin.domains == detection.domains
            and twin.scores.dtype == detection.scores.dtype
            and twin.scores.tobytes() == detection.scores.tobytes()
        )
        out.checks["chunked_auc_equals_batch"] = twin.auc == detection.auc
        paths.replay_ingest(trace_dir, tracer)

    # The load generator runs in a process of its own, started before
    # the service so its imports are done when traffic begins.
    with Worker(src_dir) as worker:
        worker.call(serveload.loaded)
        service = serveload.ServiceProcess(
            registry_root, src_dir, work / "serve.log"
        )
        admin = serveload.Client(service.address)
        try:
            plan = serveload.Plan.draw(
                serveload.Traffic(seed, detection.domains), seconds
            )
            registry = ModelRegistry(registry_root)
            probe_name = plan.nominal[0][0]
            idle_swaps = serveload.idle_swaps(
                admin, registry, detection.bundle, probe_name
            )
            start_at = time.perf_counter() + 0.2
            worker.send(
                serveload.generate,
                service.address,
                len(os.sched_getaffinity(0)),
                start_at,
                plan,
            )
            load_swaps = serveload.swaps_during_nominal(
                admin,
                registry,
                detection.bundle,
                probe_name,
                start_at + serveload.WARMUP_S,
                seconds,
            )
            load = worker.receive()
            __, snapshot = admin.call("GET", "/metrics")
            serve_rss = service.vmhwm_mb()
        finally:
            admin.close()
            service.stop()
    out.metrics["setup_s"] = (simulate_s + service.start_s, "s")

    serve_layer = _serve_metrics(
        out, load, len(plan.nominal), idle_swaps, load_swaps, serve_rss
    )
    every_sample = load.samples()
    swaps = [*idle_swaps, *load_swaps]
    out.attempted += len(every_sample) + len(swaps)
    out.failed += sum(1 for s in every_sample if s.status != 200)
    out.failed += sum(1 for s in swaps if s.status != 200)

    load_started = time.perf_counter()
    bundle = registry.load(detection.version)
    registry_load_s = time.perf_counter() - load_started
    replayed = serveload.replay(bundle, every_sample)
    out.checks["http_verdicts_match_in_process"] = replayed["mismatches"] == 0

    if tracer.enabled:
        _layer_metrics(out, tracer, workload, setups)
        out.metrics.update(serve_layer)
        out.metrics.update({
            "serve.registry_load_s": (registry_load_s, "s"),
            "serve.score_batch_us": (replayed["score_batch_us"], "us"),
            "serve.cache_hit_ratio": (replayed["cache_hit_ratio"], "fraction"),
            "serve.unknown_ratio": (replayed["unknown_ratio"], "fraction"),
        })
        counters = snapshot["counters"]
        for name in ("serve.admitted", "serve.shed", "serve.deadline_exceeded"):
            out.metrics[name] = (counters.get(name, {"value": 0})["value"], "count")
        out.details["serve"] = _serve_details(load, idle_swaps, load_swaps)
    return out


def _serve_metrics(
    out: Outcome,
    load: serveload.Load,
    planned: int,
    idle_swaps,
    load_swaps,
    serve_rss: float,
) -> dict[str, tuple[float, str]]:
    """Set the end-to-end serve metrics; return the per-layer ones."""
    samples = load.nominal
    ok = [s for s in samples if s.status == 200]
    out.checks["nominal_all_ok"] = len(ok) == planned > 0
    latencies = [s.done - s.due for s in ok] or [float("nan")]
    out.metrics["serve_p50_ms"] = (serveload.percentile_ms(latencies, 50), "ms")
    out.metrics["serve_max_rate_rps"] = (
        max(r.delivered_rps for r in load.rungs), "1/s"
    )
    # The reload's own answer is the first response carrying the new
    # model_version; every scoring answer sent after it must carry it too.
    swaps = [*idle_swaps, *load_swaps]
    out.checks["swaps_serve_new_version"] = bool(load_swaps) and all(
        swap.status == 200
        and swap.body["model_version"] == swap.version
        and swap.probe_version == swap.version
        and all(s.version >= swap.version for s in ok if s.sent >= swap.reloaded)
        for swap in swaps
    )
    out.metrics["serve_rss_mb"] = (serve_rss, "MiB")
    every = [*samples, *(s for r in load.rungs for s in r.samples)]
    failed = sum(1 for s in every if s.status != 200)
    met = [
        r.rate for r in load.rungs
        if not r.behind and r.p95_ms <= serveload.LATENCY_LIMIT_MS
    ]
    return {
        "serve.p90_ms": (serveload.percentile_ms(latencies, 90), "ms"),
        "serve.nominal_requests": (len(samples), "count"),
        "serve.swap_ms": (_median_swap_ms(idle_swaps), "ms"),
        "serve.swap_under_load_ms": (_median_swap_ms(load_swaps), "ms"),
        "serve.publish_s": (
            statistics.median(s.published - s.started for s in swaps), "s"
        ),
        "serve.reload_ms": (
            statistics.median((s.reloaded - s.published) * 1000 for s in swaps), "ms"
        ),
        "serve.http_ms": (
            serveload.percentile_ms([s.done - s.sent for s in ok], 50), "ms"
        ),
        "serve.send_late_ms": (
            serveload.percentile_ms([s.sent - s.due for s in samples], 90), "ms"
        ),
        "serve.sent": (len(every), "count"),
        "serve.ok": (len(every) - failed, "count"),
        "serve.failed": (failed, "count"),
        "serve.fail_ratio": (failed / len(every), "fraction"),
        "serve.ladder_limit_rps": (max(met, default=0), "1/s"),
        "serve.ladder_rungs": (len(load.rungs), "count"),
    }


def _median_swap_ms(swaps) -> float:
    return statistics.median((s.reloaded - s.started) * 1000 for s in swaps)


def _serve_details(load: serveload.Load, idle_swaps, load_swaps) -> dict[str, Any]:
    def rows(batch, origin):
        return [
            [round(s.due - origin, 6), round(s.sent - origin, 6),
             round(s.done - origin, 6), s.status, len(s.domains)]
            for s in batch
        ]

    origin = load.nominal[0].due if load.nominal else 0.0
    return {
        "request_columns": ["due_s", "sent_s", "done_s", "status", "domains"],
        "nominal": rows(load.nominal, origin),
        "swaps": [
            {"version": s.version, "under_load": s in load_swaps,
             "publish_s": s.published - s.started,
             "reload_s": s.reloaded - s.published, "status": s.status}
            for s in [*idle_swaps, *load_swaps]
        ],
        "ladder": [
            {"rate": r.rate, "sent": len(r.samples), "unsent": r.unsent,
             "ok": r.ok, "delivered_rps": r.delivered_rps,
             "p95_ms": r.p95_ms, "behind": r.behind}
            for r in load.rungs
        ],
    }


def _layer_metrics(out: Outcome, tracer: Tracer, workload: str, setups) -> None:
    """Per-layer values from the spans of a traced run."""
    own = tracer.first(
        "detect.batch" if workload == "detect-batch" else "detect.chunked"
    )
    batch = tracer.first("detect.batch")
    chunked = tracer.first("detect.chunked")

    def span(name, under=batch):
        return tracer.first(name, under)

    def dur(name, under=batch):
        return tracer.seconds(name, under)

    own_s = own["end"] - own["start"]
    layer_share = tracer.children_seconds(own) / own_s
    out.checks["layers_cover_detect"] = 0.95 <= layer_share <= 1.0
    parse, build = span("dns.parse"), span("graphs.build_prune")
    project, embed = span("graphs.project"), span("embedding.train")
    run_span = tracer.first("ingest.pipeline_run", chunked)
    embed_s = dur("embedding.train")
    m = out.metrics
    m.update({
        "simulation.generate_s": (
            statistics.median(s["generate_s"] for s in setups), "s"
        ),
        "simulation.records": (setups[0]["records"], "count"),
        "dns.save_s": (statistics.median(s["save_s"] for s in setups), "s"),
        "dns.parse_s": (dur("dns.parse"), "s"),
        "dns.records": (parse["attrs"]["records"], "count"),
        "dns.parse_rss_mb": (parse["rss_hwm_mb"], "MiB"),
        "ingest.read_s": (tracer.seconds("ingest.read"), "s"),
        "ingest.chunks": (tracer.first("ingest.replay")["attrs"]["chunks"], "count"),
        "ingest.checkpoint_s": (tracer.seconds("ingest.checkpoint", chunked), "s"),
        "ingest.checkpoint_bytes": (run_span["attrs"]["checkpoint_bytes"], "bytes"),
        "ingest.rss_mb": (run_span["rss_hwm_mb"], "MiB"),
        "ingest.pipeline_run_s": (run_span["end"] - run_span["start"], "s"),
        "graphs.build_prune_s": (dur("graphs.build_prune"), "s"),
        "graphs.fold_s": (tracer.seconds("graphs.fold"), "s"),
        "graphs.project_s": (dur("graphs.project"), "s"),
        "graphs.domains_before": (build["attrs"]["domains_before"], "count"),
        "graphs.domains_after": (build["attrs"]["domains_after"], "count"),
        "graphs.rss_mb": (project["rss_hwm_mb"], "MiB"),
        "embedding.train_s": (embed_s, "s"),
        "embedding.samples": (embed["attrs"]["samples"], "count"),
        "embedding.samples_per_s": (embed["attrs"]["samples"] / embed_s, "1/s"),
        "embedding.rss_mb": (embed["rss_hwm_mb"], "MiB"),
        "labels.build_s": (dur("labels.build"), "s"),
        "labels.n": (span("labels.build")["attrs"]["n"], "count"),
        "ml.cv_s": (dur("ml.cv"), "s"),
        "ml.fit_s": (dur("ml.fit"), "s"),
        "ml.support_vectors": (span("ml.fit")["attrs"]["support_vectors"], "count"),
        "ml.score_s": (dur("ml.score"), "s"),
        "ml.cluster_s": (dur("ml.cluster"), "s"),
        "ml.clusters": (span("ml.cluster")["attrs"]["clusters"], "count"),
        "serve.bundle_bytes": (span("serve.publish")["attrs"]["bundle_bytes"], "bytes"),
        "trace.detect_s": (own_s, "s"),
        "trace.layer_share": (layer_share, "fraction"),
    })
    for view in ("query", "ip", "temporal"):
        m[f"graphs.sim_edges.{view}"] = (project["attrs"][f"sim_edges.{view}"], "count")
