"""The serve-mixed phase: the shipped scoring service under mixed traffic.

The service runs as ``python -m repro.cli serve <registry> --port 0``
with every flag at its default. One load-generator process drives it
over at most ``nproc`` persistent HTTP/1.1 keep-alive connections in an
open loop: each request has a due time fixed in advance, a request
waits for a free connection when all are busy, and its latency is
timed from the due time. The benchmark sets no socket option on the
server and never opens a connection per request.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.serve import DomainScorer, ModelBundle, ModelRegistry

NOMINAL_RPS = 20.0
WARMUP_S = 0.5
RELOAD_EVERY_S = 2.0
IDLE_SWAPS = 9
# Spread over a few seconds, so one burst of disk or CPU contention
# on the host cannot move their median.
IDLE_SWAP_EVERY_S = 0.4
LADDER_RPS = (25, 50, 100, 200, 400, 800, 1600)
RUNG_S = 1.0
# A rung falls behind when its last request went out this late, or
# when requests were still unsent this long after the rung ended.
BACKLOG_LIMIT_S = 0.1
LATENCY_LIMIT_MS = 25.0
BATCH_SHARE = 0.10
BATCH_SIZE = 64
UNSEEN_SHARE = 0.10
START_TIMEOUT_S = 60.0


class ServiceProcess:
    """The scoring service as a child process, stopped by :meth:`stop`."""

    def __init__(self, registry_root: Path, src_dir: Path, log_path: Path):
        env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(registry_root),
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        try:
            banner = self._read_banner()
            host, port = banner.rsplit("http://", 1)[1].strip().split(":")
            self.address = (host, int(port))
        except BaseException:
            self.stop()
            raise
        self.start_s = time.perf_counter() - started

    def _read_banner(self) -> str:
        """The ``serving model ... on http://host:port`` line."""
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if selector.select(timeout=0.5):
                    line = self.proc.stdout.readline().decode()
                    if not line:
                        break
                    if "http://" in line:
                        return line
                elif self.proc.poll() is not None:
                    break
        raise RuntimeError("scoring service did not start")

    def vmhwm_mb(self) -> float:
        """The service's peak resident set size, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Client:
    """One persistent keep-alive connection."""

    def __init__(self, address: tuple[str, int]) -> None:
        self._conn = http.client.HTTPConnection(*address, timeout=30)

    def call(
        self, method: str, path: str, payload: Any = None
    ) -> tuple[int, Any]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            # A transport error counts as a failed request; the next
            # call reconnects.
            self._conn.close()
            return 0, None

    def close(self) -> None:
        self._conn.close()


class Traffic:
    """Request bodies: Zipf(s=1) names over the bundle, plus unseen ones."""

    def __init__(self, seed: int, domains: Sequence[str]) -> None:
        self._rng = np.random.default_rng(seed)
        self._domains = [domains[i] for i in self._rng.permutation(len(domains))]
        weights = 1.0 / np.arange(1, len(domains) + 1)
        self._cdf = np.cumsum(weights) / weights.sum()
        self._unseen = 0

    def draw(self, count: int) -> list[list[str]]:
        rng = self._rng
        sizes = np.where(rng.random(count) < BATCH_SHARE, BATCH_SIZE, 1)
        total = int(sizes.sum())
        picks = np.minimum(
            np.searchsorted(self._cdf, rng.random(total)), len(self._domains) - 1
        )
        unseen = rng.random(total) < UNSEEN_SHARE
        names = []
        for pick, is_unseen in zip(picks, unseen):
            if is_unseen:
                self._unseen += 1
                names.append(f"never-seen-{self._unseen}.example")
            else:
                names.append(self._domains[pick])
        bounds = np.cumsum(sizes)
        return [names[end - size:end] for size, end in zip(sizes, bounds)]


@dataclass(slots=True)
class Sample:
    """One request as the load generator saw it (perf_counter seconds)."""

    domains: list[str]
    due: float
    sent: float
    done: float
    status: int
    body: Any

    @property
    def version(self) -> int | None:
        return self.body.get("model_version") if self.status == 200 else None


def open_loop(
    clients: Sequence[Client],
    requests: Sequence[list[str]],
    rate: float,
    origin: float,
    cutoff_s: float | None = None,
) -> tuple[list[Sample], int]:
    """Send ``requests`` at ``rate`` per second from ``origin`` on.

    Returns (samples in schedule order, requests left unsent because
    the generator was still behind ``cutoff_s`` after ``origin``).
    """
    lock = threading.Lock()
    cursor = 0
    samples: list[Sample | None] = [None] * len(requests)

    def drive(client: Client) -> None:
        nonlocal cursor
        while True:
            with lock:
                index = cursor
                if index >= len(requests):
                    return
                if cutoff_s is not None and (
                    time.perf_counter() > origin + cutoff_s
                ):
                    return
                cursor += 1
            due = origin + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            domains = requests[index]
            payload = (
                {"domain": domains[0]} if len(domains) == 1
                else {"domains": domains}
            )
            sent = time.perf_counter()
            status, body = client.call("POST", "/v1/score", payload)
            samples[index] = Sample(
                domains, due, sent, time.perf_counter(), status, body
            )

    threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    taken = [s for s in samples if s is not None]
    return taken, len(requests) - len(taken)


def percentile_ms(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of seconds, in milliseconds."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1] * 1000.0


@dataclass(slots=True)
class Rung:
    rate: int
    origin: float
    samples: list[Sample]
    unsent: int

    @property
    def ok(self) -> int:
        return sum(1 for s in self.samples if s.status == 200)

    @property
    def delivered_rps(self) -> float:
        """200 responses per second, from the rung's start to its last."""
        if not self.ok:
            return 0.0
        end = max(s.done for s in self.samples if s.status == 200)
        return self.ok / (end - self.origin)

    @property
    def behind(self) -> bool:
        last = self.samples[-1] if self.samples else None
        return (
            self.unsent > 0
            or self.ok < len(self.samples)
            or last is None
            or last.sent - last.due > BACKLOG_LIMIT_S
        )

    @property
    def p95_ms(self) -> float:
        return percentile_ms([s.done - s.due for s in self.samples], 95)


@dataclass(slots=True)
class Plan:
    """Every request body of one serve phase, drawn before it starts."""

    warmup: list[list[str]]
    nominal: list[list[str]]
    ladder: list[list[list[str]]]

    @classmethod
    def draw(cls, traffic: Traffic, seconds: float) -> "Plan":
        return cls(
            traffic.draw(int(NOMINAL_RPS * WARMUP_S)),
            traffic.draw(int(NOMINAL_RPS * seconds)),
            [traffic.draw(int(rate * RUNG_S)) for rate in LADDER_RPS],
        )


@dataclass(slots=True)
class Load:
    """What the load generator saw."""

    warmup: list[Sample]
    nominal: list[Sample]
    rungs: list[Rung]

    def samples(self) -> list[Sample]:
        return [
            *self.warmup, *self.nominal, *(s for r in self.rungs for s in r.samples)
        ]


def loaded() -> int:
    """A no-op that makes a worker process import this module."""
    return os.getpid()


def generate(
    address: tuple[str, int], connections: int, start_at: float, plan: Plan
) -> Load:
    """The load generator, run in its own process.

    Warm-up and nominal traffic at ``NOMINAL_RPS`` from ``start_at``,
    then the ladder, which climbs the offered rates until the service
    falls behind.
    """
    clients = [Client(address) for __ in range(connections)]
    try:
        warmup, __ = open_loop(clients, plan.warmup, NOMINAL_RPS, start_at)
        nominal, __ = open_loop(
            clients, plan.nominal, NOMINAL_RPS, start_at + WARMUP_S
        )
        rungs = []
        for rate, requests in zip(LADDER_RPS, plan.ladder):
            origin = time.perf_counter() + 0.02
            samples, unsent = open_loop(
                clients, requests, rate, origin, cutoff_s=RUNG_S + BACKLOG_LIMIT_S
            )
            rungs.append(Rung(rate, origin, samples, unsent))
            if rungs[-1].behind:
                break
    finally:
        for client in clients:
            client.close()
    return Load(warmup, nominal, rungs)


@dataclass(slots=True)
class Swap:
    """One publish + reload, and a probe request sent right after it."""

    version: int
    started: float
    published: float
    reloaded: float
    status: int
    body: Any
    probe: Any

    @property
    def probe_version(self) -> int | None:
        return None if self.probe is None else self.probe.get("model_version")


def swap(
    admin: Client, registry: ModelRegistry, bundle: ModelBundle, probe_name: str
) -> Swap:
    """Publish ``bundle`` as a new version and have the service reload it.

    A probe request follows the reload on the same connection; its
    answer must already carry the new version.
    """
    started = time.perf_counter()
    version = registry.publish(bundle)
    published = time.perf_counter()
    status, body = admin.call("POST", "/admin/reload", {})
    reloaded = time.perf_counter()
    __, probe = admin.call("POST", "/v1/score", {"domain": probe_name})
    return Swap(version, started, published, reloaded, status, body, probe)


def idle_swaps(
    admin: Client, registry: ModelRegistry, bundle: ModelBundle, probe_name: str
) -> list[Swap]:
    """``IDLE_SWAPS`` swaps with no traffic running."""
    swaps = []
    begin = time.perf_counter()
    for index in range(IDLE_SWAPS):
        time.sleep(max(0.0, begin + index * IDLE_SWAP_EVERY_S - time.perf_counter()))
        swaps.append(swap(admin, registry, bundle, probe_name))
    return swaps


def swaps_during_nominal(
    admin: Client,
    registry: ModelRegistry,
    bundle: ModelBundle,
    probe_name: str,
    nominal_at: float,
    seconds: float,
) -> list[Swap]:
    """A swap every ``RELOAD_EVERY_S`` of the nominal phase: the writes
    beside the reads."""
    swaps = []
    at = 1.0
    while at < seconds - 1.0:
        time.sleep(max(0.0, nominal_at + at - time.perf_counter()))
        swaps.append(swap(admin, registry, bundle, probe_name))
        at += RELOAD_EVERY_S
    return swaps


# A verdict's score depends on which other names shared its scoring
# call, by a rounding step (BLAS blocks the kernel matrix by batch
# shape), and the service's verdict cache keeps whichever call came
# first. Scores therefore agree to this tolerance, not bit for bit.
SCORE_TOLERANCE = 1e-12


def same_verdict(answer: dict[str, Any], verdict) -> bool:
    """Whether one HTTP result equals an in-process verdict."""
    return (
        answer["domain"] == verdict.domain
        and answer["known"] == verdict.known
        and answer["malicious"] == verdict.malicious
        and math.isclose(
            answer["score"], verdict.score,
            rel_tol=SCORE_TOLERANCE, abs_tol=SCORE_TOLERANCE,
        )
    )


def replay(bundle: ModelBundle, samples: Sequence[Sample]) -> dict[str, Any]:
    """Score the same requests in-process; count HTTP/in-process mismatches.

    Every 200 answer must equal ``DomainScorer.score_batch`` on the
    same bundle, verdict for verdict (see ``SCORE_TOLERANCE``).
    """
    metrics = MetricsRegistry()
    scorer = DomainScorer(bundle, metrics=metrics)
    busy = 0.0
    mismatches = names = unknown = 0
    for sample in samples:
        started = time.perf_counter()
        verdicts = scorer.score_batch(sample.domains)
        busy += time.perf_counter() - started
        names += len(verdicts)
        unknown += sum(1 for v in verdicts if not v.known)
        if sample.status == 200 and not (
            len(sample.body["results"]) == len(verdicts)
            and all(map(same_verdict, sample.body["results"], verdicts))
        ):
            mismatches += 1
    hits = metrics.counter("serve.cache.hits").value
    misses = metrics.counter("serve.cache.misses").value
    return {
        "score_batch_us": busy / len(samples) * 1e6,
        "cache_hit_ratio": hits / (hits + misses),
        "unknown_ratio": unknown / names,
        "mismatches": mismatches,
    }
