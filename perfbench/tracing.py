"""In-memory spans for the benchmark's traced runs.

A span is recorded around each public call the benchmark makes into a
layer of the program: name, start, end, parent span and the process's
RSS high-water mark when the call returned. Spans stay in memory and
are written out once, when the run ends. With tracing off, ``span``
records nothing and costs one generator frame.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


def rss_hwm_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records a tree of spans when ``enabled``; a no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        """Time the enclosed block; the yielded dict takes size attributes."""
        if not self.enabled:
            yield attrs
            return
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._origin,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter() - self._origin
            record["rss_hwm_mb"] = rss_hwm_mb()
            self._stack.pop()

    def find(
        self, name: str, under: dict[str, Any] | None = None
    ) -> list[dict[str, Any]]:
        """Spans called ``name``, optionally only those below ``under``."""
        spans = self.spans
        if under is not None:
            inside = {under["id"]}
            spans = []
            for span in self.spans[under["id"] + 1:]:
                if span["parent"] in inside:
                    inside.add(span["id"])
                    spans.append(span)
        return [s for s in spans if s["name"] == name]

    def seconds(self, name: str, under: dict[str, Any] | None = None) -> float:
        """Total duration of the spans ``find`` returns."""
        return sum(s["end"] - s["start"] for s in self.find(name, under))

    def first(
        self, name: str, under: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """The earliest span ``find`` returns."""
        matches = self.find(name, under)
        if not matches:
            raise KeyError(f"no span named {name!r}")
        return matches[0]

    def children_seconds(self, parent: dict[str, Any]) -> float:
        """Time covered by ``parent``'s direct children."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["parent"] == parent["id"]
        )

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({**header, "spans": self.spans}, indent=1),
            encoding="utf-8",
        )
