"""Versioned on-disk model registry with atomic publish and hot swap.

A registry root holds numbered slots::

    registry/
      CURRENT        <- "2\\n" (the published pointer, updated atomically)
      v0001/         <- a ModelBundle directory
      v0002/

Publishing seals the bundle in a hidden staging directory inside the
root and then renames it into its slot, following the durable protocol
of :mod:`repro.artifacts`: readers either see a complete, checksummed
bundle or no slot at all — never a half-written one. The ``CURRENT``
pointer is likewise replaced atomically (write-temp, fsync,
``os.replace``), so a crash mid-publish leaves the previous version
live.

In-process, :meth:`ModelRegistry.activate` loads a version and swaps it
into the :attr:`~ModelRegistry.active` slot with a single reference
assignment — readers on other threads take a consistent
``(version, bundle)`` snapshot without any lock.
"""

from __future__ import annotations

import re
import tempfile
import threading
from pathlib import Path

from repro import artifacts
from repro.artifacts import MANIFEST_FILENAME
from repro.errors import DatasetError
from repro.obs.logging import get_logger
from repro.serve.bundle import ModelBundle

__all__ = ["CURRENT_FILENAME", "ModelRegistry"]

_log = get_logger(__name__)

CURRENT_FILENAME = "CURRENT"
_SLOT_PATTERN = re.compile(r"^v(\d{4,})$")


class ModelRegistry:
    """Versioned slots for model bundles under one root directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Serializes publishers in this process; cross-process races are
        # handled by the rename-retry loop in publish().
        self._publish_lock = threading.Lock()
        # The hot-swap slot: assigned in one shot, read in one shot.
        self._active: tuple[int, ModelBundle] | None = None

    # ------------------------------------------------------------------
    # Disk layout

    def slot_path(self, version: int) -> Path:
        """Directory of ``version`` (which need not exist yet)."""
        if version < 1:
            raise ValueError(f"model versions start at 1, got {version}")
        return self.root / f"v{version:04d}"

    def versions(self) -> list[int]:
        """Sorted versions with a complete (manifest-bearing) bundle."""
        found: list[int] = []
        for entry in self.root.iterdir():
            match = _SLOT_PATTERN.match(entry.name)
            if (
                match
                and entry.is_dir()
                and (entry / MANIFEST_FILENAME).is_file()
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self) -> int | None:
        """The published version: the ``CURRENT`` pointer when valid,
        falling back to the highest complete slot on disk."""
        pointer = self.root / CURRENT_FILENAME
        if pointer.is_file():
            try:
                version = int(pointer.read_text(encoding="utf-8").strip())
            except ValueError:
                version = 0
            if (
                version >= 1
                and (self.slot_path(version) / MANIFEST_FILENAME).is_file()
            ):
                return version
        found = self.versions()
        return found[-1] if found else None

    # ------------------------------------------------------------------
    # Publish / load

    def publish(self, bundle: ModelBundle) -> int:
        """Atomically add ``bundle`` as the next version; returns it.

        The bundle is fully written (checksums and all) into a uniquely
        named staging directory inside the root, then renamed into its
        numbered slot. If another publisher claims the slot first, the
        next number is tried — no version is ever overwritten.
        """
        with self._publish_lock:
            with artifacts.staging(
                Path(tempfile.mkdtemp(prefix=".publish-", dir=self.root))
            ) as staging:
                bundle.seal_into(staging)
                found = self.versions()
                version = (found[-1] if found else 0) + 1
                while not artifacts.claim(staging, self.slot_path(version)):
                    version += 1
            self._write_current(version)
        _log.info(
            "model_published",
            version=version,
            root=str(self.root),
            domains=len(bundle.domains),
        )
        return version

    def _write_current(self, version: int) -> None:
        """Atomically repoint ``CURRENT`` at ``version``."""
        artifacts.replace_file(self.root / CURRENT_FILENAME, f"{version}\n")

    def load(self, version: int | None = None) -> ModelBundle:
        """Load a bundle from disk (the published one by default)."""
        resolved = version if version is not None else self.latest_version()
        if resolved is None:
            raise DatasetError(
                f"no published model versions under {self.root}"
            )
        return ModelBundle.load(self.slot_path(resolved))

    # ------------------------------------------------------------------
    # In-process hot swap

    def activate(self, version: int | None = None) -> int:
        """Load a version and make it the active bundle (atomic swap).

        Readers holding the previous ``active`` snapshot keep using it
        untouched; new readers see the new version. No locks are taken
        on the read path.
        """
        resolved = version if version is not None else self.latest_version()
        if resolved is None:
            raise DatasetError(
                f"no published model versions under {self.root}"
            )
        bundle = ModelBundle.load(self.slot_path(resolved))
        self._active = (resolved, bundle)
        return resolved

    @property
    def active(self) -> tuple[int, ModelBundle] | None:
        """A consistent ``(version, bundle)`` snapshot, or ``None``."""
        return self._active

    @property
    def active_version(self) -> int | None:
        """Version of the active bundle, or ``None``."""
        snapshot = self._active
        return snapshot[0] if snapshot is not None else None
