"""One write-and-verify protocol for integrity-checked artifact directories.

Model bundles, stage checkpoints and the model registry each persist a
directory of files plus a ``manifest.json`` that records each file's
SHA-256; this module is the only code that writes, verifies or moves
one. Every write step is fsynced before the next, so a crash or power
cut leaves the previous directory, no directory, or one without a
manifest, which :func:`verify` rejects with
:class:`~repro.errors.ArtifactIntegrityError`. The protocol is described
once, in "Artifacts" of ``docs/architecture.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import Field, asdict, fields
from pathlib import Path
from typing import Any, BinaryIO, ClassVar, Iterator, Protocol, TypeVar

from repro.errors import ArtifactIntegrityError

MANIFEST_FILENAME = "manifest.json"


class Manifest(Protocol):
    """What the protocol needs of a manifest dataclass."""

    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]
    schema_version: int
    files: dict[str, str]


M = TypeVar("M", bound=Manifest)


def _digest(stream: BinaryIO) -> str:
    """Hex SHA-256 of an open file, streamed in 1 MiB chunks."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: stream.read(1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _fsync_directory(directory: Path) -> None:
    handle = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


def parse_manifest(text: str, kind: type[M], label: str) -> M:
    """Parse manifest JSON into ``kind``; unknown keys are ignored.

    ``label`` ("bundle", "checkpoint") names the artifact in errors.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactIntegrityError(
            f"unreadable {label} manifest: {exc}"
        ) from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("files", {}), dict):
        raise ArtifactIntegrityError(
            f"{label} manifest must be a JSON object whose files is an object"
        )
    try:
        return kind(**{f.name: raw[f.name] for f in fields(kind) if f.name in raw})
    except TypeError as exc:  # a field without a default is absent
        raise ArtifactIntegrityError(
            f"incomplete {label} manifest: {exc}"
        ) from exc


def read_manifest(directory: Path, kind: type[M], label: str) -> M:
    """Read ``directory``'s manifest without checking any file against it."""
    path = directory / MANIFEST_FILENAME
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ArtifactIntegrityError(
            f"no {label} manifest under {directory}"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ArtifactIntegrityError(
            f"unreadable {label} manifest {path}: {exc}"
        ) from exc
    return parse_manifest(text, kind, label)


def verify(directory: Path, kind: type[M], schema_version: int, label: str) -> M:
    """Read ``directory``'s manifest and check its schema and every file."""
    manifest = read_manifest(directory, kind, label)
    if manifest.schema_version != schema_version:
        raise ArtifactIntegrityError(
            f"unsupported {label} schema version {manifest.schema_version}"
        )
    for name, expected in manifest.files.items():
        artifact = directory / name
        if not artifact.is_file():
            raise ArtifactIntegrityError(f"{label} artifact missing: {artifact}")
        with open(artifact, "rb") as stream:
            actual = _digest(stream)
        if actual != expected:
            raise ArtifactIntegrityError(
                f"checksum mismatch for {artifact}: manifest "
                f"{expected!s:.12}..., file {actual:.12}..."
            )
    return manifest


@contextmanager
def staging(path: Path) -> Iterator[Path]:
    """A fresh staging directory at ``path``, clearing an earlier one.

    Removed on exit unless the body moved it into place.
    """
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def seal(directory: Path, manifest: M) -> M:
    """Hash and fsync every file into ``manifest.files``, then write it.

    The manifest lands last and is fsynced, then the directory is.
    """
    files: dict[str, str] = {}
    for entry in sorted(directory.iterdir()):
        if entry.is_file() and entry.name != MANIFEST_FILENAME:
            with open(entry, "rb") as stream:
                files[entry.name] = _digest(stream)
                os.fsync(stream.fileno())
    manifest.files = files
    with open(directory / MANIFEST_FILENAME, "w", encoding="utf-8") as stream:
        stream.write(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
        stream.flush()
        os.fsync(stream.fileno())
    _fsync_directory(directory)
    return manifest


def install(sealed: Path, final: Path) -> None:
    """Rename ``sealed`` to ``final``, replacing any previous version.

    The previous version is renamed aside, not deleted in place, so
    ``final`` is always complete or absent; it goes once the rename is
    durable.
    """
    retired = final.with_name(f".{final.name}.retired")
    shutil.rmtree(retired, ignore_errors=True)
    if final.exists():
        os.rename(final, retired)
    os.rename(sealed, final)
    _fsync_directory(final.parent)
    shutil.rmtree(retired, ignore_errors=True)


def claim(sealed: Path, final: Path) -> bool:
    """Rename ``sealed`` to ``final`` only if ``final`` does not exist."""
    # POSIX rename replaces an *empty* directory, so look first; the
    # OSError branch covers a concurrent claim in between.
    if final.exists():
        return False
    try:
        os.rename(sealed, final)
    except OSError:
        if final.exists():
            return False
        raise
    _fsync_directory(final.parent)
    return True


def replace_file(path: Path, text: str) -> None:
    """Atomically and durably replace the small text file at ``path``."""
    handle, temp = tempfile.mkstemp(prefix=f".{path.name}-", dir=path.parent)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp, path)
    except BaseException:
        Path(temp).unlink(missing_ok=True)
        raise
    _fsync_directory(path.parent)
