"""Tests for the shared artifact protocol (repro.artifacts).

The crash-point tests run each writer — a bundle save, a checkpoint save
over an existing checkpoint, a registry publish over v1 — in a forked
child whose OS calls are counted, and end the child with ``os._exit``
just before or just after one of them, so no cleanup code runs. After
every crash the reader must see the prior version, the new version once
its rename has landed, or :class:`~repro.errors.ArtifactIntegrityError`;
never a torn load. A later write must then succeed.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import shutil
import signal
import traceback
from pathlib import Path

import numpy as np
import pytest

from repro import artifacts
from repro.errors import ArtifactIntegrityError
from repro.ingest import PipelineCheckpointer
from repro.ingest.checkpoint import STAGE_PRUNE, StageManifest
from repro.serve import BundleManifest, ModelBundle, ModelRegistry

_CRASHED = 75
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT


class TestManifestParsing:
    def test_json_round_trip(self, tmp_path):
        manifest = BundleManifest(
            created_at=123.0,
            config_fingerprint="abc",
            metrics={"f1": 0.9},
            domain_count=7,
            feature_dimension=48,
            threshold=-0.25,
        )
        (tmp_path / "classifier.npz").write_bytes(b"model")
        artifacts.seal(tmp_path, manifest)
        text = (tmp_path / artifacts.MANIFEST_FILENAME).read_text()
        assert artifacts.parse_manifest(text, BundleManifest, "bundle") == manifest
        assert set(manifest.files) == {"classifier.npz"}

    def test_on_disk_keys_unchanged(self, tmp_path):
        artifacts.seal(tmp_path, StageManifest(stage=STAGE_PRUNE))
        text = (tmp_path / artifacts.MANIFEST_FILENAME).read_text()
        assert set(json.loads(text)) == {
            "stage", "schema_version", "fingerprint", "created_at",
            "complete", "files", "meta",
        }

    def test_unknown_fields_ignored(self):
        text = json.dumps(
            {"schema_version": 1, "domain_count": 3, "novel_field": True}
        )
        manifest = artifacts.parse_manifest(text, BundleManifest, "bundle")
        assert manifest.domain_count == 3

    def test_non_object_rejected(self):
        with pytest.raises(ArtifactIntegrityError, match="JSON object"):
            artifacts.parse_manifest("[1, 2]", BundleManifest, "bundle")

    def test_stage_manifest_requires_object(self):
        with pytest.raises(ArtifactIntegrityError):
            artifacts.parse_manifest("[1, 2]", StageManifest, "checkpoint")

    def test_missing_required_field_rejected(self):
        with pytest.raises(ArtifactIntegrityError, match="incomplete"):
            artifacts.parse_manifest("{}", StageManifest, "checkpoint")

    def test_files_must_be_an_object(self):
        with pytest.raises(ArtifactIntegrityError, match="files"):
            artifacts.parse_manifest(
                '{"files": [1]}', BundleManifest, "bundle"
            )


class TestVerify:
    def test_unreadable_manifest_rejected(self, tmp_path):
        (tmp_path / artifacts.MANIFEST_FILENAME).write_bytes(b"\xff\xfe{")
        with pytest.raises(ArtifactIntegrityError, match="unreadable"):
            artifacts.verify(tmp_path, BundleManifest, 1, "bundle")

    def test_non_string_checksum_rejected(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"a")
        (tmp_path / artifacts.MANIFEST_FILENAME).write_text(
            '{"files": {"a.bin": 5}}'
        )
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            artifacts.verify(tmp_path, BundleManifest, 1, "bundle")


class TestBundleSave:
    def test_bundle_save_refuses_foreign_directory(self, make_bundle, tmp_path):
        (tmp_path / "keep.txt").write_text("not a bundle")
        with pytest.raises(OSError):
            make_bundle().save(tmp_path)
        assert (tmp_path / "keep.txt").is_file()

    def test_bundle_save_replaces_previous_bundle(self, make_bundle, tmp_path):
        make_bundle(seed=1).save(tmp_path / "bundle")
        make_bundle(seed=2).save(tmp_path / "bundle")
        loaded = ModelBundle.load(tmp_path / "bundle")
        assert loaded.manifest.config_fingerprint == "fp-2"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["bundle"]


# -- crash points -----------------------------------------------------------


def _counted(action, root: Path, crash_at: int | None, after: bool) -> list[str]:
    """Run ``action(root)``, naming each OS call of the write protocol.

    Only ever called in a forked child: the patches are never undone.
    """
    steps: list[str] = []
    real_open, real_os_open = builtins.open, os.open
    real_fsync, real_rename, real_replace = os.fsync, os.rename, os.replace

    def step(name, call):
        index = len(steps)
        steps.append(name)
        if index == crash_at and not after:
            os._exit(_CRASHED)
        result = call()
        if index == crash_at and after:
            os._exit(_CRASHED)
        return result

    def fake_open(file, mode="r", *args, **kwargs):
        call = lambda: real_open(file, mode, *args, **kwargs)  # noqa: E731
        if any(flag in mode for flag in "wax+"):
            return step(f"write {Path(str(file)).name}", call)
        return call()

    def fake_os_open(path, flags, *args, **kwargs):
        call = lambda: real_os_open(path, flags, *args, **kwargs)  # noqa: E731
        if flags & _WRITE_FLAGS:
            return step(f"create {Path(path).name}", call)
        return call()

    def fake_fsync(fd):
        target = Path(os.readlink(f"/proc/self/fd/{fd}")).name
        return step(f"fsync {target}", lambda: real_fsync(fd))

    def fake_rename(src, dst):
        return step(
            f"rename {Path(src).name} {Path(dst).name}",
            lambda: real_rename(src, dst),
        )

    def fake_replace(src, dst):
        return step(
            f"replace {Path(src).name} {Path(dst).name}",
            lambda: real_replace(src, dst),
        )

    builtins.open = io.open = fake_open
    os.open, os.fsync = fake_os_open, fake_fsync
    os.rename, os.replace = fake_rename, fake_replace
    action(root)
    return steps


def _run_forked(action, root: Path, crash_at=None, after=False):
    """(exit code, recorded steps or child traceback) of one child run."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child process
        signal.alarm(60)  # a deadlocked child dies instead of hanging the test
        os.close(read_fd)
        code = 1
        try:
            payload = json.dumps(_counted(action, root, crash_at, after))
            code = 0
        except BaseException:
            payload = traceback.format_exc()
        os.write(write_fd, payload.encode())
        os._exit(code)
    os.close(write_fd)
    chunks = []
    while chunk := os.read(read_fd, 1 << 16):
        chunks.append(chunk)
    os.close(read_fd)
    __, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status), b"".join(chunks).decode()


def _crash_everywhere(base: Path, tmp_path: Path, action, observe, rewrite):
    """Crash ``action`` before and after each of its steps.

    ``observe(root)`` reports what a reader sees; ``rewrite(root)``
    is the later write that must succeed. Returns the recorded steps
    and the set of outcomes seen.
    """
    probe = tmp_path / "probe"
    shutil.copytree(base, probe)
    code, payload = _run_forked(action, probe)
    assert code == 0, payload
    steps = json.loads(payload)
    seen = set()
    for index, name in enumerate(steps):
        for after in (False, True):
            root = tmp_path / f"crash-{index}-{int(after)}"
            shutil.copytree(base, root)
            code, payload = _run_forked(action, root, index, after)
            assert code == _CRASHED, (name, after, payload)
            seen.add(observe(root))
            rewrite(root)
    return steps, seen


def _bundle_outcome(bundles, load):
    """"prior", "new" or "rejected" — asserting no torn mix is served."""
    try:
        loaded = load()
    except ArtifactIntegrityError:
        return "rejected"
    for outcome, bundle in bundles.items():
        if loaded.manifest.config_fingerprint == bundle.manifest.config_fingerprint:
            assert loaded.domains == bundle.domains
            assert np.array_equal(loaded.features, bundle.features)
            assert np.array_equal(
                loaded.decision_scores(bundle.features),
                bundle.decision_scores(bundle.features),
            )
            return outcome
    raise AssertionError(f"unexpected bundle {loaded.manifest}")


def _assert_covers(steps, *names):
    for name in names:
        assert any(step.startswith(name) for step in steps), (name, steps)


@pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="names fsync targets via /proc"
)
class TestCrashPoints:
    def test_bundle_save(self, make_bundle, tmp_path):
        prior, new, later = (make_bundle(seed=s) for s in (1, 2, 3))
        base = tmp_path / "base"
        prior.save(base / "bundle")
        bundles = {"prior": prior, "new": new}

        def observe(root):
            return _bundle_outcome(
                bundles, lambda: ModelBundle.load(root / "bundle")
            )

        def rewrite(root):
            later.save(root / "bundle")
            loaded = ModelBundle.load(root / "bundle")
            assert loaded.manifest.config_fingerprint == "fp-3"

        steps, seen = _crash_everywhere(
            base, tmp_path, lambda root: new.save(root / "bundle"),
            observe, rewrite,
        )
        _assert_covers(
            steps,
            "write classifier.npz", "write features.npz",
            "fsync classifier.npz", "fsync features.npz",
            "write manifest.json", "fsync manifest.json",
            "fsync .bundle.staging", "rename bundle .bundle.retired",
            "rename .bundle.staging bundle", "fsync probe",
        )
        assert seen == {"prior", "new", "rejected"}

    def test_checkpoint_save_over_existing(self, tmp_path):
        def payload(values):
            def populate(staging):
                np.savez_compressed(staging / "data.npz", values=values)

            return populate

        base = tmp_path / "base"
        PipelineCheckpointer(base, "fp").save(STAGE_PRUNE, payload([1, 2]))

        def observe(root):
            try:
                directory, __ = PipelineCheckpointer(root, "fp").verify(
                    STAGE_PRUNE
                )
            except ArtifactIntegrityError:
                return "rejected"
            with np.load(directory / "data.npz") as archive:
                values = archive["values"].tolist()
            assert values in ([1, 2], [3, 4, 5])
            return "prior" if values == [1, 2] else "new"

        def rewrite(root):
            checkpointer = PipelineCheckpointer(root, "fp")
            checkpointer.save(STAGE_PRUNE, payload([6]))
            directory, __ = checkpointer.verify(STAGE_PRUNE)
            with np.load(directory / "data.npz") as archive:
                assert archive["values"].tolist() == [6]

        steps, seen = _crash_everywhere(
            base,
            tmp_path,
            lambda root: PipelineCheckpointer(root, "fp").save(
                STAGE_PRUNE, payload([3, 4, 5])
            ),
            observe,
            rewrite,
        )
        _assert_covers(
            steps,
            "write data.npz", "fsync data.npz",
            "write manifest.json", "fsync manifest.json",
            "fsync .prune.staging", "rename 01-prune .01-prune.retired",
            "rename .prune.staging 01-prune",
        )
        assert seen == {"prior", "new", "rejected"}

    def test_registry_publish_over_v1(self, make_bundle, tmp_path):
        prior, new, later = (make_bundle(seed=s) for s in (1, 2, 3))
        base = tmp_path / "base"
        ModelRegistry(base).publish(prior)
        bundles = {"prior": prior, "new": new}

        def observe(root):
            registry = ModelRegistry(root)
            assert registry.versions()[0] == 1
            return _bundle_outcome(bundles, registry.load)

        def rewrite(root):
            registry = ModelRegistry(root)
            version = registry.publish(later)
            assert registry.latest_version() == version
            assert registry.load().manifest.config_fingerprint == "fp-3"

        steps, seen = _crash_everywhere(
            base, tmp_path, lambda root: ModelRegistry(root).publish(new),
            observe, rewrite,
        )
        _assert_covers(
            steps,
            "write classifier.npz", "write features.npz",
            "fsync classifier.npz", "fsync features.npz",
            "write manifest.json", "fsync manifest.json",
            "fsync .publish-", "rename .publish-", "create .CURRENT-",
            "fsync .CURRENT-", "replace .CURRENT-", "fsync probe",
        )
        # The publish is all-or-nothing for readers: v1 stays live until
        # CURRENT is repointed.
        assert seen == {"prior", "new"}
