"""A worker process that the benchmark starts, feeds calls to and waits for.

The parent writes pickled ``(module, function, args)`` calls to the
child's standard input; the child answers each with a pickled
``(ok, value)`` on its standard output, in order, until its standard
input closes. Nothing from :mod:`multiprocessing` is used, so no helper
process of its own (such as the resource tracker) outlives a run.
"""

from __future__ import annotations

import importlib
import os
import pickle
import signal
import subprocess
import sys
import traceback
from pathlib import Path
from types import TracebackType
from typing import Any, Callable

STOP_TIMEOUT_S = 30.0


class Worker:
    """One child Python process with ``perfbench/`` and ``src/`` importable.

    Use it as a context manager: leaving the block closes the child's
    input and waits for it to end; leaving it on an exception kills the
    child first, so an interrupted run never waits on a busy worker.
    """

    def __init__(self, src_dir: Path) -> None:
        here = Path(__file__).resolve().parent
        path = [str(here), str(src_dir)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        )

    def send(self, fn: Callable[..., Any], *args: Any) -> None:
        """Start ``fn(*args)`` in the child; :meth:`receive` collects it."""
        pickle.dump((fn.__module__, fn.__name__, args), self.proc.stdin)
        self.proc.stdin.flush()

    def receive(self) -> Any:
        """The result of the oldest call not yet received."""
        try:
            ok, value = pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(
                f"worker process ended with status {self.proc.wait()}"
            ) from None
        if not ok:
            raise RuntimeError(f"call failed in the worker process:\n{value}")
        return value

    def call(self, fn: Callable[..., Any], *args: Any) -> Any:
        self.send(fn, *args)
        return self.receive()

    def stop(self, kill: bool = False) -> None:
        if kill and self.proc.poll() is None:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.stop(kill=exc_type is not None)


def serve_calls() -> None:
    """The child's loop: answer each call read from standard input."""
    # The parent stops the child itself; a Ctrl-C meant for the parent
    # must not kill the child mid-answer.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    calls, answers = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr
    while True:
        try:
            module, name, args = pickle.load(calls)
        except EOFError:
            return
        try:
            answer = (True, getattr(importlib.import_module(module), name)(*args))
        except Exception:
            answer = (False, traceback.format_exc())
        pickle.dump(answer, answers)
        answers.flush()


if __name__ == "__main__":
    serve_calls()
