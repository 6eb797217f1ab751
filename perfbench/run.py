"""Whole-path benchmark: simulate, detect, publish and serve, from a seed.

Run from the repository root::

    python3 perfbench/run.py --workload detect-batch --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around every call into the program, prints the per-layer metrics and
writes the spans to ``.perfbench/traces/``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed correctness check exits with status 1; a
checkout without the program exits with status 2 before any result.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

END_TO_END = (
    "setup_s", "detect_s", "peak_rss_mb", "auc", "serve_p50_ms",
    "serve_max_rate_rps", "serve_rss_mb",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("detect-batch", "detect-chunked")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="length of the nominal serving phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path, args: argparse.Namespace) -> dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program here (src/repro is missing); "
            "run from the repository root",
            file=sys.stderr,
        )
        return 2
    # SIGTERM unwinds like an error: the service and worker processes
    # are stopped and scratch files removed on the way out.
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(143))
    sys.path.insert(0, str(root / "src"))
    from tracing import Tracer
    import workload

    env = environment(root, args)
    print(json.dumps({"environment": env}))
    tracer = Tracer(enabled=bool(args.trace))
    work = root / ".perfbench" / f"work-{os.getpid()}"
    try:
        out = workload.run(args.workload, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        path = root / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"environment": env, **out.details})
        print(f"spans written to {path.relative_to(root)}")
        names = [n for n in out.metrics if n not in END_TO_END]
    else:
        names = list(END_TO_END)
    for name, passed in out.checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    for name in names:
        value, unit = out.metrics[name]
        print(f"{name:32s} {value:14.6g} {unit}")
    correct = all(out.checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics[name][0], "unit": out.metrics[name][1]}
            for name in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
