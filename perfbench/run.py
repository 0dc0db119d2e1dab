"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload explore_memory --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and half traced and prints the per-layer metrics (and
writes the spans to ``perfbench/out/``). Earlier lines of standard output
carry provenance and sample counts; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
when the run completed, even if outputs were wrong (``correct`` says so),
and 2 when the program under test cannot be found or the run crashed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def source_fingerprint() -> str:
    """sha256 over the program's source files (the checkout may lack git)."""
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    from perfbench.workloads import WORKLOADS

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "backend": WORKLOADS[workload].backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    trace = bool(args.trace)
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds, trace)}))
    try:
        outcome = run(args.workload, args.seed, args.seconds, trace)
    except Exception:  # noqa: BLE001 - report the crash, print no result
        traceback.print_exc()
        return 2
    recorder = outcome.recorder
    if recorder is not None:
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        recorder.write_jsonl(out / f"spans-{args.workload}-{args.seed}.jsonl")
    print(json.dumps({"samples": outcome.info}))
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
