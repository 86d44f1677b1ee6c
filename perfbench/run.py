"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload decay_sweep_grid256 --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``--trace 1`` reports the per-layer metrics from a traced pass.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
environment stamp and the spread of every timing over the run's units.
The exit code is 0 only when every check passed, and 2 when the
simulator's sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

#: Environment pinned before numpy is imported.  The workloads are
#: single-threaded closed loops, so a second BLAS/OpenMP thread only burns
#: CPU.  numpy's huge-page advice is off because whether the kernel grants
#: huge pages depends on the host's free memory: with it on, the peak
#: resident set of one workload read 101 MiB in some runs and 114 MiB in
#: others.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str:
    """``<sha>[-dirty]`` of the checkout, or ``"none"`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, env=env, timeout=30,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True, env=env, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return f"{sha}-dirty" if dirty else sha


def environment_stamp(seed: int) -> dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": {var: os.environ[var] for var in PINNED_ENV},
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git": _git_revision(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    # This must run before anything imports numpy.
    os.environ.update(PINNED_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"simulator sources not found under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.harness import WORKLOADS, run_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be non-negative")
    if os.environ.get("REPRO_SANITIZE"):
        return _fail("REPRO_SANITIZE is set; the benchmark measures unsanitized runs only")

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        return _fail(f"imported repro from {repro.__file__}, not from {SRC}")

    report = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, trace=bool(args.trace)
    )
    for message in report.failures:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment_stamp(args.seed),
        "spread": report.spread,
    }
    print(json.dumps(context))
    print(
        json.dumps(
            {
                "correct": report.correct,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": report.metrics,
            }
        )
    )
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
