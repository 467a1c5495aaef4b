"""Machine descriptor and process memory readings recorded with every result."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
from pathlib import Path
from typing import Dict, Optional


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _version(module: str) -> Optional[str]:
    try:
        return __import__(module).__version__
    except ImportError:
        return None


def _git_commit(root: Path) -> Optional[str]:
    """The checked-out commit, or None outside a git work tree.

    The ceiling keeps git from searching directories above ``root``.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.resolve().parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def describe(root: Path, workload: str, seed: int) -> Dict[str, object]:
    from repro.pir import resolve_kernel

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pir_kernel": resolve_kernel(),
        "git_commit": _git_commit(root),
    }
