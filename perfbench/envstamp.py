"""The environment a result was measured in, read without importing numpy."""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
from pathlib import Path


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit(root: Path) -> str | None:
    """HEAD's commit read from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest(root: Path) -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ckkernel").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(root: Path, workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
    }
