"""Machine and software record written into every result file."""

from __future__ import annotations

import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict:
    """Cache sizes of cpu0 by level, e.g. {"L2": "2048K", "L3": "107520K"}."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out["L" + level] = size
    return out


def git_commit(root: str) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git directly."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(root, ".git", ref))
    if sha:
        return sha
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def record(root: str, seed: int | None, blas_threads: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "seed": seed,
        "git_commit": git_commit(root),
    }
