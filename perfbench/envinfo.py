"""Record of the machine and software a benchmark report was measured on."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

_CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")
_UNITS = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def caches() -> list[dict]:
    """Data and unified caches of CPU 0, as sysfs describes them."""
    out = []
    for index in sorted(_CACHE_DIR.glob("index*")):
        kind = _read(index / "type")
        size = _read(index / "size")
        if kind == "Instruction" or not size:
            continue
        scale = _UNITS.get(size[-1], 1)
        out.append({
            "level": int(_read(index / "level") or 0),
            "type": kind,
            "bytes": int(size.rstrip("KMG")) * scale,
            "shared_cpu_list": _read(index / "shared_cpu_list"),
        })
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` if it is itself a git work tree, else None."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {"name": deps.get("name"), "version": deps.get("version")}


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "RCP_THREADS": os.environ.get("RCP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": blas(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "caches": caches(),
        "git_commit": git_commit(root),
    }
