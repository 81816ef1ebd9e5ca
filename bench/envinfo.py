"""Environment block recorded with every benchmark result.

Everything here is read, never set: library versions, the BLAS build,
the thread variables the worker ran with, the CPU, its cache sizes, the
cgroup CPU quota and the source commit when the checkout is a git tree.
The paths and names that run.py and worker.py share are defined here too.
"""

import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")  # run records and spans, ignored by git
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _read(path: str):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model():
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Per-instance cache size by level, as sysfs reports it for cpu0."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            out[f"L{level}"] = _read(f"{base}/{entry}/size")
    return out


def _cgroup_cpu_max():
    """cgroup v2 `cpu.max`, or the v1 quota and period in the same form."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        return v2
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def _blas() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": cfg.get("name"), "version": cfg.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": None, "version": None}


def _git_commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def collect(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "cgroup_cpu_max": _cgroup_cpu_max(),
        "git_commit": _git_commit(ROOT),
        "seed": seed,
        "byte_counts": "computed from array sizes, not measured",
    }
