"""Process set-up shared by the benchmark scripts; imports only the stdlib.

``prepare()`` must run before anything imports numpy: OpenBLAS reads its
thread count, and numpy its huge-page advice, once, when they load.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_MAX = -1, -4
_INT_MAX = 2 ** 31 - 1


def prepare() -> int:
    """Pin BLAS threads to nproc, turn off numpy's huge-page advice, and put
    the checkout's ``src`` first on the path.

    Whether the kernel can back an array with huge pages depends on the
    host's memory state, not on the program; with the advice on, the same
    pass ran 25% slower in some processes than in others.

    Returns the pinned thread count.  Exits with a nonzero code when the
    checkout holds no ghostbench sources, so the benchmark never measures
    some other installed copy.
    """
    if not (SRC / "ghostbench" / "cli.py").is_file():
        sys.exit(f"perfbench: no ghostbench sources under {SRC}")
    threads = len(os.sched_getaffinity(0))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    import ghostbench
    if Path(ghostbench.__file__).resolve().parent != SRC / "ghostbench":
        sys.exit(f"perfbench: imported ghostbench from {ghostbench.__file__}, not from {SRC}")
    return threads


def keep_freed_memory() -> bool:
    """Make glibc keep freed memory mapped in this process for reuse.

    Without this, every large array is a fresh mmap whose page faults cost
    a host-dependent 10-20% per call.  Called after the warm-up pass, so
    the peak RSS is still that of the default allocator.  Returns False
    where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    return bool(mallopt(_M_MMAP_MAX, 0)) and bool(mallopt(_M_TRIM_THRESHOLD, _INT_MAX))
