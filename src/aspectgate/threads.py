"""The package's thread budget: the CPUs it may use, and one BLAS thread.

Every GEMM the package runs uses one BLAS thread, because the bits of a
BLAS product can depend on how many threads computed it; all the
parallelism is the package's own threads. ``one_blas_thread`` sets the
count around the compute entry points and restores the caller's.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# where numpy's wheels bundle their OpenBLAS: Linux, then macOS
_LIB_DIRS = (Path(np.__file__).resolve().parent.parent / "numpy.libs",
             Path(np.__file__).resolve().parent / ".dylibs")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@functools.cache
def _blas_thread_count():
    """The bundled OpenBLAS's thread-count (getter, setter), looked up once
    per process; None, with one warning that names the BLAS, when numpy
    runs on a BLAS the package cannot set."""
    for lib in sorted(p for d in _LIB_DIRS for p in d.glob("libscipy_openblas*")):
        try:
            blas = ctypes.CDLL(str(lib))
            get = blas.scipy_openblas_get_num_threads64_
            set_ = blas.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name", "unknown")
    except (TypeError, KeyError):  # numpy older than 1.25
        name = "unknown"
    warnings.warn(
        f"aspectgate cannot set the thread count of numpy's BLAS ({name}): its GEMMs run "
        "at the BLAS's own count, so results may depend on the machine's core count",
        RuntimeWarning, stacklevel=2,
    )
    return None


@contextmanager
def one_blas_thread():
    """Run the body, or the decorated function, with one BLAS thread, then
    restore the count the caller had."""
    count = _blas_thread_count()
    if count is None:
        yield
        return
    get, set_ = count
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
