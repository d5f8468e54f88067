"""The package's thread budget: the CPUs it may use, ``share`` across
them, and one BLAS thread.

Every GEMM the package runs uses one BLAS thread, because the bits of a
BLAS product can depend on how many threads computed it; all the
parallelism is the package's own threads, which only ``share`` starts.
``one_blas_thread`` sets the count around every forward and backward
(``SentimentModel.forward``, ``tensor.backward``), whoever calls them,
and restores the caller's.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
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


def share(name: str, fn, parts, threaded: bool = True) -> None:
    """``fn`` over each of ``parts``, on the calling thread plus, when
    ``threaded``, one helper per further usable CPU, at most one thread
    per part. Helper n, named ``{name}-{n}``, starts on part n - 1 and
    the calling thread on the part after the helpers' first ones; then
    each thread takes the next part left, in order. The helpers are
    joined before this returns or raises. A failing part stops the others
    taking new parts; the calling thread's error wins over a helper's.
    """
    lock = threading.Lock()
    errors: list[BaseException] = []

    def work(i):
        while i is not None:
            fn(parts[i])
            with lock:
                i = None if errors else next(left, None)

    def helper(i):
        try:
            work(i)
        except BaseException as e:  # raised again on the calling thread
            with lock:
                errors.append(e)

    helpers = [threading.Thread(target=helper, args=(n - 1,), name=f"{name}-{n}")
               for n in range(1, min(usable_cpus(), len(parts)) if threaded else 1)]
    left = iter(range(len(helpers), len(parts)))
    first = next(left, None)
    try:
        for t in helpers:
            t.start()
        work(first)
    except BaseException as e:
        with lock:
            errors.append(e)
        raise
    finally:
        for t in helpers:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]


# How many threads are inside ``one_blas_thread``, and the count the first
# of them found: the BLAS count is one setting for the whole process.
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_before = None


@contextmanager
def one_blas_thread():
    """Run the body, or the decorated function, with one BLAS thread, then
    restore the count the caller had. Bodies may nest and overlap across
    threads: the first one in saves the count, the last one out restores it.
    """
    global _blas_depth, _blas_before
    count = _blas_thread_count()
    if count is None:
        yield
        return
    get, set_ = count
    with _blas_lock:
        if not _blas_depth:
            _blas_before = get()
            set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if not _blas_depth:
                set_(_blas_before)
