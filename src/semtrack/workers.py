"""The process's one pool of worker threads.

:func:`pool` builds it on first use, with one thread per CPU this process
may run on (:func:`cpus`), and every module that spreads work over the CPUs
shares it: ``degrade.apply_chain`` degrades a sequence's frames on it, and
the backward rule of a taped ``autodiff.linear`` hands it the weight
gradient. NumPy releases the interpreter lock in its arithmetic, so a
worker's product runs on another CPU while the caller's thread makes its
own.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def cpus() -> int:
    """The number of CPUs this process may run on now."""
    return len(os.sched_getaffinity(0))


def pool() -> ThreadPoolExecutor:
    """The shared workers, built on first use: at most one thread per CPU
    this process may run on."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=cpus(), thread_name_prefix="semtrack")
        return _pool
