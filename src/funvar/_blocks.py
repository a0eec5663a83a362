"""Row blocks of the O(n^2) passes, run on one pool of threads.

The pairwise distances and the kernel smooths split their rows into
blocks, and each block writes its own slice of one preallocated output.
The blocks call only numpy and scipy, whose large calls release the GIL,
so on several CPUs the blocks of one pass run at once. The pool is made on
first use, with one thread per usable CPU. A pass with fewer than
``MIN_CELLS`` output cells, or any pass on a single CPU, runs inline:
handing it to a thread would cost more than it saves.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

MIN_CELLS = 1 << 18
# tasks per usable CPU: a thread that finishes its block early takes another
TASKS_PER_CPU = 8

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a taskset or cpuset narrows it), else every CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def task_count(cells: int) -> int:
    """How many tasks a pass writing ``cells`` output cells is split into;
    1 means the pass runs inline."""
    cpus = usable_cpus()
    return 1 if cells < MIN_CELLS or cpus == 1 else TASKS_PER_CPU * cpus


def split(n: int, parts: int, align: int = 1) -> list[tuple[int, int]]:
    """``parts`` (or fewer) nonempty row ranges covering ``range(n)`` with
    about equal numbers of rows, each starting at a multiple of ``align``."""
    units = -(-n // align)
    parts = max(1, min(parts, units))
    cuts = [min(n, align * (units * i // parts)) for i in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def run(fn: Callable[[int, int], None], bounds: Sequence[tuple[int, int]]) -> None:
    """``fn(lo, hi)`` for each row range in ``bounds``: inline for a single
    range, on the pool for more. Returns once every call has finished, and
    raises the first error in ``bounds`` order."""
    if len(bounds) <= 1:
        for lo, hi in bounds:
            fn(lo, hi)
        return
    pool = _shared_pool()
    for future in [pool.submit(fn, lo, hi) for lo, hi in bounds]:
        future.result()


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(usable_cpus(), thread_name_prefix="funvar-rows")
        return _pool


def _forget_pool() -> None:
    """In a forked child, which has none of its parent's threads: a pass
    handed to the parent's pool would wait forever, so make a new one."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
