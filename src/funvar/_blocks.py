"""Row blocks of the O(n^2) passes, run on one pool of threads.

Every pass over a matrix of pairs (the distances, the kernel smooths and the
binned sums of the bandwidth search) is cut here into row blocks of about
``BLOCK_CELLS`` entries, each writing its own slice of one preallocated
output. The blocks call only numpy and scipy's compiled distance kernels,
and most of their large calls (ufuncs, sorts, take, cdist) release the GIL,
so on several CPUs the blocks run at once on a pool made on first use, one
thread per usable CPU.
``np.bincount`` holds the GIL for much of each call: over 2^24 keys, another
thread stalled for about 25 ms of a 60 ms call, against under 1 ms during an
``np.multiply``. So the bincounts of the binned CV sums run mostly one at a
time, whatever the size of the pool, and the bandwidth grid, mostly
bincounts, reads its pairs inline. A pass of fewer than ``MIN_CELLS``
entries, or any pass on a single CPU, runs inline. Block boundaries depend
only on the shape of the pass, never on the number of threads. Rows that
need not be in memory at once (the query curves of ``funvar predict``) go
through in chunks of :func:`chunk_rows` rows, one pass per chunk. Small
passes run inline take their temporaries from :func:`scratch`, which the
calling thread keeps from one pass to the next; any temporary of up to a
block comes from the C allocator's heap, not from fresh pages (see the
array made and freed at import).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

MIN_CELLS = 1 << 18
# 1 MB of float64: a block stays in cache, and its numpy calls are long
# enough for blocks on two threads to overlap
BLOCK_CELLS = 1 << 17
# a chunk of rows that a pass streams (4 MB of float64): twice MIN_CELLS,
# so each chunk's pass still runs on the pool
CHUNK_CELLS = 2 * MIN_CELLS
# the largest buffer a thread keeps for a slot of :func:`scratch`: the whole
# n x n block of a pass at n = 256. Larger ones, kept for good, would add
# megabytes to the resident memory of the larger runs
SCRATCH_CELLS = 1 << 16

# glibc's malloc maps fresh pages for a request above its mmap threshold
# (128 KB at start) and unmaps them on free, but freeing such a mapping
# raises the threshold to its size. So one BLOCK_CELLS array is made and
# freed here: temporaries of up to a block then reuse the heap's pages,
# where at n = 200 they took about 110 page faults a replication
np.empty(BLOCK_CELLS)

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_kept = threading.local()


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a taskset or cpuset narrows it), else every CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def inline(cells: int) -> bool:
    """Whether a pass over ``cells`` entries runs on the calling thread."""
    return cells < MIN_CELLS or usable_cpus() == 1


def row_blocks(n: int, m: int, align: int = 1) -> list[tuple[int, int]]:
    """Row ranges covering ``range(n)`` in order, of about ``BLOCK_CELLS``
    entries of an n x m pass each, starting at multiples of ``align``."""
    rows = max(align, BLOCK_CELLS // max(m, 1) // align * align)
    return [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


def chunk_rows(m: int) -> int:
    """Rows per chunk of a pass over m columns that goes through its rows
    a chunk at a time: about ``CHUNK_CELLS`` entries, in a multiple of 8
    rows, so that every chunk starts on a group of 8 rows, as the blocks
    of ``kernels.weight_matrix`` do, and a row's result does not depend
    on the chunk it falls in."""
    return max(8, CHUNK_CELLS // max(m, 1) // 8 * 8)


def triangle_blocks(n: int) -> list[tuple[int, int]]:
    """Row ranges covering ``range(n)`` in order, each with about
    ``BLOCK_CELLS`` of the pairs (i, j >= i) of an n x n matrix, in equal
    numbers: the first a rows hold a (n + 1/2) - a^2 / 2 of them."""
    c, pairs = n + 0.5, n * (n + 1) / 2
    parts = max(1, math.ceil(pairs / BLOCK_CELLS))
    cuts = sorted({0, n, *(round(c - math.sqrt(c * c - 2 * pairs * k / parts))
                           for k in range(1, parts))})
    return list(zip(cuts, cuts[1:]))


def run(fn: Callable[[int, int], None], bounds: Sequence[tuple[int, int]],
        cells: int) -> None:
    """``fn(lo, hi)`` for each row range in ``bounds`` of a pass over
    ``cells`` entries, inline or on the pool as :func:`inline` says; raises
    the first error in ``bounds`` order once every call has finished."""
    if len(bounds) <= 1 or inline(cells):
        for lo, hi in bounds:
            fn(lo, hi)
        return
    pool = _shared_pool()
    futures = [pool.submit(fn, lo, hi) for lo, hi in bounds]
    wait(futures)
    for future in futures:
        future.result()


def scratch(slot: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array of ``shape`` and ``dtype`` for a temporary of
    a row block. A thread that runs its passes inline keeps the buffer of
    each (slot, dtype) of up to ``SCRATCH_CELLS`` entries and hands it out
    again on the next call, so that a run of small passes does not give its
    memory back to the system and fault it in again; a pool worker, or a
    larger request, gets a new array. The caller must overwrite it before
    reading it, let no result alias it, and not ask for the same slot again
    while it is in use."""
    cells = math.prod(shape)
    if cells > SCRATCH_CELLS or getattr(_kept, "pool_worker", False):
        return np.empty(shape, dtype)
    bufs = _kept.__dict__.setdefault("bufs", {})
    key = (slot, np.dtype(dtype))
    buf = bufs.get(key)
    if buf is None or buf.size < cells:
        buf = bufs[key] = np.empty(cells, dtype)
    return buf[:cells].reshape(shape)


def _mark_pool_worker() -> None:
    _kept.pool_worker = True


def _shared_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(usable_cpus(), thread_name_prefix="funvar-rows",
                                       initializer=_mark_pool_worker)
        return _pool


def _forget_pool() -> None:
    """In a forked child, which has none of its parent's threads: a pass
    handed to the parent's pool would wait forever, so make a new one."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
