"""Large-grid passes run in chunks across the cores.

A pass over ``n`` lines of ``width`` sites each is a function
``body(a, b)`` that handles lines [a, b) and writes only their part of
its output.  A chunk reads nothing another chunk of the pass writes,
and computes each site in a fixed order, so the result does not depend
on how the lines are cut: the chunks are a schedule, not a parameter.

The lines are cut into chunks of about CHUNK sites each, the same way
at every worker count.  With two or more workers the chunks run on one
module-level thread pool, created at the first pass of more than one
chunk; with one they run inline, in order.  Philox draws, the numpy
ufuncs, ``take`` and pocketfft release the GIL, so the chunks run in
parallel.

Tasks that hold the GIL, such as the bisections of ``build_phi`` and
an experiment's seeds, run at once through ``map_processes`` instead,
on worker processes beside the caller.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading

# Sites per chunk: a multiple of 4, so that a chunk of a flat site range
# starts on a Philox block (see rng.uniforms).  Chunks this small keep
# each worker's temporaries small: full-grid arrays made on the workers
# raise the peak resident set through their per-thread malloc arenas.
CHUNK = 1 << 16
# the pool's thread count is never above this, whatever the core count
_MAX_WORKERS = 8


def _cores() -> int:
    """The count of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


WORKERS = min(_cores(), _MAX_WORKERS)
# map_processes forks on Linux: a spawned worker imports qcp first, 0.3 s
START_METHOD = "fork" if sys.platform.startswith("linux") else None

_pool = None
_pool_lock = threading.Lock()


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it loads logging, and most runs never cut
            # a grid
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="qcp-chunk")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run(body, n: int, width: int = 1) -> list:
    """``[body(a, b), ...]`` over ranges [a, b) that tile range(n) in
    order, each of about CHUNK sites at ``width`` sites per line (one
    ``body(0, n)`` when the grid holds at most CHUNK sites): on the pool
    when it has two or more workers, else inline.  A body must not call
    run itself: the pool's threads would wait on their own queue."""
    lines = max(1, CHUNK // width)
    starts = range(0, max(n, 1), lines)
    ends = [min(a + lines, n) for a in starts]
    inline = WORKERS < 2 or len(ends) < 2
    return list((map if inline else _executor().map)(body, starts, ends))


def _call(payload: bytes):
    global WORKERS      # the processes fill the cores: chunks run inline
    WORKERS = 1
    fn, args = pickle.loads(payload)
    return fn(*args)


def map_processes(fn, tasks, cap: int | None = None) -> list:
    """``[fn(*args) for args in tasks]``, ``share = min(WORKERS,
    len(tasks), cap)`` at once: the caller runs tasks 0, share, 2 share,
    ... and ``share - 1`` worker processes the rest, their chunk passes
    inline.  ``fn`` must be a top-level function, and its arguments
    (pickled before the caller's first task, which may fill caches on
    them) and results picklable.  The caller takes the results in task
    order, so the first task to raise has its exception re-raised; every
    worker is joined before the return."""
    tasks = list(tasks)
    share = min(WORKERS, len(tasks), cap or WORKERS)
    if share < 2:
        return [fn(*args) for args in tasks]
    # imported here: `import qcp` loads numpy only
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(share - 1, get_context(START_METHOD))
    try:
        futures = {i: pool.submit(_call, pickle.dumps((fn, args)))
                   for i, args in enumerate(tasks) if i % share}
        return [futures[i].result() if i % share else fn(*args)
                for i, args in enumerate(tasks)]
    finally:
        pool.shutdown(cancel_futures=True)
