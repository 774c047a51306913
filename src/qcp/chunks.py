"""Large-grid passes run in chunks across the cores.

A pass over ``n`` lines of ``width`` sites each is a function
``body(a, b)`` that handles lines [a, b) and writes only their part of
its output.  A chunk reads nothing another chunk of the pass writes,
and computes each site in a fixed order, so the result does not depend
on how the lines are cut: the chunks are a schedule, not a parameter.

The lines are cut into chunks of about CHUNK sites each, the same way
at every worker count.  With two or more workers the chunks of a pass
run on a thread pool of that pass, closed before the pass returns; with
one they run inline, in order.  Philox draws, the numpy ufuncs,
``take`` and pocketfft release the GIL, so the chunks run in parallel.

Tasks that hold the GIL, such as the bisections of ``build_phi`` and
an experiment's seeds, run at once through ``map_processes`` instead,
on worker processes of that call while the caller waits.  A one-chunk
lattice run, whose steps run inline, draws its words ahead on a forked
process instead (rng.producer).  No thread or process outlives the call
or block that started it, so a fork happens from a caller with no chunk
threads.
"""

from __future__ import annotations

import os
import pickle
import sys

# Sites per chunk: a multiple of 4, so that a chunk of a flat site range
# starts on a Philox block (see rng.words).  Chunks this small keep
# each worker's temporaries small: full-grid arrays made on the workers
# raise the peak resident set through their per-thread malloc arenas.
CHUNK = 1 << 16
# a pass's thread count is never above this, whatever the core count
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


def spans(n: int, width: int = 1) -> list:
    """The ranges (a, b) that tile range(n) in order, each of about
    CHUNK sites at ``width`` sites per line: one (0, n) when the grid
    holds at most CHUNK sites.  A call that builds a large array it
    does not keep may build it over these, inline, so that its
    temporaries stay of this size."""
    lines = max(1, CHUNK // width)
    return [(a, min(a + lines, n)) for a in range(0, max(n, 1), lines)]


def run(body, n: int, width: int = 1) -> list:
    """``[body(a, b), ...]`` over ``spans(n, width)``: on a pool of
    WORKERS threads, open for this pass only, when there are two or
    more of both, else inline."""
    starts, ends = zip(*spans(n, width))
    if WORKERS < 2 or len(ends) < 2:
        return list(map(body, starts, ends))
    # imported here: it loads logging, and most runs never cut a grid
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(WORKERS, thread_name_prefix="qcp-chunk") as pool:
        return list(pool.map(body, starts, ends))


def _call(payload: bytes):
    global WORKERS      # the processes fill the cores: chunks run inline
    WORKERS = 1
    fn, args = pickle.loads(payload)
    return fn(*args)


def map_processes(fn, tasks, cap: int | None = None) -> list:
    """``[fn(*args) for args in tasks]``, ``share = min(WORKERS,
    len(tasks), cap)`` at once: with a share of 2 or more, every task
    runs on one of ``share`` worker processes, their chunk passes
    inline, while the caller waits; else the caller runs them in order.
    ``fn`` must be a top-level function, and its arguments and results
    picklable; the caller pickles every task before any worker starts,
    so an unpicklable one raises there.  The results come in task order,
    so the first task to raise has its exception re-raised; every worker
    is joined before the return."""
    tasks = list(tasks)
    share = min(WORKERS, len(tasks), cap or WORKERS)
    if share < 2:
        return [fn(*args) for args in tasks]
    payloads = [pickle.dumps((fn, args)) for args in tasks]
    # imported here: `import qcp` loads numpy only
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context
    with ProcessPoolExecutor(share, get_context(START_METHOD)) as pool:
        return list(pool.map(_call, payloads))
