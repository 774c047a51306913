"""Counter-based random streams for reproducible lattice trajectories.

Every random draw in a run comes from a Philox generator keyed by
(seed, time step, phase), with values consumed in fixed row-major site
order.  A draw is therefore a pure function of (seed, n, site index,
phase): two runs with the same seed see identical coins site by site,
independent of lattice contents or how work is scheduled, and any range
of sites starting on a Philox block of four can be drawn on its own
(words).  The monotone couplings and the reproducibility guarantees
all rest on this.

So a step's words need not be drawn by the process that reads them.
While a one-chunk lattice run's steps loop, a forked producer draws
each next step's words into shared memory on another core (producer);
the step reads the same words it would have drawn.  Like chunks' pools
and processes, the producer does not outlive the block that starts it.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import warnings

import numpy as np

from . import chunks

# Phases of one synchronous update.  Order is part of every seeded
# trajectory; do not renumber.
PHASE_ATTEMPT = 0
PHASE_OFFSET = 1
PHASE_NEIGHBOR = 2
PHASE_DEATH = 3
PHASE_INIT = 4
PHASE_ERROR_POINT = 5
# phases 6 and 7 are reserved: the count is part of every stream key.
# experiments' point-process checks draw from stream(0, 0, 5) and
# stream(1, 0, 6), keys [0, 5] and [1, 6]; no run draws at time 0 there.
_PHASE_COUNT = 8
_MASK64 = (1 << 64) - 1


def check_seed(seed: int) -> int:
    """seed as an int; ValueError unless it lies in [0, 2**64), where
    each seed is its own key word, so no two seeds share a trajectory."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seeds must lie in [0, 2**64), got {seed}")
    return seed


def _key(seed: int, time: int, phase: int) -> np.ndarray:
    """Philox key of one (seed, time, phase) triple."""
    if not 0 <= phase < _PHASE_COUNT:
        raise ValueError(f"phase must be in [0, {_PHASE_COUNT}), got {phase}")
    if time < 0:
        raise ValueError("time must be nonnegative")
    return np.array(
        [check_seed(seed), (int(time) * _PHASE_COUNT + phase) & _MASK64],
        dtype=np.uint64,
    )


def stream(seed: int, time: int, phase: int) -> np.random.Generator:
    """Generator for one (seed, time, phase) triple."""
    return np.random.Generator(np.random.Philox(key=_key(seed, time, phase)))


_local = threading.local()      # per thread: one Philox, one state dict


def words(seed: int, time: int, phase: int, a: int, b: int) -> np.ndarray:
    """Sites [a, b) of ``stream(seed, time, phase).bit_generator
    .random_raw(n)``, for any n >= b, bit for bit; a must be a multiple
    of 4.

    Philox makes its words in blocks of four, and one at counter c with
    an empty buffer next makes words 4c, 4c + 1, ... of its stream.  So
    the calling thread's Philox, re-keyed and set to counter a / 4 with
    an empty buffer, makes exactly these sites, and no generator is
    built (nor OS entropy read) per call.  A word w's coin, its site's
    ``stream(...).random(n)``, is unit(w): coin < p exactly when
    w < below(p), and floor(4 coin) is w >> 62."""
    if a % 4 or not 0 <= a <= b:
        raise ValueError(f"need 0 <= a <= b with a a multiple of 4, "
                         f"got [{a}, {b})")
    bitgen, state = _philox()
    state["state"]["counter"][0] = a // 4
    state["state"]["key"] = _key(seed, time, phase)
    bitgen.state = state
    return bitgen.random_raw(b - a)


def _philox():
    """The calling thread's Philox and its state dict, made on first
    use: the first one made in a process imports numpy.random (15 ms)."""
    if not hasattr(_local, "bitgen"):   # seeded, not keyed: no OS entropy
        _local.bitgen = np.random.Philox(0)
        # setting a state copies its values, so one dict serves every
        # call; only the counter's first word and the key change
        _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": None},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
    return _local.bitgen, _local.state


def unit(w: np.ndarray) -> np.ndarray:
    """The coins in [0, 1) of the words w: (w >> 11) 2^-53, the bits of
    the Generator's ``random``."""
    return (w >> 11) * 2.0 ** -53


def below(p: float) -> int:
    """The bound with w < below(p) exactly when unit(w) < p: the coin
    k 2^-53 lies below p iff k < ceil(p 2^53).  A Python int, 2^64 at
    p = 1."""
    return math.ceil(p * 2.0 ** 53) << 11


class LatticeRng:
    """Stream factory bound to one base seed."""

    def __init__(self, seed: int):
        self.seed = check_seed(seed)
        self._ring = None   # while a producer runs, its reader

    def stream(self, time: int, phase: int) -> np.random.Generator:
        return stream(self.seed, time, phase)

    def words(self, time: int, phase: int, a: int, b: int) -> np.ndarray:
        """``words(self.seed, time, phase, a, b)``: while a producer
        runs (see producer), a read-only view of its ring when the step
        is the one being read or the next, else drawn here."""
        got = self._ring(time, phase, a, b) if self._ring else None
        return words(self.seed, time, phase, a, b) if got is None else got

    def __repr__(self) -> str:
        return f"LatticeRng(seed={self.seed})"


@contextlib.contextmanager
def producer(rng: LatticeRng, sites: int, first: int, last: int,
             attempts: bool = True):
    """While the block runs, a forked process draws rng's words for
    steps first..last ahead of the caller, and ``rng.words`` reads
    them: for sites [0, sites), of the offset, neighbour and death
    phases, and of the attempt phase if ``attempts`` (step draws no
    attempt words at beta = 1).  Each step's words are the same whoever
    draws them, so this moves Philox onto an idle core and changes no
    bit.  It runs only when the grid is one chunk,
    with two or more WORKERS (so never inside map_processes), under the
    fork start method and with no other thread alive; else the block
    runs as it would without it.

    The producer fills a two-slot ring of shared memory, one pipe
    telling the caller of each filled slot and another the producer of
    each freed one.  The caller takes step t's slot at its first read
    of step t, and frees step t - 1's then, so a view is valid until
    the next step's first read.  On any exit the producer is killed and
    reaped; if it dies early the caller's next wait raises RuntimeError.
    """
    if (sites > chunks.CHUNK or chunks.WORKERS < 2 or last < first
            or chunks.START_METHOD != "fork"
            or threading.active_count() > 1):
        yield
        return
    import mmap     # imported here: most runs start no producer
    import signal
    phases = (PHASE_ATTEMPT,) * attempts + (
        PHASE_OFFSET, PHASE_NEIGHBOR, PHASE_DEATH)
    ring = np.frombuffer(mmap.mmap(-1, 2 * len(phases) * sites * 8),
                         np.uint64).reshape(2, len(phases), sites)
    filled_r, filled_w = os.pipe()
    freed_r, freed_w = os.pipe()
    _philox()   # made once here, not in every producer
    with warnings.catch_warnings():
        # numpy's BLAS has started an OS thread, so Python 3.12 warns
        # that the child may deadlock.  The producer only draws words,
        # writes them to the ring and a byte to a pipe, and leaves by
        # os._exit; and no other Python thread is alive (see above)
        warnings.filterwarnings("ignore", ".*multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os.close(filled_r)
            os.close(freed_w)
            for t in range(first, last + 1):
                # the slot of step t - 2, which the caller frees
                if t - first >= 2 and not os.read(freed_r, 1):
                    break
                for i, phase in enumerate(phases):
                    ring[(t - first) % 2, i] = words(rng.seed, t, phase,
                                                     0, sites)
                os.write(filled_w, b"\0")
        finally:
            os._exit(0)
    ring.flags.writeable = False
    index = {phase: i for i, phase in enumerate(phases)}
    held = first - 1    # the step whose slot the caller reads

    def take(time, phase, a, b):
        nonlocal held
        if (phase not in index
                or not max(held, first) <= time <= min(held + 1, last)):
            return None
        if time > held:
            if not os.read(filled_r, 1):
                raise RuntimeError(f"the coin producer of seed {rng.seed} "
                                   f"ended before step {time}")
            if first < time < last:     # the producer refills it
                with contextlib.suppress(BrokenPipeError):
                    os.write(freed_w, b"\0")   # step time - 1's slot
            held = time
        return ring[(time - first) % 2, index[phase], a:b]

    try:
        os.close(filled_w)
        os.close(freed_r)
        rng._ring = take
        yield
    finally:
        rng._ring = None
        os.close(filled_r)
        os.close(freed_w)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
