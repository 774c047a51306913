"""Counter-based random streams for reproducible lattice trajectories.

Every random draw in a run comes from a Philox generator keyed by
(seed, time step, phase), with values consumed in fixed row-major site
order.  A draw is therefore a pure function of (seed, n, site index,
phase): two runs with the same seed see identical coins site by site,
independent of lattice contents or how work is scheduled.  The monotone
couplings and the reproducibility guarantees all rest on this.
"""

from __future__ import annotations

import threading

import numpy as np

# Phases of one synchronous update.  Order is part of every seeded
# trajectory; do not renumber.
PHASE_ATTEMPT = 0
PHASE_OFFSET = 1
PHASE_NEIGHBOR = 2
PHASE_DEATH = 3
PHASE_INIT = 4
PHASE_ERROR_POINT = 5
# phases 6 and 7 are reserved: the count is part of every stream key
_PHASE_COUNT = 8
_MASK64 = (1 << 64) - 1


def _key(seed: int, time: int, phase: int) -> np.ndarray:
    """Philox key of one (seed, time, phase) triple."""
    if not 0 <= phase < _PHASE_COUNT:
        raise ValueError(f"phase must be in [0, {_PHASE_COUNT}), got {phase}")
    if time < 0:
        raise ValueError("time must be nonnegative")
    return np.array(
        [int(seed) & _MASK64, (int(time) * _PHASE_COUNT + phase) & _MASK64],
        dtype=np.uint64,
    )


def stream(seed: int, time: int, phase: int) -> np.random.Generator:
    """Generator for one (seed, time, phase) triple."""
    return np.random.Generator(np.random.Philox(key=_key(seed, time, phase)))


_local = threading.local()      # per thread: one Generator over a Philox
_ZEROS = np.zeros(4, np.uint64)


def uniforms(seed: int, time: int, phases, shape):
    """Yield ``stream(seed, time, phase).random(shape)`` for each phase in
    turn, bit for bit, drawing each array only when it is asked for.

    Each phase re-keys the calling thread's Philox, looked up anew, to
    counter 0 with an empty buffer: the state a fresh stream starts in.
    So no generator is built (nor OS entropy read) per step, and a
    generator resumed on another thread still gets these bits."""
    for phase in phases:
        if not hasattr(_local, "gen"):  # seeded, not keyed: no OS entropy
            _local.gen = np.random.Generator(np.random.Philox(0))
        _local.gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": _key(seed, time, phase)},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
        yield _local.gen.random(shape)


class LatticeRng:
    """Stream factory bound to one base seed."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, time: int, phase: int) -> np.random.Generator:
        return stream(self.seed, time, phase)

    def __repr__(self) -> str:
        return f"LatticeRng(seed={self.seed})"
