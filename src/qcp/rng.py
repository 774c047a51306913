"""Counter-based random streams for reproducible lattice trajectories.

Every random draw in a run comes from a Philox generator keyed by
(seed, time step, phase), with values consumed in fixed row-major site
order.  A draw is therefore a pure function of (seed, n, site index,
phase): two runs with the same seed see identical coins site by site,
independent of lattice contents or how work is scheduled, and any range
of sites starting on a Philox block of four can be drawn on its own
(words).  The monotone couplings and the reproducibility guarantees
all rest on this.
"""

from __future__ import annotations

import math
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
    if not hasattr(_local, "bitgen"):   # seeded, not keyed: no OS entropy
        _local.bitgen = np.random.Philox(0)
        # setting a state copies its values, so one dict serves every
        # call; only the counter's first word and the key change
        _local.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": None},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
    state = _local.state
    state["state"]["counter"][0] = a // 4
    state["state"]["key"] = _key(seed, time, phase)
    _local.bitgen.state = state
    return _local.bitgen.random_raw(b - a)


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

    def stream(self, time: int, phase: int) -> np.random.Generator:
        return stream(self.seed, time, phase)

    def __repr__(self) -> str:
        return f"LatticeRng(seed={self.seed})"
