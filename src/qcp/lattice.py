"""Synchronous stochastic dynamics on a torus window of the lattice.

One step, computed entirely from the previous configuration: every
vacant site independently attempts a birth with probability beta,
drawing a first parent through the kernel around the site itself and a
uniform nearest neighbor of the parent; the birth lands iff both are
occupied.
Afterwards every particle, newborns included, dies with probability
eta.  All coins come from counter-based streams (see rng), so coupled
runs share randomness site by site and trajectories are bit-identical
for a fixed seed, whichever thread or process draws them: a pass's
chunk threads on a large grid, or a run's coin producer on a one-chunk
one (rng.producer).  No thread or process outlives the pass or the run
that started it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import chunks
from . import rng as _rng
from .kernel import DiscreteKernel
from .mean_field import Params


@dataclass
class LatticeState:
    """Occupancy on a side x side torus of sites with spacing 1/L.

    Site (i, j) sits at (i/L, j/L); the window spans W = side/L unit
    squares per side.
    """

    L: int
    occ: np.ndarray  # uint8, (side, side)
    time: int = 0

    def __post_init__(self):
        self.occ = np.asarray(self.occ, dtype=np.uint8)
        if self.occ.ndim != 2 or self.occ.shape[0] != self.occ.shape[1]:
            raise ValueError("occupancy must be a square 2D grid")

    @property
    def side(self) -> int:
        return self.occ.shape[0]

    @property
    def W(self) -> float:
        return self.side / self.L

    def density(self) -> float:
        return float(self.occ.mean())


def window_side(W: float, L: int) -> int:
    """Sites per side of the W x W window at spacing 1/L."""
    if not math.isfinite(W * L):
        raise ValueError(f"the window W = {W} at L = {L} is not finite")
    return int(round(W * L))


def init(L: int, side: int, density, rng: _rng.LatticeRng) -> LatticeState:
    """The side x side torus with site x occupied iff its start coin,
    keyed (seed, 0, PHASE_INIT), lies below density: a number or a
    (side, side) array in [0, 1].  A coin lies in [0, 1), so density 1
    fills every site and 0 none."""
    if side < 1:
        raise ValueError("window too small")
    density = np.asarray(density, dtype=float)
    if density.shape not in ((), (side, side)):
        raise ValueError("density must be a number or a (side, side) array")
    # written so that NaN fails too
    if not (density.min() >= 0.0 and density.max() <= 1.0):
        raise ValueError("density must lie in [0, 1]")
    occ = np.empty(side * side, np.uint8)
    flat = np.broadcast_to(density, (side, side)).reshape(-1)   # a view

    def chunk(a, b):
        # sites [a, b) of the start stream, whose Philox block a / 4
        # holds site a's coin
        gen = rng.stream(0, _rng.PHASE_INIT)
        gen.bit_generator.advance(a // 4)
        np.less(gen.random(b - a), flat[a:b], out=occ[a:b].view(bool))

    chunks.run(chunk, side * side)
    return LatticeState(L=L, occ=occ.reshape(side, side), time=0)


def box_side_sites(L: int, gamma: float) -> int:
    """Sites per box side; boxes of continuum side ~ L^-gamma."""
    if not 1 <= L < math.inf:
        raise ValueError(f"L must be a finite count of at least 1, got {L}")
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    return max(1, int(round(L ** (1.0 - gamma))))


@dataclass
class StepReport:
    """Counters of one step: birth attempts, births and deaths."""

    births_attempted: int
    births: int
    deaths: int


def _padded(a: np.ndarray, dk: DiscreteKernel) -> np.ndarray:
    """The side x side torus a padded by r = dk.reach + 1 sites at every
    edge, flat: (i + r) (side + 2r) + j + r holds a[i % side, j % side]."""
    side = a.shape[0]
    r = dk.reach + 1
    out = np.empty((side + 2 * r, side + 2 * r), a.dtype)
    out[r:r + side, r:r + side] = a
    # core rows' columns, then whole rows, by slices of <= side lines each
    for lines in (out[r:r + side].T, out):
        for k in range(r, 0, -side):
            lines[max(k - side, 0):k] = lines[max(k, side):k + side]
        for k in range(r + side, len(lines), side):
            lines[k:k + side] = lines[k - side:min(k, len(lines) - side)]
    return out.ravel()


def _pass(grid: np.ndarray, dk: DiscreteKernel, rng: _rng.LatticeRng,
          n: int, body):
    """body(lo, hi, words, parents) on each flat site chunk [lo, hi) of
    the torus grid (see chunks), in a list.  words(phase) gives the
    chunk's step-n words of that phase, from rng.words (a view of the
    run's coin producer, when one runs); parents(f) the values of grid at
    the parents y, z of sites lo + f, from a copy padded before any
    chunk writes grid.  The sampling tables are built in the calling
    thread (see build_tables)."""
    side, r = grid.shape[0], dk.reach + 1
    width = side + 2 * r
    padded = _padded(grid, dk)
    kernel_steps = dk.offsets[:, 0] * width + dk.offsets[:, 1]
    nbr_steps = np.array([width, -width, 1, -1])
    dk.build_tables()

    def chunk(lo, hi):
        def words(phase):
            return rng.words(n, phase, lo, hi)

        def parents(f):
            y = kernel_steps[dk.sample_indices(
                _rng.unit(words(_rng.PHASE_OFFSET)[f]))]
            y += f + lo + (f + lo) // side * (2 * r) + r * (width + 1)
            z = y + nbr_steps[words(_rng.PHASE_NEIGHBOR)[f] >> 62]
            return padded[y], padded[z]

        return body(lo, hi, words, parents)

    return chunks.run(chunk, side * side)


def step(s: LatticeState, dk: DiscreteKernel, p: Params,
         rng: _rng.LatticeRng) -> tuple[LatticeState, StepReport]:
    """One synchronous update; deterministic given (seed, time).

    Coins are drawn for every site regardless of occupancy so that
    coupled runs stay coupled; at beta = 1 the attempt coins are not
    drawn, as every coin lies below it (each phase has its own counter,
    so the other coins do not move).  Each coin is decided on its Philox
    word (see rng.words); only the offset words of attempting sites
    become coins.  The update runs in flat site chunks (_pass): each
    chunk draws its own sites' four word ranges, reads its parents
    from one padded copy of the old occupancy and writes its own slice
    of the new one, and the counters are summed over the chunks.  So
    neither the occupancy nor the counters depend on the chunks, and no
    full-lattice coin array is made.
    """
    side, n = s.side, s.time + 1
    below_beta, below_eta = _rng.below(p.beta), _rng.below(p.eta)
    occ = s.occ.astype(bool).ravel()
    new = np.empty(side * side, bool)

    def body(a, b, words, parents):
        # vacant, coin < beta (every coin in [0, 1) is below beta = 1)
        f = ~occ[a:b]
        if p.beta < 1.0:
            f &= words(_rng.PHASE_ATTEMPT) < below_beta
        f = np.flatnonzero(f)
        born, z = parents(f)
        born &= z
        out = new[a:b]
        out[:] = occ[a:b]
        out[f[born]] = True             # the occupancy after births
        alive = np.count_nonzero(out)
        # occupied and not dying
        np.greater(out, words(_rng.PHASE_DEATH) < below_eta, out=out)
        return len(f), np.count_nonzero(born), alive - np.count_nonzero(out)

    counts = _pass(occ.reshape(side, side), dk, rng, n, body)
    attempted, births, deaths = map(sum, zip(*counts))
    return (LatticeState(L=s.L, time=n,
                         occ=new.reshape(side, side).view(np.uint8)),
            StepReport(births_attempted=int(attempted), births=int(births),
                       deaths=int(deaths)))


def label_step(B: np.ndarray, time: int, dk: DiscreteKernel, eta: float,
               rng: _rng.LatticeRng) -> np.ndarray:
    """Labels B_{time+1} from B_time: B_n(x) = inf{beta : x occupied at n}
    over the site-anchored runs on rng's coins, so the run at beta has
    occupancy ``B < beta``.  B_0 is -inf on occupied sites, +inf elsewhere.

    The new label is min(B, max(u_att, B(y), B(z))) for parents y, z, or
    +inf where the site dies.  Where u_att >= B it is B itself, so the
    parents are drawn only at the sites with u_att < B that survive.
    Decides its coins on their words and runs in flat site chunks, as
    step does; the attempt words all become coins, to compare with B.
    """
    below_eta = _rng.below(eta)
    lab = B.astype(np.float64, order="C")
    flat = lab.ravel()

    def body(a, b, words, parents):
        out = flat[a:b]
        dead = words(_rng.PHASE_DEATH) < below_eta
        u_att = _rng.unit(words(_rng.PHASE_ATTEMPT))
        f = np.flatnonzero((u_att < out) > dead)
        born, z = parents(f)
        np.maximum(born, z, out=born)
        np.maximum(born, u_att[f], out=born)
        np.minimum(born, out[f], out=born)
        out[f] = born
        np.copyto(out, np.inf, where=dead)

    _pass(lab, dk, rng, time + 1, body)
    return lab


@dataclass
class BoxStats:
    """Per-box particle counts S and interior adjacent-pair sums R.

    The torus is tiled with complete boxes of b = box_side_sites(L,
    gamma) sites from the corner; a remainder strip (when side % b != 0)
    carries no box.  R sums zeta(y) = occ(y) * (occ(y+e1) + occ(y+e2)) / 2
    over the sites whose +e1 and +e2 neighbors stay inside the box.
    """

    gamma: float
    L: int
    side: int
    time: int
    S: np.ndarray  # (nb, nb) int64
    R: np.ndarray  # (nb, nb) float64

    @property
    def b(self) -> int:
        return box_side_sites(self.L, self.gamma)

    @property
    def m(self) -> int:
        return self.b * self.b

    @property
    def nb(self) -> int:
        return self.S.shape[0]

    def density(self) -> np.ndarray:
        return self.S / float(self.m)


def box_stats(s: LatticeState, gamma: float) -> BoxStats:
    b = box_side_sites(s.L, gamma)
    nb = s.side // b
    if nb < 1:
        raise ValueError("window smaller than one box")
    occ = s.occ[:nb * b, :nb * b]
    # the occupied pairs (y, y + e1) and (y, y + e2) at each site y, none
    # on a box's last row or column: exact counts, so R has the bits of
    # a float sum
    pairs = np.zeros_like(occ)
    core = occ[:-1, :-1]
    np.add(core & occ[1:, :-1], core & occ[:-1, 1:], out=pairs[:-1, :-1])
    pairs[b - 1::b] = 0
    pairs[:, b - 1::b] = 0
    starts = np.arange(0, nb * b, b)    # the boxes' first rows and columns
    S, n = (np.add.reduceat(np.add.reduceat(a, starts, axis=1, dtype=np.int64),
                            starts, axis=0) for a in (occ, pairs))
    return BoxStats(gamma=gamma, L=s.L, side=s.side, time=s.time, S=S,
                    R=0.5 * n)


def save_snapshot(s: LatticeState, path, seed: int, params: Params):
    """Run-length-encoded bit grid plus a JSON header."""
    flat = s.occ.ravel()
    change = np.nonzero(np.diff(flat))[0] + 1
    bounds = np.concatenate([[0], change, [len(flat)]])
    runs = np.diff(bounds).tolist()
    header = {"L": s.L, "W": s.W, "side": s.side, "n": s.time,
              "first_bit": int(flat[0]) if len(flat) else 0,
              "seed": int(seed), "beta": params.beta, "eta": params.eta}
    with open(path, "w") as fh:
        json.dump({"header": header, "rle": runs}, fh)
