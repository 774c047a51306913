"""Synchronous stochastic dynamics on a torus window of the lattice.

One step, computed entirely from the previous configuration: every
vacant site independently attempts a birth with probability beta,
drawing a first parent through the kernel around the site itself and a
uniform nearest neighbor of the parent; the birth lands iff both are
occupied.
Afterwards every particle, newborns included, dies with probability
eta.  All coins come from counter-based streams (see rng), so coupled
runs share randomness site by site and trajectories are bit-identical
for a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

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
    side: int
    occ: np.ndarray  # uint8
    time: int = 0

    def __post_init__(self):
        self.occ = np.asarray(self.occ, dtype=np.uint8)
        if self.occ.shape != (self.side, self.side):
            raise ValueError("occupancy shape must be (side, side)")

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
    u = rng.stream(0, _rng.PHASE_INIT).random((side, side))
    return LatticeState(L=L, side=side, occ=(u < density).view(np.uint8),
                        time=0)


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


def _coins(rng: _rng.LatticeRng, n: int, side: int):
    """The attempt, offset, neighbour and death coins of step n, in that
    order, each drawn only when the caller takes it."""
    return _rng.uniforms(rng.seed, n, (_rng.PHASE_ATTEMPT, _rng.PHASE_OFFSET,
                                       _rng.PHASE_NEIGHBOR, _rng.PHASE_DEATH),
                         (side, side))


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


def _padded_index(f, side: int, dk: DiscreteKernel):
    """Indices in _padded's flat array of the flat sites f."""
    r = dk.reach + 1
    return f + f // side * (2 * r) + r * (side + 2 * r + 1)


def _parents(dk: DiscreteKernel, side: int, base, u_off, u_nbr):
    """Parents y, through the kernel around the base sites, and z, the
    neighbour of y that u_nbr (< 1) picks, as indices in _padded's flat
    array, as base is; offsets reach dk.reach, so both stay in padding.
    Element-wise, so any subset of sites draws the same parents."""
    width = side + 2 * (dk.reach + 1)
    flat_offset = dk.offsets[:, 0] * width + dk.offsets[:, 1]
    y = flat_offset[dk.sample_indices(u_off)] + base
    return y, y + np.array([width, -width, 1, -1])[(u_nbr * 4).astype(np.intp)]


def step(s: LatticeState, dk: DiscreteKernel, p: Params,
         rng: _rng.LatticeRng) -> tuple[LatticeState, StepReport]:
    """One synchronous update; deterministic given (seed, time).

    Coins are drawn for every site regardless of occupancy so that
    coupled runs stay coupled.  Each full-lattice coin array is dropped
    once used, so no two are alive at once.
    """
    side = s.side
    n = s.time + 1
    coins = _coins(rng, n, side)

    occ = s.occ.astype(bool)
    f = np.flatnonzero((next(coins) < p.beta) > occ)   # vacant, coin < beta
    y, z = _parents(dk, side, _padded_index(f, side, dk),
                    next(coins).ravel()[f], next(coins).ravel()[f])
    padded = _padded(occ, dk)
    born = padded[y]
    born &= padded[z]
    del y, z, padded
    occ.ravel()[f[born]] = True     # now the occupancy after births
    final = occ > (next(coins) < p.eta)   # occupied and not dying
    deaths = np.count_nonzero(occ) - np.count_nonzero(final)
    return (LatticeState(L=s.L, side=side, occ=final.view(np.uint8), time=n),
            StepReport(births_attempted=len(f), deaths=int(deaths),
                       births=int(np.count_nonzero(born))))


def label_step(B: np.ndarray, time: int, dk: DiscreteKernel, eta: float,
               rng: _rng.LatticeRng) -> np.ndarray:
    """Labels B_{time+1} from B_time: B_n(x) = inf{beta : x occupied at n}
    over the site-anchored runs on rng's coins, so the run at beta has
    occupancy ``B < beta``.  B_0 is -inf on occupied sites, +inf elsewhere.

    The new label is min(B, max(u_att, B(y), B(z))) for parents y, z, or
    +inf where the site dies.  Where u_att >= B it is B itself, so the
    parents are drawn only at the sites with u_att < B that survive.
    """
    side = B.shape[0]
    coins = map(np.ravel, _coins(rng, time + 1, side))
    u_att, u_off, u_nbr = next(coins), next(coins), next(coins)
    dead = next(coins) < eta
    lab = B.astype(np.float64, order="C")
    flat = lab.ravel()
    f = np.flatnonzero((u_att < flat) > dead)
    y, z = _parents(dk, side, _padded_index(f, side, dk), u_off[f], u_nbr[f])
    del u_off, u_nbr
    padded = _padded(lab, dk)
    born = np.maximum(padded[y], padded[z])
    np.maximum(born, u_att[f], out=born)
    np.minimum(born, flat[f], out=born)
    flat[f] = born
    np.copyto(flat, np.inf, where=dead)
    return lab


@dataclass
class BoxStats:
    """Per-box particle counts S and interior adjacent-pair sums R.

    The torus is tiled with complete boxes of b sites from the corner;
    a remainder strip (when side % b != 0) carries no box.  R sums
    zeta(y) = occ(y) * (occ(y+e1) + occ(y+e2)) / 2 over the sites whose
    +e1 and +e2 neighbors stay inside the box.
    """

    gamma: float
    L: int
    side: int
    time: int
    b: int
    S: np.ndarray  # (nb, nb) int64
    R: np.ndarray  # (nb, nb) float64

    @property
    def m(self) -> int:
        return self.b * self.b

    @property
    def nb(self) -> int:
        return self.S.shape[0]

    def density(self) -> np.ndarray:
        return self.S / float(self.m)

    def box_corner(self, bi: int, bj: int) -> tuple:
        return (bi * self.b / self.L, bj * self.b / self.L)

    def box_rect(self, bi: int, bj: int) -> tuple:
        x0, y0 = self.box_corner(bi, bj)
        w = self.b / self.L
        return (x0, y0, x0 + w, y0 + w)


def box_stats(s: LatticeState, gamma: float) -> BoxStats:
    b = box_side_sites(s.L, gamma)
    nb = s.side // b
    if nb < 1:
        raise ValueError("window smaller than one box")
    trim = nb * b
    blk = s.occ[:trim, :trim].reshape(nb, b, nb, b).transpose(0, 2, 1, 3)
    S = blk.sum(axis=(2, 3)).astype(np.int64)
    if b > 1:
        # exact counts of occupied pairs, so R has the bits of a float sum
        core = blk[:, :, : b - 1, : b - 1]
        n1 = (core & blk[:, :, 1:, : b - 1]).sum(axis=(2, 3), dtype=np.int64)
        n2 = (core & blk[:, :, : b - 1, 1:]).sum(axis=(2, 3), dtype=np.int64)
        R = 0.5 * (n1 + n2)
    else:
        R = np.zeros((nb, nb))
    return BoxStats(gamma=gamma, L=s.L, side=s.side, time=s.time,
                    b=b, S=S, R=R)


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
