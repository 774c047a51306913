"""Synchronous stochastic dynamics on a torus window of the lattice.

One step, computed entirely from the previous configuration: every
vacant site independently attempts a birth with probability beta,
drawing a first parent through the kernel (anchored at the site itself,
or at its box corner for the corner-anchored variant) and a uniform
nearest neighbor of the parent; the birth lands iff both are occupied.
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
from .ide import Field2D, periodic_correlate
from .kernel import DiscreteKernel
from .mean_field import Params

_NBR_DI = np.array([1, -1, 0, 0], dtype=np.int64)
_NBR_DJ = np.array([0, 0, 1, -1], dtype=np.int64)


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

    def copy(self) -> "LatticeState":
        return LatticeState(self.L, self.side, self.occ.copy(), self.time)


def window_side(W: float, L: int) -> int:
    """Sites per side of the W x W window at spacing 1/L."""
    if not math.isfinite(W * L):
        raise ValueError(f"the window W = {W} at L = {L} is not finite")
    return int(round(W * L))


def init(mode: str, L: int, W: float | None = None, side: int | None = None,
         rng: _rng.LatticeRng | None = None, p: float | None = None,
         points=None, field: Field2D | None = None) -> LatticeState:
    """Build an initial configuration.

    modes: 'all_ones', 'product' (iid density p), 'finite_set' (continuum
    points snapped to sites), 'from_field' (per-site Bernoulli at the
    field's node values; the field grid must coincide with the torus).
    """
    if side is None:
        if W is None:
            raise ValueError("give either W (unit squares) or side (sites)")
        side = window_side(W, L)
    if side < 1:
        raise ValueError("window too small")

    if mode == "all_ones":
        occ = np.ones((side, side), dtype=np.uint8)
    elif mode == "product":
        if p is None or rng is None:
            raise ValueError("product mode needs p and rng")
        if not 0.0 <= p <= 1.0:  # written so that NaN fails too
            raise ValueError(f"p must lie in [0, 1], got {p}")
        u = rng.stream(0, _rng.PHASE_INIT).random((side, side))
        occ = (u < p).astype(np.uint8)
    elif mode == "finite_set":
        if points is None:
            raise ValueError("finite_set mode needs points")
        occ = np.zeros((side, side), dtype=np.uint8)
        w = side / L
        for x, y in points:
            if not (0.0 <= x < w and 0.0 <= y < w):  # NaN fails too
                raise ValueError(f"point ({x}, {y}) outside the window "
                                 f"[0, {w})^2")
            # the window is a torus: the nearest site of a point within
            # 1/2L of the far edge is site 0
            i = int(math.floor(x * L + 0.5)) % side
            j = int(math.floor(y * L + 0.5)) % side
            occ[i, j] = 1
    elif mode == "from_field":
        if field is None or rng is None:
            raise ValueError("from_field mode needs field and rng")
        if (field.values.shape != (side, side)
                or abs(field.h - 1.0 / L) > 1e-12):
            raise ValueError("field grid must coincide with the lattice")
        u = rng.stream(0, _rng.PHASE_INIT).random((side, side))
        occ = (u < field.values).astype(np.uint8)
    else:
        raise ValueError(f"unknown init mode {mode!r}")
    return LatticeState(L=L, side=side, occ=occ, time=0)


def box_side_sites(L: int, gamma: float) -> int:
    """Sites per box side; boxes of continuum side ~ L^-gamma."""
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
    """The attempt, offset, neighbour and death coins of step n."""
    return tuple(rng.stream(n, phase).random((side, side))
                 for phase in (_rng.PHASE_ATTEMPT, _rng.PHASE_OFFSET,
                               _rng.PHASE_NEIGHBOR, _rng.PHASE_DEATH))


def _parents(dk: DiscreteKernel, side: int, base_i, base_j, u_off, u_nbr):
    """Flat site indices of the parents: y, through the kernel around the
    base sites, and z, a uniform neighbour of y.  Element-wise, so any
    subset of sites draws the same parents."""
    # a coordinate k in [-r, side + r) wraps to wrap[k + r]; r reaches
    # past the farthest kernel offset by the one neighbour step
    r = int(np.abs(dk.offsets).max()) + 1
    wrap = np.arange(-r, side + r) % side

    def wrapped(coord, shift):
        coord += shift
        coord += r
        return wrap[coord]

    idx = dk.sample_indices(u_off)
    yi = wrapped(dk.offsets[idx, 0], base_i)
    yj = wrapped(dk.offsets[idx, 1], base_j)
    del idx
    nsel = (u_nbr * 4.0).astype(np.int64)
    np.minimum(nsel, 3, out=nsel)
    zi = wrapped(_NBR_DI[nsel], yi)
    zj = wrapped(_NBR_DJ[nsel], yj)
    del nsel
    yi *= side
    yi += yj
    zi *= side
    zi += zj
    return yi, zi


def step(s: LatticeState, dk: DiscreteKernel, p: Params,
         rng: _rng.LatticeRng, anchor: str = "site",
         gamma: float | None = None) -> tuple[LatticeState, StepReport]:
    """One synchronous update; deterministic given (seed, time).

    anchor 'site' draws the first parent around the site, 'box_corner'
    around the corner of the site's box (needs gamma).  Coins are drawn
    for every site regardless of occupancy so that coupled runs stay
    coupled.
    """
    if anchor not in ("site", "box_corner"):
        raise ValueError("anchor must be 'site' or 'box_corner'")
    if anchor == "box_corner" and gamma is None:
        raise ValueError("box_corner anchoring needs gamma")
    side = s.side
    n = s.time + 1
    u_att, u_off, u_nbr, u_die = _coins(rng, n, side)

    occ0 = s.occ.astype(bool)
    f = np.flatnonzero(~occ0 & (u_att < p.beta))  # the birth attempts
    del u_att
    dies = u_die < p.eta
    del u_die
    u_off = u_off.ravel()[f]
    u_nbr = u_nbr.ravel()[f]

    base_i, base_j = np.divmod(f, side)
    if anchor == "box_corner":
        b = box_side_sites(s.L, gamma)
        base_i -= base_i % b
        base_j -= base_j % b
    y, z = _parents(dk, side, base_i, base_j, u_off, u_nbr)
    del base_i, base_j, u_off, u_nbr

    flat0 = occ0.ravel()
    born = flat0[y]
    born &= flat0[z]
    del y, z
    after_births = occ0.copy()
    after_births.ravel()[f[born]] = True
    final = after_births & ~dies

    new = LatticeState(L=s.L, side=side, occ=final.astype(np.uint8),
                       time=n)
    return new, StepReport(births_attempted=int(len(f)),
                           births=int(born.sum()),
                           deaths=int((after_births & dies).sum()))


def corner_expectation(s: LatticeState, dk: DiscreteKernel, p: Params,
                       gamma: float) -> np.ndarray:
    """Per-box expected density after one corner-anchored step from s.

    Every site of a box draws its first parent around the box corner,
    so the box mean of the per-site occupation probabilities is the
    closed form (1 - eta) (S/m + beta (1 - S/m) K) with K the
    kernel-weighted occupied pair density at the corner.
    """
    stats = box_stats(s, gamma)
    dens0 = stats.density()
    trim = stats.nb * stats.b
    # K(x) = sum_w mass(w) q(x + w), with q(y) = occ(y) times the
    # fraction of occupied nearest neighbours of y
    occf = s.occ.astype(float)
    q = occf * 0.25 * (np.roll(occf, -1, 0) + np.roll(occf, 1, 0)
                       + np.roll(occf, -1, 1) + np.roll(occf, 1, 1))
    k = periodic_correlate(q, dk.offsets, dk.masses)
    kcorners = k[0:trim:stats.b, 0:trim:stats.b]
    return (1.0 - p.eta) * (dens0 + p.beta * (1.0 - dens0) * kcorners)


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
    u_att, u_off, u_nbr, u_die = _coins(rng, time + 1, side)
    lab = B.astype(np.float64, order="C").ravel()
    dead = (u_die < eta).ravel()
    u_att = u_att.ravel()
    f = np.flatnonzero((u_att < lab) & ~dead)
    y, z = _parents(dk, side, *np.divmod(f, side), u_off.ravel()[f],
                    u_nbr.ravel()[f])
    born = np.maximum(lab[y], lab[z])
    np.maximum(born, u_att[f], out=born)
    np.minimum(born, lab[f], out=born)
    lab[f] = born
    lab[dead] = np.inf
    return lab.reshape(B.shape)


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
        core = blk[:, :, : b - 1, : b - 1].astype(np.float64)
        e1 = blk[:, :, 1:, : b - 1]
        e2 = blk[:, :, : b - 1, 1:]
        R = 0.5 * ((core * e1).sum(axis=(2, 3)) + (core * e2).sum(axis=(2, 3)))
    else:
        R = np.zeros((nb, nb))
    return BoxStats(gamma=gamma, L=s.L, side=s.side, time=s.time,
                    b=b, S=S, R=R)


def coupling_discrepancy(s0: LatticeState, dk: DiscreteKernel, p: Params,
                         seeds, gamma: float) -> float:
    """Fraction of sites where the site-anchored and corner-anchored
    processes disagree after one maximally coupled step, averaged over
    seeds.

    Both processes share attempt and death coins.  Parent choices are
    coupled maximally per site: with probability p_s (the overlap of
    the two parent distributions, which depends only on the site's
    within-box shift) the same parent is drawn from the overlap
    measure, otherwise each process draws from its residual.
    """
    if p.beta == 0.0:
        return 0.0
    b = box_side_sites(s0.L, gamma)
    side = s0.side
    occ0 = s0.occ.astype(bool)

    # dense kernel grid so shifted copies are plain slices; zero-mass
    # cells never get sampled because the CDF is flat across them
    imax = int(np.max(np.abs(dk.offsets))) if len(dk.offsets) else 0
    size = 2 * imax + 1
    dense = np.zeros((size, size))
    dense[dk.offsets[:, 0] + imax, dk.offsets[:, 1] + imax] = dk.masses
    flat_site = dense.ravel()
    n_cells = size * size

    def offsets_from_cells(idx):
        return np.stack([idx // size - imax, idx % size - imax], axis=1)

    def draw(cdf_flat, mass, u):
        cdf = np.cumsum(cdf_flat) / mass
        return np.minimum(np.searchsorted(cdf, u, "right"), n_cells - 1)

    total = 0.0
    for seed in seeds:
        rng = _rng.LatticeRng(seed)
        n = s0.time + 1
        u_att = rng.stream(n, _rng.PHASE_ATTEMPT).random((side, side))
        u_cpl = rng.stream(n, _rng.PHASE_OFFSET).random((side, side))
        u_par = rng.stream(n, _rng.PHASE_COUPLED_PARENT).random((side, side))
        u_res = rng.stream(n, _rng.PHASE_RESIDUAL_PARENT).random((side, side))
        u_z = rng.stream(n, _rng.PHASE_NEIGHBOR).random((side, side))
        u_z2 = rng.stream(n, _rng.PHASE_SECOND_NEIGHBOR).random((side, side))
        u_die = rng.stream(n, _rng.PHASE_DEATH).random((side, side))

        attempts = (~occ0) & (u_att < p.beta)
        ai, aj = np.nonzero(attempts)
        y_site = np.zeros((len(ai), 2), dtype=np.int64)
        y_corner = np.zeros((len(ai), 2), dtype=np.int64)
        same_all = np.zeros(len(ai), dtype=bool)

        # x = x* + s with s the within-box shift; seen from the site, the
        # corner kernel puts mass(w + s) on relative offset w
        shift_key = (ai % b) * b + (aj % b)
        for key in np.unique(shift_key):
            members = np.nonzero(shift_key == key)[0]
            si, sj = int(key // b), int(key % b)
            m_corner = np.zeros((size, size))
            m_corner[: size - si, : size - sj] = dense[si:, sj:]
            flat_corner = m_corner.ravel()
            overlap = np.minimum(flat_site, flat_corner)
            p_same = overlap.sum()
            uu = u_par[ai[members], aj[members]]
            if p_same >= 1.0 - 1e-12:
                same = np.ones(len(members), dtype=bool)
            else:
                same = u_cpl[ai[members], aj[members]] < p_same
            same_all[members] = same
            if same.any():
                pick = draw(overlap, p_same, uu[same])
                y_site[members[same]] = offsets_from_cells(pick)
                y_corner[members[same]] = y_site[members[same]]
            if (~same).any():
                res_site = (flat_site - flat_corner).clip(min=0.0)
                res_corner = (flat_corner - flat_site).clip(min=0.0)
                diff = members[~same]
                pick_s = draw(res_site, res_site.sum(), uu[~same])
                pick_c = draw(res_corner, res_corner.sum(),
                              u_res[ai[diff], aj[diff]])
                y_site[diff] = offsets_from_cells(pick_s)
                y_corner[diff] = offsets_from_cells(pick_c)

        def births(y_rel, neighbor_u):
            yi = (ai + y_rel[:, 0]) % side
            yj = (aj + y_rel[:, 1]) % side
            nsel = np.minimum((neighbor_u * 4.0).astype(np.int64), 3)
            zi = (yi + _NBR_DI[nsel]) % side
            zj = (yj + _NBR_DJ[nsel]) % side
            return occ0[yi, yj] & occ0[zi, zj]

        # shared second-parent coin when the first parents coincide,
        # independent choices otherwise, as in the one-step coupling
        uz1 = u_z[ai, aj]
        uz2 = np.where(same_all, uz1, u_z2[ai, aj])
        born_site = births(y_site, uz1)
        born_corner = births(y_corner, uz2)

        occ_site = occ0.copy()
        occ_site[ai[born_site], aj[born_site]] = True
        occ_corner = occ0.copy()
        occ_corner[ai[born_corner], aj[born_corner]] = True
        dies = u_die < p.eta
        total += float(np.mean((occ_site & ~dies) != (occ_corner & ~dies)))
    return total / len(seeds)


def save_snapshot(s: LatticeState, path, seed=None, params: Params = None):
    """Run-length-encoded bit grid plus a JSON header."""
    flat = s.occ.ravel()
    change = np.nonzero(np.diff(flat))[0] + 1
    bounds = np.concatenate([[0], change, [len(flat)]])
    runs = np.diff(bounds).tolist()
    header = {"L": s.L, "W": s.W, "side": s.side, "n": s.time,
              "first_bit": int(flat[0]) if len(flat) else 0}
    if seed is not None:
        header["seed"] = int(seed)
    if params is not None:
        header["beta"] = params.beta
        header["eta"] = params.eta
    with open(path, "w") as fh:
        json.dump({"header": header, "rle": runs}, fh)


def _is_count(v) -> bool:
    """A nonnegative JSON integer; a bool is none."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_snapshot(path) -> LatticeState:
    """Inverse of save_snapshot.  ValueError unless side and L are
    positive, n is a nonnegative integer, first_bit is 0 or 1, and the
    runs are nonnegative integers covering the side x side grid."""
    with open(path) as fh:
        data = json.load(fh)
    head, runs = data["header"], data["rle"]
    side, L, n, bit = head["side"], head["L"], head["n"], head["first_bit"]
    if not (_is_count(side) and side >= 1 and _is_count(L) and L >= 1):
        raise ValueError("snapshot side and L must be positive integers")
    if not _is_count(n):
        raise ValueError(f"snapshot time n must be a nonnegative integer, "
                         f"got {n!r}")
    if not (_is_count(bit) and bit <= 1):
        raise ValueError(f"snapshot first_bit must be 0 or 1, got {bit!r}")
    if not (isinstance(runs, list) and all(map(_is_count, runs))
            and sum(runs) == side * side):
        raise ValueError(f"snapshot runs must be nonnegative integers "
                         f"summing to side^2 = {side * side}")
    parity = (np.arange(len(runs)) + bit) % 2
    bits = np.repeat(parity.astype(np.uint8), runs)
    return LatticeState(L=L, side=side, occ=bits.reshape(side, side), time=n)
