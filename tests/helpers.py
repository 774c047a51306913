"""Reference code that only the tests use: the box-corner-anchored
lattice step and its one-step closed form, the maximal coupling of the
site- and corner-anchored steps, a single trial-speed classification,
scalar region queries, a region-set snapshot and the phase-scan
threshold read-off.  No subcommand writes any of their numbers, so they
live here and not in the library."""

import math

import numpy as np

from qcp import lattice, wavespeed
from qcp.comparison import ProfileCache, _edge_coords, _recovery_demand
from qcp.ide import periodic_correlate
from qcp.lattice import _NBR_DI, _NBR_DJ, box_side_sites, box_stats
from qcp.rng import (PHASE_ATTEMPT, PHASE_DEATH, PHASE_INIT, PHASE_NEIGHBOR,
                     PHASE_OFFSET, LatticeRng)

# Extra coins of the maximally coupled step in coupling_discrepancy:
# the shared or site-process parent, the corner process's residual
# parent, and the corner process's neighbour coin when the two first
# parents differ (this one shares its stream with PHASE_INIT, which
# only ever draws at time 0).
PHASE_COUPLED_PARENT = 6
PHASE_RESIDUAL_PARENT = 7
PHASE_SECOND_NEIGHBOR = PHASE_INIT


def corner_step(s, dk, p, rng, gamma):
    """lattice.step with every first parent drawn around the corner of
    its site's box (box_side_sites(L, gamma) sites a side) instead of
    around the site; same coins, same StepReport counters."""
    side = s.side
    n = s.time + 1
    u_att, u_off, u_nbr, u_die = lattice._coins(rng, n, side)
    occ0 = s.occ.astype(bool)
    f = np.flatnonzero(~occ0 & (u_att < p.beta))
    b = box_side_sites(s.L, gamma)
    base_i, base_j = np.divmod(f, side)
    base_i -= base_i % b
    base_j -= base_j % b
    y, z = lattice._parents(dk, side, base_i, base_j, u_off.ravel()[f],
                            u_nbr.ravel()[f])
    flat0 = occ0.ravel()
    born = flat0[y] & flat0[z]
    after_births = occ0.copy()
    after_births.ravel()[f[born]] = True
    dies = u_die < p.eta
    new = lattice.LatticeState(L=s.L, side=side, time=n,
                               occ=(after_births & ~dies).astype(np.uint8))
    return new, lattice.StepReport(births_attempted=int(len(f)),
                                   births=int(born.sum()),
                                   deaths=int((after_births & dies).sum()))


def corner_expectation(s, dk, p, gamma) -> np.ndarray:
    """Per-box expected density after one corner_step from s.

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


def coupling_discrepancy(s0, dk, p, seeds, gamma: float) -> float:
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
        rng = LatticeRng(seed)
        n = s0.time + 1
        u_att = rng.stream(n, PHASE_ATTEMPT).random((side, side))
        u_cpl = rng.stream(n, PHASE_OFFSET).random((side, side))
        u_par = rng.stream(n, PHASE_COUPLED_PARENT).random((side, side))
        u_res = rng.stream(n, PHASE_RESIDUAL_PARENT).random((side, side))
        u_z = rng.stream(n, PHASE_NEIGHBOR).random((side, side))
        u_z2 = rng.stream(n, PHASE_SECOND_NEIGHBOR).random((side, side))
        u_die = rng.stream(n, PHASE_DEATH).random((side, side))

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


def classify_speed(c: float, xi, dk, p, max_iter: int | None = None,
                   tol: float = 1e-3, delta: float | None = None) -> str:
    """Decide whether the trial speed c lies below c*(xi): one probe of
    the bisection in wavespeed.estimate_cstar, from the default psi."""
    wavespeed._check_budget(tol, max_iter)
    if not math.isfinite(c):  # the shift must reach a finite distance
        raise ValueError(f"trial speed c must be finite, got {c}")
    state = wavespeed._classifier_state(xi, dk, p, tol, delta)
    if max_iter is None:
        max_iter = wavespeed._default_max_iter(dk, tol)
    return wavespeed._classify_with_state(c, state, max_iter)[0]


def holders(rs, points, t: float):
    """Regions of rs alive at t and the (P, K) mask of those whose
    closed triangle holds each point."""
    regs = rs.alive(t)
    offsets = np.array([R.offsets_at(t) for R in regs]).reshape(-1, 3)
    return regs, np.all(_edge_coords(points, regs, rs.normals)
                        <= offsets + 1e-9, axis=-1)


def membership(rs, x, t: float) -> bool:
    """Whether some region of rs alive at t holds the point x."""
    return bool(holders(rs, x, t)[1].any())


def h_field(rs, phi, n: int, cache=None):
    """Evaluator x -> h_n(x): max over edge directions of the infimum,
    over regions containing x, of the age-iterated profile at the
    signed edge coordinate.  Points outside every region get 0."""
    cache = cache or ProfileCache(phi)

    def evaluate(x) -> float:
        regs, mask = holders(rs, x, n)
        return float(_recovery_demand(x, regs, mask, rs.normals, cache, n)[0])

    return evaluate


def regions_to_json(rs) -> list:
    """Snapshot of the region set for serialization."""
    out = []
    for R in sorted(rs.regions.values(), key=lambda r: r.id):
        out.append({
            "id": R.id,
            "kind": R.kind,
            "created_at": R.created_at,
            "created_step": R.created_step,
            "center": [float(c) for c in R.center],
            "parents": list(R.parents),
            "vanished_at": R.vanished_at,
            "edges": [{"mode": e.mode,
                       "targets": list(e.targets),
                       "segments": [list(s) for s in e.segments]}
                      for e in R.edges],
        })
    return out


def threshold_estimate(freqs: dict, eta: float) -> float | None:
    """Smallest beta on the grid with survival frequency >= 1/2."""
    betas = sorted(b for (b, e) in freqs if e == eta)
    for b in betas:
        if freqs[(b, eta)] >= 0.5:
            return b
    return None
