"""Reference code that only the tests use: the box-corner-anchored
lattice step and its one-step closed form, the maximal coupling of the
site- and corner-anchored steps, a single trial-speed classification,
scalar region queries, a region-set snapshot, an uncached oracle of the
containment audit, probe-by-probe references of the point-process
checks, the phase-scan threshold read-off, the bistability test, and
the readers and writers of the library's files and values that no
subcommand calls.  No subcommand writes any of their numbers,
so they live here and not in the library."""

import json
import math

import numpy as np

from qcp import lattice, wavespeed
from qcp import rng as _rng
from qcp.comparison import (ErrorPoint, ProfileCache, RegionSet,
                            _corner_coords, _edge_coords, _rect_in_union,
                            _recovery_demand, _rects_meet)
from qcp.experiments import _LEVEL, _PROP5_PROBES, _PROP6_FAMILIES
from qcp.ide import Field2D, Profile1D, apply_Q_1d, periodic_correlate
from qcp.kernel import marginal_1d
from qcp.lattice import LatticeState, box_side_sites, box_stats
from qcp.mean_field import equilibria
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
# the neighbour order of lattice._parents: +e1, -e1, +e2, -e2
NBR_DI = np.array([1, -1, 0, 0])
NBR_DJ = np.array([0, 0, 1, -1])


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
    i, j = np.divmod(f, side)
    corner = (i - i % b) * side + (j - j % b)
    y, z = lattice._parents(dk, side, lattice._padded_index(corner, side, dk),
                            u_off.ravel()[f], u_nbr.ravel()[f])
    padded = lattice._padded(occ0, dk)
    born = padded[y] & padded[z]
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
    measure, otherwise each process draws from its residual.  The
    tables of each shift are built once, for the attempts of every seed.
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
    n_cells = size * size

    def offsets_from_cells(idx):
        return np.stack([idx // size - imax, idx % size - imax], axis=1)

    def draw(weights, u):
        cdf = np.cumsum(weights)
        cdf /= weights.sum()
        return offsets_from_cells(
            np.minimum(np.searchsorted(cdf, u, "right"), n_cells - 1))

    class Run:
        """The attempts of one seed, their coins and parent offsets."""

        def __init__(self, seed):
            rng = LatticeRng(seed)
            n = s0.time + 1
            coins = [rng.stream(n, phase).random((side, side)) for phase in (
                PHASE_ATTEMPT, PHASE_OFFSET, PHASE_COUPLED_PARENT,
                PHASE_RESIDUAL_PARENT, PHASE_NEIGHBOR, PHASE_SECOND_NEIGHBOR,
                PHASE_DEATH)]
            u_att, *rest, self.u_die = coins
            self.ai, self.aj = np.nonzero(~occ0 & (u_att < p.beta))
            self.u_cpl, self.u_par, self.u_res, self.u_z, self.u_z2 = (
                u[self.ai, self.aj] for u in rest)
            self.y_site = np.zeros((len(self.ai), 2), dtype=np.int64)
            self.y_corner = np.zeros((len(self.ai), 2), dtype=np.int64)
            self.same = np.zeros(len(self.ai), dtype=bool)
            # attempts grouped by within-box shift, ascending in each
            key = (self.ai % b) * b + (self.aj % b)
            order = np.argsort(key, kind="stable")
            keys, starts = np.unique(key[order], return_index=True)
            self.members = dict(zip(keys.tolist(),
                                    np.split(order, starts[1:])))

    runs = [Run(seed) for seed in seeds]
    for key in sorted(set().union(*(r.members for r in runs))):
        # x = x* + s with s the within-box shift; seen from the site, the
        # corner kernel puts mass(w + s) on relative offset w, which is
        # 0 past the block [:size - si, :size - sj]
        si, sj = divmod(key, b)
        site, corner = dense[: size - si, : size - sj], dense[si:, sj:]
        overlap = np.zeros((size, size))
        np.minimum(site, corner, out=overlap[: size - si, : size - sj])
        overlap = overlap.ravel()
        p_same = overlap.sum()
        groups = [(r, r.members.get(key, np.empty(0, dtype=np.intp)))
                  for r in runs]
        for r, members in groups:
            r.same[members] = (True if p_same >= 1.0 - 1e-12
                               else r.u_cpl[members] < p_same)
        same = [(r, m[r.same[m]]) for r, m in groups]
        diff = [(r, m[~r.same[m]]) for r, m in groups]
        if any(len(m) for _, m in same):
            y = draw(overlap, np.concatenate([r.u_par[m] for r, m in same]))
            for (r, m), ym in zip(same, np.split(
                    y, np.cumsum([len(m) for _, m in same])[:-1])):
                r.y_site[m] = r.y_corner[m] = ym
        if any(len(m) for _, m in diff):
            res_site = dense.copy()
            res_corner = np.zeros((size, size))
            for res, a, c in ((res_site, site, corner),
                              (res_corner, corner, site)):
                block = res[: size - si, : size - sj]
                np.maximum(np.subtract(a, c, out=block), 0.0, out=block)
            splits = np.cumsum([len(m) for _, m in diff])[:-1]
            ys = np.split(draw(res_site.ravel(), np.concatenate(
                [r.u_par[m] for r, m in diff])), splits)
            yc = np.split(draw(res_corner.ravel(), np.concatenate(
                [r.u_res[m] for r, m in diff])), splits)
            for (r, m), ysm, ycm in zip(diff, ys, yc):
                r.y_site[m] = ysm
                r.y_corner[m] = ycm

    total = 0.0
    for r in runs:
        ai, aj = r.ai, r.aj

        def births(y_rel, neighbor_u):
            yi = (ai + y_rel[:, 0]) % side
            yj = (aj + y_rel[:, 1]) % side
            nsel = np.minimum((neighbor_u * 4.0).astype(np.int64), 3)
            zi = (yi + NBR_DI[nsel]) % side
            zj = (yj + NBR_DJ[nsel]) % side
            return occ0[yi, yj] & occ0[zi, zj]

        # shared second-parent coin when the first parents coincide,
        # independent choices otherwise, as in the one-step coupling
        born_site = births(r.y_site, r.u_z)
        born_corner = births(r.y_corner, np.where(r.same, r.u_z, r.u_z2))

        occ_site = occ0.copy()
        occ_site[ai[born_site], aj[born_site]] = True
        occ_corner = occ0.copy()
        occ_corner[ai[born_corner], aj[born_corner]] = True
        dies = r.u_die < p.eta
        total += float(np.mean((occ_site & ~dies) != (occ_corner & ~dies)))
    return total / len(seeds)


def probe_start(xi, dk, p):
    """psi and the line marginal along xi of a bisection probe in
    wavespeed.estimate_cstar."""
    psi = wavespeed._hump(dk, p)
    return psi, marginal_1d(dk, xi, psi.delta)


def classify_speed(c: float, xi, dk, p, tol: float = 1e-3) -> str:
    """Decide whether the trial speed c lies below c*(xi): one probe of
    the bisection in wavespeed.estimate_cstar, with its step budget."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not math.isfinite(c):  # the shift must reach a finite distance
        raise ValueError(f"trial speed c must be finite, got {c}")
    psi, k1 = probe_start(xi, dk, p)
    return wavespeed._classify(c, psi, k1, p, tol,
                               wavespeed._budget(dk, tol))[0]


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


# -- the containment audit without caches -----------------------------------

class WidenedProfileCache:
    """The recovery-profile ladder on a grid widened in advance: ages up
    to cap on phi's grid plus (cap + 2) kernel half-widths of the right
    limit, 16 ages at first and rebuilt at least twice as long when an
    older age is asked for."""

    def __init__(self, phi, cap: int = 16):
        self.phi = phi
        self._build(cap)

    def _build(self, cap: int):
        self.cap = cap
        base = self.phi.phi
        reach = max(k1.halfwidth for k1 in self.phi.kernels1d) * base.delta
        extra = int(math.ceil((cap * reach + 2 * reach) / base.delta))
        values = np.concatenate([base.values,
                                 np.full(extra, base.right_limit)])
        wide = Profile1D(base.s0, base.delta, values,
                         base.left_limit, base.right_limit)
        self.tables = []
        for k1 in self.phi.kernels1d:
            ladder = [wide]
            for _ in range(cap):
                ladder.append(apply_Q_1d(ladder[-1], k1, self.phi.params))
            self.tables.append(ladder)

    def profile(self, j: int, age: int) -> Profile1D:
        if age < 0:
            raise ValueError("age must be nonnegative")
        if age > self.cap:
            self._build(max(age, 2 * self.cap))
        return self.tables[j][age]


class UncachedRegionSet(RegionSet):
    """RegionSet whose event loop computes every support afresh."""

    def _supports_at(self, R, t):
        return R.supports_at(t, self.normals)


def box_rects(stats) -> np.ndarray:
    """(nb, nb, 4) array whose entry (bi, bj) is stats.box_rect(bi, bj)."""
    return np.array([[stats.box_rect(bi, bj) for bj in range(stats.nb)]
                     for bi in range(stats.nb)])


def uncached_snapshot(rs, t: float):
    """Regions alive at t, their supports (K, 3) and vertices (K, 3, 2),
    with one solve per vertex."""
    regs = rs.alive(t)
    g = np.array([R.supports_at(t, rs.normals) for R in regs]).reshape(-1, 3)
    verts = np.array([[np.linalg.solve(rs.normals[[i, j]], gk[[i, j]])
                       for i, j in ((1, 2), (2, 0), (0, 1))] for gk in g])
    return regs, g, verts.reshape(-1, 3, 2)


def uncached_detect_errors(prev, cur, rs, cache, rng) -> list:
    """comparison.detect_errors with the box rectangles, the snapshot
    and the corner projections computed afresh, and no agreement check
    of the box statistics."""
    cfg, n = rs.cfg, cur.time
    dens_prev, dens_cur = prev.density(), cur.density()
    regs, g, verts = uncached_snapshot(rs, n - 1)
    rects = box_rects(cur)
    lo = _corner_coords(rects, rs.normals).min(axis=-2)
    meets = _rects_meet(rects, lo, g, verts)
    touched = meets.any(axis=-1)
    bad = np.argwhere((dens_cur <= cfg.alpha) & (dens_prev > cfg.alpha))
    a = rects[bad[:, 0], bad[:, 1], None, None, :]
    dx = np.maximum(0.0, np.maximum(a[..., 0] - rects[..., 2],
                                    rects[..., 0] - a[..., 2]))
    dy = np.maximum(0.0, np.maximum(a[..., 1] - rects[..., 3],
                                    rects[..., 1] - a[..., 3]))
    near = np.hypot(dx, dy) <= cfg.d_k + 1e-9
    clear = ~np.any(near & touched, axis=(1, 2))
    errors = [("I", int(bi), int(bj)) for bi, bj in bad[clear]]
    bi, bj = np.nonzero(touched)
    if len(bi):
        centers = 0.5 * (rects[bi, bj, :2] + rects[bi, bj, 2:])
        h = _recovery_demand(centers, regs, meets[bi, bj], rs.normals,
                             cache, n)
        low = dens_cur[bi, bj] < h
        errors += [("II", int(i), int(j)) for i, j in zip(bi[low], bj[low])]
    errors.sort()
    if not errors:
        return []
    u = rng.stream(n, _rng.PHASE_ERROR_POINT).random((len(errors), 3))
    w = cur.b / cur.L
    out = []
    for (etype, bi, bj), (ux, uy, ut) in zip(errors, u):
        x0, y0 = cur.box_corner(bi, bj)
        out.append(ErrorPoint(location=(x0 + ux * w, y0 + uy * w),
                              t=n - 1 + ut, type=etype, box=(bi, bj),
                              step=n))
    return out


def uncached_containment(stats, rs):
    """(bad boxes, violations) of comparison.check_containment, from a
    fresh snapshot and the box_rect rectangles."""
    bad = [(int(bi), int(bj))
           for bi, bj in np.argwhere(stats.density() <= rs.cfg.alpha)]
    _, g, verts = uncached_snapshot(rs, stats.time)
    rects = box_rects(stats)
    return bad, [b for b in bad
                 if not _rect_in_union(rects[b], g, verts, rs.normals)]


def property5_reference(points, space_side: float, horizon: float,
                        box_width: float) -> dict:
    """experiments.property5_check with its own box test in each probe:
    the oracle of the shared box counter."""
    a = 1.5 * box_width
    tau = 1.5
    vol = a * a * tau
    nu = len(points) / (space_side ** 2 * horizon) if horizon > 0 else 0.0
    bound = min(1.0, 2.0 * (nu * vol) ** 2)
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [0, 5], dtype=np.uint64)))
    lows = gen.random((_PROP5_PROBES, 3))
    lows[:, :2] *= max(space_side - a, 0.0)
    lows[:, 2] *= max(horizon - tau, 0.0)
    pts = np.array([[pt.location[0], pt.location[1], pt.t]
                    for pt in points]).reshape(-1, 3)
    observed = 0
    for lo in lows:
        hi = lo + np.array([a, a, tau])
        if len(pts):
            inside = np.all((pts >= lo) & (pts < hi), axis=1)
            if int(inside.sum()) >= 2:
                observed += 1
    from scipy.stats import binom
    critical = int(binom.ppf(1.0 - _LEVEL, _PROP5_PROBES, bound))
    return {"passed": observed <= max(critical, 0), "observed": observed,
            "probes": _PROP5_PROBES, "bound": bound, "critical": critical}


def property6_reference(points, space_side: float, horizon: float,
                        eps: float, l_gamma_sq: float) -> dict:
    """experiments.property6_check with its own box test in each cube:
    the oracle of the shared box counter."""
    from scipy.stats import binom
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [1, 6], dtype=np.uint64)))
    pts = np.array([[pt.location[0], pt.location[1], pt.t]
                    for pt in points]).reshape(-1, 3)
    area_unit = l_gamma_sq ** 2
    failures = 0
    translates = max(1, int(horizon) - 1)
    for _ in range(_PROP6_FAMILIES):
        m = int(gen.integers(2, 4))
        sides = (0.3 + 0.6 * gen.random(m)) * l_gamma_sq
        anchors = gen.random((m, 2)) * (space_side - sides[:, None])
        t_len = 0.5 + 0.4 * gen.random(m)
        t_off = gen.random(m) * (1.0 - t_len).clip(min=0.0)
        bounds = np.minimum(
            1.0, 2.0 * eps * (sides ** 2 / area_unit) * t_len)
        target = float(np.prod(bounds))
        hits = 0
        for shift in range(translates):
            ok = True
            for k in range(m):
                lo = np.array([anchors[k, 0], anchors[k, 1],
                               shift + t_off[k]])
                hi = lo + np.array([sides[k], sides[k], t_len[k]])
                if not (len(pts) and np.any(
                        np.all((pts >= lo) & (pts < hi), axis=1))):
                    ok = False
                    break
            hits += ok
        critical = int(binom.ppf(1.0 - _LEVEL, translates,
                                 min(target, 1.0)))
        if hits > critical:
            failures += 1
    return {"passed": failures == 0, "families": _PROP6_FAMILIES,
            "failures": failures}


def threshold_estimate(freqs: dict, eta: float) -> float | None:
    """Smallest beta on the grid with survival frequency >= 1/2."""
    betas = sorted(b for (b, e) in freqs if e == eta)
    for b in betas:
        if freqs[(b, eta)] >= 0.5:
            return b
    return None


def bistable(p) -> bool:
    """Whether p has an unstable interior equilibrium rho_u."""
    return equilibria(p).rho_u is not None


def is_monotone(f: Profile1D, slack: float = 1e-12) -> bool:
    """Whether the profile's values are nonincreasing up to slack."""
    return bool(np.all(np.diff(f.values) <= slack))


def field_from_csv(path) -> Field2D:
    """Inverse of Field2D.to_csv."""
    with open(path) as fh:
        head = fh.readline().strip().lstrip("# ").split()
        meta = dict(item.split("=", 1) for item in head)
        vals = [[float(v) for v in line.strip().split(",")]
                for line in fh if line.strip()]
    return Field2D(float(meta["x0"]), float(meta["y0"]), float(meta["h"]),
                   np.array(vals), meta["boundary"], float(meta["clamp"]))


def kernel_spec_json(spec) -> str:
    """The JSON text of a KernelSpec that KernelSpec.from_json reads."""
    return json.dumps({"family": spec.family, "params": spec.params},
                      sort_keys=True)


def kernel_to_csv(dk, path) -> None:
    """The atoms of a DiscreteKernel as dx,dy,mass rows."""
    with open(path, "w") as fh:
        fh.write("dx,dy,mass\n")
        inv_l = 1.0 / dk.L
        for (i, j), m in zip(dk.offsets, dk.masses):
            fh.write(f"{float(i * inv_l)!r},{float(j * inv_l)!r},"
                     f"{float(m)!r}\n")


def _is_count(v) -> bool:
    """A nonnegative JSON integer; a bool is none."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def load_snapshot(path) -> LatticeState:
    """Inverse of lattice.save_snapshot.  ValueError unless side and L
    are positive, n is a nonnegative integer, first_bit is 0 or 1, and
    the runs are nonnegative integers covering the side x side grid."""
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
