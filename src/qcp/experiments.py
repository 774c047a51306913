"""Reproducible experiment harnesses across the whole stack.

Every harness is deterministic given (config, seed list): all coins
come from the counter-based streams keyed by seed and step, so runs at
different beta on the same seed are monotonically coupled, and re-runs
are bit-identical however many seeds run at once (cfg.threads).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chunks, comparison, lattice
from .ide import Field2D, evolve
from .kernel import KernelSpec, discretize
from .mean_field import Params, equilibria
from .rng import LatticeRng, check_seed, stream
from .wavespeed import PhiData


@dataclass(frozen=True)
class ExperimentConfig:
    beta: float = 1.0
    eta: float = 0.05
    kernel: KernelSpec = field(
        default_factory=lambda: KernelSpec("uniform-square", {"radius": 1.0}))
    L_list: tuple[int, ...] = (50, 100, 200, 400)
    gamma: float = 0.3
    W: float = 4.0
    steps: int = 5
    horizon: int = 500
    seeds: tuple[int, ...] = (1, 2, 3, 4, 5)
    beta_grid: tuple[float, ...] = ()
    eta_grid: tuple[float, ...] = ()
    phase_L: int = 10
    phase_W: float = 8.0
    threads: int = 1

    def __post_init__(self):
        Params(self.beta, self.eta)
        for name, cells in (
                ("beta_grid", [(b, self.eta) for b in self.beta_grid]),
                ("eta_grid", [(self.beta, e) for e in self.eta_grid])):
            for beta, eta in cells:
                try:
                    Params(beta, eta)
                except ValueError as exc:
                    raise ValueError(f"{name}: {exc}") from None
        if not self.seeds or not self.L_list:
            raise ValueError("L_list and seeds must each hold at least one "
                             "value")
        if len(set(map(check_seed, self.seeds))) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.steps < 0 or self.horizon < 0:
            raise ValueError("steps and horizon must be nonnegative")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got "
                             f"{self.threads}")
        windows = [(self.W, L) for L in self.L_list]
        if any(L < 1 or lattice.window_side(W, L) < 1
               for W, L in windows + [(self.phase_W, self.phase_L)]):
            raise ValueError("every (W, L) window must hold a site")
        lattice.box_side_sites(self.L_list[0], self.gamma)  # checks gamma

    @property
    def params(self) -> Params:
        return Params(self.beta, self.eta)


def _field_values(u0, side: int, L: int):
    """u0's start density on side x side nodes at spacing 1/L: a Field2D
    resampled at its nearest nodes, and a number as a read-only broadcast
    view of it, which holds no grid.  The density recursion and
    lattice.init read it without writing it, so a constant start adds no
    grid to a hydro run's peak."""
    if not isinstance(u0, Field2D):
        return np.broadcast_to(float(u0), (side, side))
    xs = np.arange(side) / L
    nx, ny = u0.values.shape
    fx = np.clip(np.round(xs / (1.0 / u0.L)).astype(int), 0, nx - 1)
    fy = np.clip(np.round(xs / (1.0 / u0.L)).astype(int), 0, ny - 1)
    return u0.values[np.ix_(fx, fy)]


def hydro_convergence(cfg: ExperimentConfig, u0) -> list:
    """Box-density error between the particle system and the density
    recursion after cfg.steps steps, per L and seed.

    u0 is a number or a Field2D to resample.  Returns rows with sup-box
    errors for the particle count S/m against u_n and the pair count R/m
    against u_n^2.
    """
    rows = []
    for L, side in zip(cfg.L_list, hydro_sides(cfg)):
        dk = discretize(cfg.kernel, L)
        u_n = evolve(Field2D(L, _field_values(u0, side, L)), dk, cfg.params,
                     cfg.steps)[cfg.steps].values
        # the density at each box's lower corner, which the errors read:
        # a copy, so the recursion's field is freed before the seeds run
        b = lattice.box_side_sites(L, cfg.gamma)
        corners = u_n[0:side // b * b:b, 0:side // b * b:b].copy()
        del u_n
        rows.extend(chunks.map_processes(_hydro_seed, [
            (cfg, dk, side, u0, corners, seed) for seed in cfg.seeds],
            cfg.threads))
    return rows


def _hydro_seed(cfg: ExperimentConfig, dk, side: int, u0, corners, seed):
    """hydro_convergence's row for seed: the lattice from u0 after
    cfg.steps steps against the recursion's corners."""
    p, rng = cfg.params, LatticeRng(seed)
    state = lattice.init(dk.L, side, _field_values(u0, side, dk.L), rng)
    for _ in range(cfg.steps):
        state, _ = lattice.step(state, dk, p, rng)
    stats = lattice.box_stats(state, cfg.gamma)
    s_err = float(np.max(np.abs(stats.density() - corners)))
    r_err = float(np.max(np.abs(stats.R / stats.m - corners ** 2)))
    return {"L": dk.L, "seed": seed, "n": cfg.steps,
            "sup_S_err": s_err, "sup_R_err": r_err,
            "boxes": int(stats.nb ** 2), "m": int(stats.m)}


def hydro_sides(cfg: ExperimentConfig) -> list:
    """The window's side in sites at each L of cfg.L_list; ValueError
    when one holds no box, so no run starts."""
    sides = [lattice.window_side(cfg.W, L) for L in cfg.L_list]
    for L, side in zip(cfg.L_list, sides):
        if side < lattice.box_side_sites(L, cfg.gamma):
            raise ValueError(f"window of {side} sites smaller than one "
                             f"box at L = {L}")
    return sides


def survival_floor(p: Params) -> float:
    """rho_u / 2 when bistable, else the fixed floor 0.05."""
    eq = equilibria(p)
    return eq.rho_u / 2.0 if eq.rho_u is not None else 0.05


def square_bounds(cfg: ExperimentConfig, square_side: float = 2.0):
    """Site range [i0, i1) on each axis of the finite square centred in
    the phase window; ValueError when it does not fit."""
    L, W, half = cfg.phase_L, cfg.phase_W, square_side / 2.0
    i0, i1 = int((W / 2 - half) * L), int((W / 2 + half) * L)
    if i0 < 0 or i1 > lattice.window_side(W, L):
        raise ValueError("square does not fit the window")
    return i0, i1


def phase_scan(cfg: ExperimentConfig, init: str = "all_ones",
               square_side: float = 2.0) -> list:
    """Survival frequencies over the (beta, eta) grid.

    init 'all_ones': survival means final density at least
    survival_floor.  init 'finite_square': survival means any particle
    alive at the horizon.
    Same-seed runs across the grid share coins, so one label run per
    (eta, seed) gives the final state at every beta (lattice.label_step).
    """
    betas = cfg.beta_grid or (cfg.beta,)
    etas = cfg.eta_grid or (cfg.eta,)
    side = lattice.window_side(cfg.phase_W, cfg.phase_L)
    start = np.full((side, side), -np.inf if init == "all_ones" else np.inf)
    if init == "finite_square":
        i0, i1 = square_bounds(cfg, square_side)
        start[i0:i1, i0:i1] = -np.inf
    elif init != "all_ones":
        raise ValueError(f"unknown init {init!r}")
    dk = discretize(cfg.kernel, cfg.phase_L)
    cells = [(e, s) for e in etas for s in cfg.seeds]
    finals = dict(zip(cells, chunks.map_processes(_final_labels, [
        (start, dk, eta, seed, cfg.horizon, max(betas))
        for eta, seed in cells], cfg.threads)))

    def row(beta, eta, seed):
        dens = float((finals[eta, seed] < beta).mean())
        floor = survival_floor(Params(beta, eta))
        survived = dens >= floor if init == "all_ones" else dens > 0.0
        return {"beta": beta, "eta": eta, "seed": seed, "init": init,
                "final_density": dens, "survived": int(survived)}

    return [row(b, e, s) for e in etas for b in betas for s in cfg.seeds]


def _final_labels(B, dk, eta: float, seed: int, horizon: int, top: float):
    """B after horizon label steps of seed at eta, or once every label
    reaches top: extinct at every beta of the scan, which absorbs."""
    rng = LatticeRng(seed)
    for n in range(horizon):
        if B.min() >= top:
            break
        B = lattice.label_step(B, n, dk, eta, rng)
    return B


def survival_table(rows):
    """Aggregate scan rows to per-cell frequencies."""
    table = {}
    for r in rows:
        key = (r["beta"], r["eta"])
        table.setdefault(key, []).append(r["survived"])
    return {k: sum(v) / len(v) for k, v in sorted(table.items())}


# -- coupled lattice / comparison runs ------------------------------------

@dataclass
class CoupledRunResult:
    seed: int
    L: int
    boxes: int
    points: list
    reports: list   # one ContainmentReport per step
    n_regions: int

    @property
    def steps(self) -> int:
        return len(self.reports)

    @property
    def violations(self) -> int:
        return sum(len(r.violations) for r in self.reports)

    @property
    def error_rate(self) -> float:
        return len(self.points) / (self.boxes * self.steps)


def aligned_side(L: int, gamma: float, W: float) -> int:
    """Torus side in sites, rounded to whole boxes so no remainder
    strip goes unmonitored."""
    b = lattice.box_side_sites(L, gamma)
    return b * max(1, int(round(W * L / b)))


def run_coupled(p: Params, dk, gamma: float, side: int, steps: int,
                seed: int, phi: PhiData,
                cfg: comparison.ComparisonConfig) -> CoupledRunResult:
    """Full coupled trajectory from all-ones: lattice drives errors,
    errors drive regions, containment audited at every step."""
    rng = LatticeRng(seed)
    state = lattice.init(dk.L, side, 1.0, rng)
    stats = lattice.box_stats(state, gamma)
    rs = comparison.RegionSet(cfg)
    cache = comparison.ProfileCache(phi)
    points, reports = [], []
    for n in range(1, steps + 1):
        state, _ = lattice.step(state, dk, p, rng)
        prev, stats = stats, lattice.box_stats(state, gamma)
        errs = comparison.detect_errors(prev, stats, rs, cache, rng)
        points.extend(errs)
        rs.evolve_to(n, spawns=errs)
        reports.append(comparison.check_containment(stats, rs))
    return CoupledRunResult(seed=seed, L=dk.L, boxes=int(stats.nb ** 2),
                            points=points, reports=reports,
                            n_regions=len(rs.regions))


def coupled_runs(cfg: ExperimentConfig, phi: PhiData, L: int):
    """One run_coupled per seed of cfg at L, on the torus of cfg.W
    aligned to whole boxes: (comparison config, side, results)."""
    dk = discretize(cfg.kernel, L)
    cmp_cfg = comparison.make_comparison_config(phi, dk, L, cfg.gamma)
    side = aligned_side(L, cfg.gamma, cfg.W)
    return cmp_cfg, side, chunks.map_processes(run_coupled, [
        (cfg.params, dk, cfg.gamma, side, cfg.steps, seed, phi, cmp_cfg)
        for seed in cfg.seeds], cfg.threads)


def error_rate(cfg: ExperimentConfig, phi: PhiData) -> list:
    """Empirical error rates per L against the Chebyshev bound, plus
    the point-process property checks on the pooled points."""
    rows = []
    for L in cfg.L_list:
        cmp_cfg, side, results = coupled_runs(cfg, phi, L)
        pooled = [pt for r in results for pt in r.points]
        w_cont = side / L
        prop5 = property5_check(pooled, w_cont, cfg.steps,
                                box_width=cmp_cfg.box_side / L)
        prop6 = property6_check(pooled, w_cont, cfg.steps,
                                eps=cmp_cfg.error_rate_bound(),
                                box_width=cmp_cfg.box_side / L)
        rate = (sum(len(r.points) for r in results)
                / sum(r.boxes * r.steps for r in results))
        rows.append({
            "L": L, "gamma": cfg.gamma, "seeds": len(cfg.seeds),
            "steps": cfg.steps, "empirical_rate": rate,
            "bound": cmp_cfg.error_rate_bound(),
            "within_bound": int(rate <= cmp_cfg.error_rate_bound()),
            "violations": sum(r.violations for r in results),
            "type_I": sum(1 for pt in pooled if pt.type == "I"),
            "type_II": sum(1 for pt in pooled if pt.type == "II"),
            "prop5_pass": int(prop5["passed"]),
            "prop6_pass": int(prop6["passed"]),
        })
    return rows


# -- point-process property checks -----------------------------------------

# significance level of the one-sided binomial tests
_LEVEL = 0.01
# space-time boxes probed by property5_check, drawn from stream(0, 0, 5)
_PROP5_PROBES = 400
# cube families drawn by property6_check, from stream(1, 0, 6)
_PROP6_FAMILIES = 100


def _xyt(points) -> np.ndarray:
    """The error points as rows (x, y, t), in time order."""
    pts = np.array([[pt.location[0], pt.location[1], pt.t]
                    for pt in points]).reshape(-1, 3)
    return pts[np.argsort(pts[:, 2], kind="stable")]


def _critical(trials: int, prob: float) -> int:
    """Largest count of hits, in trials with chance prob each, that the
    one-sided binomial test at level _LEVEL does not reject: the least k
    with P(X <= k) >= 1 - _LEVEL, exactly for the float prob.  In
    integers: with prob = a / d, d^trials P(X = k) is the term
    C(trials, k) a^k (d - a)^(trials - k)."""
    if not 0.0 < prob < 1.0:
        return 0 if prob <= 0.0 else trials
    a, d = prob.as_integer_ratio()
    qa, qd = (1.0 - _LEVEL).as_integer_ratio()
    # the least integer at or above (1 - _LEVEL) d^trials
    goal, term, total = -(-qa * d ** trials // qd), (d - a) ** trials, 0
    for k in range(trials):
        total += term
        if total >= goal:
            return k
        # the next term; the division is exact
        term = term * ((trials - k) * a) // ((k + 1) * (d - a))
    return trials


def property5_check(points, space_side: float, horizon: float,
                    box_width: float) -> dict:
    """Small-box multiplicity: the chance of seeing two or more points
    in a small space-time box must be quadratic in its volume.

    One-sided binomial test at level _LEVEL of H0: P(>= 2 in B) <=
    2 (nu lambda)^2 with nu the empirical space-time intensity.
    """
    a = 1.5 * box_width
    tau = 1.5
    vol = a * a * tau
    nu = len(points) / (space_side ** 2 * horizon) if horizon > 0 else 0.0
    bound = min(1.0, 2.0 * (nu * vol) ** 2)
    lows = stream(0, 0, 5).random((_PROP5_PROBES, 3))
    lows[:, :2] *= max(space_side - a, 0.0)
    lows[:, 2] *= max(horizon - tau, 0.0)
    # each probe is one cube at one translate: memory O(points) per probe
    pts, side, depth = _xyt(points), np.array([a]), np.array([tau])
    observed = sum(_window_counts(pts, (side, lo[None, :2], lo[2:], depth),
                                  1)[0, 0] >= 2 for lo in lows)
    # reject only if observed count is implausibly high under the bound
    critical = _critical(_PROP5_PROBES, bound)
    return {"passed": observed <= max(critical, 0), "observed": observed,
            "probes": _PROP5_PROBES, "bound": bound, "critical": critical}


def property6_check(points, space_side: float, horizon: float, eps: float,
                    box_width: float) -> dict:
    """Product bound for disjoint small cubes: joint hit frequencies may
    not exceed the product of the per-cube bounds 2 eps L^{2 gamma}
    lambda(B_j).

    box_width is the box width L^-gamma; cubes are drawn with spatial
    side below it and unit time depth, and each family is tested by
    sliding over integer time translates.
    """
    gen = stream(1, 0, 6)
    pts = _xyt(points)
    area_unit = box_width ** 2
    failures = 0
    translates = max(1, int(horizon) - 1)
    for _ in range(_PROP6_FAMILIES):
        cubes = _cube_family(gen, space_side, box_width)
        sides, _, _, t_len = cubes
        # per-cube bound: 2 eps L^{2 gamma} lambda(B); L^{2 gamma} is
        # 1/area of one box, so the rate is per unit volume
        bounds = np.minimum(
            1.0, 2.0 * eps * (sides ** 2 / area_unit) * t_len)
        target = float(np.prod(bounds))
        hits = np.count_nonzero(
            np.all(_window_counts(pts, cubes, translates) > 0, axis=0))
        # one-sided binomial test of freq <= target
        if hits > _critical(translates, min(target, 1.0)):
            failures += 1
    return {"passed": failures == 0, "families": _PROP6_FAMILIES,
            "failures": failures}


def _cube_family(gen, space_side: float, box_width: float):
    """The next family of property6_check's cubes from gen: the spatial
    sides (below box_width) of its 2 or 3 cubes, their lower spatial
    corners, and the start and length of their time windows at the
    first time translate."""
    m = int(gen.integers(2, 4))
    sides = (0.3 + 0.6 * gen.random(m)) * box_width
    anchors = gen.random((m, 2)) * (space_side - sides[:, None])
    t_len = 0.5 + 0.4 * gen.random(m)
    t_off = gen.random(m) * (1.0 - t_len).clip(min=0.0)
    return sides, anchors, t_off, t_len


def _window_counts(pts: np.ndarray, cubes, translates: int) -> np.ndarray:
    """(K, translates) counts of the points in cube k of the cubes
    (sides, anchors, t_off, t_len), as a _cube_family gives them, at
    translate s: cube k is [lo, lo + (sides[k], sides[k], t_len[k]))
    with lo = (anchors[k], t_off[k] + s).  pts holds the points as rows
    (x, y, t) in time order."""
    sides, anchors, t_off, t_len = cubes
    # seen[i, k] counts the first i points that lie in cube k's square,
    # read at the ends of each of its time windows
    xy = pts[:, None, :2]
    inside = np.all((xy >= anchors) & (xy < anchors + sides[:, None]), axis=2)
    seen = np.concatenate([np.zeros((1, len(sides)), np.intp),
                           np.cumsum(inside, axis=0)])
    cube = np.arange(len(sides))[:, None]
    lo = t_off[:, None] + np.arange(translates, dtype=float)
    return (seen[np.searchsorted(pts[:, 2], lo + t_len[:, None]), cube]
            - seen[np.searchsorted(pts[:, 2], lo), cube])
