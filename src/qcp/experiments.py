"""Reproducible experiment harnesses across the whole stack.

Every harness is deterministic given (config, seed list): all coins
come from the counter-based streams keyed by seed and step, so runs at
different beta on the same seed are automatically monotonically
coupled, and re-runs are bit-identical at any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import comparison, lattice
from .ide import Field2D, evolve
from .kernel import KernelSpec, build_kernel, discretize
from .mean_field import Params, equilibria
from .rng import LatticeRng, stream
from .wavespeed import PhiData


def parallel_map(fn, items, threads: int = 1):
    """Order-preserving map; results independent of the worker count."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.steps < 0 or self.horizon < 0:
            raise ValueError("steps and horizon must be nonnegative")
        windows = [(self.W, L) for L in self.L_list]
        if any(L < 1 or lattice.window_side(W, L) < 1
               for W, L in windows + [(self.phase_W, self.phase_L)]):
            raise ValueError("every (W, L) window must hold a site")
        lattice.box_side_sites(self.L_list[0], self.gamma)  # checks gamma

    @property
    def params(self) -> Params:
        return Params(self.beta, self.eta)


def _field_values(u0, xs, ys):
    if isinstance(u0, Field2D):
        fx = np.clip(np.round((xs - u0.x0) / u0.h).astype(int), 0, u0.nx - 1)
        fy = np.clip(np.round((ys - u0.y0) / u0.h).astype(int), 0, u0.ny - 1)
        return u0.values[np.ix_(fx, fy)]
    if callable(u0):
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.asarray(u0(gx, gy), dtype=float)
    return np.full((len(xs), len(ys)), float(u0))


def hydro_convergence(cfg: ExperimentConfig, u0) -> list:
    """Box-density error between the particle system and the density
    recursion after cfg.steps steps, per L and seed.

    u0 may be a constant, a vectorized callable (x, y) -> density, or a
    Field2D to resample.  Returns rows with sup-box errors for the
    particle count S/m against u_n and the pair count R/m against
    u_n^2.
    """
    spec = build_kernel(cfg.kernel)
    p = cfg.params
    rows = []
    for L in cfg.L_list:
        dk = discretize(spec, L)
        side = lattice.window_side(cfg.W, L)
        xs = np.arange(side) / L
        vals = _field_values(u0, xs, xs)
        u_field = Field2D(0.0, 0.0, 1.0 / L, vals, boundary="periodic")
        u_n = evolve(u_field, dk, p, cfg.steps)[-1]

        def one_seed(seed, L=L, dk=dk, side=side, u_field=u_field, u_n=u_n):
            rng = LatticeRng(seed)
            state = lattice.init(L, side, u_field.values, rng)
            for _ in range(cfg.steps):
                state, _ = lattice.step(state, dk, p, rng)
            stats = lattice.box_stats(state, cfg.gamma)
            b, nb = stats.b, stats.nb
            corners = u_n.values[0:nb * b:b, 0:nb * b:b]
            s_err = float(np.max(np.abs(stats.density() - corners)))
            r_err = float(np.max(np.abs(stats.R / stats.m - corners ** 2)))
            return {"L": L, "seed": seed, "n": cfg.steps,
                    "sup_S_err": s_err, "sup_R_err": r_err,
                    "boxes": int(nb * nb), "m": int(stats.m)}

        rows.extend(parallel_map(one_seed, cfg.seeds, cfg.threads))
    return rows


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
    dk = discretize(build_kernel(cfg.kernel), cfg.phase_L)

    def final_labels(cell):
        eta, seed = cell
        rng, B = LatticeRng(seed), start
        for n in range(cfg.horizon):
            if B.min() >= max(betas):  # extinct at every beta: absorbing
                break
            B = lattice.label_step(B, n, dk, eta, rng)
        return B

    cells = [(e, s) for e in etas for s in cfg.seeds]
    finals = dict(zip(cells, parallel_map(final_labels, cells, cfg.threads)))

    def row(beta, eta, seed):
        dens = float((finals[eta, seed] < beta).mean())
        floor = survival_floor(Params(beta, eta))
        survived = dens >= floor if init == "all_ones" else dens > 0.0
        return {"beta": beta, "eta": eta, "seed": seed, "init": init,
                "final_density": dens, "survived": int(survived)}

    return [row(b, e, s) for e in etas for b in betas for s in cfg.seeds]


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
    steps: int
    boxes: int
    points: list
    reports: list
    n_regions: int

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
    return CoupledRunResult(seed=seed, L=dk.L, steps=steps,
                            boxes=int(stats.nb ** 2), points=points,
                            reports=reports, n_regions=len(rs.regions))


def coupled_runs(cfg: ExperimentConfig, phi: PhiData, L: int):
    """One run_coupled per seed of cfg at L, on the torus of cfg.W
    aligned to whole boxes: (comparison config, side, results)."""
    dk = discretize(cfg.kernel, L)
    cmp_cfg = comparison.make_comparison_config(phi, dk, L, cfg.gamma)
    side = aligned_side(L, cfg.gamma, cfg.W)

    def one_seed(seed):
        return run_coupled(cfg.params, dk, cfg.gamma, side, cfg.steps, seed,
                           phi, cmp_cfg)

    return cmp_cfg, side, parallel_map(one_seed, cfg.seeds, cfg.threads)


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
                                l_gamma_sq=cmp_cfg.box_side / L)
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


def _counter(points):
    """The count of the error points in the half-open space-time box
    [lo, hi), as a function of its corners lo and hi; memory O(points)
    per call."""
    pts = np.array([[pt.location[0], pt.location[1], pt.t]
                    for pt in points]).reshape(-1, 3)
    return lambda lo, hi: np.count_nonzero(
        np.all((pts >= lo) & (pts < hi), axis=1))


def _critical(trials: int, prob: float) -> int:
    """Largest count of hits, in trials with chance prob each, that the
    one-sided binomial test at level _LEVEL does not reject."""
    # imported here: it costs about 1.4 s and most runs never need it
    from scipy.stats import binom
    return int(binom.ppf(1.0 - _LEVEL, trials, prob))


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
    count, size = _counter(points), np.array([a, a, tau])
    observed = sum(count(lo, lo + size) >= 2 for lo in lows)
    # reject only if observed count is implausibly high under the bound
    critical = _critical(_PROP5_PROBES, bound)
    return {"passed": observed <= max(critical, 0), "observed": observed,
            "probes": _PROP5_PROBES, "bound": bound, "critical": critical}


def property6_check(points, space_side: float, horizon: float, eps: float,
                    l_gamma_sq: float) -> dict:
    """Product bound for disjoint small cubes: joint hit frequencies may
    not exceed the product of the per-cube bounds 2 eps L^{2 gamma}
    lambda(B_j).

    l_gamma_sq is the box width L^-gamma; cubes are drawn with spatial
    side below it and unit time depth, and each family is tested by
    sliding over integer time translates.
    """
    gen, count = stream(1, 0, 6), _counter(points)
    area_unit = l_gamma_sq ** 2
    failures = 0
    translates = max(1, int(horizon) - 1)
    for _ in range(_PROP6_FAMILIES):
        m = int(gen.integers(2, 4))
        sides = (0.3 + 0.6 * gen.random(m)) * l_gamma_sq
        anchors = gen.random((m, 2)) * (space_side - sides[:, None])
        t_len = 0.5 + 0.4 * gen.random(m)
        t_off = gen.random(m) * (1.0 - t_len).clip(min=0.0)
        # per-cube bound: 2 eps L^{2 gamma} lambda(B); L^{2 gamma} is
        # 1/area of one box, so the rate is per unit volume
        bounds = np.minimum(
            1.0, 2.0 * eps * (sides ** 2 / area_unit) * t_len)
        target = float(np.prod(bounds))
        lo0 = np.column_stack([anchors, t_off])
        size = np.column_stack([sides, sides, t_len])
        hits = 0
        for shift in range(translates):
            lo = lo0 + [0.0, 0.0, shift]
            hits += all(count(lo[k], lo[k] + size[k]) for k in range(m))
        # one-sided binomial test of freq <= target
        if hits > _critical(translates, min(target, 1.0)):
            failures += 1
    return {"passed": failures == 0, "families": _PROP6_FAMILIES,
            "failures": failures}
