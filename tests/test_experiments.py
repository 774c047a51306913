import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcp import comparison, lattice
from qcp.comparison import ErrorPoint
from qcp.experiments import (ExperimentConfig, aligned_side, error_rate,
                             hydro_convergence, parallel_map, phase_scan,
                             property5_check, property6_check, run_coupled,
                             square_bounds, survival_floor, survival_table)
from qcp.kernel import build_kernel, discretize
from qcp.mean_field import Params, equilibria
from qcp.rng import LatticeRng, stream

from helpers import (property5_reference, property6_reference,
                     threshold_estimate)


def small_cfg(**kw):
    base = dict(beta=1.0, eta=0.05, L_list=(10,), gamma=0.3, W=3.0,
                steps=2, horizon=60, seeds=(1, 2))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_seeds_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            small_cfg(seeds=(1, 1))

    def test_gamma_validated(self):
        with pytest.raises(ValueError, match="gamma"):
            small_cfg(gamma=0.6)

    @pytest.mark.parametrize("kw", [
        {"beta": 1.5}, {"eta": float("nan")}, {"beta_grid": (0.3, 1.5)},
        {"eta_grid": (-0.1,)}, {"beta_grid": (float("inf"),)}])
    def test_rates_validated_through_params(self, kw):
        with pytest.raises(ValueError, match="beta|eta"):
            small_cfg(**kw)

    @pytest.mark.parametrize("kw", [
        {"W": float("inf")}, {"W": float("nan")}, {"phase_W": 1e308},
        {"phase_W": -float("inf")}])
    def test_window_must_be_finite(self, kw):
        with pytest.raises(ValueError, match="window"):
            small_cfg(**kw)

    def test_grid_entries_may_span_unit_interval(self):
        cfg = small_cfg(beta_grid=(0.0, 1.0), eta_grid=(0.0, 1.0))
        assert cfg.beta_grid == (0.0, 1.0)

    def test_parallel_map_order(self):
        items = list(range(20))
        assert parallel_map(lambda x: x * x, items, 1) == \
            parallel_map(lambda x: x * x, items, 4)


class TestHydro:
    def test_all_ones_one_step_binomial(self):
        # u0 = 1: after one step the particle density fluctuates around
        # 1 - eta; the pair statistic carries the known interior-sum
        # factor ((b-1)/b)^2 on top of (1 - eta)^2
        cfg = small_cfg(L_list=(20,), steps=1, seeds=(3, 4))
        rows = hydro_convergence(cfg, 1.0)
        from qcp.lattice import box_side_sites
        b = box_side_sites(20, cfg.gamma)
        interior_bias = (1 - 0.05) ** 2 * (1.0 - ((b - 1) / b) ** 2)
        for row in rows:
            m = row["m"]
            sigma = np.sqrt(0.05 * 0.95 / m)
            # sup over boxes of a binomial fluctuation
            assert row["sup_S_err"] < 6 * sigma
            assert abs(row["sup_R_err"] - interior_bias) < 12 * sigma

    def test_errors_shrink_with_l(self):
        cfg = small_cfg(L_list=(10, 40), steps=3, seeds=(5,))
        u0 = lambda x, y: 0.55 + 0.12 * np.cos(np.pi * x / 1.5) \
            * np.cos(np.pi * y / 1.5)
        rows = hydro_convergence(cfg, u0)
        assert rows[0]["sup_S_err"] > rows[1]["sup_S_err"]

    def test_coarser_boxes_are_noisier(self):
        base = small_cfg(L_list=(40,), steps=1, seeds=(1, 2, 3))
        fine = hydro_convergence(base, 0.5)
        coarse = hydro_convergence(small_cfg(L_list=(40,), steps=1,
                                             seeds=(1, 2, 3), gamma=0.49),
                                   0.5)
        mean_fine = np.mean([r["sup_S_err"] for r in fine])
        mean_coarse = np.mean([r["sup_S_err"] for r in coarse])
        assert mean_coarse > mean_fine


def phase_scan_oracle(cfg, init="all_ones", square_side=2.0):
    """Reference phase scan: one lattice.step trajectory per (beta, eta,
    seed) cell, stopped once extinct."""
    betas = cfg.beta_grid or (cfg.beta,)
    etas = cfg.eta_grid or (cfg.eta,)
    L, W = cfg.phase_L, cfg.phase_W
    dk = discretize(build_kernel(cfg.kernel), L)
    side = int(round(W * L))

    def one(cell):
        beta, eta, seed = cell
        p = Params(beta, eta)
        rng = LatticeRng(seed)
        state = lattice.init(L, side, 1.0, LatticeRng(0))
        if init == "finite_square":
            mask = np.zeros((side, side), dtype=np.uint8)
            half = square_side / 2.0
            i0 = int((W / 2 - half) * L)
            i1 = int((W / 2 + half) * L)
            mask[i0:i1, i0:i1] = 1
            state.occ = state.occ * mask
        for _ in range(cfg.horizon):
            state, _ = lattice.step(state, dk, p, rng)
            if not state.occ.any():
                break
        dens = state.density()
        if init == "all_ones":
            survived = dens >= survival_floor(p)
        else:
            survived = dens > 0.0
        return {"beta": beta, "eta": eta, "seed": seed, "init": init,
                "final_density": dens, "survived": int(survived)}

    cells = [(b, e, s) for e in etas for b in betas for s in cfg.seeds]
    return parallel_map(one, cells, cfg.threads)


class TestPhaseScan:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("init", ["all_ones", "finite_square"])
    def test_rows_equal_per_beta_runs(self, init, threads):
        cfg = small_cfg(beta_grid=(0.9, 0.0, 0.45, 1.0, 0.3),
                        eta_grid=(0.2, 0.05), horizon=60, phase_L=6,
                        phase_W=5.0, seeds=(3, 11, 12), threads=threads)
        rows = phase_scan(cfg, init=init)
        assert rows == phase_scan_oracle(cfg, init=init)
        assert len({r["survived"] for r in rows}) == 2  # both outcomes seen

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 63 - 1))
    def test_survival_flips_once_at_label_threshold(self, seed):
        # beta = 0 dies out by the horizon and beta = 1 survives
        cfg = small_cfg(beta_grid=tuple(np.linspace(0.0, 1.0, 41)),
                        eta_grid=(0.1,), horizon=150, phase_L=5,
                        phase_W=4.0, seeds=(seed,))
        rows = phase_scan(cfg, init="finite_square")
        dk = discretize(build_kernel(cfg.kernel), cfg.phase_L)
        rng = LatticeRng(seed)
        i0, i1 = square_bounds(cfg)
        side = lattice.window_side(cfg.phase_W, cfg.phase_L)
        B = np.full((side, side), np.inf)
        B[i0:i1, i0:i1] = -np.inf
        for n in range(cfg.horizon):
            B = lattice.label_step(B, n, dk, 0.1, rng)
        threshold = B.min()
        survived = [r["survived"] for r in rows]
        flips = np.count_nonzero(np.diff(survived))
        assert flips == 1
        assert survived == [int(b > threshold) for b in cfg.beta_grid]
        # the per-beta runs die at the threshold and survive just above it
        at = small_cfg(beta_grid=(threshold, np.nextafter(threshold, 1.0)),
                       eta_grid=(0.1,), horizon=150, phase_L=5,
                       phase_W=4.0, seeds=(seed,))
        oracle = phase_scan_oracle(at, init="finite_square")
        assert [r["survived"] for r in oracle] == [0, 1]

    def test_no_births_extinction(self):
        cfg = small_cfg(beta_grid=(0.0,), eta_grid=(0.1,), horizon=100,
                        phase_L=5, phase_W=4.0, seeds=(1, 2))
        rows = phase_scan(cfg, init="all_ones")
        assert all(r["survived"] == 0 for r in rows)

    def test_monotone_in_beta_with_coupled_seeds(self):
        cfg = small_cfg(beta_grid=(0.2, 0.5, 0.95), eta_grid=(0.1,),
                        horizon=60, phase_L=8, phase_W=5.0,
                        seeds=(1, 2, 3))
        rows = phase_scan(cfg, init="all_ones")
        per_seed = {}
        for r in rows:
            per_seed.setdefault(r["seed"], []).append((r["beta"],
                                                       r["survived"]))
        for seq in per_seed.values():
            seq = [s for _, s in sorted(seq)]
            assert seq == sorted(seq)

    def test_survival_floor(self):
        p = Params(1.0, 0.1)
        eq = equilibria(p)
        assert survival_floor(p) == pytest.approx(eq.rho_u / 2)
        assert survival_floor(Params(0.1, 0.3)) == 0.05

    def test_threshold_ordering_helpers(self):
        freqs = {(0.2, 0.1): 0.0, (0.5, 0.1): 0.4, (0.8, 0.1): 1.0}
        assert threshold_estimate(freqs, 0.1) == 0.8
        assert threshold_estimate({(0.2, 0.1): 0.0}, 0.1) is None

    def test_square_must_fit(self):
        cfg = small_cfg(beta_grid=(0.5,), eta_grid=(0.1,), phase_L=5,
                        phase_W=2.0, horizon=5)
        with pytest.raises(ValueError, match="square"):
            phase_scan(cfg, init="finite_square", square_side=4.0)


class TestCoupledRuns:
    def test_zero_violations_and_reports(self, phi_main, square_spec,
                                         p_main):
        L = 25
        dk = discretize(square_spec, L)
        cmp_cfg = comparison.make_comparison_config(phi_main, dk, L, 0.3)
        side = aligned_side(L, 0.3, 3.0)
        res = run_coupled(p_main, dk, 0.3, side, 20, 7, phi_main, cmp_cfg)
        assert res.steps == 20
        assert len(res.reports) == 20
        assert res.violations == 0
        assert res.error_rate <= 1.0

    def test_error_rate_rows(self, phi_main):
        cfg = small_cfg(L_list=(25,), W=3.0, steps=15, seeds=(1, 2))
        rows = error_rate(cfg, phi_main)
        assert len(rows) == 1
        row = rows[0]
        assert row["within_bound"] == 1
        assert row["empirical_rate"] <= row["bound"]
        assert row["violations"] == 0
        assert row["prop5_pass"] == 1 and row["prop6_pass"] == 1

    def test_aligned_side_is_whole_boxes(self):
        from qcp.lattice import box_side_sites
        for L, gamma, W in [(50, 0.3, 4.0), (200, 0.3, 2.0), (25, 0.4, 3.0)]:
            side = aligned_side(L, gamma, W)
            assert side % box_side_sites(L, gamma) == 0


class TestPointProcessProperties:
    def _iid_points(self, nb, steps, w, q, seed=9):
        gen = np.random.Generator(np.random.Philox(
            key=np.array([seed, 9], dtype=np.uint64)))
        pts = []
        for n in range(1, steps + 1):
            hits = np.nonzero(gen.random((nb, nb)) < q)
            for bi, bj in zip(*hits):
                pts.append(ErrorPoint(
                    location=(bi * w + gen.random() * w,
                              bj * w + gen.random() * w),
                    t=n - 1 + gen.random(), type="I",
                    box=(int(bi), int(bj)), step=n))
        return pts

    def test_property5_passes_for_independent_process(self):
        pts = self._iid_points(10, 200, 0.5, 0.01)
        out = property5_check(pts, 5.0, 200.0, box_width=0.5)
        assert out["passed"]

    def test_property6_passes_for_independent_process(self):
        pts = self._iid_points(10, 200, 0.5, 0.01)
        out = property6_check(pts, 5.0, 200.0, eps=0.02, l_gamma_sq=0.5)
        assert out["passed"]

    def test_property5_rejects_clustered_process(self):
        pts = []
        for k in range(40):
            t = 3.0 + k * 40.0
            pts.append(ErrorPoint((1.5, 1.5), t, "I", (0, 0), int(t) + 1))
            pts.append(ErrorPoint((1.5, 1.5), t + 0.01, "I", (0, 0),
                                  int(t) + 1))
        out = property5_check(pts, 3.0, 1700.0, box_width=1.0)
        assert not out["passed"]

    def test_empty_process_trivially_passes(self):
        assert property5_check([], 5.0, 100.0, box_width=0.5)["passed"]
        assert property6_check([], 5.0, 100.0, eps=0.01,
                               l_gamma_sq=0.5)["passed"]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
           layout=st.sampled_from(["uniform", "clusters", "pairs",
                                   "faces"]),
           horizon=st.one_of(st.integers(1, 25).map(float),
                             st.floats(0.5, 25.0)),
           space_side=st.floats(1.0, 6.0), width=st.floats(0.2, 1.0),
           eps=st.floats(1e-3, 0.5), grid=st.booleans())
    @example(seed=0, n=0, layout="uniform", horizon=1.0, space_side=5.0,
             width=0.5, eps=0.02, grid=False)
    @example(seed=3, n=250, layout="clusters", horizon=1.0, space_side=2.0,
             width=1.0, eps=0.5, grid=True)
    def test_equal_to_probe_by_probe_reference(self, seed, n, layout,
                                               horizon, space_side, width,
                                               eps, grid):
        # clusters fill few cubes, so property 6 fails too, and pairs of
        # points 0.01 apart in time make property 5 fail; faces puts
        # points on both corners of property 5's first probes, where
        # [lo, hi) is decided, and a grid makes points coincide
        gen = np.random.default_rng(seed)
        xyt = gen.random((n, 3)) * [space_side, space_side, horizon]
        if layout == "clusters":
            xyt = np.clip(xyt[gen.integers(0, 3, n) % max(n, 1)]
                          + gen.normal(0.0, 0.05, (n, 3)), 0.0,
                          [space_side, space_side, horizon])
        elif layout == "pairs":
            xyt = np.repeat(xyt[:n // 8], 2, axis=0)
            xyt[1::2, 2] += 0.01
        elif layout == "faces":
            a = 1.5 * width
            lows = stream(0, 0, 5).random((n // 2, 3)) * [
                max(space_side - a, 0.0), max(space_side - a, 0.0),
                max(horizon - 1.5, 0.0)]
            xyt = np.concatenate([lows, lows + [a, a, 1.5]])
        if grid:
            xyt = np.round(xyt * 4.0) / 4.0
        pts = [ErrorPoint((x, y), t, "I", (0, 0), int(t) + 1)
               for x, y, t in xyt]
        assert (property5_check(pts, space_side, horizon, box_width=width)
                == property5_reference(pts, space_side, horizon, width))
        assert (property6_check(pts, space_side, horizon, eps=eps,
                                l_gamma_sq=width)
                == property6_reference(pts, space_side, horizon, eps,
                                       width))


class TestSurvivalTable:
    def test_aggregation(self):
        rows = [{"beta": 0.5, "eta": 0.1, "survived": 1},
                {"beta": 0.5, "eta": 0.1, "survived": 0},
                {"beta": 0.9, "eta": 0.1, "survived": 1}]
        tab = survival_table(rows)
        assert tab[(0.5, 0.1)] == 0.5
        assert tab[(0.9, 0.1)] == 1.0
