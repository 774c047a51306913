import numpy as np
import pytest

from qcp import comparison
from qcp.comparison import ErrorPoint
from qcp.experiments import (ExperimentConfig, aligned_side, block_goodness,
                             error_rate, hydro_convergence, parallel_map,
                             phase_scan, property5_check, property6_check,
                             run_coupled, survival_floor, survival_table,
                             threshold_estimate)
from qcp.kernel import discretize
from qcp.mean_field import Params, equilibria


def small_cfg(**kw):
    base = dict(beta=1.0, eta=0.05, L_list=(10,), gamma=0.3, W=3.0,
                steps=2, horizon=60, K=0.5, block_N=10, seeds=(1, 2))
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_seeds_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            small_cfg(seeds=(1, 1))

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
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


class TestBlockGoodness:
    def test_small_run(self):
        cfg = small_cfg(L_list=(25,), W=4.0, K=0.5, block_N=8,
                        seeds=tuple(range(1, 9)))
        out = block_goodness(cfg)
        assert 0.0 <= out["estimate"] <= 1.0
        assert out["ci_low"] <= out["estimate"] <= out["ci_high"]
        assert out["good_both"] <= out["seeds"]

    def test_supercritical_death_fails(self):
        cfg = small_cfg(L_list=(25,), W=4.0, K=0.5, block_N=12,
                        seeds=(1, 2, 3), eta=0.5, beta=1.0)
        with pytest.raises(ValueError, match="bistable"):
            block_goodness(cfg)

    def test_delta_too_large_rejected(self):
        cfg = small_cfg(L_list=(25,), W=4.0, delta=0.5)
        with pytest.raises(ValueError, match="delta"):
            block_goodness(cfg)

    def test_window_must_fit_blocks(self):
        cfg = small_cfg(L_list=(25,), W=2.0, K=1.0)
        with pytest.raises(ValueError, match="window"):
            block_goodness(cfg)


class TestPhaseScan:
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


class TestSurvivalTable:
    def test_aggregation(self):
        rows = [{"beta": 0.5, "eta": 0.1, "survived": 1},
                {"beta": 0.5, "eta": 0.1, "survived": 0},
                {"beta": 0.9, "eta": 0.1, "survived": 1}]
        tab = survival_table(rows)
        assert tab[(0.5, 0.1)] == 0.5
        assert tab[(0.9, 0.1)] == 1.0
