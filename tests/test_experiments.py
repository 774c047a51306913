import inspect
import math
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcp import chunks, comparison, experiments, ide, kernel, lattice, \
    wavespeed
from qcp.comparison import ErrorPoint
from qcp.experiments import (ExperimentConfig, aligned_side, coupled_runs,
                             error_rate, hydro_convergence, phase_scan,
                             property5_check, property6_check, run_coupled,
                             square_bounds, survival_floor, survival_table)
from qcp.ide import Field2D
from qcp.kernel import discretize
from qcp.mean_field import Params, equilibria
from qcp.rng import LatticeRng, stream

from helpers import (field_start, property5_reference, property6_reference,
                     threshold_estimate, window_counts_reference)


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

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_at_least_one(self, threads):
        with pytest.raises(ValueError, match="threads"):
            small_cfg(threads=threads)

    @pytest.mark.parametrize("run", [
        lambda cfg: hydro_convergence(cfg, 0.5),
        lambda cfg: phase_scan(cfg, init="finite_square")])
    def test_bad_kernel_raises_before_any_step(self, run, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a step ran before the kernel was checked")

        monkeypatch.setattr(lattice, "step", refuse)
        monkeypatch.setattr(lattice, "label_step", refuse)
        bad = kernel.KernelSpec("uniform-square", {"radius": -1.0})
        with pytest.raises(ValueError, match="radius"):
            run(small_cfg(kernel=bad, phase_L=5, phase_W=4.0, horizon=5))

    def test_grid_entries_may_span_unit_interval(self):
        cfg = small_cfg(beta_grid=(0.0, 1.0), eta_grid=(0.0, 1.0))
        assert cfg.beta_grid == (0.0, 1.0)


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
        u0 = field_start(lambda x, y: 0.55 + 0.12 * np.cos(np.pi * x / 1.5)
                         * np.cos(np.pi * y / 1.5), cfg.W, 40)
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

    @pytest.mark.parametrize("threshold", [0, 10 ** 9], ids=["fft", "direct"])
    def test_constant_start_holds_no_grid(self, threshold, monkeypatch):
        # a read-only view of the number; its rows are those of the same
        # density as a grid to resample, bit for bit
        monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", threshold)
        vals = experiments._field_values(0.37, 30, 10)
        assert vals.shape == (30, 30) and vals.strides == (0, 0)
        assert not vals.flags.writeable
        cfg = small_cfg(L_list=(10, 20), steps=2, seeds=(1, 2))
        want = repr(hydro_convergence(cfg, 0.37))
        grid = Field2D(10, np.full((30, 30), 0.37))
        assert repr(hydro_convergence(cfg, grid)) == want


def phase_scan_oracle(cfg, init="all_ones", square_side=2.0):
    """Reference phase scan: one lattice.step trajectory per (beta, eta,
    seed) cell, stopped once extinct."""
    betas = cfg.beta_grid or (cfg.beta,)
    etas = cfg.eta_grid or (cfg.eta,)
    L, W = cfg.phase_L, cfg.phase_W
    dk = discretize(cfg.kernel, L)
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
    return [one(cell) for cell in cells]


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
    # one site of the square draws no death coin below eta in 150 steps,
    # so its label stays -inf and every beta survives
    @example(seed=1_023_020_351_015_831)
    def test_survival_flips_once_at_label_threshold(self, seed):
        # beta = 0 dies out by the horizon and beta = 1 survives, unless
        # a site of the square never dies (a -inf label: no flip)
        cfg = small_cfg(beta_grid=tuple(np.linspace(0.0, 1.0, 41)),
                        eta_grid=(0.1,), horizon=150, phase_L=5,
                        phase_W=4.0, seeds=(seed,))
        rows = phase_scan(cfg, init="finite_square")
        dk = discretize(cfg.kernel, cfg.phase_L)
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
        # beta = 1 always survives; only a -inf threshold has no flip
        assert threshold < 1.0
        assert flips == int(threshold > -np.inf)
        assert survived == [int(b > threshold) for b in cfg.beta_grid]
        # the per-beta runs die at the threshold and survive just above
        # it; a -inf threshold is read at beta = 0, where they survive
        t = float(np.clip(threshold, 0.0, 1.0))
        betas = (t, np.nextafter(t, 1.0))
        at = small_cfg(beta_grid=betas, eta_grid=(0.1,), horizon=150,
                       phase_L=5, phase_W=4.0, seeds=(seed,))
        oracle = phase_scan_oracle(at, init="finite_square")
        assert [r["survived"] for r in oracle] == \
            [int(b > threshold) for b in betas]

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

    @pytest.mark.parametrize("record, derived", [
        (lattice.LatticeState, "side"), (lattice.BoxStats, "b"),
        (kernel.DiscreteKernel, "support_diameter"),
        (wavespeed.SpeedResult, "c_star"),
        (experiments.CoupledRunResult, "steps")])
    def test_derived_field_is_no_argument(self, record, derived):
        # each is computed from its source, so no caller can set it apart
        assert derived not in inspect.signature(record).parameters

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


def stop_resource_tracker():
    """Stop and reap the resource tracker that a spawn context starts,
    as ResourceTracker._stop does: it would live until the interpreter
    exits."""
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)       # the tracker stops at end of file
        os.waitpid(tracker._pid, 0)
        tracker._fd = tracker._pid = None


class TestSeedsOnProcesses:
    """The seeds of an experiment run cfg.threads at a time on
    chunks.map_processes, with the bits of seeds run in turn."""

    @staticmethod
    def runs(phi, threads):
        scan = small_cfg(beta_grid=(0.3, 0.9), eta_grid=(0.1,), horizon=30,
                         phase_L=5, phase_W=4.0, seeds=(3, 11, 12),
                         threads=threads)
        coupled = small_cfg(L_list=(20,), W=2.5, steps=5, seeds=(1, 2, 3),
                            threads=threads)
        return (phase_scan(scan, init="finite_square"),
                coupled_runs(coupled, phi, 20),
                hydro_convergence(coupled, 0.6))

    def test_spawned_workers_give_the_bits_of_one(self, phi_main,
                                                  monkeypatch):
        # a spawned worker gets every seed task by pickle, so each task
        # and its arguments pickle, and its results come back exact
        want = self.runs(phi_main, 1)
        monkeypatch.setattr(chunks, "WORKERS", 2)
        monkeypatch.setattr(chunks, "START_METHOD", "spawn")
        try:
            assert self.runs(phi_main, 2) == want
        finally:
            stop_resource_tracker()
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_a_scan(self, monkeypatch):
        # a forked worker inherits the failing label_step below
        monkeypatch.setattr(chunks, "WORKERS", 2)
        monkeypatch.setattr(chunks, "START_METHOD", "fork")
        cfg = small_cfg(beta_grid=(0.3, 0.9), eta_grid=(0.1,), horizon=10,
                        phase_L=5, phase_W=4.0, seeds=(3, 11, 12), threads=2)
        phase_scan(cfg)
        assert multiprocessing.active_children() == []
        label_step = lattice.label_step

        def fail_on_11(B, n, dk, eta, rng):
            # seed 11 is the second task, run on a worker
            if rng.seed == 11:
                raise RuntimeError("seed 11 failed")
            return label_step(B, n, dk, eta, rng)

        monkeypatch.setattr(lattice, "label_step", fail_on_11)
        with pytest.raises(RuntimeError, match="seed 11 failed"):
            phase_scan(cfg)
        assert multiprocessing.active_children() == []


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
        out = property6_check(pts, 5.0, 200.0, eps=0.02, box_width=0.5)
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
                               box_width=0.5)["passed"]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 300),
           layout=st.sampled_from(["uniform", "clusters", "pairs",
                                   "faces", "integer times",
                                   "cube ends"]),
           horizon=st.one_of(st.integers(1, 100).map(float),
                             st.floats(0.5, 100.0)),
           space_side=st.floats(1.0, 6.0), width=st.floats(0.2, 1.0),
           eps=st.floats(1e-3, 0.5), grid=st.booleans())
    @example(seed=0, n=0, layout="uniform", horizon=1.0, space_side=5.0,
             width=0.5, eps=0.02, grid=False)
    @example(seed=3, n=250, layout="clusters", horizon=1.0, space_side=2.0,
             width=1.0, eps=0.5, grid=True)
    @example(seed=4, n=40, layout="faces", horizon=10.0, space_side=3.0,
             width=0.5, eps=0.02, grid=False)
    @example(seed=1, n=300, layout="integer times", horizon=1.0,
             space_side=2.0, width=1.0, eps=0.5, grid=False)
    @example(seed=2, n=300, layout="cube ends", horizon=60.0,
             space_side=3.0, width=0.5, eps=0.01, grid=False)
    def test_equal_to_probe_by_probe_reference(self, seed, n, layout,
                                               horizon, space_side, width,
                                               eps, grid):
        # clusters fill few cubes, so property 6 fails too, and pairs of
        # points 0.01 apart in time make property 5 fail; faces puts
        # points on both corners of property 5's first probes, where
        # [lo, hi) is decided; at horizon 1 or less integer times lie on
        # the lower time end of every property 5 probe, and cube ends on
        # both time ends of property 6's first family of cubes at each
        # translate; a grid makes points coincide
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
        elif layout == "integer times":
            xyt[:, 2] = np.floor(xyt[:, 2])
        elif layout == "cube ends":
            # the first family as property6_check draws it
            _, anchors, t_off, t_len = experiments._cube_family(
                stream(1, 0, 6), space_side, width)
            lo = t_off + np.arange(max(1, int(horizon) - 1))[:, None]
            ends = np.stack([lo, lo + t_len]).ravel()   # cube k last
            xyt = np.column_stack([
                np.tile(anchors, (ends.size // len(t_off), 1)), ends])[:n]
        if grid:
            xyt = np.round(xyt * 4.0) / 4.0
        pts = [ErrorPoint((x, y), t, "I", (0, 0), int(t) + 1)
               for x, y, t in xyt]
        assert (property5_check(pts, space_side, horizon, box_width=width)
                == property5_reference(pts, space_side, horizon, width))
        # the cubes and translates of each family property6_check tests
        families = []

        def window_counts(rows, cubes, translates):
            families.append((cubes, translates))
            return counts_of(rows, cubes, translates)

        counts_of = experiments._window_counts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_window_counts", window_counts)
            out6 = property6_check(pts, space_side, horizon, eps=eps,
                                   box_width=width)
        assert out6 == property6_reference(pts, space_side, horizon, eps,
                                           width)
        if layout == "cube ends" and n and not grid:
            # the layout follows property6_check's draws of its first
            # family: a point lies on a time end of one of its cubes
            (_, _, t_off, t_len), translates = families[0]
            lo = t_off + np.arange(translates, dtype=float)[:, None]
            first_ends = np.concatenate([lo, lo + t_len]).ravel()
            assert set(first_ends.tolist()).intersection(pt.t for pt in pts)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 80),
           translates=st.integers(1, 40),
           layout=st.sampled_from(["uniform", "faces", "grid"]),
           space_side=st.floats(1.0, 6.0), width=st.floats(0.2, 1.0))
    @example(seed=5, n=80, translates=12, layout="faces", space_side=2.0,
             width=1.0)
    def test_translate_hits_equal_box_by_box_count(self, seed, n, translates,
                                                   layout, space_side,
                                                   width):
        # faces puts each point on a face of one cube at one translate,
        # either end of the time window or either side of the square,
        # where [lo, hi) is decided; a grid makes points coincide
        gen = np.random.default_rng(seed)
        cubes = experiments._cube_family(gen, space_side, width)
        sides, anchors, t_off, t_len = cubes
        xyt = gen.random((n, 3)) * [space_side, space_side, translates + 1]
        if layout == "faces":
            k = gen.integers(0, len(sides), n)
            lo = np.column_stack([anchors[k], t_off[k]]) + np.column_stack(
                [np.zeros((n, 2)), gen.integers(0, translates, n)])
            hi = lo + np.column_stack([sides[k], sides[k], t_len[k]])
            xyt = np.where(gen.random((n, 3)) < 0.5, lo, hi)
        elif layout == "grid":
            xyt = np.round(xyt * 4.0) / 4.0
        pts = [ErrorPoint((x, y), t, "I", (0, 0), int(t) + 1)
               for x, y, t in xyt]
        got = experiments._window_counts(experiments._xyt(pts), cubes,
                                         translates)
        assert np.array_equal(
            got, window_counts_reference(pts, cubes, translates))


class TestSurvivalTable:
    def test_aggregation(self):
        rows = [{"beta": 0.5, "eta": 0.1, "survived": 1},
                {"beta": 0.5, "eta": 0.1, "survived": 0},
                {"beta": 0.9, "eta": 0.1, "survived": 1}]
        tab = survival_table(rows)
        assert tab[(0.5, 0.1)] == 0.5
        assert tab[(0.9, 0.1)] == 1.0


def _crossings(trials: int) -> np.ndarray:
    """For each k < trials, the float prob at which scipy's P(X <= k)
    falls below 1 - _LEVEL, by bisection."""
    from scipy.stats import binom
    k = np.arange(trials)
    lo, hi = np.zeros(trials), np.ones(trials)
    for _ in range(80):
        mid = (lo + hi) / 2
        up = binom.cdf(k, trials, mid) >= 1.0 - experiments._LEVEL
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    return lo


def _exact_cdf_reaches(trials: int, prob: float, k: int) -> bool:
    """Whether P(X <= k) >= 1 - _LEVEL for X binomial(trials, prob), in
    rationals: prob = a / d."""
    a, d = prob.as_integer_ratio()
    powers = [1]        # (d - a)^i for i <= trials
    for _ in range(trials):
        powers.append(powers[-1] * (d - a))
    cdf = Fraction(sum(math.comb(trials, j) * a ** j * powers[trials - j]
                       for j in range(k + 1)), d ** trials)
    return cdf >= Fraction(1.0 - experiments._LEVEL)


# property5_check tests 400 probes; property6_check tests horizon - 1
# translates, for the horizons of the runs and of these tests
@pytest.mark.parametrize("trials", [*range(1, 41), 99, 199, 400])
def test_critical_count_at_the_crossings(trials):
    # a few ulps either side of each crossing of the level, where a
    # rounded CDF may land on the other side: where the library and
    # scipy disagree, exact rational arithmetic decides
    from scipy.stats import binom
    probs = _crossings(trials)[:, None]
    for _ in range(2):
        probs = np.column_stack([np.nextafter(probs[:, 0], 0.0), probs,
                                 np.nextafter(probs[:, -1], 1.0)])
    probs = probs.ravel()
    want = binom.ppf(1.0 - experiments._LEVEL, trials, probs).astype(int)
    for prob, other in zip(probs.tolist(), want.tolist()):
        got = experiments._critical(trials, prob)
        if got != other:
            lo = min(got, other)
            assert (got == lo) == _exact_cdf_reaches(trials, prob, lo)


@pytest.mark.parametrize("trials", [1, 4, 400])
def test_critical_count_at_certain_chances(trials):
    assert experiments._critical(trials, 0.0) == 0
    assert experiments._critical(trials, 5e-324) == 0
    assert experiments._critical(trials, 1.0) == trials
