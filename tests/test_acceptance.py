"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from qcp import comparison, ide, lattice, wavespeed
from qcp.cli import run as cli_run
from qcp.experiments import (ExperimentConfig, aligned_side,
                             hydro_convergence, phase_scan,
                             property5_check, property6_check, run_coupled,
                             survival_table)
from qcp.ide import Field2D, Profile1D, apply_Q_1d, apply_Q_2d, evolve
from qcp.kernel import discretize, marginal_1d
from qcp.lattice import LatticeState, box_side_sites, box_stats, init, step
from qcp.mean_field import Params, equilibria, mf_step
from qcp.rng import LatticeRng
from qcp.wavespeed import (AT_OR_ABOVE, BELOW, estimate_cstar,
                           front_speed_tracking, weinberger_step)

from conftest import seeded
from helpers import (bistable, classify_speed, corner_expectation,
                     corner_step, is_monotone, threshold_estimate)
from test_comparison import FineStepOracle, random_acute_normals, small_cfg


def report(num, detail):
    print(f"\n[criterion {num:02d}] PASS - {detail}")


class TestAcceptance:
    def test_c01_equilibria(self):
        t0 = time.time()
        gen = seeded(101)
        checked = 0
        while checked < 20:
            beta = float(gen.uniform(0.2, 1.0))
            eta = float(gen.uniform(0.001, 0.2))
            p = Params(beta, eta)
            if not bistable(p):
                continue
            checked += 1
            eq = equilibria(p)
            assert eq.rho_u is not None and eq.rho_s is not None
            assert eq.rho_u < 0.5 < eq.rho_s
            for r in eq.roots:
                assert abs(mf_step(p, r.value) - r.value) < 1e-12
        # beta (1 - eta) = 4 eta exactly representable at eta = 0.2
        eq = equilibria(Params(1.0, 0.2))
        assert eq.values == (0.0, 0.5)
        elapsed = time.time() - t0
        assert elapsed < 1.0
        report(1, f"20 bistable parameter pairs, residuals < 1e-12, "
                  f"double root exact, {elapsed:.2f}s")

    def test_c02_attractiveness(self, dk8, p_main, square_spec):
        t0 = time.time()
        gen = seeded(102)
        for _ in range(100):
            vals = gen.random((20, 20))
            u = Field2D(0.0, 0.0, 0.125, vals)
            v = Field2D(0.0, 0.0, 0.125,
                        np.minimum(1.0, vals + gen.random((20, 20))
                                   * (1 - vals)))
            qu = apply_Q_2d(u, dk8, p_main)
            qv = apply_Q_2d(v, dk8, p_main)
            assert np.all(qu.values <= qv.values + 1e-14)

        L = 50
        dk = discretize(square_spec, L)
        for seed in range(1, 21):
            rng_a, rng_b = LatticeRng(seed), LatticeRng(seed)
            a = init(L, 200, 0.3, LatticeRng(1000 + seed))
            extra = init(L, 200, 0.3, LatticeRng(2000 + seed))
            b = LatticeState(L, a.side, (a.occ | extra.occ).astype(np.uint8))
            for _ in range(50):
                a, _ = step(a, dk, p_main, rng_a)
                b, _ = step(b, dk, p_main, rng_b)
                assert np.all(a.occ <= b.occ)
        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(2, f"operator monotone on 100 pairs; sitewise domination "
                  f"held over 50 steps x 20 seeds on a 200^2 torus, "
                  f"{elapsed:.1f}s")

    def test_c03_one_two_dimensional_consistency(self, square_spec, p_main):
        L = 8
        dk = discretize(square_spec, L)
        h = 1.0 / L
        k1 = marginal_1d(dk, (1.0, 0.0), h)
        gen = seeded(103)
        worst = 0.0
        for _ in range(10):
            n = 90
            ramp = np.sort(gen.random(n))[::-1].copy()
            f = Profile1D(0.0, h, ramp, ramp[0], ramp[-1])
            g1 = apply_Q_1d(f, k1, p_main)
            field = Field2D(0.0, 0.0, h, np.tile(ramp[:, None], (1, n)))
            g2 = apply_Q_2d(field, dk, p_main)
            r = int(dk.offsets[:, 0].max())
            interior = slice(r, n - r)
            diff = np.max(np.abs(g2.values[interior, n // 2]
                                 - g1.values[interior]))
            worst = max(worst, float(diff))
        assert worst < 1e-10
        report(3, f"plane-wave reduction matches the planar operator, "
                  f"sup diff {worst:.2e} over 10 profiles")

    def test_c04_weinberger_properties(self, dk8, p_main):
        t0 = time.time()
        eq = equilibria(p_main)
        psi = wavespeed._hump(dk8, p_main, s_max=12.0)
        k1 = marginal_1d(dk8, (1.0, 0.0), psi.delta)
        f = psi
        for _ in range(40):
            nxt = weinberger_step(f, 0.1, k1, p_main, psi)
            assert np.all(nxt.values >= f.values - 1e-12)
            assert is_monotone(nxt, 1e-12)
            assert nxt.values.max() <= eq.rho_s + 1e-12
            f = nxt

        d = dk8.support_diameter
        grid = [-0.5 * d, -0.1, 0.1, 0.5 * d, d]
        for ang in (0.0, 45.0, 165.0):
            xi = (np.cos(np.deg2rad(ang)), np.sin(np.deg2rad(ang)))
            switched = False
            for c in grid:
                cls = classify_speed(c, xi, dk8, p_main, tol=1e-2)
                if cls == AT_OR_ABOVE:
                    switched = True
                else:
                    assert cls == BELOW and not switched
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(4, f"iterates nondecreasing in n, nonincreasing in s, "
                  f"bounded by rho_s; classification monotone in c for 3 "
                  f"directions, {elapsed:.1f}s")

    def test_c05_speed_oracle_agreement(self, dk8, p_main):
        t0 = time.time()
        tol = 0.01
        angles = (0.0, 45.0, 90.0)
        details = []
        for ang in angles:
            xi = (np.cos(np.deg2rad(ang)), np.sin(np.deg2rad(ang)))
            est = estimate_cstar(xi, dk8, p_main, tol=tol)
            track = front_speed_tracking(xi, dk8, p_main, steps=80)
            assert abs(est.c_star - track) <= max(0.05, 3 * tol)
            details.append(f"{ang:g}deg est {est.c_star:.4f} "
                           f"track {track:.4f}")
        refl = [estimate_cstar(xi, dk8, p_main, tol=tol).c_star
                for xi in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]]
        assert max(refl) - min(refl) <= 2 * tol
        elapsed = time.time() - t0
        assert elapsed < 300.0
        report(5, "; ".join(details) + f"; reflection spread "
               f"{max(refl) - min(refl):.2e}, {elapsed:.1f}s")

    def test_c06_one_step_moments(self, square_spec):
        t0 = time.time()
        p = Params(1.0, 0.05)
        L, gamma, seeds = 100, 0.3, 200
        dk = discretize(square_spec, L)
        s0 = init(L, 250, 0.5, LatticeRng(106))
        m = box_side_sites(L, gamma) ** 2
        expect = corner_expectation(s0, dk, p, gamma)
        acc = None
        samples = []
        for k in range(seeds):
            rng = LatticeRng(5000 + k)
            s1, _ = corner_step(s0, dk, p, rng, gamma=gamma)
            st = box_stats(s1, gamma)
            acc = st.density() if acc is None else acc + st.density()
            samples.append(st.S)
        mean = acc / seeds
        c_bound = max(1.0, p.beta ** 2)
        err = np.max(np.abs(mean - expect))
        # seed-scaled bound, and the per-run 4 sigma form it implies
        assert err < 4 * np.sqrt(c_bound / m) / np.sqrt(seeds)
        assert err < 4 * np.sqrt(c_bound * m) / m
        var = np.var(np.array(samples, dtype=float), axis=0, ddof=1)
        slack = 3.0 * np.sqrt(2.0 / (seeds - 1))
        assert np.all(var <= c_bound * m * (1.0 + slack))
        elapsed = time.time() - t0
        assert elapsed < 180.0
        report(6, f"box means within {err:.5f} of the closed form "
                  f"(bound {4 * np.sqrt(c_bound / m) / np.sqrt(seeds):.5f}); "
                  f"variances within {c_bound}m at 3 sigma, {elapsed:.1f}s")

    def test_c07_hydrodynamic_convergence(self, square_spec):
        t0 = time.time()
        cfg = ExperimentConfig(beta=1.0, eta=0.05, kernel=square_spec,
                               L_list=(50, 100, 200, 400), gamma=0.3,
                               W=4.0, steps=5,
                               seeds=tuple(range(201, 211)))
        u0 = lambda x, y: 0.55 + 0.12 * np.cos(2 * np.pi * x / 4.0) \
            * np.cos(2 * np.pi * y / 4.0)
        rows = hydro_convergence(cfg, u0)
        by_seed = {}
        for r in rows:
            by_seed.setdefault(r["seed"], {})[r["L"]] = r["sup_S_err"]
        monotone = sum(
            1 for errs in by_seed.values()
            if errs[50] > errs[100] > errs[200] > errs[400])
        assert monotone >= 9
        final = np.mean([errs[400] for errs in by_seed.values()])
        assert final < 0.05
        elapsed = time.time() - t0
        assert elapsed < 900.0
        report(7, f"sup box error decreasing across L in {monotone}/10 "
                  f"seeds; mean final error at L=400 is {final:.4f} < 0.05, "
                  f"{elapsed:.1f}s")

    def test_c08_slab_expansion_instance(self, square_spec, monkeypatch):
        t0 = time.time()
        p = Params(1.0, 0.05)
        eq = equilibria(p)
        L_grid = 4
        dk = discretize(square_spec, L_grid)
        d = dk.support_diameter
        K = 5.0 * d
        delta = (eq.rho_s - eq.rho_u) / 8.0
        h = 1.0 / L_grid
        half_span = 4.0 * K + 4.0 * d
        n = 2 * int(half_span / h) + 1
        xs = -half_span + np.arange(n) * h
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        vals = np.where((np.abs(gx) <= K) & (np.abs(gy) <= K),
                        eq.rho_u + delta, 0.0)
        u = Field2D(xs[0], xs[0], h, vals, boundary="clamped",
                    clamp_value=0.0)
        N = 300
        # 81 kernel offsets take the direct sum by default; FFTs are
        # faster over this 300-step run
        monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
        out = evolve(u, dk, p, N)[-1]
        slab = (np.abs(gx) <= 4.0 * K) & (np.abs(gy) <= K)
        low = float(out.values[slab].min())
        assert low > eq.rho_s - delta
        elapsed = time.time() - t0
        assert elapsed < 120.0
        report(8, f"block expansion: after N={N} steps the density on the "
                  f"wide slab is >= {low:.4f} > rho_s - delta = "
                  f"{eq.rho_s - delta:.4f} (K={K:.1f}), {elapsed:.1f}s")

    def test_c09_comparison_geometry_closed_forms(self):
        t0 = time.time()
        gen = seeded(109)
        vanish_checked = 0
        catchup_checked = 0
        for _ in range(50):
            dirs = random_acute_normals(gen)
            r = float(gen.uniform(1.0, 2.5))
            c = float(gen.uniform(0.15, 0.4))
            b = float(gen.uniform(0.8, 2.0))
            cfg = small_cfg(r=r, c=c, b=b, directions=dirs)
            oracle = FineStepOracle(dirs, cfg.lam, c, b)
            rs = comparison.RegionSet(cfg)
            t_spawn = float(gen.uniform(0.0, 0.5))
            gap = float(gen.uniform(0.2, 0.8)) * r
            spawns = [
                comparison.ErrorPoint((0.0, 0.0), t_spawn, "I", (0, 0), 1),
                comparison.ErrorPoint((gap, 0.0), t_spawn, "I", (1, 0), 1)]
            rs.evolve_to(t_spawn + r / c + 1.0, spawns=spawns)
            reg = rs.regions[0]
            t_v = oracle.vanish_time([r] * 3, t_spawn,
                                     t_spawn + r / c + 1.0)
            assert reg.vanished_at == pytest.approx(t_v, abs=1e-9)
            vanish_checked += 1
            ov = next((x for x in rs.regions.values()
                       if x.kind == "overlap"), None)
            assert ov is not None
            parents = [(rs.regions[i].center,
                        rs.regions[i].offsets_at(ov.created_at))
                       for i in ov.parents]
            times = oracle.catchup_times(ov.center,
                                         ov.offsets_at(ov.created_at),
                                         parents, ov.created_at,
                                         ov.created_at + 12.0)
            for j, edge in enumerate(ov.edges):
                if len(edge.segments) > 1 and times[j] is not None:
                    assert times[j] == pytest.approx(edge.segments[1][0],
                                                     abs=1e-9)
                    catchup_checked += 1
        assert catchup_checked >= 50
        elapsed = time.time() - t0
        assert elapsed < 60.0
        report(9, f"{vanish_checked} vanish times and {catchup_checked} "
                  f"catch-up times match the fine-step integrator to 1e-9, "
                  f"{elapsed:.1f}s")

    def test_c10_containment(self, phi_main, square_spec, p_main):
        t0 = time.time()
        gamma, steps = 0.3, 300
        L = 200
        dk = discretize(square_spec, L)
        cfg = comparison.make_comparison_config(phi_main, dk, L, gamma)
        side = aligned_side(L, gamma, 2.0)
        all_points = []
        violations = 0
        boxes = steps_total = 0
        for seed in range(301, 311):
            res = run_coupled(p_main, dk, gamma, side, steps, seed,
                              phi_main, cfg)
            violations += res.violations
            all_points.extend(res.points)
            boxes = res.boxes
            steps_total += res.steps
        assert violations == 0
        rate = len(all_points) / (boxes * steps_total)
        assert rate <= cfg.error_rate_bound()
        w_cont = side / L
        p5 = property5_check(all_points, w_cont, steps,
                             box_width=cfg.box_side / L)
        p6 = property6_check(all_points, w_cont, steps,
                             eps=cfg.error_rate_bound(),
                             l_gamma_sq=cfg.box_side / L)
        assert p5["passed"] and p6["passed"]

        # supplementary stress run at L=50 where errors actually occur
        dk50 = discretize(square_spec, 50)
        cfg50 = comparison.make_comparison_config(phi_main, dk50, 50, gamma)
        stress_points = 0
        stress_violations = 0
        for seed in range(351, 356):
            res = run_coupled(p_main, dk50, gamma,
                              aligned_side(50, gamma, 3.0), 60, seed,
                              phi_main, cfg50)
            stress_points += len(res.points)
            stress_violations += res.violations
        assert stress_violations == 0
        elapsed = time.time() - t0
        assert elapsed < 1800.0
        report(10, f"L=200: 10 seeds x 300 steps, {len(all_points)} errors, "
                   f"0 violations, rate {rate:.2e} <= bound "
                   f"{cfg.error_rate_bound():.2e}, properties (5)/(6) pass; "
                   f"stress L=50: {stress_points} errors, 0 violations, "
                   f"{elapsed:.1f}s")

    def test_c11_phase_scan_sanity(self, square_spec):
        t0 = time.time()
        cfg = ExperimentConfig(kernel=square_spec,
                               beta_grid=(0.2, 0.35, 0.5, 0.65, 0.8, 0.95),
                               eta_grid=(0.1,), horizon=300,
                               phase_L=10, phase_W=8.0,
                               seeds=tuple(range(401, 406)))
        rows_all = phase_scan(cfg, init="all_ones")
        rows_fin = phase_scan(cfg, init="finite_square", square_side=2.0)
        # coupled seeds: per-seed survival indicator nondecreasing in beta
        for rows in (rows_all, rows_fin):
            per_seed = {}
            for r in rows:
                per_seed.setdefault(r["seed"], []).append(
                    (r["beta"], r["survived"]))
            for seq in per_seed.values():
                vals = [s for _, s in sorted(seq)]
                assert vals == sorted(vals)
        freq_all = survival_table(rows_all)
        freq_fin = survival_table(rows_fin)
        th_all = threshold_estimate(freq_all, 0.1)
        th_fin = threshold_estimate(freq_fin, 0.1)
        assert th_all is not None and th_fin is not None
        assert th_fin >= th_all
        elapsed = time.time() - t0
        assert elapsed < 1200.0
        report(11, f"survival nondecreasing in beta under coupled seeds; "
                   f"thresholds: all-ones {th_all}, finite {th_fin} "
                   f"(ordering holds), {elapsed:.1f}s")

    def test_c12_reproducibility(self, tmp_path, capsys):
        t0 = time.time()
        tiny = {"beta": 1.0, "eta": 0.05, "gamma": 0.3, "W": 2.5,
                "steps": 3, "L-list": [20], "seeds": [7], "phi-L": 4,
                "horizon": 15, "phase-L": 5, "phase-W": 4.0,
                "beta-grid": [0.5, 0.9], "eta-grid": [0.1]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny))
        commands = {
            "mean-field": ["mean-field", "--beta", "1.0", "--eta", "0.1",
                           "--out", "trace.csv"],
            "ide-run": ["ide-run", "--L", "4", "--W", "3", "--steps", "2"],
            "speed": ["speed", "--angle", "0", "--tol", "0.05",
                      "--kernel-L", "4", "--out", "speed.csv"],
            "lattice-run": ["lattice-run", "--L", "10", "--W", "2",
                            "--seed", "7", "--steps", "5",
                            "--snapshot-every", "5"],
            "hydro": ["hydro", "--config", str(cfg_path), "--steps", "2"],
            "compare": ["compare", "--config", str(cfg_path)],
            "phase-scan": ["phase-scan", "--config", str(cfg_path)],
            "error-rate": ["error-rate", "--config", str(cfg_path)],
        }
        for name, argv in commands.items():
            outs = []
            for attempt, threads in (("a", "1"), ("b", "4")):
                d = tmp_path / f"{name}-{attempt}"
                d.mkdir()
                code = cli_run(argv + ["--out-dir", str(d),
                                       "--threads", threads])
                assert code == 0, f"{name} failed"
                data = {}
                for f in sorted(d.rglob("*")):
                    if f.is_file() and not f.name.endswith("manifest.json"):
                        data[f.name] = f.read_bytes()
                outs.append(data)
            assert outs[0] == outs[1], f"{name} outputs differ"
        capsys.readouterr()
        elapsed = time.time() - t0
        report(12, f"all 8 subcommands byte-identical across reruns and "
                   f"thread counts, {elapsed:.1f}s")
