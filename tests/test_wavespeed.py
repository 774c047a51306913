import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcp
from qcp import chunks, wavespeed
from qcp.ide import Profile1D, apply_Q_1d
from qcp.kernel import Kernel1D, discretize
from qcp.mean_field import Params, equilibria, mean_field_trace
from qcp.wavespeed import (AT_OR_ABOVE, BELOW, build_phi,
                           default_directions, estimate_cstar,
                           front_speed_tracking, validate_direction_triple,
                           weinberger_step)

from conftest import seeded
from helpers import classify_speed, is_monotone, probe_start

# frozen after first computation at beta=1, eta=0.05, unit-square kernel
# discretized at L=8 with the default grid
GOLDEN_TRACKING_E1 = 0.1825458470612657
GOLDEN_CSTAR_E1 = 0.18693491820049757
GOLDEN_PHI = {"alpha": 0.8846424974798833, "m": -12.374368670764582,
              "M": 1.0606601717798227, "l": 13.435028842544405,
              "c": 0.08972876073623884}

# Bisection trajectories recorded with the Profile1D-per-step recursion
# (weinberger_step in the probe loop); every probe must reproduce them
# exactly.  (trial speed, class) per probe, then the bracket and the
# recursion steps run.
GOLDEN_E1_TRACE = [
    (-3.8284271247461903, BELOW), (3.8284271247461903, AT_OR_ABOVE),
    (0.0, BELOW), (1.9142135623730951, AT_OR_ABOVE),
    (0.9571067811865476, AT_OR_ABOVE), (0.4785533905932738, AT_OR_ABOVE),
    (0.2392766952966369, AT_OR_ABOVE), (0.11963834764831845, BELOW),
    (0.17945752147247768, BELOW), (0.2093671083845573, AT_OR_ABOVE),
    (0.1944123149285175, AT_OR_ABOVE), (0.18693491820049757, AT_OR_ABOVE)]
GOLDEN_E1_BRACKET = (0.17945752147247768, 0.18693491820049757)
GOLDEN_E1_ITERATIONS = 20504
# phi_main: the 45 degree normal, then the 165 and 285 degree normals,
# whose line marginals are identical
_PHI_COMMON = [
    (-3.8284271247461903, BELOW), (3.8284271247461903, AT_OR_ABOVE),
    (0.0, BELOW), (1.9142135623730951, AT_OR_ABOVE),
    (0.9571067811865476, AT_OR_ABOVE), (0.4785533905932738, AT_OR_ABOVE),
    (0.2392766952966369, AT_OR_ABOVE), (0.11963834764831845, BELOW)]
GOLDEN_PHI_TRACES = [
    _PHI_COMMON + [(0.17945752147247768, AT_OR_ABOVE),
                   (0.14954793456039805, BELOW),
                   (0.16450272801643787, BELOW)],
    _PHI_COMMON + [(0.17945752147247768, BELOW),
                   (0.2093671083845573, AT_OR_ABOVE),
                   (0.1944123149285175, AT_OR_ABOVE)]]
GOLDEN_PHI_BRACKETS = [(0.16450272801643787, 0.17945752147247768),
                       (0.17945752147247768, 0.1944123149285175)]
# steps per direction; the third bisection is shared with the second
GOLDEN_PHI_ITERATIONS = [7575, 24688, 0]


def iterate_wave_profiles(k1s, c, p, psi, n):
    """n steps of weinberger_step per direction from the shared psi grid:
    the reference for the recursion build_phi runs."""
    profiles = []
    for k1 in k1s:
        f = psi
        for _ in range(n):
            f = weinberger_step(f, c, k1, p, psi)
        profiles.append(f)
    return profiles


def assert_iterates_match(c, psi, k1, p, steps):
    """The first steps windowed iterates, or all of them where they end
    sooner, equal repeated weinberger_step bit for bit, each one equals
    its predecessor outside the span it names, and the sup it yields is
    the sup change over the whole grid.  Returns the spans and the limits
    from psi's on, and the last weinberger_step iterate."""
    iterates = wavespeed._front_iterates(c, psi, k1, p)
    f, spans, limits = psi, [], [(psi.left_limit, psi.right_limit)]
    for _, (values, left, right, span, sup) in zip(range(steps), iterates):
        prev = f.values
        f = weinberger_step(f, c, k1, p, psi)
        assert values.tobytes() == f.values.tobytes()
        assert (left, right) == (f.left_limit, f.right_limit)
        outside = np.ones(len(values), dtype=bool)
        outside[span] = False
        assert values[outside].tobytes() == prev[outside].tobytes()
        assert sup == np.abs(values - prev).max(initial=0.0)
        spans.append(span)
        limits.append((left, right))
    return spans, limits, f


class TestPsi:
    def test_piecewise_linear_values(self, dk8, p_main):
        # the hump every front recursion starts from
        d = dk8.support_diameter
        eq = equilibria(p_main)
        plateau = 0.5 * (eq.rho_u + eq.rho_s)
        psi = wavespeed._hump(dk8, p_main)
        assert psi.delta == d / 64.0
        assert psi.s0 == -7.0 * d - 2.0 * psi.delta
        assert psi.left_limit == plateau and psi.right_limit == 0.0
        grid = psi.grid
        assert np.all(psi.values[grid <= -5.0 * d] == plateau)
        assert np.all(psi.values[grid >= 0.0] == 0.0)
        ramp = (grid > -5.0 * d) & (grid < 0.0)
        assert np.allclose(psi.values[ramp], -grid[ramp] / (5.0 * d)
                           * plateau, rtol=0.0, atol=1e-15)
        assert psi.evaluate(-2.5 * d) == pytest.approx(0.5 * plateau)
        assert is_monotone(psi)


class TestWeinbergerStep:
    def test_first_step_dominates_psi(self, dk8, p_main):
        psi, k1 = probe_start((1.0, 0.0), dk8, p_main)
        f1 = weinberger_step(psi, 0.1, k1, p_main, psi)
        assert np.all(f1.values >= psi.values - 1e-15)

    def test_point_mass_constant_rho_s(self, dk8, p_main):
        eq = equilibria(p_main)
        psi = wavespeed._hump(dk8, p_main)
        k1 = Kernel1D(psi.delta, np.array([1.0]))
        f = Profile1D(psi.s0, psi.delta,
                      np.full(len(psi.values), eq.rho_s), eq.rho_s, eq.rho_s)
        out = weinberger_step(f, 0.0, k1, p_main, psi)
        assert np.max(np.abs(out.values - eq.rho_s)) < 1e-12

    def test_output_monotone(self, dk8, p_main):
        psi, k1 = probe_start((1.0, 0.0), dk8, p_main)
        gen = seeded(31)
        vals = np.sort(gen.random(len(psi.values)))[::-1] * 0.9
        f = Profile1D(psi.s0, psi.delta, vals, vals[0], vals[-1])
        out = weinberger_step(f, 0.37, k1, p_main, psi)
        assert is_monotone(out, 1e-12)

    def test_iterates_monotone_in_n_and_s(self, dk8, p_main):
        psi, k1 = probe_start((1.0, 0.0), dk8, p_main)
        eq = equilibria(p_main)
        f = psi
        for _ in range(25):
            nxt = weinberger_step(f, 0.1, k1, p_main, psi)
            assert np.all(nxt.values >= f.values - 1e-12)
            assert is_monotone(nxt, 1e-12)
            assert nxt.values.max() <= eq.rho_s + 1e-12
            f = nxt


class TestClassify:
    def test_fast_frame_is_at_or_above(self, dk8, p_main):
        d = dk8.support_diameter
        assert classify_speed(d + 0.5, (1.0, 0.0), dk8, p_main) == AT_OR_ABOVE

    def test_receding_frame_is_below(self, dk8, p_main):
        d = dk8.support_diameter
        assert classify_speed(-d - 0.5, (1.0, 0.0), dk8, p_main,
                              tol=1e-2) == BELOW

    def test_monotone_in_c(self, dk8, p_main):
        d = dk8.support_diameter
        grid = [-0.5 * d, -0.1, 0.1, 0.5 * d, d]
        results = [classify_speed(c, (1.0, 0.0), dk8, p_main, tol=1e-2)
                   for c in grid]
        switched = False
        for r in results:
            if r == AT_OR_ABOVE:
                switched = True
            else:
                assert not switched, "below after at_or_above breaks monotonicity"

    def test_needs_bistable(self, dk8):
        with pytest.raises(ValueError, match="bistable"):
            classify_speed(0.0, (1.0, 0.0), dk8, Params(0.3, 0.2))


@pytest.fixture(scope="module")
def e1_speed(dk8, p_main):
    return estimate_cstar((1.0, 0.0), dk8, p_main, tol=0.01)


class TestEstimate:
    def test_golden_value_and_bracket(self, e1_speed):
        res = e1_speed
        assert res.c_star == pytest.approx(GOLDEN_CSTAR_E1, abs=1e-9)
        lo, hi = res.bracket
        assert lo < res.c_star <= hi
        assert hi - lo <= 0.01 + 1e-12
        assert len(res.trace) >= 3

    def test_axis_reflection_symmetry(self, dk8, p_main):
        tol = 0.02
        cs = [estimate_cstar(xi, dk8, p_main, tol=tol).c_star
              for xi in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]]
        assert max(cs) - min(cs) <= 2 * tol

    def test_diagonal_reflection_symmetry(self, dk8, p_main):
        tol = 0.02
        s = np.sqrt(0.5)
        a = estimate_cstar((s, s), dk8, p_main, tol=tol).c_star
        b = estimate_cstar((s, -s), dk8, p_main, tol=tol).c_star
        assert abs(a - b) <= 2 * tol


class TestSettings:
    @pytest.fixture(autouse=True)
    def no_probe(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("probe ran before the settings were checked")

        monkeypatch.setattr(wavespeed, "_classify", refuse)

    # below 1e-6 the budget runs to billions of steps (7,964,850,768 at
    # 1e-7), and near 1e-320 no probe can classify
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, 5e-324,
                                     1e-320, 1e-7])
    def test_bad_tol_rejected(self, dk8, p_main, tol):
        with pytest.raises(ValueError, match="tol"):
            estimate_cstar((1.0, 0.0), dk8, p_main, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            classify_speed(0.1, (1.0, 0.0), dk8, p_main, tol=tol)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_bad_trial_speed_rejected(self, dk8, p_main, c):
        with pytest.raises(ValueError, match="trial speed"):
            classify_speed(c, (1.0, 0.0), dk8, p_main)

    def test_zero_diameter_rejected(self, point_mass_spec, p_main,
                                    monkeypatch):
        # a one-atom kernel has d(k) = 0, so no grid step d(k)/64
        def refuse(*args, **kwargs):
            raise AssertionError("tracking ran on a kernel of diameter 0")

        monkeypatch.setattr(wavespeed, "apply_Q_1d", refuse)
        dk = discretize(point_mass_spec, 4)
        with pytest.raises(ValueError, match="kernel diameter"):
            estimate_cstar((1.0, 0.0), dk, p_main)
        with pytest.raises(ValueError, match="kernel diameter"):
            front_speed_tracking((1.0, 0.0), dk, p_main)
        with pytest.raises(ValueError, match="kernel diameter"):
            build_phi(*default_directions(), dk, p_main)


class TestBitIdentical:
    def test_e1_trajectory(self, e1_speed):
        assert e1_speed.trace == GOLDEN_E1_TRACE
        assert e1_speed.bracket == GOLDEN_E1_BRACKET
        assert e1_speed.iterations == GOLDEN_E1_ITERATIONS

    def test_phi_main_speed_results(self, phi_main_speeds):
        phi, results = phi_main_speeds
        assert [r.trace for r in results] == [GOLDEN_PHI_TRACES[0]] + \
            [GOLDEN_PHI_TRACES[1]] * 2
        assert [r.bracket for r in results] == [GOLDEN_PHI_BRACKETS[0]] + \
            [GOLDEN_PHI_BRACKETS[1]] * 2
        assert [r.iterations for r in results] == GOLDEN_PHI_ITERATIONS
        assert phi.speeds == tuple(r.c_star for r in results)
        for r, xi in zip(results, default_directions()):
            assert np.array_equal(r.xi, xi)

    # probe 3 of GOLDEN_E1_TRACE is below c*, probe 7 at or above it
    @pytest.mark.parametrize("c, cls, steps", [
        (0.0, BELOW, 331), (0.2392766952966369, AT_OR_ABOVE, 87)])
    def test_iterates_match_weinberger_step(self, dk8, p_main, c, cls,
                                            steps):
        psi, k1 = probe_start((1.0, 0.0), dk8, p_main)
        assert wavespeed._classify(c, psi, k1, p_main, 0.01,
                                   10 * steps) == (cls, steps)
        assert_iterates_match(c, psi, k1, p_main, steps)

    def test_widened_budget_resumes(self, dk8, p_main, monkeypatch):
        # the longest e1 probe runs 18,352 steps, so a 32,000-step budget
        # gives the golden run, counting only the steps actually run, and
        # a 16,000-step budget runs out
        monkeypatch.setattr(wavespeed, "_budget", lambda dk, tol: 32000)
        res = estimate_cstar((1.0, 0.0), dk8, p_main, tol=0.01)
        assert res.trace == GOLDEN_E1_TRACE
        assert res.bracket == GOLDEN_E1_BRACKET
        assert res.iterations == GOLDEN_E1_ITERATIONS
        monkeypatch.setattr(wavespeed, "_budget", lambda dk, tol: 16000)
        with pytest.raises(wavespeed.SpeedIndeterminate,
                           match="after 16000 iterations"):
            estimate_cstar((1.0, 0.0), dk8, p_main, tol=0.01)

    # the budget when it was 16 times the max_iter option's default:
    # tol 0.05 takes the 20,000 floor
    @pytest.mark.parametrize("tol, steps", [
        (0.05, 320000), (0.01, 796480), (1e-3, 7964848)])
    def test_budget_unchanged(self, dk8, tol, steps):
        assert wavespeed._budget(dk8, tol) == steps

    def test_repeated_marginal_bisected_once(self, dk8, p_main):
        # 165 and 285 degrees have one line marginal: the later direction
        # gets the earlier one's trace and bracket, with 0 steps
        dirs = default_directions()
        runs = wavespeed._bisect_at_once(dirs, dk8, p_main, 0.05)
        assert runs[2] == runs[1][:2] + (0,)
        fresh = [estimate_cstar(xi, dk8, p_main, tol=0.05) for xi in dirs]
        wrapped = [estimate_cstar(xi, dk8, p_main, tol=0.05, bisection=run)
                   for xi, run in zip(dirs, runs)]
        assert fresh[2].iterations == fresh[1].iterations > 0
        assert [w.iterations for w in wrapped] == [
            fresh[0].iterations, fresh[1].iterations, 0]
        for w, f in zip(wrapped, fresh):
            assert (w.trace, w.bracket, w.c_star) == (f.trace, f.bracket,
                                                      f.c_star)
            assert np.array_equal(w.xi, f.xi)


class TestWindowedRecursion:
    """Each probe step recomputes only where the last iterate changed;
    repeated weinberger_step on the full grid is the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(2, 8), angle=st.floats(0.0, 2 * math.pi),
           eta=st.floats(0.005, 0.18), excess=st.floats(0.05, 1.0),
           shift=st.floats(-1.0, 1.0), beyond=st.booleans(),
           steps=st.integers(1, 300))
    def test_equals_weinberger_step(self, square_spec, L, angle, eta, excess,
                                    shift, beyond, steps):
        dk = discretize(square_spec, L)
        onset = 4.0 * eta / (1.0 - eta)  # bistable for beta above it
        p = Params(onset + excess * (1.0 - onset), eta)
        psi, k1 = probe_start((math.cos(angle), math.sin(angle)), dk, p)
        span = psi.grid[-1] - psi.s0
        # c in [-d - 1, d + 1], or a shift past the grid end
        c = (math.copysign(span, shift) + shift * span if beyond
             else shift * (dk.support_diameter + 1.0))
        assert_iterates_match(c, psi, k1, p, steps)

    def test_left_limit_still_moving(self, dk8):
        # near the bistability onset the plateau converges slowly
        p = Params(0.25, 0.05)
        psi, k1 = probe_start((1.0, 0.0), dk8, p)
        spans, limits, _ = assert_iterates_match(0.05, psi, k1, p, 300)
        assert limits[-1][0] != limits[-2][0]
        assert all(sp.start == 0 for sp in spans)

    def test_right_limit_still_moving(self, dk8, p_main):
        # a right limit just above rho_u climbs slowly towards rho_s
        psi, k1 = probe_start((1.0, 0.0), dk8, p_main)
        eq = equilibria(p_main)
        right = eq.rho_u + 1e-3 * (eq.rho_s - eq.rho_u)
        psi = Profile1D(psi.s0, psi.delta, np.maximum(psi.values, right),
                        psi.left_limit, right)
        spans, limits, _ = assert_iterates_match(-0.2, psi, k1, p_main, 100)
        assert limits[-1][1] != limits[-2][1]
        assert all(sp.stop == len(psi.values) for sp in spans)

    def test_fixed_point_tail(self, dk8, p_main):
        # at the bisection's upper end the plateau settles within 27
        # steps: the iterates end there, at a fixed point
        psi, k1 = probe_start((1.0, 0.0), dk8, p_main)
        c = dk8.support_diameter + 1.0
        iterates = list(wavespeed._front_iterates(c, psi, k1, p_main))
        assert len(iterates) <= 27 and iterates[-1][-1] == 0.0
        spans, limits, f = assert_iterates_match(c, psi, k1, p_main, 40)
        assert len(spans) == len(iterates) and f.values[spans[-1]].size == 0
        again = weinberger_step(f, c, k1, p_main, psi)
        assert again.values.tobytes() == f.values.tobytes()
        assert (again.left_limit, again.right_limit) == limits[-1]

    def test_off_grid_shift(self, dk8, p_main):
        psi, k1 = probe_start((0.6, 0.8), dk8, p_main)
        c = 0.3
        assert c / psi.delta != round(c / psi.delta)
        spans, *_ = assert_iterates_match(c, psi, k1, p_main, 300)
        # the window is narrower than the grid once the plateau settles
        assert min(sp.stop - sp.start for sp in spans) < len(psi.values) // 2


class TestTracking:
    @pytest.mark.parametrize("steps", [-1, 0, 1, 2])
    def test_too_few_steps_for_a_fit(self, dk8, p_main, steps):
        # the least-squares tail must hold at least three positions
        with pytest.raises(ValueError, match="steps"):
            front_speed_tracking((1.0, 0.0), dk8, p_main, steps=steps)

    def test_golden_value(self, dk8, p_main):
        c = front_speed_tracking((1.0, 0.0), dk8, p_main, steps=80)
        assert c == pytest.approx(GOLDEN_TRACKING_E1, abs=1e-9)

    def test_agrees_with_bisection(self, dk8, p_main):
        c = front_speed_tracking((1.0, 0.0), dk8, p_main, steps=80)
        assert abs(c - GOLDEN_CSTAR_E1) <= max(0.05, 3 * 0.01)

    def test_no_deaths_nonnegative(self, dk8):
        c = front_speed_tracking((1.0, 0.0), dk8, Params(1.0, 0.0), steps=40)
        assert c >= 0.0

    @pytest.mark.xfail(strict=True, reason="the bisection bracket lies "
                       "below the tracked speed (ROADMAP item 1)")
    def test_fine_bracket_holds_the_tracked_speed(self, dk8):
        # the bisection returns (0.177588, 0.179458], and tracking puts
        # c* at 0.182544, above it
        p = Params(1.0, 0.05)
        res = estimate_cstar((1.0, 0.0), dk8, p, tol=0.002)
        c = front_speed_tracking((1.0, 0.0), dk8, p, steps=400)
        assert res.bracket[0] < c <= res.bracket[1]



class TestPhi:
    def test_directions_validated(self):
        with pytest.raises(ValueError, match="acute"):
            validate_direction_triple(
                [(1.0, 0.0), (0.0, 1.0), (-np.sqrt(0.5), -np.sqrt(0.5))])
        dirs = validate_direction_triple(default_directions())
        assert dirs.shape == (3, 2)

    def test_symmetric_directions_coincide(self, dk8, p_main):
        # identical 1D kernels make the three recursions identical
        psi = wavespeed._hump(dk8, p_main)
        k1 = Kernel1D(psi.delta, np.array([0.25, 0.5, 0.25]))
        profs = iterate_wave_profiles([k1, k1, k1], 0.03, p_main, psi, 5)
        assert np.array_equal(profs[0].values, profs[1].values)
        assert np.array_equal(profs[0].values, profs[2].values)
        phi = np.min([f.values for f in profs], axis=0)
        assert np.array_equal(phi, profs[0].values)

    def test_recursion_matches_reference(self, phi_main, dk8, p_main):
        phi = phi_main.phi
        psi = wavespeed._hump(dk8, p_main, s_max=phi.grid[-1])
        profs = iterate_wave_profiles(phi_main.kernels1d, phi_main.c, p_main,
                                      psi, phi_main.n_iter)
        assert phi.values.tobytes() == \
            np.min([f.values for f in profs], axis=0).tobytes()
        assert phi.left_limit == min(f.left_limit for f in profs)

    def test_golden_constants(self, phi_main):
        assert phi_main.alpha == pytest.approx(GOLDEN_PHI["alpha"], abs=1e-9)
        assert phi_main.m == pytest.approx(GOLDEN_PHI["m"], abs=1e-6)
        assert phi_main.M == pytest.approx(GOLDEN_PHI["M"], abs=1e-6)
        assert phi_main.l == pytest.approx(GOLDEN_PHI["l"], abs=1e-6)
        assert phi_main.c == pytest.approx(GOLDEN_PHI["c"], abs=1e-9)

    def test_structure(self, phi_main, p_main):
        assert phi_main.m <= phi_main.M
        assert phi_main.l >= 0.0
        assert is_monotone(phi_main.phi, 1e-12)
        # alpha is the mean-field iterate of the psi plateau
        eq = equilibria(p_main)
        plateau = 0.5 * (eq.rho_u + eq.rho_s)
        assert phi_main.alpha == pytest.approx(
            mean_field_trace(p_main, plateau, phi_main.n_iter)[-1], abs=1e-12)
        assert eq.rho_u < phi_main.alpha < eq.rho_s
        assert phi_main.c == pytest.approx(min(phi_main.speeds) / 2.0)

    def test_domination_in_bulk(self, phi_main, p_main):
        eq = equilibria(p_main)
        phi = phi_main.phi
        translated = phi.evaluate(phi.grid - phi_main.c)
        mask = translated >= 2.0 * eq.rho_u
        for k1 in phi_main.kernels1d:
            img = apply_Q_1d(phi, k1, p_main)
            assert np.all(translated[mask] <= img.values[mask] + 1e-6)

    def test_rejects_nonpositive_speed(self, dk8, p_main, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phi was built at a nonpositive speed")

        monkeypatch.setattr(wavespeed, "weinberger_step", refuse)
        # no bisection: the speeds come from the stub alone
        monkeypatch.setattr(wavespeed, "_bisect_at_once",
                            lambda *args: [None] * 3)
        for c_star in (0.0, -0.05):
            monkeypatch.setattr(
                wavespeed, "estimate_cstar",
                lambda xi, *args, c_star=c_star, **kwargs:
                wavespeed.SpeedResult(xi=xi,
                                      bracket=(c_star - 0.01, c_star),
                                      iterations=0))
            with pytest.raises(ValueError, match="positive speed"):
                build_phi(*default_directions(), dk8, p_main, n=2)

    def test_domination_failure_names_last_n(self, dk8, p_main, monkeypatch):
        # force every domination check to fail and record the right end
        # of each psi grid, s_max = (n + 2) d/2 + 2d
        grids = []
        real_hump = wavespeed._hump

        def spy(dk, p, s_max=None):
            grids.append(s_max)
            return real_hump(dk, p, s_max=s_max)

        monkeypatch.setattr(wavespeed, "_hump", spy)
        monkeypatch.setattr(wavespeed, "_check_domination",
                            lambda *args, **kwargs: (False, []))
        monkeypatch.setattr(wavespeed, "_bisect_at_once",
                            lambda *args: [None] * 3)
        monkeypatch.setattr(wavespeed, "estimate_cstar",
                            lambda xi, *args, **kwargs: wavespeed.SpeedResult(
                                xi=xi, bracket=(0.17, 0.18), iterations=0))
        with pytest.raises(RuntimeError, match="domination") as info:
            build_phi(*default_directions(), dk8, p_main, n=4)
        d = dk8.support_diameter
        last_n = round((grids[-1] - 2.0 * d) / (0.5 * d)) - 2
        assert last_n == 4 + 2 * wavespeed._PHI_RETRIES
        assert f"n={last_n};" in str(info.value)


def _phi_outputs(phi, results) -> dict:
    """What a phi_main build must reproduce bit for bit, as JSON data."""
    return {"traces": [[list(t) for t in r.trace] for r in results],
            "brackets": [list(r.bracket) for r in results],
            "iterations": [r.iterations for r in results],
            "xi": [r.xi.tolist() for r in results],
            "speeds": list(phi.speeds),
            "phi": hashlib.sha256(phi.phi.values.tobytes()).hexdigest(),
            "limits": [phi.phi.left_limit, phi.phi.right_limit],
            "m": phi.m, "M": phi.M, "n_iter": phi.n_iter,
            "marginals": [k1.masses.tobytes().hex() for k1 in phi.kernels1d]}


# phi_main in a fresh interpreter whose map runs on worker processes
# whatever the core count: under the spawn start method (the macOS
# default; its workers start from a fresh import, as those of
# forkserver, the Python 3.14 Linux default, do), or under the default
# one after a chunked lattice step, whose pass closes its threads, so
# that on Linux the workers are forked from a parent with no chunk
# thread left
_PHI_IN_A_PROCESS = """
import json, sys, threading
import multiprocessing as mp
from qcp import KernelSpec, Params, chunks, discretize, lattice, wavespeed
from qcp.rng import LatticeRng
sys.path.insert(0, sys.argv[2])
from test_wavespeed import _phi_outputs

chunks.WORKERS = 2
p = Params(1.0, 0.05)
spec = KernelSpec("uniform-square", {"radius": 1.0})
if sys.argv[1] == "spawn":
    chunks.START_METHOD = "spawn"
else:
    rng = LatticeRng(1)
    s = lattice.init(2, 300, 0.5, rng)  # 90,000 sites: two chunks
    lattice.step(s, discretize(spec, 2), p, rng)
    assert not any(t.name.startswith("qcp-chunk")
                   for t in threading.enumerate())
results = []
original = wavespeed.estimate_cstar


def spy(*args, **kwargs):
    results.append(original(*args, **kwargs))
    return results[-1]


wavespeed.estimate_cstar = spy
phi = wavespeed.build_phi(*wavespeed.default_directions(),
                          discretize(spec, 8), p, n=4, speed_tol=0.02)
assert mp.active_children() == []
print(json.dumps(_phi_outputs(phi, results)))
"""


class TestBisectionsAtOnce:
    """build_phi bisects its distinct line marginals at once, on worker
    processes, with the bits of one bisection after another."""

    def build(self, dk, p, monkeypatch, workers):
        results = []
        original = wavespeed.estimate_cstar

        def spy(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]

        with monkeypatch.context() as mp:
            mp.setattr(chunks, "WORKERS", workers)
            mp.setattr(wavespeed, "estimate_cstar", spy)
            phi = build_phi(*default_directions(), dk, p, n=4,
                            speed_tol=0.02)
        return phi, results

    def test_same_bits_at_one_and_two_workers(self, dk8, p_main,
                                              phi_main_speeds, monkeypatch):
        bisections = []
        original = wavespeed._bisect

        def count(*args):
            bisections.append(os.getpid())
            return original(*args)

        with monkeypatch.context() as mp:
            mp.setattr(wavespeed, "_bisect", count)
            inline = self.build(dk8, p_main, monkeypatch, 1)
        # one bisection per distinct marginal, none inside estimate_cstar
        assert bisections == [os.getpid()] * 2
        at_once = self.build(dk8, p_main, monkeypatch, 2)
        assert multiprocessing.active_children() == []
        want = _phi_outputs(*phi_main_speeds)
        assert _phi_outputs(*inline) == _phi_outputs(*at_once) == want
        assert want["iterations"] == GOLDEN_PHI_ITERATIONS
        assert want["traces"] == [[list(t) for t in tr] for tr in (
            GOLDEN_PHI_TRACES[0], GOLDEN_PHI_TRACES[1], GOLDEN_PHI_TRACES[1])]

    def test_worker_exception_reaches_the_caller(self, dk8, p_main,
                                                 monkeypatch):
        # the 45 degree bisection needs at most 3,818 steps per probe and
        # passes; the 165 degree one needs 22,852 at c = 0.179...; each
        # runs on a worker
        monkeypatch.setattr(wavespeed, "_budget", lambda dk, tol: 4000)
        monkeypatch.setattr(chunks, "WORKERS", 2)
        with pytest.raises(wavespeed.SpeedIndeterminate,
                           match=r"c=0\.17945752147247768 after 4000 "):
            build_phi(*default_directions(), dk8, p_main, n=4,
                      speed_tol=0.02)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("how", ["spawn", "fork-after-threads"])
    def test_in_a_fresh_process(self, how, phi_main_speeds):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(qcp.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", _PHI_IN_A_PROCESS, how,
             str(Path(__file__).parent)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        got = json.loads(done.stdout.splitlines()[-1])
        assert got == _phi_outputs(*phi_main_speeds)
