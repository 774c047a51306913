import numpy as np
import pytest
from scipy.optimize import brentq

from qcp.mean_field import Params, equilibria, mean_field_trace, mf_step

from conftest import seeded
from helpers import bistable, mf_derivative


class TestParams:
    @pytest.mark.parametrize("beta,eta", [(-0.1, 0.5), (1.1, 0.5),
                                          (0.5, -0.1), (0.5, 2.0),
                                          (float("nan"), 0.1),
                                          (True, 0.1), (0.5, False)])
    def test_rejects_bad_probabilities(self, beta, eta):
        with pytest.raises(ValueError):
            Params(beta, eta)

    def test_bistable_flag(self):
        assert bistable(Params(1.0, 0.1))
        assert not bistable(Params(0.3, 0.2))
        assert not bistable(Params(1.0, 0.2))  # equality is not bistable
        # within equilibria's double-root snap of the tangent: no rho_u
        p = Params(0.5, 0.11111111111111101)
        assert equilibria(p).rho_u is None
        assert not bistable(p)


class TestEquilibria:
    def test_reference_roots(self):
        # beta=1, eta=0.1: interior roots solve v(1-v) = 1/9
        eq = equilibria(Params(1.0, 0.1))
        assert eq.rho_u == pytest.approx(0.127322, abs=5e-7)
        assert eq.rho_s == pytest.approx(0.872678, abs=5e-7)
        assert eq.rho_u * (1 - eq.rho_u) == pytest.approx(1.0 / 9.0, abs=1e-14)
        p = Params(1.0, 0.1)
        for r in eq.roots:
            assert abs(mf_step(p, r) - r) < 1e-12

    def test_double_root_exact(self):
        eq = equilibria(Params(1.0, 0.2))
        assert eq.roots == (0.0, 0.5)

    def test_below_threshold_only_zero(self):
        eq = equilibria(Params(0.3, 0.2))
        assert eq.roots == (0.0,)
        assert eq.rho_u is None and eq.rho_s is None

    def test_random_bistable_residuals(self):
        gen = seeded(11)
        count = 0
        while count < 10:
            beta = gen.uniform(0.3, 1.0)
            eta = gen.uniform(0.0, 0.2)
            p = Params(beta, eta)
            if not bistable(p):
                continue
            count += 1
            eq = equilibria(p)
            assert len(eq.roots) == 3
            assert 0.0 < eq.rho_u < 0.5 < eq.rho_s
            for r in eq.roots:
                assert abs(mf_step(p, r) - r) < 1e-12

    def test_matches_independent_root_finder(self):
        # oracle: solve v(1-v) = eta/(beta(1-eta)) by bracketed bisection
        p = Params(0.8, 0.08)
        target = p.eta / (p.beta * (1 - p.eta))
        lo = brentq(lambda v: v * (1 - v) - target, 0.0, 0.5)
        hi = brentq(lambda v: v * (1 - v) - target, 0.5, 1.0)
        eq = equilibria(p)
        assert eq.rho_u == pytest.approx(lo, abs=1e-12)
        assert eq.rho_s == pytest.approx(hi, abs=1e-12)


class TestIteration:
    def test_zero_absorbing(self):
        assert mean_field_trace(Params(1.0, 0.1), 0.0, 57)[-1] == 0.0

    def test_all_ones_one_step(self):
        assert mean_field_trace(Params(0.7, 0.13), 1.0, 1)[-1] == \
            pytest.approx(1.0 - 0.13, abs=1e-15)

    def test_converges_to_stable_root(self):
        p = Params(1.0, 0.1)
        eq = equilibria(p)
        v = mean_field_trace(p, 0.5, 200)[-1]
        assert abs(v - eq.rho_s) < 1e-10

    def test_basins(self):
        p = Params(1.0, 0.05)
        eq = equilibria(p)
        assert mean_field_trace(p, eq.rho_u * 0.9, 400)[-1] < 1e-8
        v = mean_field_trace(p, eq.rho_u * 1.1, 400)[-1]
        assert abs(v - eq.rho_s) < 1e-8

    def test_map_monotone_on_grid(self):
        for beta, eta in [(1.0, 0.05), (0.6, 0.1), (1.0, 0.0)]:
            p = Params(beta, eta)
            v = np.linspace(0.0, 1.0, 2001)
            assert np.all(np.diff(mf_step(p, v)) >= -1e-15)
            assert np.all(mf_derivative(p, v) >= -1e-12)

    def test_range_preserved(self):
        gen = seeded(3)
        for _ in range(50):
            p = Params(gen.uniform(0, 1), gen.uniform(0, 1))
            v = mean_field_trace(p, gen.uniform(0, 1), 20)[-1]
            assert 0.0 <= v <= 1.0

    def test_trace_shape(self):
        tr = mean_field_trace(Params(1.0, 0.1), 0.4, 10)
        assert len(tr) == 11
        assert tr[0] == 0.4

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            mean_field_trace(Params(1.0, 0.1), 1.5, 3)

    def test_negative_step_count_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mean_field_trace(Params(1.0, 0.1), 0.5, -1)
