import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcp import ide
from qcp.ide import Field2D, Profile1D, apply_Q_1d, apply_Q_2d, evolve
from qcp.kernel import Kernel1D, discretize, marginal_1d
from qcp.mean_field import equilibria, mean_field_trace, mf_step

from conftest import seeded
from helpers import field_from_csv, is_monotone


def const_field(value, n=32, L=8):
    return Field2D(L, np.full((n, n), float(value)))


def random_field(gen, n=24, L=8):
    return Field2D(L, gen.random((n, n)))


def force_fft(monkeypatch):
    """Route every 2D convolution through FFTs, whatever its support."""
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)


class TestApplyQ2d:
    def test_rho_s_fixed_point(self, dk8, p_main):
        eq = equilibria(p_main)
        u = const_field(eq.rho_s)
        out = apply_Q_2d(u, dk8, p_main)
        assert np.max(np.abs(out.values - eq.rho_s)) < 1e-12

    def test_zero_fixed_point(self, dk8, p_main):
        out = apply_Q_2d(const_field(0.0), dk8, p_main)
        assert np.all(out.values == 0.0)

    def test_monotone_in_field(self, dk8, p_main):
        gen = seeded(21)
        for _ in range(20):
            u = random_field(gen)
            v = u.copy()
            v.values = np.minimum(1.0, u.values + gen.random(u.values.shape)
                                  * (1 - u.values))
            qu = apply_Q_2d(u, dk8, p_main)
            qv = apply_Q_2d(v, dk8, p_main)
            assert np.all(qu.values <= qv.values + 1e-14)

    def test_range_preserved(self, dk8, p_main):
        u = random_field(seeded(4))
        out = apply_Q_2d(u, dk8, p_main)
        assert out.values.min() >= 0.0
        assert out.values.max() <= 1.0 - p_main.eta + 1e-14

    @settings(max_examples=60, deadline=None)
    @given(L=st.integers(1, 8), shape=st.tuples(st.integers(1, 24),
                                                st.integers(1, 24)),
           field_seed=st.integers(0, 2 ** 32 - 1),
           shift=st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
    def test_translation_equivariance_bit_exact(self, square_spec, p_main, L,
                                                shape, field_seed, shift):
        # on the torus the direct sum commutes with every shift, bit for
        # bit; at L <= 8 the support has at most 289 offsets, below the
        # FFT threshold
        dk = discretize(square_spec, L)
        u = Field2D(L, np.random.default_rng(field_seed).random(shape))
        rolled = u.copy()
        rolled.values = np.roll(u.values, shift, axis=(0, 1))
        a = apply_Q_2d(rolled, dk, p_main).values
        b = np.roll(apply_Q_2d(u, dk, p_main).values,
                    shift, axis=(0, 1))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("boundary", ["periodic", "clamped"])
    def test_fft_matches_direct(self, dk8, p_main, boundary, monkeypatch):
        # below n = 17 the dk8 support is wider than the window: on the
        # torus both paths wrap it, offsets on one node adding up
        fields = [random_field(seeded(6), n=n) for n in (40, 16, 8, 3)]
        for u in fields:
            u.clamp = None if boundary == "periodic" else 0.3
        direct = [apply_Q_2d(u, dk8, p_main).values for u in fields]
        force_fft(monkeypatch)
        for u, a in zip(fields, direct):
            b = apply_Q_2d(u, dk8, p_main).values
            assert np.max(np.abs(a - b)) < 1e-12

    def test_incompatible_grid_rejected(self, dk8, p_main):
        # a field lies on the lattice of the kernel it is stepped with: a
        # finer or coarser one is rejected
        for L in (16, 4):
            with pytest.raises(ValueError, match="lattice"):
                apply_Q_2d(const_field(0.5, L=L), dk8, p_main)


class TestEvolve:
    def test_zero_steps_identity(self, dk8, p_main):
        u = random_field(seeded(7))
        out = evolve(u, dk8, p_main, 0)
        assert list(out) == [0]
        assert np.array_equal(out[0].values, u.values)

    def test_constant_matches_mean_field(self, dk8, p_main):
        u = const_field(0.37)
        for n in (1, 3, 7):
            out = evolve(u, dk8, p_main, n)[n]
            want = mean_field_trace(p_main, 0.37, n)[-1]
            assert np.max(np.abs(out.values - want)) < 1e-12

    def test_taps(self, dk8, p_main):
        # each tap once, keyed by its time, in increasing time
        u = const_field(0.5)
        outs = evolve(u, dk8, p_main, 4, taps=[4, 0, 2, 2])
        assert list(outs) == [0, 2, 4]
        assert np.all(outs[0].values == 0.5)
        assert np.array_equal(outs[4].values,
                              evolve(u, dk8, p_main, 4)[4].values)

    def test_square_expands_when_speed_positive(self, dk8, p_main):
        # indicator of a large square at rho_s, clamped-zero boundary
        eq = equilibria(p_main)
        n = 96
        vals = np.zeros((n, n))
        vals[36:60, 36:60] = eq.rho_s
        u = Field2D(8, vals, clamp=0.0)
        area0 = int((vals > eq.rho_s / 2).sum())
        out = evolve(u, dk8, p_main, 20)[20]
        area1 = int((out.values > eq.rho_s / 2).sum())
        assert area1 > area0

    def test_bad_taps(self, dk8, p_main):
        with pytest.raises(ValueError):
            evolve(const_field(0.5), dk8, p_main, 2, taps=[3])

    @pytest.mark.parametrize("method", ["fft", "direct"])
    def test_equals_repeated_apply_q_2d(self, dk8, p_main, method,
                                        monkeypatch):
        # evolve computes the kernel spectrum once per call; every step
        # must still give the bits of a lone apply_Q_2d
        if method == "fft":
            force_fft(monkeypatch)
        u = random_field(seeded(8), n=40)
        outs = evolve(u, dk8, p_main, 4, taps=range(5))
        cur = u
        for t in range(1, 5):
            cur = apply_Q_2d(cur, dk8, p_main)
            assert np.array_equal(outs[t].values, cur.values)

    def test_kernel_spectrum_once_per_call(self, dk8, p_main, monkeypatch):
        # every step asks _spectrum for the kernel's pair: the first
        # step builds it, the rest get that pair, and the next call
        # builds its own
        pairs = []
        spectrum = ide._spectrum

        def spy(*args):
            pairs.append(spectrum(*args))
            return pairs[-1]

        monkeypatch.setattr(ide, "_spectrum", spy)
        force_fft(monkeypatch)
        u = random_field(seeded(9), n=40)
        for _ in range(2):
            evolve(u, dk8, p_main, 5)
            assert ide._evolve_spectrum.get() is None
        assert len(pairs) == 2 * 5
        first, second = pairs[:5], pairs[5:]
        assert all(pair is first[0] for pair in first)
        assert all(pair is second[0] for pair in second)
        assert first[0] is not second[0]


class TestApplyQ1d:
    def test_constant_fixed_point(self, dk8, p_main):
        eq = equilibria(p_main)
        k1 = marginal_1d(dk8, (1.0, 0.0), 0.05)
        f = Profile1D(-5.0, 0.05, np.full(300, eq.rho_s), eq.rho_s, eq.rho_s)
        g = apply_Q_1d(f, k1, p_main)
        assert np.max(np.abs(g.values - eq.rho_s)) < 1e-12

    def test_point_mass_is_pointwise_map(self, p_main):
        eq = equilibria(p_main)
        k1 = Kernel1D(0.1, np.array([1.0]))
        vals = np.where(np.arange(100) < 50, eq.rho_s, 0.0)
        f = Profile1D(-5.0, 0.1, vals, eq.rho_s, 0.0)
        g = apply_Q_1d(f, k1, p_main)
        assert np.allclose(g.values, mf_step(p_main, vals), atol=1e-15)

    def test_monotone_profile_stays_monotone(self, dk8, p_main):
        k1 = marginal_1d(dk8, (1.0, 0.0), 0.05)
        gen = seeded(8)
        vals = np.sort(gen.random(200))[::-1].copy()
        f = Profile1D(-5.0, 0.05, vals, vals[0], vals[-1])
        g = apply_Q_1d(f, k1, p_main)
        assert is_monotone(g, 1e-12)

    def test_spacing_mismatch(self, dk8, p_main):
        k1 = marginal_1d(dk8, (1.0, 0.0), 0.05)
        f = Profile1D(0.0, 0.04, np.zeros(10), 0.0, 0.0)
        with pytest.raises(ValueError, match="spacing"):
            apply_Q_1d(f, k1, p_main)

    def test_plane_wave_matches_2d(self, square_spec, p_main):
        # a field u(x) = f(x . e1) evolves exactly like its profile
        L = 8
        dk = discretize(square_spec, L)
        h = 1.0 / L
        k1 = marginal_1d(dk, (1.0, 0.0), h)
        gen = seeded(9)
        for _ in range(3):
            n = 80
            ramp = np.sort(gen.random(n))[::-1].copy()
            f = Profile1D(0.0, h, ramp, ramp[0], ramp[-1])
            g1 = apply_Q_1d(f, k1, p_main)
            field = Field2D(L, np.tile(ramp[:, None], (1, n)))
            g2 = apply_Q_2d(field, dk, p_main)
            interior = slice(dk.offsets[:, 0].max(),
                             n - dk.offsets[:, 0].max())
            diff = np.abs(g2.values[interior, n // 2]
                          - g1.values[interior])
            assert diff.max() < 1e-10


class TestProfileAndField:
    def test_profile_evaluate_extends(self):
        f = Profile1D(0.0, 0.5, np.array([0.8, 0.6, 0.4]), 0.9, 0.1)
        assert f.evaluate(-3.0) == 0.9
        assert f.evaluate(5.0) == 0.1
        assert f.evaluate(0.25) == pytest.approx(0.7)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            Field2D(8, np.full((4, 4), 1.5))
        with pytest.raises(ValueError, match="node"):
            Field2D(8, np.zeros((0, 4)))

    @pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
    def test_field_rejects_values_outside_unit_interval(self, bad):
        vals = np.full((4, 4), 0.5)
        vals[2, 1] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Field2D(8, vals)

    @pytest.mark.parametrize("delta", [0.0, -0.1, np.nan, np.inf])
    def test_profile_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            Profile1D(0.0, delta, np.zeros(3), 0.0, 0.0)

    @pytest.mark.parametrize("left, right", [
        (np.nan, 0.0), (0.5, np.nan), (np.inf, 0.0), (0.5, -np.inf)])
    def test_profile_rejects_nonfinite_limits(self, left, right):
        with pytest.raises(ValueError, match="limit"):
            Profile1D(0.0, 0.1, np.zeros(3), left, right)

    @pytest.mark.parametrize("kw", [
        {"L": 0}, {"L": -1}, {"L": 2.5}, {"L": True}, {"L": np.nan},
        {"L": np.inf}, {"L": 8.0}, {"clamp": np.nan}, {"clamp": np.inf},
        {"clamp": -np.inf}])
    def test_field_rejects_bad_geometry(self, kw):
        # L is the kernel's lattice index, a positive integer; a clamp is
        # a finite number
        args = {"L": 8, "values": np.zeros((4, 4)), "clamp": 0.0, **kw}
        with pytest.raises(ValueError, match="L must be a positive integer"
                                             "|clamp must be finite"):
            Field2D(**args)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_profile_rejects_nonfinite_values(self, bad):
        vals = np.full(5, 0.5)
        vals[3] = bad
        with pytest.raises(ValueError, match="values"):
            Profile1D(0.0, 0.1, vals, 0.5, 0.5)

    @pytest.mark.parametrize("s0", [np.nan, np.inf, -np.inf])
    def test_profile_rejects_nonfinite_origin(self, s0):
        with pytest.raises(ValueError, match="s0"):
            Profile1D(s0, 0.1, np.zeros(3), 0.0, 0.0)

    def test_field_csv_round_trip(self, tmp_path):
        # the header bytes ide-run has always written: an origin at 0, the
        # spacing 1/L and, on a torus, a clamp of 0.0 it never reads
        path = tmp_path / "f.csv"
        for L, clamp, header in [
                (4, None, "h=0.25 boundary=periodic clamp=0.0"),
                (3, 0.2, "h=0.3333333333333333 boundary=clamped clamp=0.2"),
                (8, -0.0, "h=0.125 boundary=clamped clamp=-0.0")]:
            u = Field2D(L, seeded(10).random((6, 6)), clamp)
            u.to_csv(path)
            with open(path) as fh:
                assert fh.readline() == f"# x0=0.0 y0=0.0 {header}\n"
            v = field_from_csv(path)
            assert v.L == L and v.clamp == clamp
            if clamp is not None:
                assert math.copysign(1.0, v.clamp) == math.copysign(1.0, clamp)
            assert np.array_equal(u.values, v.values)
