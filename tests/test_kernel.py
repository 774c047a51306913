import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcp.kernel import (DiscreteKernel, Kernel1D, KernelSpec, _symmetrise,
                        build_kernel, density, discretize, marginal_1d)

from conftest import seeded
from helpers import kernel_spec_json, kernel_to_csv


def overlap_area(cell, square):
    """Oracle: exact area of the intersection of two axis rectangles."""
    w = max(0.0, min(cell[2], square[2]) - max(cell[0], square[0]))
    h = max(0.0, min(cell[3], square[3]) - max(cell[1], square[1]))
    return w * h


class TestBuildKernel:
    def test_uniform_square_density(self):
        spec = build_kernel(KernelSpec("uniform-square", {"radius": 1.0}))
        assert density(spec, 0.3, -0.7) == 0.25
        assert density(spec, 1.2, 0.0) == 0.0

    def test_gaussian_renormalized(self):
        spec = build_kernel(KernelSpec("truncated-gaussian",
                                       {"sigma": 1.0, "cutoff": 3.0}))
        # total mass over a fine grid approaches 1
        xs = np.linspace(-3.2, 3.2, 801)
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        total = density(spec, gx, gy).sum() * (xs[1] - xs[0]) ** 2
        assert abs(total - 1.0) < 1e-3

    @pytest.mark.parametrize("params", [
        {"radius": -1.0}, {"radius": 0.0}, {"radius": float("inf")}])
    def test_bad_uniform_params(self, params):
        with pytest.raises(ValueError):
            build_kernel(KernelSpec("uniform-square", params))

    def test_asymmetric_table_rejected(self):
        entries = [(0.5, 0.0, 0.6), (-0.5, 0.0, 0.4)]
        with pytest.raises(ValueError, match="symmetric"):
            build_kernel(KernelSpec("table", {"entries": entries}))

    def test_table_mass_must_be_one(self):
        entries = [(0.0, 0.0, 0.5)]
        with pytest.raises(ValueError, match="sum"):
            build_kernel(KernelSpec("table", {"entries": entries}))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_kernel(KernelSpec("cauchy", {}))

    def test_json_round_trip(self):
        spec = build_kernel(KernelSpec("uniform-square", {"radius": 2.0}))
        again = KernelSpec.from_json(kernel_spec_json(spec))
        assert again == spec


class TestDiscretize:
    def test_uniform_square_l1_cell_areas(self, square_spec):
        # oracle: integrate the density over each half-open unit cell by
        # exact rectangle intersection
        dk = discretize(square_spec, 1)
        assert len(dk.masses) == 9
        table = {tuple(o): m for o, m in zip(dk.offsets, dk.masses)}
        for (i, j), mass in table.items():
            cell = (i - 0.5, j - 0.5, i + 0.5, j + 0.5)
            expect = overlap_area(cell, (-1, -1, 1, 1)) * 0.25
            assert mass == pytest.approx(expect, abs=1e-15)
        assert table[(0, 0)] == pytest.approx(0.25)
        assert table[(1, 0)] == pytest.approx(0.125)
        assert table[(1, 1)] == pytest.approx(0.0625)

    def test_total_variation_shrinks_with_l(self):
        # oracle: compare rescaled masses with the pointwise density; the
        # distance is carried by boundary cells (and curvature for the
        # gaussian) and shrinks as the grid refines
        square = build_kernel(KernelSpec("uniform-square", {"radius": 0.9}))
        gauss = build_kernel(KernelSpec("truncated-gaussian",
                                        {"sigma": 0.7, "cutoff": 2.0}))
        for spec in (square, gauss):
            tvs = []
            for L in (4, 16, 64):
                dk = discretize(spec, L)
                h = 1.0 / L
                pts = dk.offsets * h
                dens = density(spec, pts[:, 0], pts[:, 1]) * h * h
                tvs.append(0.5 * float(np.abs(dk.masses - dens).sum()))
            assert tvs[0] > tvs[1] > tvs[2]

    def test_point_mass_table(self, point_mass_spec):
        for L in (1, 7, 32):
            dk = discretize(point_mass_spec, L)
            assert len(dk.masses) == 1
            assert tuple(dk.offsets[0]) == (0, 0)
            assert dk.masses[0] == 1.0
            assert dk.support_diameter == 0.0

    @pytest.mark.parametrize("family,params", [
        ("uniform-square", {"radius": 1.0}),
        ("uniform-square", {"radius": 0.7}),
        ("truncated-gaussian", {"sigma": 1.0, "cutoff": 2.5}),
    ])
    @pytest.mark.parametrize("L", [1, 3, 8])
    def test_invariants(self, family, params, L):
        dk = discretize(KernelSpec(family, params), L)
        assert abs(dk.masses.sum() - 1.0) <= 1e-12
        table = {tuple(o): m for o, m in zip(dk.offsets, dk.masses)}
        for (i, j), m in table.items():
            assert table[(-i, j)] == m
            assert table[(i, -j)] == m
        # support diameter equals the max pairwise separation, brute force
        pts = dk.offsets / dk.L
        pair = max(np.hypot(*(a - b)) for a in pts for b in pts)
        assert dk.support_diameter == pytest.approx(pair, abs=1e-12)

    def test_bad_resolution(self, square_spec):
        with pytest.raises(ValueError):
            discretize(square_spec, 0)

    def test_half_cell_ties_stay_symmetric(self):
        # at L=3 the atoms at +-1/6 sit on half-cell ties and both bin
        # toward +x (cells 1 and 0); their reflections must still carry
        # mass, or the kernel drifts
        spec = KernelSpec("table", {"entries": [
            (0.0, 0.0, 0.5), (1 / 6, 0.0, 0.25), (-1 / 6, 0.0, 0.25)]})
        dk = discretize(spec, 3)
        assert dk.offsets.tolist() == [[-1, 0], [0, 0], [1, 0]]
        assert dk.masses.tolist() == [0.125, 0.75, 0.125]
        assert np.sum(dk.masses[:, None] * dk.offsets, axis=0).tolist() \
            == [0.0, 0.0]

    def test_symmetrise_matches_loop_reference(self):
        # reference: the dict-and-fsum loop over the reflection orbits of
        # the positive cells; grids mix bit-symmetric cells, cells one
        # ulp off their mirror, and cells whose mirror is empty
        def reference(grid, imax):
            table = {(i - imax, j - imax): grid[i, j]
                     for i, j in zip(*np.nonzero(grid > 0))}
            keys = sorted({(a * i, b * j) for i, j in table
                           for a in (1, -1) for b in (1, -1)})
            masses = [math.fsum(table.get((a * i, b * j), 0.0)
                                for a in (1, -1) for b in (1, -1)) / 4.0
                      for i, j in keys]
            return np.array(keys, dtype=np.int64), np.array(masses)

        rng = seeded(11)
        for imax in (0, 1, 4, 9):
            n = 2 * imax + 1
            quad = rng.random((imax + 1, imax + 1))
            grid = np.zeros((n, n))
            for rows in (slice(imax, None), slice(imax, None, -1)):
                for cols in (slice(imax, None), slice(imax, None, -1)):
                    grid[rows, cols] = quad
            nudge = rng.random((n, n)) < 0.3
            grid[nudge] = np.nextafter(grid[nudge], 2.0)
            grid[rng.random((n, n)) < 0.2] = 0.0
            offsets, masses = _symmetrise(grid, imax)
            ref_offsets, ref_masses = reference(grid, imax)
            assert np.array_equal(offsets, ref_offsets)
            assert masses.tobytes() == ref_masses.tobytes()

    def test_one_sided_atom_gets_its_mirror(self):
        # build_kernel accepts an atom lighter than NORM_TOL without its
        # mirror image; the discrete kernel must still be symmetric
        spec = KernelSpec("table", {"entries": [
            (0.0, 0.0, 1.0), (-0.5, 0.0, 5e-10)]})
        dk = discretize(spec, 2)
        assert dk.offsets.tolist() == [[-1, 0], [0, 0], [1, 0]]
        assert dk.masses[0] == dk.masses[2] > 0


GOLDEN_SPECS = {
    "square-1": KernelSpec("uniform-square", {"radius": 1.0}),
    "square-0.37": KernelSpec("uniform-square", {"radius": 0.37}),
    "gauss": KernelSpec("truncated-gaussian", {"sigma": 0.5, "cutoff": 1.0}),
    # no atom sits on a half-cell tie at any of the resolutions below
    "table": KernelSpec("table", {"entries": [
        (0.0, 0.0, 0.4), (0.3, 0.2, 0.1), (-0.3, 0.2, 0.1),
        (0.3, -0.2, 0.1), (-0.3, -0.2, 0.1), (0.7, 0.0, 0.1),
        (-0.7, 0.0, 0.1)]}),
}


class TestGoldenDiscretize:
    """sha256 of offsets.tobytes() + masses.tobytes(), recorded from the
    dict-and-fsum symmetrisation that the array code replaced."""

    @pytest.mark.parametrize("name,L,digest", [
        ("square-1", 1,
         "b9e706865a7fe93322a773d3d1d0074cb529eabb673ed45dc12a839e080e79a6"),
        ("square-1", 3,
         "4a5b78336a74caec22d1473a69ebf77094a32905d52f718790b59bb0beb4867b"),
        ("square-1", 8,
         "4cd958f7ede6d1c21bee72f27ccb0ee7a651fbd827dc70778cb9c94bd92577e2"),
        ("square-1", 10,
         "fcca60aec7a7e7d3a1ddbf618401839ed514672e115e1f99ecc774a1f8ea9113"),
        ("square-1", 50,
         "c044dd2cde6ac3cb43992300240609218bde4356942d224bcb9c7454f78efcc3"),
        ("square-1", 200,
         "7f5d084ce1d3f6966fc95e9b1a0b1391bd3c3cdcc2e90b2635536533ad6b7516"),
        ("square-0.37", 1,
         "04ae04134c8318578c932394683055fea108f3f586ff5b055613752c5f03e6f5"),
        ("square-0.37", 3,
         "a94d6c117e14f2756775d8de61d99395331bd2fae7e99eff951d4748a8d8a09c"),
        ("square-0.37", 8,
         "08086fceb3599c2d5fa2b0d659a64080533452a4f206ffce5a3ffb2d4177634f"),
        ("square-0.37", 10,
         "69dc17b379937058a919e6812c1d5686346ebee34f3afc69bd43c2485886aef4"),
        ("square-0.37", 50,
         "e99bae939e088cee83bdfbe4f5caf7e5f4a0f5155225472833ac4928095242e5"),
        ("square-0.37", 200,
         "05261ddd35e4ffc7b4e9c3164fec8989d4fe9f859647255f5a529629bce72dfe"),
        ("gauss", 1,
         "d0c419ad7bec6fdca1dd05a51c4d05253e40900776dd731eab5fd8af5fa9fbf4"),
        ("gauss", 3,
         "c3098cd33d978fbb5affd31b90739814be85dbaf7c33704cba8272f14fffdf7d"),
        ("gauss", 8,
         "9c2520a07044f8f1d5c28258925c4e52808ede86eaa1d1cb74f24ae964367255"),
        ("gauss", 10,
         "4e3ef0940c08a64ac7bcb439d2bd0037ef99ab5690af8ccfb5b982ce4ba93b41"),
        ("gauss", 50,
         "2705d54931290fdd6f8ef3a7ee3f6f20611239f36ca8bee43c0360564197d2f0"),
        ("gauss", 200,
         "937b450dedcff1246045aebbbf2f4fa7bfaf5110063ab4743294748e5b19e481"),
        ("table", 1,
         "0d42e452c76b1df96c91fe90b2a61554861e83b2d511c442988998ba3d8b6a27"),
        ("table", 3,
         "b308d91879330e989033467c68561d9bfb25f82c2500cc59607949e11350f718"),
        ("table", 8,
         "df3dfc5c7cb888c3426b1418a414edbbc6ef67ca28545229b64abfea4be29bf7"),
        ("table", 10,
         "f1290f2f3eef020adebd097df9699f461ae26a7332ef7c52190833e53afc7116"),
        ("table", 50,
         "12bbccd9ee7823cc7cf1331eeaf1c4b452389a17388713758e97c241e7cb779c"),
        ("table", 200,
         "48c587e89e90d9acaab7f7c25ffb977714556869df72d1ccc606c0a9651909db"),
    ])
    def test_bytes_unchanged(self, name, L, digest):
        dk = discretize(GOLDEN_SPECS[name], L)
        got = hashlib.sha256(dk.offsets.tobytes()
                             + dk.masses.tobytes()).hexdigest()
        assert got == digest


class TestMarginal:
    def test_axis_uniform(self, dk1):
        k1 = marginal_1d(dk1, (1.0, 0.0), 1.0)
        assert np.allclose(k1.masses, [0.25, 0.5, 0.25])

    def test_reflected_direction_identical(self, dk8):
        a = marginal_1d(dk8, (1.0, 0.0), 0.05)
        b = marginal_1d(dk8, (-1.0, 0.0), 0.05)
        assert np.array_equal(a.masses, b.masses)

    def test_diagonal_triangular(self, dk8):
        xi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        # bin width matched to the projected lattice so every projection
        # (i + j) / (L sqrt 2) sits at a bin center
        delta = 1.0 / (dk8.L * np.sqrt(2.0))
        k1 = marginal_1d(dk8, xi, delta)
        # oracle: bin every offset's projection by brute force
        hw = k1.halfwidth
        raw = np.zeros(2 * hw + 1)
        for (i, j), m in zip(dk8.offsets, dk8.masses):
            t = (i * xi[0] + j * xi[1]) / dk8.L
            raw[int(np.floor(t / delta + 0.5)) + hw] += m
        raw = 0.5 * (raw + raw[::-1])
        assert np.allclose(k1.masses, raw, atol=1e-15)
        # triangular shape: rises to the middle, support within sqrt(2)
        mid = hw
        assert k1.masses[mid] == k1.masses.max()
        assert np.all(np.diff(k1.masses[:mid + 1]) >= -1e-15)
        support = np.nonzero(k1.masses > 0)[0]
        assert (support[0] - hw) * delta >= -np.sqrt(2) - delta
        assert (support[-1] - hw) * delta <= np.sqrt(2) + delta

    def test_mass_conserved_and_even(self, dk8):
        for ang in (0.0, 20.0, 45.0, 77.0):
            xi = (np.cos(np.deg2rad(ang)), np.sin(np.deg2rad(ang)))
            k1 = marginal_1d(dk8, xi, 0.04)
            assert abs(k1.masses.sum() - 1.0) <= 1e-12
            assert np.array_equal(k1.masses, k1.masses[::-1])

    def test_bad_delta(self, dk8):
        with pytest.raises(ValueError):
            marginal_1d(dk8, (1.0, 0.0), 0.0)

    def test_non_unit_direction(self, dk8):
        with pytest.raises(ValueError):
            marginal_1d(dk8, (1.0, 1.0), 0.05)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["square-1", "square-0.37", "gauss",
                                 "table"]),
           L=st.integers(1, 12), angle=st.floats(0.0, 2 * math.pi),
           delta=st.floats(0.003, 0.5))
    def test_masses_bitwise_palindromic(self, name, L, angle, delta):
        # ide.apply_Q_1d correlates with these masses as the convolution
        xi = (math.cos(angle), math.sin(angle))
        masses = marginal_1d(discretize(GOLDEN_SPECS[name], L), xi,
                             delta).masses
        assert masses.tobytes() == masses[::-1].tobytes()


class TestKernel1D:
    @pytest.mark.parametrize("masses", [[1.0], [0.25, 0.5, 0.25]])
    def test_even_masses_build(self, masses):
        assert Kernel1D(0.1, np.array(masses)).halfwidth == len(masses) // 2

    @pytest.mark.parametrize("masses", [
        [0.2, 0.5, 0.3],                 # lopsided
        [0.25, 0.5, 0.25 + 2.0 ** -54],  # lopsided in the last bit
        [0.5, math.nan, 0.5],
        [0.0, math.inf, 0.0],
        [-0.25, 1.5, -0.25],
        [0.5, 0.5],                      # even length
        [],
        [[1.0]],
    ])
    def test_invalid_masses_rejected(self, masses):
        with pytest.raises(ValueError, match="masses"):
            Kernel1D(0.1, np.array(masses))


class TestSampling:
    def test_point_mass_always_origin(self, point_mass_spec):
        dk = discretize(point_mass_spec, 4)
        pts = dk.offsets[dk.sample_indices(seeded(0).random(100))]
        assert np.all(pts == 0.0)

    def test_deterministic_given_state(self, dk8):
        a = dk8.offsets[dk8.sample_indices(seeded(123).random(1000))]
        b = dk8.offsets[dk8.sample_indices(seeded(123).random(1000))]
        assert np.array_equal(a, b)

    def test_multinomial_frequencies(self, dk1):
        n = 10 ** 6
        pts = dk1.offsets[dk1.sample_indices(seeded(7).random(n))]
        for (i, j), m in zip(dk1.offsets, dk1.masses):
            freq = np.mean((pts[:, 0] == i) & (pts[:, 1] == j))
            sigma = np.sqrt(m * (1 - m) / n)
            assert abs(freq - m) < 4 * sigma

    def test_matches_plain_inverse_cdf_search(self, square_spec):
        # the bucket search must return what one plain searchsorted
        # plus the clamp returns, on ties, near-ties and the clamp
        dk = discretize(square_spec, 5)
        cdf, n = dk.cdf, len(dk.masses)

        def plain(u):
            return np.minimum(np.searchsorted(cdf, u, "right"), n - 1)

        rng = seeded(5)
        cases = [np.zeros(3), cdf.copy(), np.nextafter(cdf, 0.0),
                 np.array([cdf[-1], np.nextafter(cdf[-1], 2.0), 1.0]),
                 np.array([]), rng.permutation(np.concatenate(
                     [cdf, np.nextafter(cdf, 0.0), rng.random(500)])),
                 rng.random((3, 4))]
        for u in cases:
            got = dk.sample_indices(u)
            assert got.shape == u.shape
            assert np.array_equal(got, plain(u))
        assert dk.sample_indices(np.array([])).dtype == plain(
            np.array([])).dtype

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5000),
           kind=st.sampled_from(["random", "zeros", "heavy", "atom",
                                 "equal"]),
           shape=st.sampled_from([(), (0,), (1,), (7,), (300,), (0, 3),
                                  (3, 5), (40, 25)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bucket_search_equals_plain_search(self, n, kind, shape, seed):
        # keys on and beside every CDF entry, the ends of [0, 1], keys
        # outside it, infinities and NaN, on masses with long runs of
        # ties ("zeros") and with many entries in one bucket ("heavy")
        gen = np.random.default_rng(seed)
        if kind == "random":
            w = gen.random(n)
        elif kind == "zeros":
            w = np.where(gen.random(n) < 0.5, 0.0, gen.random(n))
            w[gen.integers(n)] = 1.0
        elif kind == "heavy":
            w = np.full(n, 1e-12)
            w[gen.integers(0, n, 3)] = 1.0
        elif kind == "atom":
            w = np.zeros(n)
            w[gen.integers(n)] = 1.0
        else:
            w = np.ones(n)
        dk = DiscreteKernel(L=1, offsets=np.zeros((n, 2), np.int64),
                            masses=w / w.sum(), support_diameter=0.0)
        cdf = dk.cdf
        pool = np.concatenate([
            gen.random(200), cdf, np.nextafter(cdf, -np.inf),
            np.nextafter(cdf, np.inf), -gen.random(5),
            [0.0, -0.0, 1.0, np.nextafter(cdf[-1], 2.0), -1e300, 1e300,
             np.inf, -np.inf, np.nan]])
        for u in (pool, gen.choice(pool, size=shape)):
            got = dk.sample_indices(u)
            want = np.minimum(np.searchsorted(cdf, u, "right"), n - 1)
            assert got.shape == u.shape and got.dtype == np.intp
            assert np.array_equal(got, want)
            # the plain search sorts NaN above every entry
            assert np.all(got[np.isnan(u)] == n - 1)
        assert dk._steps <= n.bit_length()

    def test_sample_offset_keeps_shape(self, dk8):
        pts = dk8.offsets[dk8.sample_indices(seeded(3).random((3, 4)))]
        assert pts.shape == (3, 4, 2)

    def test_csv_dump(self, dk1, tmp_path):
        path = tmp_path / "kernel.csv"
        kernel_to_csv(dk1, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dx,dy,mass"
        assert len(lines) == 10
        total = sum(float(ln.split(",")[2]) for ln in lines[1:])
        assert abs(total - 1.0) < 1e-12
