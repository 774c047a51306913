import dataclasses
import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcp import comparison
from qcp.comparison import (ComparisonConfig, ErrorPoint, ProfileCache,
                            RegionSet, box_diameter, check_containment,
                            detect_errors, lambda_coeffs,
                            make_comparison_config, _vertices)
from qcp.experiments import aligned_side, run_coupled
from qcp.ide import Profile1D
from qcp.kernel import Kernel1D, discretize
from qcp.lattice import BoxStats, box_side_sites
from qcp.mean_field import Params, mf_step
from qcp.rng import LatticeRng
from qcp.wavespeed import PhiData, default_directions

from conftest import seeded
from helpers import (PruningRegionSet, UncachedRegionSet,
                     WidenedProfileCache, box_rect, h_field, membership,
                     regions_to_json,
                     uncached_containment, uncached_detect_errors,
                     uncached_snapshot)


def random_acute_normals(gen):
    """Three outward normals with pairwise angles in (90, 180) degrees."""
    while True:
        a = np.sort(gen.uniform(0.0, 2 * np.pi, 3))
        gaps = np.diff(np.concatenate([a, [a[0] + 2 * np.pi]]))
        if np.all(gaps > np.pi / 2 + 0.05) and np.all(gaps < np.pi - 0.05):
            return np.stack([np.cos(a), np.sin(a)], axis=1)


def small_cfg(r=2.0, c=0.1, b=1.0, directions=None, alpha=0.5, L=100,
              gamma=0.3):
    dirs = default_directions() if directions is None else directions
    return ComparisonConfig(alpha=alpha, c=c, b=b, r=r, delta1=0.05,
                            delta2=0.1, gamma=gamma, L=L, d_k=0.5,
                            directions=dirs)


def point(x, y, t, step, kind="I", box=(0, 0)):
    return ErrorPoint(location=(x, y), t=t, type=kind, box=box, step=step)


def synthetic_phi(p=None, alpha=0.5, delta=0.1):
    """Plateau alpha down to 0 with a point-mass kernel: ages iterate the
    mean-field map pointwise, which keeps expectations computable."""
    p = p or Params(1.0, 0.05)
    s = np.arange(-30, 21) * delta
    vals = np.where(s <= 0.2, alpha, 0.0)
    ramp = (s > 0.2) & (s <= 1.2)
    vals[ramp] = alpha * (1.2 - s[ramp])
    prof = Profile1D(float(s[0]), delta, vals, alpha, 0.0)
    k1 = Kernel1D(delta, np.array([1.0]))
    dirs = default_directions()
    return PhiData(phi=prof, m=-1.0, M=1.3, directions=dirs,
                   speeds=(0.2, 0.2, 0.2), kernels1d=[k1, k1, k1], params=p,
                   n_iter=1)


def mk_stats(dens, L=100, gamma=0.3, time=1):
    b = box_side_sites(L, gamma)
    S = np.round(np.asarray(dens, dtype=float) * b * b).astype(np.int64)
    return BoxStats(gamma=gamma, L=L, side=S.shape[0] * b, time=time, S=S,
                    R=np.zeros(S.shape))


class TestConfigValidation:
    @pytest.mark.parametrize("name, value", [
        ("c", math.nan), ("c", 0.0), ("c", -0.1), ("c", math.inf),
        ("b", 0.0), ("b", math.inf), ("b", -1.0), ("r", math.nan),
        ("r", -1.0), ("r", 0.0), ("delta1", 0.0), ("delta2", -math.inf),
        ("d_k", math.nan), ("d_k", 0.0)])
    def test_rates_and_slacks_positive_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            dataclasses.replace(small_cfg(), **{name: value})

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, math.nan,
                                       math.inf])
    def test_alpha_in_unit_interval(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            small_cfg(alpha=alpha)

    @pytest.mark.parametrize("L, gamma", [(100, 0.0), (100, 0.5),
                                          (100, math.nan), (0, 0.3),
                                          (-5, 0.3), (math.inf, 0.3),
                                          (math.nan, 0.3)])
    def test_L_and_gamma_pass_box_side(self, L, gamma):
        with pytest.raises(ValueError, match="L must|gamma must"):
            small_cfg(L=L, gamma=gamma)

    def test_nan_rate_no_longer_evolves_silently(self):
        # c = NaN once built a set whose regions never vanished
        with pytest.raises(ValueError, match="c must be positive"):
            RegionSet(small_cfg(c=math.nan))


class TestGeometry:
    def test_lambda_equilateral(self):
        lam = lambda_coeffs(default_directions())
        assert np.allclose(lam, 1.0 / 3.0)

    def test_lambda_rejects_non_spanning(self):
        dirs = np.array([[1.0, 0.0], [0.0, 1.0],
                         [np.sqrt(0.5), np.sqrt(0.5)]])
        with pytest.raises(ValueError, match="span"):
            lambda_coeffs(dirs)

    def test_spawn_offsets_equal_inradius(self):
        cfg = small_cfg(r=3.0)
        reg = RegionSet(cfg).insert_spawn(point(5.0, 5.0, 0.5, 1))
        assert np.allclose(reg.offsets_at(0.5), 3.0)

    def test_circumradius_against_angle_formula(self):
        # oracle: distance from the incenter to vertex k is r / sin of
        # half the interior angle at that vertex
        gen = seeded(40)
        for _ in range(10):
            dirs = random_acute_normals(gen)
            cfg = small_cfg(r=1.7, directions=dirs)
            reg = RegionSet(cfg).insert_spawn(point(0.0, 0.0, 0.0, 0))
            g = reg.supports_at(0.0)
            verts = _vertices(dirs, g)
            radius = float(np.max(np.hypot(*(verts - reg.center).T)))
            oracle = 0.0
            for k in range(3):
                i, j = (k + 1) % 3, (k + 2) % 3
                # interior angle between the two edges meeting at vertex k
                interior = np.pi - math.acos(np.clip(dirs[i] @ dirs[j],
                                                     -1, 1))
                oracle = max(oracle, 1.7 / math.sin(interior / 2.0))
            assert radius == pytest.approx(oracle, rel=1e-9)

    def test_vanish_at_r_over_c_any_normals(self):
        gen = seeded(41)
        for _ in range(5):
            dirs = random_acute_normals(gen)
            cfg = small_cfg(r=2.5, c=0.25, directions=dirs)
            rs = RegionSet(cfg)
            rs.evolve_to(20.0, spawns=[point(1.0, -2.0, 0.75, 1)])
            reg = rs.regions[0]
            assert reg.vanished_at == pytest.approx(0.75 + 2.5 / 0.25,
                                                    abs=1e-12)

    def test_membership_boundary_closed(self):
        cfg = small_cfg(r=2.0)
        rs = RegionSet(cfg)
        rs.evolve_to(1.0, spawns=[point(0.0, 0.0, 0.0, 0)])
        xi = cfg.directions[0]
        edge_point = xi * 2.0  # on edge 0 at creation
        assert membership(rs, edge_point, 0.0)
        assert membership(rs, (0.0, 0.0), 1.0)
        assert not membership(rs, xi * 2.2, 0.0)

    def test_membership_after_vanish(self):
        cfg = small_cfg(r=1.0, c=0.5)
        rs = RegionSet(cfg)
        rs.evolve_to(10.0, spawns=[point(0.0, 0.0, 0.0, 0)])
        assert not membership(rs, (0.0, 0.0), 9.9)


class TestOverlap:
    def test_colocated_duplicates_zero_catchup(self):
        cfg = small_cfg(r=2.0)
        rs = RegionSet(cfg)
        spawns = [point(1.0, 1.0, 0.5, 1, "I", (0, 0)),
                  point(1.0, 1.0, 0.5, 1, "II", (0, 1))]
        rs.evolve_to(1.5, spawns=spawns)
        assert [r.parents for r in rs.regions.values()] == [(), (), (0, 1)]
        ov = rs.regions[2]
        assert np.all(ov.rates() == -cfg.c)
        assert np.allclose(ov.offsets_at(1.0), rs.regions[0].offsets_at(1.0))

    def test_catchup_closed_form(self):
        cfg = small_cfg(r=2.0, c=0.1, b=1.5)
        rs = RegionSet(cfg)
        spawns = [point(0.0, 0.0, 1.0, 1, "I", (0, 0)),
                  point(0.8, 0.0, 1.0, 1, "I", (1, 0))]
        rs.evolve_to(6.0, spawns=spawns)
        ov = next(r for r in rs.regions.values() if r.parents)
        normals = rs.normals
        t0, h0, rate0 = ov.start
        assert rate0 == cfg.b
        for j in range(3):
            t_switch, h_switch, rate1 = ov.pieces[j]
            assert rate1 == -cfg.c
            # gap at formation, closing at b + c
            g_self = normals[j] @ ov.center + h0
            g_par = max(normals[j] @ rs.regions[i].center
                        + rs.regions[i].offset(j, t0)
                        for i in ov.parents)
            gap = g_par - g_self
            assert t_switch == pytest.approx(t0 + gap / (cfg.b + cfg.c),
                                             abs=1e-9)
            # lands exactly on the outermost parent edge
            g_target = max(normals[j] @ rs.regions[i].center
                           + rs.regions[i].offset(j, t_switch)
                           for i in ov.parents)
            assert normals[j] @ ov.center + h_switch == pytest.approx(
                g_target, abs=1e-12)

    def test_chain_forms_two_overlaps(self):
        # A-B touch and B-C touch, but A-B-C have no common point:
        # two separate overlap regions appear at once; they grow until
        # they touch each other and B, which forms a third
        cfg = small_cfg(r=1.0, c=0.05, b=0.5)
        rs = RegionSet(cfg)
        spawns = [point(0.0, 0.0, 0.0, 0, "I", (0, 0)),
                  point(1.8, 0.0, 0.0, 0, "I", (1, 0)),
                  point(3.6, 0.0, 0.0, 0, "I", (2, 0))]
        rs.evolve_to(0.5, spawns=spawns)
        overlaps = [r for r in rs.regions.values() if r.parents]
        assert [o.parents for o in overlaps] == [(0, 1), (1, 2), (3, 4, 1)]
        assert [o.created_at for o in overlaps[:2]] == [0.0, 0.0]
        assert 0.0 < overlaps[2].created_at < 0.5

    @staticmethod
    def _support(R, j, t):
        return float(R.supports_at(t)[j])

    def test_edge_lands_on_outermost_live_parent(self):
        # region 0 is the outermost parent along edge 1 of the overlap
        # but vanishes at t = 2 with that edge still outward; the edge
        # then closes on region 1, the outermost live parent, at b + c
        cfg = small_cfg(r=1.0, c=0.5, b=0.05)
        rs = RegionSet(cfg)
        rs.evolve_to(4.0, spawns=[
            point(0.0, 0.0, 0.0, 1), point(0.4, 0.0, 0.5, 1, "I", (1, 0)),
            point(1.2, -1.2, 0.5, 1, "I", (2, 0))])
        A, B, C, ov = (rs.regions[i] for i in range(4))
        assert ov.parents == (0, 1, 2)
        t0 = ov.created_at

        def g(R, t):
            return self._support(R, 1, t)

        assert g(A, t0) > g(B, t0) > g(C, t0)
        assert g(ov, t0) == pytest.approx(g(C, t0), abs=1e-12)
        assert A.vanished_at == pytest.approx(2.0, abs=1e-12)
        t_turn = t0 + (g(B, t0) - g(ov, t0)) / (cfg.b + cfg.c)
        assert A.vanished_at < t_turn < B.vanished_at
        assert g(ov, t_turn - 1e-6) == pytest.approx(
            g(ov, t0) + cfg.b * (t_turn - 1e-6 - t0), abs=1e-9)
        for t in (t_turn + 1e-6, 0.5 * (t_turn + B.vanished_at)):
            assert g(ov, t) == pytest.approx(g(B, t), abs=1e-9)
        assert ov.rates()[1] == -cfg.c

    def test_edge_keeps_its_offset_when_every_parent_has_vanished(self):
        # edge 0 of the overlap is still outward when its last parent
        # vanishes (t = 2.5); it turns inward there, from its own offset
        cfg = small_cfg(r=1.0, c=0.5, b=0.05)
        rs = RegionSet(cfg)
        rs.evolve_to(4.0, spawns=[point(0.0, 0.0, 0.0, 1),
                                  point(0.3, 1.0, 0.5, 1, "I", (1, 0))])
        A, B, ov = (rs.regions[i] for i in range(3))
        assert ov.parents == (0, 1)
        t0 = ov.created_at
        t_last = max(A.vanished_at, B.vanished_at)
        assert t_last == pytest.approx(2.5, abs=1e-12)
        gap = max(self._support(P, 0, t0) for P in (A, B)) - \
            self._support(ov, 0, t0)
        assert gap > (cfg.b + cfg.c) * (t_last - t0)
        h0 = ov.offsets_at(t0)[0]
        h_turn = h0 + cfg.b * (t_last - t0)
        assert ov.offsets_at(t_last)[0] == pytest.approx(h_turn, abs=1e-12)
        assert ov.offsets_at(t_last + 0.2)[0] == pytest.approx(
            h_turn - 0.2 * cfg.c, abs=1e-12)
        assert ov.rates()[0] == -cfg.c
        assert ov.vanished_at is not None and ov.vanished_at > t_last


class TestOneRounding:
    """A catch-up reads each support as the snapshot does, so its time
    and its landing equal, bit for bit, the values computed from the
    supports of rs.snapshot(now)."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_catchup_reads_the_snapshot_supports(self, seed):
        gen = seeded(seed)
        cfg = small_cfg(r=1.0, c=float(gen.uniform(0.05, 0.5)),
                        b=float(gen.uniform(0.05, 1.0)),
                        directions=random_acute_normals(gen))
        rs = RegionSet(cfg)
        # two spawns less than one inradius apart overlap at once
        a = gen.uniform(-5.0, 5.0, 2)
        b = a + gen.uniform(-0.5, 0.5, 2)
        rs.evolve_to(0.0, spawns=[point(*a, 0.0, 0, "I", (0, 0)),
                                  point(*b, 0.0, 0, "I", (1, 0))])
        ov = rs.regions[2]
        assert ov.parents == (0, 1)
        now = float(gen.uniform(0.0, 0.2))
        rs.evolve_to(now)
        regs, g, _ = rs.snapshot(now)
        row = {R.id: k for k, R in enumerate(regs)}
        live = [rs.regions[i] for i in ov.parents
                if rs.regions[i].vanished_at is None]
        outward = [j for j in range(3) if ov.pieces[j][2] > 0]
        for j in outward:
            g_self = float(g[row[ov.id], j])
            want = now
            for P in live:
                g_p = float(g[row[P.id], j])
                if g_self < g_p - comparison._EPS:
                    want = max(want, now + (g_p - g_self)
                               / (ov.pieces[j][2] - P.pieces[j][2]))
            assert rs._catchup_time(ov, j, now) == want
        base = rs.normals @ ov.center
        for j in outward:
            rs._do_catchup((ov.id, j), now)
            h = max(float(g[row[P.id], j]) for P in live) - float(base[j])
            assert repr(ov.pieces[j]) == repr((now, h, -cfg.c))


class TestRecordScalars:
    """A region record states its start once, and every path that builds
    or moves a piece stores Python floats, so a record's text does not
    depend on the path."""

    def test_compare_L50_records_hold_floats(self, phi_main, square_spec,
                                             p_main, monkeypatch):
        # the five coupled runs of the compare-L50 benchmark (44 regions)
        sets = []

        class Recorded(RegionSet):
            def __init__(self, cfg):
                super().__init__(cfg)
                sets.append(self)

        monkeypatch.setattr(comparison, "RegionSet", Recorded)
        L, gamma = 50, 0.3
        dk = discretize(square_spec, L)
        cfg = make_comparison_config(phi_main, dk, L, gamma)
        for seed in range(351, 356):
            run_coupled(p_main, dk, gamma, aligned_side(L, gamma, 3.0), 60,
                        seed, phi_main, cfg)
        regs = [R for rs in sets for R in rs.regions.values()]
        assert len(regs) == 44
        for R in regs:
            values = list(R.start) + [v for piece in R.pieces for v in piece]
            assert [type(v) for v in values] == [float] * 12, R.id
            assert R.created_at == R.start[0]
            assert type(R.created_at) is float

    def test_vanish_times_are_floats(self):
        # spawns in a square of half-side 1.5 r, so overlaps form, and
        # regions vanish after a contact moved the clock
        vanished = 0
        for seed in range(20):
            gen = np.random.default_rng(seed)
            rs = RegionSet(small_cfg(r=1.0, c=0.5, b=0.05))
            for n in range(1, 8):
                rs.evolve_to(n, spawns=[
                    point(*gen.uniform(-1.5, 1.5, 2), n - 1 + gen.random(),
                          n, "I", (k, 0)) for k in range(gen.integers(0, 3))])
            times = [R.vanished_at for R in rs.regions.values()
                     if R.vanished_at is not None]
            assert [type(t) for t in times] == [float] * len(times)
            vanished += len(times)
        assert vanished > 0


def _within(seconds, fn):
    """fn() under a wall-clock limit: TimeoutError once it has passed."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestOverlapCascade:
    """Sets where each new overlap region touches another region and
    forms a further one, so overlaps pile up with no catch-up between
    them; found among the random sets of TestArrayPathAgainstScalarOracle
    at b = 1.0 and b = 0.2."""

    CASCADES = {
        "b1": (1.0, [[0.31295065943388345, 0.9497693850403357],
                     [-0.8545986093871735, -0.5192891456919828],
                     [0.6897275555807798, -0.7240689877853922]],
               0.492404861835777,
               [(0.8890485995239781, 0.21117882623787865, 1.9777054090806403),
                (0.2018543502178789, 1.405773926460646, 0.5559532977805342),
                (1.6609881569380391, 0.6716448863953917, 1.6269301748786646),
                (0.7320141276118324, 1.4908405437057117, 1.414570263911467),
                (1.222450959330004, 1.5587022116647355, 1.3096795640430563)]),
        "b0.2": (0.2, [[0.6060892209579433, 0.7953966659715097],
                       [-0.8664862915563469, 0.49920086793286866],
                       [-0.3825596861635477, -0.9239307801575007]],
                 0.6088212054294107,
                 [(0.3916433763269229, 1.1940596264152163, 1.7688137504864265),
                  (1.2561839973781235, 0.6836345802423949, 1.228595835367868),
                  (1.9214168615281058, 1.8344335659298279, 0.4335336295813428),
                  (1.6967333345083853, 0.39700912252095977, 0.257902035214699),
                  (0.12461050815674701, 0.35468731908682427,
                   0.3064315394096844),
                  (1.792278158710698, 0.6297763390066635,
                   0.16307306755249762)]),
    }

    @pytest.mark.parametrize("name", sorted(CASCADES))
    def test_cascade_raises(self, name):
        b, dirs, r, spawns = self.CASCADES[name]
        cfg = small_cfg(r=r, c=0.1, b=b, directions=np.array(dirs))
        rs = RegionSet(cfg)
        errors = [point(x, y, t, math.floor(t) + 1, "I", (k, 0))
                  for k, (x, y, t) in enumerate(spawns)]
        with pytest.raises(RuntimeError, match="overlap cascade"):
            _within(60, lambda: (rs.evolve_to(2.0, spawns=errors),
                                 rs.evolve_to(3.0)))


class FineStepOracle:
    """Independent evolution: explicit time stepping of the offsets with
    event localization inside the bracketing step."""

    def __init__(self, normals, lam, c, b, dt=1e-3):
        self.normals = normals
        self.lam = lam
        self.c = c
        self.b = b
        self.dt = dt

    def vanish_time(self, h0, t0, horizon):
        h = np.array(h0, dtype=float)
        t = t0
        while t < horizon:
            val = float(self.lam @ h)
            h_next = h - self.c * self.dt
            val_next = float(self.lam @ h_next)
            if val >= 0.0 > val_next:
                frac = val / (val - val_next)
                return t + frac * self.dt
            h = h_next
            t += self.dt
        return None

    def catchup_times(self, center_o, h_o, parents, t0, horizon):
        """parents: list of (center, h at t0); all parent edges inward."""
        h = np.array(h_o, dtype=float)
        ph = [np.array(hp, dtype=float) for _, hp in parents]
        out = [True, True, True]
        times = [None, None, None]
        t = t0
        while t < horizon and any(out):
            g_self = self.normals @ center_o + h
            targets = np.max([self.normals @ cp + hp
                              for (cp, _), hp in zip(parents, ph)], axis=0)
            gap = targets - g_self
            h_next = h + np.where(out, self.b, -self.c) * self.dt
            ph_next = [q - self.c * self.dt for q in ph]
            g_next = self.normals @ center_o + h_next
            t_next = np.max([self.normals @ cp + q
                             for (cp, _), q in zip(parents, ph_next)], axis=0)
            gap_next = t_next - g_next
            for j in range(3):
                if out[j] and gap[j] > 0.0 >= gap_next[j]:
                    frac = gap[j] / (gap[j] - gap_next[j])
                    times[j] = t + frac * self.dt
                    out[j] = False
                elif out[j] and gap[j] <= 0.0:
                    times[j] = t
                    out[j] = False
            h = h_next
            ph = ph_next
            t += self.dt
        return times


class TestIntegratorOracle:
    @settings(max_examples=50, deadline=None)
    @given(normals_seed=st.integers(0, 2 ** 32 - 1),
           r=st.floats(1.0, 2.5), c=st.floats(0.1, 0.4),
           b=st.floats(0.8, 2.0), t_spawn=st.floats(0.0, 0.5),
           gap_frac=st.floats(0.2, 0.8))
    def test_vanish_and_catchup_match_closed_forms(self, normals_seed, r, c,
                                                   b, t_spawn, gap_frac):
        dirs = random_acute_normals(seeded(normals_seed))
        cfg = small_cfg(r=r, c=c, b=b, directions=dirs)
        oracle = FineStepOracle(dirs, cfg.lam, c, b)

        rs = RegionSet(cfg)
        gap = gap_frac * r
        p1 = point(0.0, 0.0, t_spawn, 1, "I", (0, 0))
        p2 = point(gap, 0.0, t_spawn, 1, "I", (1, 0))
        rs.evolve_to(t_spawn + r / c + 1.0, spawns=[p1, p2])

        reg = rs.regions[0]
        t_v = oracle.vanish_time([r] * 3, t_spawn, t_spawn + r / c + 1.0)
        # impl vanish may come later if both parents only shrink; the
        # freestanding formula still applies to each spawned triangle
        assert reg.vanished_at == pytest.approx(t_v, abs=1e-9)

        ov = next((x for x in rs.regions.values() if x.parents), None)
        assert ov is not None
        parents = [(rs.regions[i].center,
                    rs.regions[i].offsets_at(ov.created_at))
                   for i in ov.parents]
        times = oracle.catchup_times(ov.center,
                                     ov.offsets_at(ov.created_at),
                                     parents, ov.created_at,
                                     ov.created_at + 10.0)
        for j, (t_turn, _, rate) in enumerate(ov.pieces):
            if rate < 0:
                assert times[j] == pytest.approx(t_turn, abs=1e-9)


class TestProfileCacheAndHField:
    def test_age_zero_is_phi(self):
        phi = synthetic_phi()
        cache = ProfileCache(phi)
        prof = cache.profile(0, 0)
        assert prof.evaluate(0.0) == phi.alpha
        assert prof.evaluate(5.0) == 0.0

    def test_cache_extends(self):
        phi = synthetic_phi()
        cache = ProfileCache(phi)
        # past the ages built so far, so every ladder grows
        age = 2 * len(cache.tables[1]) + 1
        prof = cache.profile(1, age)
        assert all(len(ladder) == age + 1 for ladder in cache.tables)
        p = phi.params
        want = phi.alpha
        for _ in range(age):
            want = mf_step(p, want)
        assert prof.evaluate(-2.0) == pytest.approx(want, abs=1e-12)

    def test_ladder_equals_widened_build(self, phi_main, monkeypatch):
        # phi_main has the inputs of the compare-L50 benchmark's phi
        calls = []

        def counted(f, k1, p):
            calls.append(id(k1))
            return apply_Q_1d(f, k1, p)

        apply_Q_1d = comparison.apply_Q_1d
        monkeypatch.setattr(comparison, "apply_Q_1d", counted)
        cache = ProfileCache(phi_main)
        for j, age in [(0, 5), (2, 64), (1, 30), (0, 64), (1, 0), (2, 7)]:
            cache.profile(j, age)
        assert [calls.count(id(k1)) for k1 in phi_main.kernels1d] == [64] * 3

        monkeypatch.setattr(comparison, "apply_Q_1d", apply_Q_1d)
        wide = WidenedProfileCache(phi_main, cap=64)
        base = phi_main.phi
        n = len(base.values)
        for j in range(3):
            for age in range(65):
                got, want = cache.profile(j, age), wide.profile(j, age)
                assert got.values[:n].tobytes() == want.values[:n].tobytes()
                assert (got.left_limit, got.right_limit) == (
                    want.left_limit, want.right_limit)
                # past its grid every age is its limit, 0
                assert not want.values[len(got.values):].any()
                assert got.evaluate(base.grid).tobytes() == \
                    want.evaluate(base.grid).tobytes()
        # underflow stops the front after two widenings, where the
        # widened build holds 66 half-widths past phi's grid
        assert [len(cache.profile(j, 64).values) - n for j in range(3)] == [
            2 * k1.halfwidth for k1 in phi_main.kernels1d]

    def test_h_deep_inside_fresh_region_is_alpha(self):
        phi = synthetic_phi()
        cfg = small_cfg(r=40.0, alpha=phi.alpha)
        rs = RegionSet(cfg)
        rs.evolve_to(1.0, spawns=[point(0.0, 0.0, 1.0, 1)])
        h = h_field(rs, phi, 1)
        assert h((0.0, 0.0)) == phi.alpha

    def test_h_age_zero_formula(self):
        phi = synthetic_phi()
        cfg = small_cfg(r=5.0, alpha=phi.alpha)
        rs = RegionSet(cfg)
        y = np.array([2.0, 3.0])
        rs.evolve_to(1.0, spawns=[point(y[0], y[1], 1.0, 1)])
        h = h_field(rs, phi, 1)
        gen = seeded(60)
        for _ in range(10):
            x = y + gen.uniform(-1.5, 1.5, 2)
            if not membership(rs, x, 1):
                continue
            want = max(phi.phi.evaluate(float(d @ (x - y)))
                       for d in cfg.directions)
            assert h(tuple(x)) == pytest.approx(want, abs=1e-12)

    def test_h_outside_region_zero(self):
        phi = synthetic_phi()
        cfg = small_cfg(r=2.0, alpha=phi.alpha)
        rs = RegionSet(cfg)
        rs.evolve_to(1.0, spawns=[point(0.0, 0.0, 1.0, 1)])
        h = h_field(rs, phi, 1)
        assert h((50.0, 50.0)) == 0.0

    def test_h_monotone_in_age_in_bulk(self):
        # deep positions: iterating the profile raises the demand toward
        # the stable density
        phi = synthetic_phi()
        cache = ProfileCache(phi)
        s_probe = np.array([-2.0, -1.0, -0.5, 0.0])
        prev = cache.profile(0, 0).evaluate(s_probe)
        for age in range(1, 6):
            cur = cache.profile(0, age).evaluate(s_probe)
            assert np.all(cur >= prev - 1e-12)
            prev = cur


class TestDetectErrors:
    def setup_method(self):
        self.phi = synthetic_phi()
        self.cfg = small_cfg(r=2.0, alpha=self.phi.alpha)
        self.cache = ProfileCache(self.phi)
        self.nb = 8

    def _uniform(self, value):
        return np.full((self.nb, self.nb), value)

    def test_no_errors_when_dense(self):
        rs = RegionSet(self.cfg)
        prev = mk_stats(self._uniform(0.95), time=0)
        cur = mk_stats(self._uniform(0.90), time=1)
        errs = detect_errors(prev, cur, rs, self.cache, LatticeRng(1))
        assert errs == []

    def test_isolated_drop_is_type_one(self):
        rs = RegionSet(self.cfg)
        prev = mk_stats(self._uniform(0.95), time=0)
        dens = self._uniform(0.95)
        dens[3, 4] = 0.25
        cur = mk_stats(dens, time=1)
        errs = detect_errors(prev, cur, rs, self.cache, LatticeRng(1))
        assert len(errs) == 1
        e = errs[0]
        assert e.type == "I" and e.box == (3, 4) and e.step == 1
        assert 0.0 <= e.t - 0.0 < 1.0
        x0, y0, x1, y1 = box_rect(cur, 3, 4)
        assert x0 <= e.location[0] < x1 and y0 <= e.location[1] < y1

    def test_region_near_box_suppresses_type_one(self):
        rs = RegionSet(self.cfg)
        # region sitting next to box (3, 4): inside d_k of it at time 0
        w = self.cfg.box_side / self.cfg.L
        center = ((3 + 0.5) * w + self.cfg.d_k * 0.5, (4 + 0.5) * w)
        rs.evolve_to(0.0, spawns=[point(center[0], center[1], 0.0, 0)])
        prev = mk_stats(self._uniform(0.95), time=0)
        dens = self._uniform(0.95)
        dens[3, 4] = 0.25
        cur = mk_stats(dens, time=1)
        errs = detect_errors(prev, cur, rs, self.cache, LatticeRng(1))
        assert all(e.type != "I" for e in errs)

    def test_type_two_below_recovery_demand(self):
        rs = RegionSet(self.cfg)
        w = self.cfg.box_side / self.cfg.L
        center = ((3 + 0.5) * w, (4 + 0.5) * w)
        rs.evolve_to(0.0, spawns=[point(center[0], center[1], 0.0, 0)])
        prev = mk_stats(self._uniform(0.95), time=0)
        dens = self._uniform(0.95)
        dens[3, 4] = self.phi.alpha - 0.2  # below h = alpha at the center
        cur = mk_stats(dens, time=1)
        errs = detect_errors(prev, cur, rs, self.cache, LatticeRng(1))
        assert [e.type for e in errs] == ["II"]
        assert errs[0].box == (3, 4)

    def test_above_recovery_demand_no_type_two(self):
        rs = RegionSet(self.cfg)
        w = self.cfg.box_side / self.cfg.L
        center = ((3 + 0.5) * w, (4 + 0.5) * w)
        # spawned during step 1, so its demand at the step-1 audit is the
        # age-0 profile (= alpha at the center)
        rs.evolve_to(0.0, spawns=[point(center[0], center[1], 0.0, 1)])
        prev = mk_stats(self._uniform(0.95), time=0)
        dens = self._uniform(0.95)
        dens[3, 4] = self.phi.alpha + 0.05
        cur = mk_stats(dens, time=1)
        errs = detect_errors(prev, cur, rs, self.cache, LatticeRng(1))
        assert errs == []

    def test_placement_deterministic(self):
        rs = RegionSet(self.cfg)
        prev = mk_stats(self._uniform(0.95), time=0)
        dens = self._uniform(0.95)
        dens[2, 2] = 0.1
        dens[5, 6] = 0.1
        cur = mk_stats(dens, time=1)
        a = detect_errors(prev, cur, rs, self.cache, LatticeRng(4))
        b = detect_errors(prev, cur, rs, self.cache, LatticeRng(4))
        assert a == b
        assert len(a) == 2

    @pytest.mark.parametrize("prev_kw, cur_kw", [
        ({"shape": 1}, {}),                       # side 25 against 200
        ({"L": 50}, {"L": 50}),                   # L and b of another config
        ({}, {"gamma": 0.2}),                     # b = 40 against 25
    ])
    def test_box_geometry_must_agree(self, prev_kw, cur_kw):
        def stats(time, shape=self.nb, **kw):
            return mk_stats(self._uniform(0.95)[:shape, :shape], time=time,
                            **kw)

        rs = RegionSet(self.cfg)
        with pytest.raises(ValueError, match="box"):
            detect_errors(stats(0, **prev_kw), stats(1, **cur_kw), rs,
                          self.cache, LatticeRng(1))


class ScalarOracle:
    """The recovery demand and the error rule evaluated one point, one
    box and one region at a time, as plain formulas."""

    def __init__(self, rs, cache):
        self.rs, self.cache, self.normals = rs, cache, rs.normals

    def h(self, x, n, regions):
        if not regions:
            return 0.0
        return max(min(float(self.cache.profile(j, n - R.created_step)
                             .evaluate(float(self.normals[j]
                                             @ (x - R.center))))
                       for R in regions)
                   for j in range(3))

    def holders(self, x, t):
        return [R for R in self.rs.alive(t)
                if np.all(self.normals @ (x - R.center)
                          <= R.offsets_at(t) + 1e-9)]

    def meets(self, rect, R, t):
        x0, y0, x1, y1 = rect
        g = R.supports_at(t)
        verts = _vertices(self.normals, g)
        corners = np.array([[x0, y0], [x1, y0], [x0, y1], [x1, y1]])
        proj = corners @ self.normals.T
        return not (np.any(proj.min(axis=0) > g + 1e-9)
                    or verts[:, 0].max() < x0 - 1e-9
                    or verts[:, 0].min() > x1 + 1e-9
                    or verts[:, 1].max() < y0 - 1e-9
                    or verts[:, 1].min() > y1 + 1e-9)

    def errors(self, prev, cur, cfg):
        n, nb = cur.time, cur.nb
        regs = self.rs.alive(n - 1)
        dp, dc = prev.density(), cur.density()
        boxes = [(i, j) for i in range(nb) for j in range(nb)]
        out = []
        for bi, bj in boxes:
            rect = box_rect(cur, bi, bj)
            if dc[bi, bj] <= cfg.alpha < dp[bi, bj]:
                near = [box_rect(cur, *o) for o in boxes
                        if rect_distance(rect, box_rect(cur, *o))
                        <= cfg.d_k + 1e-9]
                if not any(self.meets(o, R, n - 1)
                           for o in near for R in regs):
                    out.append(("I", bi, bj))
            holders = [R for R in regs if self.meets(rect, R, n - 1)]
            center = np.array([0.5 * (rect[0] + rect[2]),
                               0.5 * (rect[1] + rect[3])])
            if holders and dc[bi, bj] < self.h(center, n, holders):
                out.append(("II", bi, bj))
        return sorted(out)


def rect_distance(a, b):
    dx = max(0.0, a[0] - b[2], b[0] - a[2])
    dy = max(0.0, a[1] - b[3], b[1] - a[3])
    return math.hypot(dx, dy)


class TestArrayPathAgainstScalarOracle:
    """h_field and detect_errors against ScalarOracle on random region
    sets: random normals, spawn times and radii, box densities."""

    def test_random_configurations(self):
        phi = synthetic_phi()
        gen = seeded(70)
        n, nb = 3, 8
        seen = {"I": 0, "II": 0, "inside": 0}
        for trial in range(24):
            dirs = random_acute_normals(gen)
            # b small: at b = 0.2 and 1.0 some of these sets form an
            # overlap cascade, and evolve_to raises (TestOverlapCascade)
            cfg = small_cfg(r=float(gen.uniform(0.2, 1.0)), c=0.1, b=0.05,
                            directions=dirs, alpha=phi.alpha)
            w = cfg.box_side / cfg.L
            rs = RegionSet(cfg)
            spawns = []
            for k in range(int(gen.integers(1, 7))):
                t = float(gen.uniform(0.0, n - 1))
                x, y = gen.uniform(0.0, nb * w, 2)
                spawns.append(point(x, y, t, math.floor(t) + 1, "I", (k, 0)))
            rs.evolve_to(n - 1, spawns=spawns)
            prev = mk_stats(gen.uniform(0.0, 1.0, (nb, nb)), time=n - 1)
            cur = mk_stats(gen.uniform(0.0, 1.0, (nb, nb)), time=n)
            cache = ProfileCache(phi)
            oracle = ScalarOracle(rs, cache)

            errs = detect_errors(prev, cur, rs, cache, LatticeRng(trial))
            want = oracle.errors(prev, cur, cfg)
            assert [(e.type, *e.box) for e in errs] == want
            for kind, _, _ in want:
                seen[kind] += 1

            rs.evolve_to(n)
            h = h_field(rs, phi, n, cache=cache)
            for x in gen.uniform(-0.5, nb * w + 0.5, (40, 2)):
                holders = oracle.holders(x, n)
                seen["inside"] += bool(holders)
                assert h(x) == pytest.approx(oracle.h(x, n, holders),
                                             abs=1e-12)
        # every branch was exercised
        assert min(seen.values()) >= 5, seen


class TestCachesAgainstUncachedOracle:
    """detect_errors, check_containment and evolve_to, with their box
    grid, supports and ladder caches, against the uncached oracle of
    tests/helpers.py, byte for byte."""

    @staticmethod
    def _stats(gen, cfg, nb, rem, time):
        b = cfg.box_side
        S = gen.integers(0, b * b + 1, (nb, nb))
        return BoxStats(gamma=cfg.gamma, L=cfg.L, side=nb * b + rem,
                        time=time, S=S, R=np.zeros((nb, nb)))

    @staticmethod
    def _same_snapshot(rs, rs_oracle, t):
        regs, g, verts = rs.snapshot(t)
        regs_o, g_o, verts_o = uncached_snapshot(rs_oracle, t)
        assert [R.id for R in regs] == [R.id for R in regs_o]
        assert (g.tobytes(), verts.tobytes()) == (g_o.tobytes(),
                                                  verts_o.tobytes())

    def _audit(self, stats, rs, rs_oracle):
        rep = check_containment(stats, rs)
        want = uncached_containment(stats, rs_oracle)
        assert repr((rep.bad_boxes, rep.violations)) == repr(want)
        self._same_snapshot(rs, rs_oracle, stats.time)
        return rep

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), L=st.integers(20, 150),
           gamma=st.floats(0.15, 0.45), nb=st.integers(1, 8),
           steps=st.integers(1, 4), insert_at=st.integers(0, 4))
    def test_equal_to_uncached_oracle(self, phi_main, seed, L, gamma, nb,
                                      steps, insert_at):
        gen = seeded(seed)
        w = box_side_sites(L, gamma) / L
        r = w * gen.uniform(0.5, 3.0)
        c = r * gen.uniform(0.2, 1.0)           # vanish within 1-5 steps
        # b well below c: tighter clusters or faster overlaps can pile up
        # overlaps without end (ROADMAP item 9)
        cfg = ComparisonConfig(
            alpha=phi_main.alpha, c=c, b=c * gen.uniform(0.02, 0.2), r=r,
            delta1=0.05, delta2=0.1, gamma=gamma, L=L, d_k=w * 1.5,
            directions=random_acute_normals(gen))
        rs, rs_oracle = RegionSet(cfg), UncachedRegionSet(cfg)
        cache, ladder = ProfileCache(phi_main), WidenedProfileCache(phi_main)
        rng = LatticeRng(seed)
        rem = int(gen.integers(0, cfg.box_side))
        prev = self._stats(gen, cfg, nb, rem, 0)
        for n in range(1, steps + 1):
            cur = self._stats(gen, cfg, nb, rem, n)
            got = detect_errors(prev, cur, rs, cache, rng)
            assert repr(got) == repr(uncached_detect_errors(
                prev, cur, rs_oracle, ladder, rng))
            # spawns in a cluster a few inradii wide, so regions overlap
            # and catch up as well as vanish
            centre = gen.uniform(0.0, nb * w, 2)
            spawns = [point(*(centre + gen.normal(0.0, 2.0 * r, 2)),
                            float(gen.uniform(n - 1, n)), n, "I", (k, 0))
                      for k in range(int(gen.integers(0, 4)))]
            # an audit at n before the clock gets there, so the next one
            # must see every event up to n, not a snapshot held over
            self._audit(cur, rs, rs_oracle)
            rs.evolve_to(n, spawns=spawns)
            rs_oracle.evolve_to(n, spawns=spawns)
            assert repr(regions_to_json(rs)) == repr(
                regions_to_json(rs_oracle))
            self._audit(cur, rs, rs_oracle)
            if n == insert_at:
                e = point(*gen.uniform(0.0, nb * w, 2), float(n), n)
                rs.insert_spawn(e)
                rs_oracle.insert_spawn(e)
                self._audit(cur, rs, rs_oracle)
            prev = cur

    @pytest.mark.parametrize("t_clock, t_ahead, event", [
        (0.5, 1.0, "contact"), (1.7, 1.9, "catch-up"), (19.5, 20.5, "vanish")])
    def test_snapshot_ahead_of_the_clock(self, t_clock, t_ahead, event):
        # the chain of TestOverlap at b = 0.2: between t_clock and t_ahead
        # comes one kind of event and no spawn
        cfg = small_cfg(r=1.0, c=0.05, b=0.2)
        rs, rs_oracle = RegionSet(cfg), UncachedRegionSet(cfg)
        spawns = [point(1.8 * k, 0.0, 0.0, 0, "I", (k, 0)) for k in range(3)]

        def counts():
            regs = rs.regions.values()
            return {"contact": len(regs),
                    "catch-up": sum(piece != R.start for R in regs
                                    for piece in R.pieces),
                    "vanish": sum(R.vanished_at is not None for R in regs)}

        for s in (rs, rs_oracle):
            s.evolve_to(t_clock, spawns=spawns)
        before = counts()
        rs.snapshot(t_ahead)
        for s in (rs, rs_oracle):
            s.evolve_to(t_ahead)
        after = counts()
        assert [k for k in after if after[k] != before[k]] == [event]
        self._same_snapshot(rs, rs_oracle, t_ahead)

    def test_spawn_inserted_between_audits_at_one_time(self):
        cfg = small_cfg(r=2.0, alpha=0.5)
        rs, rs_oracle = RegionSet(cfg), UncachedRegionSet(cfg)
        dens = np.full((8, 8), 0.9)
        dens[6, 1] = 0.2
        stats = mk_stats(dens, time=1)
        assert self._audit(stats, rs, rs_oracle).violations == [(6, 1)]
        w = cfg.box_side / cfg.L
        e = point(6.5 * w, 1.5 * w, 1.0, 1)
        rs.insert_spawn(e)
        rs_oracle.insert_spawn(e)
        assert self._audit(stats, rs, rs_oracle).violations == []


class TestContactRearm:
    """The pair loop re-arms a pair of regions that has come apart since
    it touched.  PruningRegionSet drops such pairs, and those of dead
    regions, in a scan of its own before each pass, and must evolve
    every region alike."""

    @staticmethod
    def _both(seed):
        """Four steps of 0-3 spawns each, in the square of half-side
        1.5 r about one centre, through both sets; the oracle's count of
        re-armed live pairs."""
        gen = seeded(seed)
        c = gen.uniform(0.2, 1.0)
        # b/c in [0.02, 0.3]: faster overlaps can pile up without end
        # (ROADMAP item 9)
        cfg = small_cfg(r=1.0, c=c, b=c * gen.uniform(0.02, 0.3),
                        directions=random_acute_normals(gen))
        steps = [[point(*gen.uniform(-1.5, 1.5, 2),
                        float(gen.uniform(n - 1, n)), n, "I", (k, n))
                  for k in range(int(gen.integers(0, 4)))]
                 for n in range(1, 5)]
        outcomes = []
        for rs in (RegionSet(cfg), PruningRegionSet(cfg)):
            err = None
            try:
                for n, spawns in enumerate(steps, 1):
                    rs.evolve_to(n, spawns=spawns)
            except RuntimeError as exc:  # an overlap cascade, alike
                err = str(exc)
            # the touched pairs of live regions that the last pass kept
            held = sorted(sorted(pair) for pair in rs.contacts
                          if all(rs.regions[i].vanished_at is None
                                 for i in pair))
            outcomes.append((err, repr(regions_to_json(rs)), held))
        assert outcomes[0] == outcomes[1]
        return rs.rearms

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_equal_to_pruning_oracle(self, seed):
        self._both(seed)

    def test_sets_of_this_kind_rearm_live_pairs(self):
        # so the comparison above covers the re-arm of live pairs
        assert all(self._both(seed) > 0 for seed in range(10))


class TestContainment:
    def setup_method(self):
        self.phi = synthetic_phi()
        self.cfg = small_cfg(r=2.0, alpha=self.phi.alpha)
        self.nb = 8

    def test_vacuous_when_no_bad_boxes(self):
        rs = RegionSet(self.cfg)
        stats = mk_stats(np.full((self.nb, self.nb), 0.9), time=1)
        rep = check_containment(stats, rs)
        assert not rep.violations and rep.n_bad == 0

    def test_bad_box_inside_triangle_contained(self):
        rs = RegionSet(self.cfg)
        w = self.cfg.box_side / self.cfg.L
        center = ((3 + 0.5) * w, (3 + 0.5) * w)
        rs.evolve_to(1.0, spawns=[point(center[0], center[1], 0.5, 1)])
        dens = np.full((self.nb, self.nb), 0.9)
        dens[3, 3] = 0.2
        rep = check_containment(mk_stats(dens, time=1), rs)
        assert rep.n_bad == 1 and not rep.violations

    def test_uncovered_bad_box_is_violation(self):
        rs = RegionSet(self.cfg)
        dens = np.full((self.nb, self.nb), 0.9)
        dens[6, 1] = 0.2
        rep = check_containment(mk_stats(dens, time=1), rs)
        assert rep.violations
        assert rep.violations == [(6, 1)]

    def test_union_containment_across_two_regions(self):
        # a box straddling two overlapping triangles is still covered
        cfg = small_cfg(r=1.2, alpha=0.5, c=0.01)
        rs = RegionSet(cfg)
        w = cfg.box_side / cfg.L
        cx, cy = (3 + 0.5) * w, (3 + 0.5) * w
        rs.evolve_to(1.0, spawns=[
            point(cx - 0.9, cy, 0.9, 1, "I", (0, 0)),
            point(cx + 0.9, cy, 0.9, 1, "I", (1, 0))])
        dens = np.full((8, 8), 0.9)
        dens[3, 3] = 0.2
        rep = check_containment(mk_stats(dens, time=1), rs)
        assert rep.n_bad == 1
        assert not rep.violations

    @pytest.mark.parametrize("L, gamma", [(50, 0.2),    # b = 23 against 15
                                          (100, 0.3)])  # L = 100 against 50
    def test_box_geometry_must_agree(self, L, gamma):
        rs = RegionSet(small_cfg(r=2.0, alpha=self.phi.alpha, L=50))
        stats = mk_stats(np.full((self.nb, self.nb), 0.2), L=L, gamma=gamma,
                         time=1)
        with pytest.raises(ValueError, match="box"):
            check_containment(stats, rs)


class TestErrorRateBound:
    def test_type_one_rate_over_bound(self, phi_main, square_spec, p_main):
        # Monte Carlo over 500 one-step probes from a near-equilibrium
        # state: the empirical type-I rate per box-step stays under the
        # Chebyshev bound (a loose over-bound at this scale)
        from qcp.kernel import discretize
        from qcp.lattice import box_stats, init, step

        L, gamma = 25, 0.3
        dk = discretize(square_spec, L)
        cfg = make_comparison_config(phi_main, dk, L, gamma)
        warm = LatticeRng(77)
        state = init(L, 80, 1.0, LatticeRng(0))
        cache = ProfileCache(phi_main)
        for _ in range(10):
            state, _ = step(state, dk, p_main, warm)
        prev = box_stats(state, gamma)
        count = 0
        boxes = prev.nb ** 2
        for seed in range(500):
            rng = LatticeRng(10_000 + seed)
            rng_pts = LatticeRng(20_000 + seed)
            nxt, _ = step(state, dk, p_main, rng)
            cur = box_stats(nxt, gamma)
            rs = RegionSet(cfg)
            errs = detect_errors(prev, cur, rs, cache, rng_pts)
            count += sum(1 for e in errs if e.type == "I")
        rate = count / (boxes * 500)
        sigma = np.sqrt(max(rate, 1.0 / (boxes * 500)) / (boxes * 500))
        assert rate <= min(1.0, cfg.error_rate_bound()) + 3 * sigma


class TestConfigAndSerialization:
    def test_make_config_from_phi(self, phi_main, dk8):
        cfg = make_comparison_config(phi_main, dk8, 200, 0.3)
        assert cfg.b == pytest.approx(2 * dk8.support_diameter)
        d_B = box_diameter(200, 0.3)
        assert cfg.r >= phi_main.l + d_B + cfg.c + cfg.d_k
        assert cfg.r == float(math.ceil(phi_main.l + d_B + cfg.c + cfg.d_k))
        assert 0 < cfg.delta1 < mf_step(phi_main.params, cfg.alpha) - cfg.alpha
        assert cfg.delta2 > 0
        assert cfg.error_rate_bound() > 0

    def test_bad_gamma(self, phi_main, dk8, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before gamma was checked")

        monkeypatch.setattr(comparison, "apply_Q_1d", refuse)
        with pytest.raises(ValueError, match="gamma"):
            make_comparison_config(phi_main, dk8, 200, 0.6)

    def test_evolve_back_in_time_rejected(self):
        cfg = small_cfg(r=2.0)
        rs = RegionSet(cfg)
        rs.evolve_to(5.0, spawns=[point(0.0, 0.0, 0.5, 1)])
        before = regions_to_json(rs)
        with pytest.raises(ValueError, match="back to"):
            rs.evolve_to(2.0)
        assert rs.horizon == 5.0
        assert regions_to_json(rs) == before

    def test_spawn_before_the_clock_rejected(self):
        # moved to the clock, the region would keep its past created_at,
        # and its vanish (at t = 3 here) would pass unseen
        cfg = small_cfg(r=1.0, c=0.5)
        rs = RegionSet(cfg)
        rs.evolve_to(5.0)
        with pytest.raises(ValueError, match="before the clock"):
            rs.evolve_to(6.0, spawns=[point(0.0, 0.0, 1.0, 2)])
        assert rs.horizon == 5.0 and not rs.regions

    def test_regions_to_json(self):
        cfg = small_cfg(r=2.0)
        rs = RegionSet(cfg)
        rs.evolve_to(1.0, spawns=[
            point(0.0, 0.0, 0.5, 1), point(0.5, 0.0, 0.5, 1, "I", (1, 0))])
        doc = regions_to_json(rs)
        assert len(doc) == 3
        assert {bool(d["parents"]) for d in doc} == {False, True}
        for d in doc:
            assert len(d["pieces"]) == 3
