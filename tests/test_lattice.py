import hashlib
import json
import os
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcp.ide import Field2D
from qcp.kernel import KernelSpec, discretize
from qcp.lattice import (BoxStats, LatticeState, _pass, box_side_sites,
                         box_stats, init, label_step, save_snapshot, step,
                         window_side)
from qcp.mean_field import Params
from qcp.rng import (PHASE_ATTEMPT, PHASE_DEATH, PHASE_INIT, PHASE_NEIGHBOR,
                     PHASE_OFFSET, LatticeRng, below, stream, unit, words)

from helpers import (corner_expectation, corner_step, coupling_discrepancy,
                     load_snapshot, step_coins, wrapped_parents)


def anchored_step(anchor, s, dk, p, rng):
    """lattice.step for the site anchor; corner_step at gamma 0.3 for the
    box corner."""
    if anchor == "site":
        return step(s, dk, p, rng)
    return corner_step(s, dk, p, rng, gamma=0.3)


class TestInit:
    def test_all_ones(self):
        s = init(10, 20, 1.0, LatticeRng(0))
        assert s.density() == 1.0
        assert s.side == 20

    def test_product_zero_empty(self):
        s = init(10, 20, 0.0, LatticeRng(1))
        assert s.density() == 0.0

    def test_product_density_clt(self):
        s = init(50, 200, 0.37, LatticeRng(2))
        n = s.side ** 2
        sigma = np.sqrt(0.37 * 0.63 / n)
        assert abs(s.density() - 0.37) < 4 * sigma

    def test_from_field_density(self):
        L, side = 100, 400
        u = Field2D(L, np.full((side, side), 0.5))
        s = init(L, side, u.values, LatticeRng(3))
        sigma = np.sqrt(0.25 / side ** 2)
        assert abs(s.density() - 0.5) < 4 * sigma

    @settings(max_examples=30, deadline=None)
    @given(side=st.integers(1, 40), seed=st.integers(0, 2 ** 64 - 1),
           as_array=st.booleans())
    def test_density_one_fills_and_zero_empties(self, side, seed, as_array):
        # a coin lies in [0, 1), so the ends of the interval are exact
        for density, want in ((1.0, 1), (0.0, 0)):
            if as_array:
                density = np.full((side, side), density)
            s = init(3, side, density, LatticeRng(seed))
            assert np.all(s.occ == want)

    def test_density_field_equals_coinwise_threshold(self):
        side = 30
        field = np.random.default_rng(4).random((side, side))
        s = init(5, side, field, LatticeRng(8))
        u = LatticeRng(8).stream(0, PHASE_INIT).random((side, side))
        assert np.array_equal(s.occ, (u < field).astype(np.uint8))
        assert np.array_equal(init(5, side, 0.4, LatticeRng(8)).occ,
                              (u < 0.4).astype(np.uint8))

    @pytest.mark.parametrize("W", [float("inf"), float("nan"), 1e308])
    def test_window_must_be_finite(self, W):
        with pytest.raises(ValueError, match="not finite"):
            window_side(W, 10)

    @pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
    def test_product_density_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="density must lie in"):
            init(10, 20, p, LatticeRng(1))

    @pytest.mark.parametrize("bad", [1.0 + 1e-12, -1e-300, float("nan"),
                                     float("inf")])
    def test_density_field_outside_unit_interval(self, bad):
        field = np.full((20, 20), 0.5)
        field[3, 7] = bad
        with pytest.raises(ValueError, match="density must lie in"):
            init(10, 20, field, LatticeRng(1))

    @pytest.mark.parametrize("shape", [(20,), (20, 21), (21, 20), (1, 1),
                                       (2, 20, 20)])
    def test_density_shape(self, shape):
        with pytest.raises(ValueError, match="density must be a number"):
            init(10, 20, np.full(shape, 0.5), LatticeRng(1))

    @pytest.mark.parametrize("shape", [(20,), (20, 21), (21, 20), (0, 3),
                                       (2, 20, 20), ()])
    def test_state_occupancy_must_be_square(self, shape):
        with pytest.raises(ValueError, match="square 2D grid"):
            LatticeState(10, np.zeros(shape, np.uint8))

    @pytest.mark.parametrize("side", [1, 7, 20])
    def test_state_side_is_grid_side(self, side):
        s = LatticeState(10, np.zeros((side, side), np.uint8), 3)
        assert (s.side, s.W, s.time) == (side, side / 10, 3)

    def test_product_determinism(self):
        a = init(20, 40, 0.4, LatticeRng(9))
        b = init(20, 40, 0.4, LatticeRng(9))
        assert np.array_equal(a.occ, b.occ)


class TestStep:
    def test_all_ones_deaths_only(self, dk8, p_main):
        s = init(8, 32, 1.0, LatticeRng(0))
        rng = LatticeRng(11)
        s1, rep = step(s, dk8, p_main, rng)
        n = s.side ** 2
        assert rep.births_attempted == 0
        sigma = np.sqrt(p_main.eta * (1 - p_main.eta) / n)
        assert abs(s1.density() - (1 - p_main.eta)) < 4 * sigma

    def test_single_site_cannot_give_birth(self, dk8):
        p = Params(1.0, 0.1)
        occ = np.zeros((32, 32), dtype=np.uint8)
        occ[16, 16] = 1  # the site at (2, 2)
        s = LatticeState(8, occ)
        rng = LatticeRng(12)
        total = s.occ.sum()
        for _ in range(20):
            s, rep = step(s, dk8, p, rng)
            assert rep.births == 0
            assert s.occ.sum() <= total
            total = s.occ.sum()

    def test_eta_one_kills_everything(self, dk8):
        s = init(8, 32, 1.0, LatticeRng(0))
        s1, _ = step(s, dk8, Params(0.8, 1.0), LatticeRng(13))
        assert s1.occ.sum() == 0

    def test_bit_identical_trajectories(self, dk8, p_main):
        def run(seed):
            rng = LatticeRng(seed)
            s = init(8, 32, 0.5, rng)
            for _ in range(10):
                s, _ = step(s, dk8, p_main, rng)
            return s.occ

        assert np.array_equal(run(77), run(77))
        assert not np.array_equal(run(77), run(78))

    def test_monotone_coupling(self, dk8, p_main):
        rng_a, rng_b = LatticeRng(21), LatticeRng(21)
        a = init(8, 32, 0.3, LatticeRng(1))
        extra = init(8, 32, 0.3, LatticeRng(2))
        b = LatticeState(8, (a.occ | extra.occ).astype(np.uint8))
        for _ in range(20):
            a, _ = step(a, dk8, p_main, rng_a)
            b, _ = step(b, dk8, p_main, rng_b)
            assert np.all(a.occ <= b.occ)

    def test_one_step_box_mean_matches_expectation(self, square_spec):
        # corner-anchored process: per-box mean over seeds against the
        # closed-form conditional expectation
        p = Params(1.0, 0.05)
        L, gamma, seeds = 50, 0.3, 60
        dk = discretize(square_spec, L)
        s0 = init(L, 150, 0.5, LatticeRng(5))
        expect = corner_expectation(s0, dk, p, gamma)
        acc = None
        for k in range(seeds):
            rng = LatticeRng(100 + k)
            s1, _ = corner_step(s0, dk, p, rng, gamma=gamma)
            st = box_stats(s1, gamma)
            acc = st.density() if acc is None else acc + st.density()
        mean = acc / seeds
        m = box_side_sites(L, gamma) ** 2
        bound_sigma = np.sqrt(1.0 / m) / np.sqrt(seeds)
        assert np.max(np.abs(mean - expect)) < 4 * bound_sigma

    def test_one_step_variance_bound(self, square_spec):
        p = Params(1.0, 0.05)
        L, gamma, seeds = 50, 0.3, 100
        dk = discretize(square_spec, L)
        s0 = init(L, 150, 0.5, LatticeRng(5))
        m = box_side_sites(L, gamma) ** 2
        samples = []
        for k in range(seeds):
            s1, _ = corner_step(s0, dk, p, LatticeRng(500 + k), gamma=gamma)
            samples.append(box_stats(s1, gamma).S)
        var = np.var(np.array(samples, dtype=float), axis=0, ddof=1)
        c_bound = max(1.0, p.beta ** 2)
        slack = 3.0 * np.sqrt(2.0 / (seeds - 1))
        assert np.all(var <= c_bound * m * (1.0 + slack))

    def test_chebyshev_over_bound(self, square_spec):
        # P(sup-box |S/m - E| >= delta) is at most C L^{2 gamma} /
        # (delta^2 L^{2-2gamma}); check the empirical frequency under it
        p = Params(1.0, 0.05)
        L, gamma, seeds, delta = 50, 0.3, 60, 0.1
        dk = discretize(square_spec, L)
        s0 = init(L, 150, 0.5, LatticeRng(5))
        m = box_side_sites(L, gamma) ** 2
        expect = corner_expectation(s0, dk, p, gamma)
        hits = 0
        for k in range(seeds):
            rng = LatticeRng(900 + k)
            s1, _ = corner_step(s0, dk, p, rng, gamma=gamma)
            dens = box_stats(s1, gamma).density()
            if np.max(np.abs(dens - expect)) >= delta:
                hits += 1
        nb = box_stats(s0, gamma).nb
        bound = max(1.0, p.beta ** 2) * nb * nb / (delta ** 2 * m)
        assert hits / seeds <= min(1.0, bound)


class TestCoins:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 2 ** 40),
           side=st.integers(1, 20), order_seed=st.integers(0, 2 ** 32 - 1))
    def test_equal_fresh_streams(self, seed, n, side, order_seed):
        # the words of three steps, over every site and over a random
        # range of sites, taken in a random interleaving, each have the
        # bits of those sites of a fresh stream of their (step, phase),
        # and their units the bits of its coins
        rng = LatticeRng(seed)
        sites = side * side
        gen = np.random.default_rng(order_seed)
        phases = (PHASE_ATTEMPT, PHASE_OFFSET, PHASE_NEIGHBOR, PHASE_DEATH)
        draws = [(t, ph, whole) for t in (n, n + 1, n + 9) for ph in phases
                 for whole in (True, False)]
        for k in gen.permutation(len(draws)).tolist():
            t, ph, whole = draws[k]
            a = 0 if whole else 4 * int(gen.integers(0, sites // 4 + 1))
            b = sites if whole else int(gen.integers(a, sites + 1))
            want = rng.stream(t, ph).bit_generator.random_raw(sites)[a:b]
            coins = rng.stream(t, ph).random(sites)[a:b]
            got = words(seed, t, ph, a, b)
            assert got.shape == (b - a,) and got.dtype == np.uint64
            assert got.tobytes() == want.tobytes()
            assert unit(got).tobytes() == coins.tobytes()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), n=st.integers(0, 2 ** 40),
           side=st.integers(1, 64), range_seed=st.integers(0, 2 ** 32 - 1))
    def test_equal_fresh_streams_across_threads(self, seed, n, side,
                                                range_seed):
        # two threads draw at once, each a range of every (step, phase)
        # in turn, and read their draw only after the other thread has
        # drawn: each has the bits of its sites of a fresh stream, as
        # words and as coins
        rng = LatticeRng(seed)
        sites = side * side
        gen = np.random.default_rng(range_seed)
        phases = (PHASE_ATTEMPT, PHASE_OFFSET, PHASE_NEIGHBOR, PHASE_DEATH)
        jobs = [[], []]
        for t in range(n, n + 6):
            for ph in phases:
                for me in (0, 1):
                    a = 4 * int(gen.integers(0, sites // 4 + 1))
                    b = int(gen.integers(a, sites + 1))
                    want = (rng.stream(t, ph).bit_generator
                            .random_raw(sites)[a:b].tobytes(),
                            rng.stream(t, ph).random(sites)[a:b].tobytes())
                    jobs[me].append((t, ph, a, b, want))
        barrier = threading.Barrier(2, timeout=30)
        mismatches, done = [], []

        def worker(me):
            for t, ph, a, b, want in jobs[me]:
                got = words(seed, t, ph, a, b)
                barrier.wait()
                if (got.tobytes(), unit(got).tobytes()) != want:
                    mismatches.append((me, t, ph, a, b))
                barrier.wait()
            done.append(me)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(me,))
                       for me in (0, 1)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert sorted(done) == [0, 1]
        assert mismatches == []

    def test_far_range_equals_advanced_stream(self):
        # a counter past 2^32 blocks: the ranged draw and init's advanced
        # stream both start there
        a = 4 * (2 ** 40 + 3)
        gen = LatticeRng(5).stream(0, PHASE_INIT)
        gen.bit_generator.advance(a // 4)
        assert (unit(words(5, 0, PHASE_INIT, a, a + 9)).tobytes()
                == gen.random(9).tobytes())

    @pytest.mark.parametrize("a,b", [(1, 8), (6, 8), (-4, 8), (8, 4)])
    def test_range_must_start_on_a_block(self, a, b):
        with pytest.raises(ValueError, match="multiple of 4"):
            words(1, 1, PHASE_ATTEMPT, a, b)

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.0, 1.0), key=st.integers(0, 2 ** 64 - 1))
    @example(p=0.0, key=1)
    @example(p=5e-324, key=2)
    @example(p=1e-300, key=3)
    @example(p=2.0 ** -53, key=4)
    @example(p=0.05, key=5)
    @example(p=0.5, key=6)
    @example(p=1.0 - 2.0 ** -53, key=7)
    @example(p=1.0, key=8)
    def test_decided_on_words(self, p, key):
        # a coin lies below p exactly when its word lies below below(p),
        # and its neighbour index floor(4 coin) is the word's top two
        # bits: on 10^4 words of a stream, the extreme words and the
        # words at the bound and beside it
        w = words(key, 3, PHASE_DEATH, 0, 10 ** 4)
        bound = below(p)
        edges = [0, 2 ** 64 - 1] + [min(max(bound + d, 0), 2 ** 64 - 1)
                                    for d in (-2049, -2048, -1, 0, 1, 2047)]
        w = np.concatenate([w, np.array(edges, np.uint64)])
        coin = unit(w)
        assert np.array_equal(w < bound, coin < p)
        assert np.array_equal(w >> 62, np.floor(4 * coin).astype(np.uint64))

    # a seed is one 64-bit key word: masked, 2**64 + 1 would run seed 1
    # and -1 would run 2**64 - 1
    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seeds"):
            LatticeRng(seed)
        with pytest.raises(ValueError, match="seeds"):
            stream(seed, 0, PHASE_ATTEMPT)
        with pytest.raises(ValueError, match="seeds"):
            words(seed, 0, PHASE_ATTEMPT, 0, 4)


class TestCoinGenerator:
    def test_one_philox_and_no_entropy_per_thread(self, square_spec,
                                                  monkeypatch):
        # 50 steps and 50 label steps on a fresh thread build at most
        # the thread's one Philox and read no OS entropy
        dk = discretize(square_spec, 4)
        s = LatticeState(4, np.random.default_rng(1).random((12, 12)) < 0.5)
        B = np.where(s.occ.astype(bool), -np.inf, np.inf)
        built, reads = [], []
        philox, urandom = np.random.Philox, random._urandom

        def counting_philox(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        def counting_urandom(size):
            reads.append(size)
            return urandom(size)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(random, "_urandom", counting_urandom)
        monkeypatch.setattr(os, "urandom", counting_urandom)

        def run():
            nonlocal s, B
            rng = LatticeRng(7)
            for n in range(50):
                s, _ = step(s, dk, Params(0.8, 0.1), rng)
                B = label_step(B, n, dk, 0.1, rng)

        th = threading.Thread(target=run)
        th.start()
        th.join(timeout=60)
        assert not th.is_alive()
        assert s.time == 50
        assert len(built) <= 1
        assert reads == []


class TestParents:
    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 12), L=st.integers(1, 6),
           seed=st.integers(0, 2 ** 63 - 1), time=st.integers(0, 10 ** 6))
    def test_equal_wrapped_reference(self, square_spec, side, L, seed, time):
        # a pass over a grid of site numbers reads, at every site, the
        # parents that %-wrapping the offset and the neighbour step on
        # fresh streams' coins reaches, also where the kernel reaches
        # past the whole torus
        dk = discretize(square_spec, L)
        rng = LatticeRng(seed)
        sites = np.arange(side * side).reshape(side, side)
        got = _pass(sites, dk, rng, time + 1,
                    lambda lo, hi, words, parents:
                    parents(np.arange(hi - lo)))
        y, z = (np.concatenate(a) for a in zip(*got))
        _, u_off, u_nbr, _ = step_coins(rng, time + 1, side)
        i, j = np.indices((side, side)).reshape(2, -1)
        want = wrapped_parents(dk, side, i, j, u_off.ravel(), u_nbr.ravel())
        assert np.array_equal(y, want[0])
        assert np.array_equal(z, want[1])


class TestGoldenTrajectories:
    """sha256 of occ.tobytes() after three steps from a product start
    at density 1/2, recorded before the kernel layer was vectorised."""

    @pytest.mark.parametrize("spec,L,W,seed,anchor,digest", [
        (("uniform-square", {"radius": 1.0}), 10, 2, 3, "site",
         "6ec6cb9077558c7ee6d84089f6e0c8eda7e399c1b1e70829dae73e7c63ac6b61"),
        (("uniform-square", {"radius": 1.0}), 50, 2, 5, "site",
         "17ac6b95f9b5c11963680170b3f297115fb693e92912855b4ad53a1cd00e8428"),
        (("truncated-gaussian", {"sigma": 0.5, "cutoff": 1.0}), 50, 1, 8,
         "box_corner",
         "d5bb41d5623d74cb75a046d7cf00be7cbac77c0c5f9cf12373ca92113aaca253"),
        (("uniform-square", {"radius": 1.0}), 200, 1, 9, "site",
         "5bdc80b6da15973a519f229da3a7f234e0138966546a5d6b395891e0897ee80d"),
    ])
    def test_occupancy_unchanged(self, spec, L, W, seed, anchor, digest,
                                 p_main):
        dk = discretize(KernelSpec(*spec), L)
        rng = LatticeRng(seed)
        s = init(L, window_side(W, L), 0.5, rng)
        for _ in range(3):
            s, _ = anchored_step(anchor, s, dk, p_main, rng)
        assert hashlib.sha256(s.occ.tobytes()).hexdigest() == digest


def full_site_label_step(B, time, dk, eta, rng):
    """label_step with parents drawn at every site and wrapped by %."""
    side = B.shape[0]
    u_att, u_off, u_nbr, u_die = step_coins(rng, time + 1, side)
    i, j = np.indices((side, side)).reshape(2, -1)
    y, z = wrapped_parents(dk, side, i, j, u_off.ravel(), u_nbr.ravel())
    flat = B.ravel()
    born = np.maximum(flat[y], flat[z]).reshape(side, side)
    out = np.minimum(B, np.maximum(u_att, born))
    out[u_die < eta] = np.inf
    return out


class TestMonotoneCoupling:
    """Same-seed steps are monotone in beta and in the initial state."""

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 12), L=st.integers(1, 6),
           anchor=st.sampled_from(["site", "box_corner"]),
           occ_seed=st.integers(0, 2 ** 32 - 1),
           densities=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           betas=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           seed=st.integers(0, 2 ** 63 - 1), time=st.integers(0, 10 ** 6),
           eta=st.floats(0.0, 1.0), steps=st.integers(1, 3))
    def test_monotone(self, square_spec, side, L, anchor, occ_seed,
                      densities, betas, seed, time, eta, steps):
        # A at beta1 must stay inside A at beta2 and inside B at beta1,
        # for A inside B and beta1 <= beta2
        dk = discretize(square_spec, L)
        d_a, d_b = sorted(densities)
        beta1, beta2 = sorted(betas)
        u = np.random.default_rng(occ_seed).random((side, side))
        a = LatticeState(L, u < d_a, time)
        runs = {"a1": (a, beta1), "a2": (a, beta2),
                "b1": (LatticeState(L, u < d_b, time), beta1)}
        rng = LatticeRng(seed)
        for _ in range(steps):
            runs = {k: (anchored_step(anchor, s, dk, Params(beta, eta),
                                      rng)[0], beta)
                    for k, (s, beta) in runs.items()}
            inner = runs["a1"][0].occ.astype(bool)
            for outer in ("a2", "b1"):
                assert not np.any(inner & ~runs[outer][0].occ.astype(bool))


class TestStepReport:
    """The counters of a step against its coins and occupancies."""

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 12), L=st.integers(1, 6),
           anchor=st.sampled_from(["site", "box_corner"]),
           occ_seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 63 - 1), time=st.integers(0, 10 ** 6),
           beta=st.floats(0.0, 1.0), eta=st.floats(0.0, 1.0),
           steps=st.integers(1, 3))
    # at beta = 1 the step draws no attempt coins: every coin is below it
    @example(side=12, L=2, anchor="site", occ_seed=3, density=0.5, seed=7,
             time=0, beta=1.0, eta=0.1, steps=3)
    def test_counters(self, square_spec, side, L, anchor, occ_seed, density,
                      seed, time, beta, eta, steps):
        dk = discretize(square_spec, L)
        u = np.random.default_rng(occ_seed).random((side, side))
        s = LatticeState(L, u < density, time)
        rng = LatticeRng(seed)
        for _ in range(steps):
            s1, rep = anchored_step(anchor, s, dk, Params(beta, eta), rng)
            u_att = step_coins(rng, s.time + 1, side)[0]
            vacant = s.occ == 0
            assert rep.births_attempted == int(np.sum(vacant & (u_att < beta)))
            assert 0 <= rep.births <= rep.births_attempted
            assert 0 <= rep.deaths
            assert (int(s1.occ.sum())
                    == int(s.occ.sum()) + rep.births - rep.deaths)
            s = s1


class TestLabelStep:
    """Thresholding the label field at beta gives the beta run."""

    @settings(max_examples=50, deadline=None)
    @given(side=st.integers(1, 12), L=st.integers(1, 6),
           occ_seed=st.integers(0, 2 ** 32 - 1),
           density=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 63 - 1),
           time=st.integers(0, 10 ** 6), beta=st.floats(0.0, 1.0),
           eta=st.floats(0.0, 1.0), steps=st.integers(1, 4))
    @example(side=12, L=2, occ_seed=3, density=0.5, seed=7, time=0,
             beta=1.0, eta=0.1, steps=4)
    def test_threshold_equals_step(self, square_spec, side, L, occ_seed,
                                   density, seed, time, beta, eta, steps):
        dk = discretize(square_spec, L)
        gen = np.random.default_rng(occ_seed)
        s = LatticeState(L, gen.random((side, side)) < density, time)
        B = np.where(s.occ.astype(bool), -np.inf, np.inf)
        rng = LatticeRng(seed)
        for n in range(time, time + steps):
            s, _ = step(s, dk, Params(beta, eta), rng)
            B = label_step(B, n, dk, eta, rng)
            assert np.array_equal(B < beta, s.occ.astype(bool))

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 12), L=st.integers(1, 6),
           field_seed=st.integers(0, 2 ** 32 - 1),
           seed=st.integers(0, 2 ** 63 - 1), time=st.integers(0, 10 ** 6),
           eta=st.floats(0.0, 1.0), steps=st.integers(1, 3))
    def test_equals_full_site_oracle(self, square_spec, side, L, field_seed,
                                     seed, time, eta, steps):
        # labels of every kind: -inf, +inf, values in [0, 1] with both
        # ends, and labels equal to the site's own attempt coin
        dk = discretize(square_spec, L)
        rng = LatticeRng(seed)
        gen = np.random.default_rng(field_seed)
        kind = gen.integers(0, 6, (side, side))
        choices = [np.full((side, side), -np.inf),
                   np.full((side, side), np.inf),
                   gen.random((side, side)), np.zeros((side, side)),
                   np.ones((side, side)),
                   step_coins(rng, time + 1, side)[0]]
        B = np.choose(kind, choices)
        for n in range(time, time + steps):
            want = full_site_label_step(B, n, dk, eta, rng)
            B = label_step(B, n, dk, eta, rng)
            assert np.array_equal(B, want)
            assert B.dtype == want.dtype


class TestBoxStats:
    def test_full_box_counts(self):
        # oracle: enumerate zeta over a fully occupied small box
        L, gamma = 16, 0.3
        b = box_side_sites(L, gamma)
        s = init(L, 4 * b, 1.0, LatticeRng(0))
        st = box_stats(s, gamma)
        assert np.all(st.S == b * b)
        zeta = 0.0
        for i in range(b - 1):
            for j in range(b - 1):
                zeta += 0.5 * (1 + 1)
        assert np.all(st.R == zeta)
        assert zeta == (b - 1) ** 2

    def test_single_pair_pattern(self):
        L, gamma = 16, 0.3
        b = box_side_sites(L, gamma)
        occ = np.zeros((2 * b, 2 * b), dtype=np.uint8)
        occ[1, 1] = 1
        occ[2, 1] = 1  # neighbor in +e1
        st = box_stats(LatticeState(L, occ), gamma)
        assert st.S[0, 0] == 2
        assert st.R[0, 0] == 0.5
        assert st.R.sum() == 0.5

    def test_empty_state(self):
        s = init(16, 32, 0.0, LatticeRng(1))
        st = box_stats(s, 0.3)
        assert np.all(st.S == 0) and np.all(st.R == 0)

    def test_gamma_validated(self):
        s = init(16, 32, 1.0, LatticeRng(0))
        for g in (0.0, 0.5, 0.7):
            with pytest.raises(ValueError):
                box_stats(s, g)

    @settings(max_examples=40, deadline=None)
    @given(L=st.integers(1, 40), side=st.integers(1, 60),
           gamma=st.floats(0.05, 0.45),
           fill=st.sampled_from(["random", "ones", "empty"]),
           occ_seed=st.integers(0, 2 ** 32 - 1))
    @example(L=16, side=37, gamma=0.3, fill="random", occ_seed=1)
    @example(L=1, side=9, gamma=0.3, fill="random", occ_seed=2)
    @example(L=16, side=40, gamma=0.3, fill="ones", occ_seed=3)
    @example(L=16, side=40, gamma=0.3, fill="empty", occ_seed=4)
    def test_equals_box_loop(self, L, side, gamma, fill, occ_seed):
        # oracle: every box's sites and interior pairs, one at a time,
        # also with a remainder strip and at b = 1
        b = box_side_sites(L, gamma)
        occ = {"random": np.random.default_rng(occ_seed).random(
                   (side, side)) < 0.5,
               "ones": np.ones((side, side)),
               "empty": np.zeros((side, side))}[fill].astype(np.uint8)
        s = LatticeState(L, occ, time=3)
        nb = side // b
        if nb < 1:
            with pytest.raises(ValueError, match="smaller than one box"):
                box_stats(s, gamma)
            return
        S = np.zeros((nb, nb), np.int64)
        R = np.zeros((nb, nb))
        for bi in range(nb):
            for bj in range(nb):
                for i in range(bi * b, bi * b + b):
                    for j in range(bj * b, bj * b + b):
                        S[bi, bj] += occ[i, j]
                        if i % b < b - 1 and j % b < b - 1:
                            R[bi, bj] += 0.5 * occ[i, j] * (
                                int(occ[i + 1, j]) + int(occ[i, j + 1]))
        st = box_stats(s, gamma)
        assert (st.b, st.nb, st.time) == (b, nb, 3)
        for got, want in ((st.S, S), (st.R, R)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    def test_r_at_most_s(self):
        s = init(20, 60, 0.6, LatticeRng(8))
        st = box_stats(s, 0.3)
        assert np.all(st.R <= st.S)
        assert 0 < st.m == st.b ** 2


class TestCouplingDiscrepancy:
    def test_point_mass_at_unit_resolution(self, point_mass_spec, p_main):
        # L=1 makes every site its own box corner, so the two kernels
        # coincide exactly
        dk = discretize(point_mass_spec, 1)
        s0 = init(1, 30, 0.5, LatticeRng(3))
        assert coupling_discrepancy(s0, dk, p_main, [4, 5], gamma=0.3) == 0.0

    def test_eta_one_no_discrepancy(self, square_spec):
        dk = discretize(square_spec, 10)
        s0 = init(10, 40, 0.5, LatticeRng(3))
        assert coupling_discrepancy(s0, dk, Params(1.0, 1.0), [4],
                                    gamma=0.3) == 0.0

    def test_fixed_seed_value(self, square_spec):
        # pins every coin of the coupled step: the value was recorded
        # before the coupling phases got names in rng
        dk = discretize(square_spec, 10)
        s0 = init(10, 20, 0.4, LatticeRng(2))
        assert coupling_discrepancy(s0, dk, Params(0.8, 0.1), [21, 22],
                                    gamma=0.3) == 0.0225

    def test_decreases_with_l(self, square_spec, p_main):
        vals = []
        for L in (50, 100, 200):
            dk = discretize(square_spec, L)
            s0 = init(L, 2 * L, 0.5, LatticeRng(3))
            vals.append(coupling_discrepancy(s0, dk, p_main, [11, 12],
                                             gamma=0.3))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] > 0.0


class TestSnapshots:
    def test_round_trip(self, p_main, tmp_path):
        s = init(12, 36, 0.4, LatticeRng(6))
        s.time = 17
        path = tmp_path / "snap.json"
        save_snapshot(s, path, seed=6, params=p_main)
        back = load_snapshot(path)
        assert back.L == s.L and back.side == s.side and back.time == 17
        assert np.array_equal(back.occ, s.occ)

    @settings(max_examples=60, deadline=None)
    @given(side=st.integers(1, 16), L=st.integers(1, 8),
           fill=st.sampled_from(["zeros", "ones", "random"]),
           occ_seed=st.integers(0, 2 ** 32 - 1), density=st.floats(0.0, 1.0),
           time=st.integers(0, 10 ** 9))
    def test_round_trip_property(self, tmp_path_factory, side, L, fill,
                                 occ_seed, density, time):
        if fill == "random":
            occ = np.random.default_rng(occ_seed).random((side, side)) < density
        else:
            occ = np.full((side, side), fill == "ones")
        s = LatticeState(L, occ, time)
        path = tmp_path_factory.mktemp("snap") / "snap.json"
        save_snapshot(s, path, seed=occ_seed, params=Params(1.0, 0.05))
        back = load_snapshot(path)
        assert (back.L, back.side, back.time) == (L, side, time)
        assert back.W == s.W
        assert back.occ.dtype == np.uint8
        assert np.array_equal(back.occ, s.occ)

    @pytest.mark.parametrize("side, header, rle", [
        (8, {}, [10]),                      # covers 10 of 64 sites
        (8, {}, [100, 3]),                  # runs past the grid
        (8, {}, [70, -6]),                  # negative run
        (8, {}, [32.5, 31.5]),              # not integers
        (8, {}, [True, 63]),                # a bool is no run length
        (8, {"first_bit": 7}, [64]),
        (8, {"first_bit": None}, [64]),
        (8, {"n": -5}, [64]),
        (8, {"n": 1.5}, [64]),
        (8, {"L": 0}, [64]),
        (0, {}, []),
        (-2, {}, [4]),
        (2, {}, "4"),
    ])
    def test_malformed_snapshot_rejected(self, tmp_path, side, header, rle):
        head = {"L": 4, "W": 2.0, "side": side, "n": 3, "first_bit": 0,
                **header}
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"header": head, "rle": rle}))
        with pytest.raises(ValueError):
            load_snapshot(path)
