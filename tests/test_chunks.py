"""Large-grid passes cut into chunks across threads give the bits of
one whole-grid pass, whatever the worker count and the chunk size; the
process map gives the results of a loop, whatever the worker count."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qcp
from qcp import chunks, experiments, ide, lattice, wavespeed
from qcp.ide import Field2D
from qcp.kernel import discretize, marginal_1d
from qcp.mean_field import Params
from qcp.rng import LatticeRng
from qcp.wavespeed import SpeedIndeterminate

# (workers, sites per chunk): every worker count cuts the same chunks,
# which 1 worker runs inline and in order
CHUNKINGS = [(w, c) for w in (1, 2, 3) for c in (4, 12, 1 << 16)]
IDS = [f"{w}workers-chunk{c}" for w, c in CHUNKINGS]
# 83 is not a multiple of 4, so chunks of 12 sites cross rows; 150^2
# sites fit in one chunk of 2^16
SIDES = (83, 150)


@pytest.fixture
def chunked(monkeypatch, request):
    """Run with the (workers, chunk) of the test's parameter, on a pool
    of its own that is shut down afterwards."""
    workers, size = request.param
    monkeypatch.setattr(chunks, "WORKERS", workers)
    monkeypatch.setattr(chunks, "CHUNK", size)
    monkeypatch.setattr(chunks, "_pool", None)
    yield workers, size
    if chunks._pool is not None:
        chunks._pool.shutdown()


def whole(fn, *args):
    """fn(*args) with one worker and chunks larger than any grid: every
    pass is one inline chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chunks, "WORKERS", 1)
        mp.setattr(chunks, "CHUNK", 1 << 62)
        return fn(*args)


@pytest.fixture(scope="module")
def dk10(square_spec):
    # reach 10: parents lie up to 11 rows away, in other chunks
    return discretize(square_spec, 10)


@pytest.mark.parametrize("chunked", CHUNKINGS, indirect=True, ids=IDS)
@pytest.mark.parametrize("side", SIDES)
class TestLatticeBits:
    def test_init(self, chunked, side):
        field = np.random.default_rng(side).random((side, side))
        for density in (0.3, field):
            got = lattice.init(10, side, density, LatticeRng(4))
            want = whole(lattice.init, 10, side, density, LatticeRng(4))
            assert got.occ.tobytes() == want.occ.tobytes()

    def test_step(self, chunked, side, dk10):
        rng = LatticeRng(11)
        s = whole(lattice.init, 10, side, 0.4, rng)
        for p in (Params(0.9, 0.1), Params(0.3, 0.6)):
            got, got_rep = lattice.step(s, dk10, p, rng)
            want, want_rep = whole(lattice.step, s, dk10, p, rng)
            assert got.occ.tobytes() == want.occ.tobytes()
            assert got_rep == want_rep
            assert got.time == want.time
            s = got

    def test_label_step(self, chunked, side, dk10):
        gen = np.random.default_rng(side)
        kind = gen.integers(0, 4, (side, side))
        B = np.choose(kind, [np.full((side, side), -np.inf),
                             np.full((side, side), np.inf),
                             gen.random((side, side)),
                             np.zeros((side, side))])
        rng = LatticeRng(12)
        for n in (0, 1):
            got = lattice.label_step(B, n, dk10, 0.1, rng)
            want = whole(lattice.label_step, B, n, dk10, 0.1, rng)
            assert got.tobytes() == want.tobytes()
            B = got


@pytest.mark.parametrize("chunked", CHUNKINGS, indirect=True, ids=IDS)
@pytest.mark.parametrize("shape", [(83, 83), (150, 150), (83, 150)])
def test_periodic_correlate_equals_numpy_fft(chunked, shape, dk10, p_main,
                                             monkeypatch):
    # apply_Q_2d's FFT path, on the field's torus or, clamped, on the
    # field padded by the kernel radius with the clamp value: numpy's
    # whole-grid periodic correlation of the square, cropped to the
    # window, then the image
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    vals = np.random.default_rng(sum(shape)).random(shape)
    for clamp in (None, 0.0, 0.3):
        if clamp is None:
            u, r, padded = Field2D(10, vals), 0, vals
        else:
            u = Field2D(10, vals, clamp)
            r = dk10.reach
            padded = np.pad(vals, r, constant_values=clamp)
        nx, ny = padded.shape
        kern = np.zeros(padded.shape)
        np.add.at(kern, (dk10.offsets[:, 0] % nx, dk10.offsets[:, 1] % ny),
                  dk10.masses)
        conv = np.fft.irfft2(np.fft.rfft2(padded * padded)
                             * np.fft.rfft2(kern), s=padded.shape)
        want = ide._image(vals, conv[r:nx - r, r:ny - r], p_main)
        got = ide.apply_Q_2d(u, dk10, p_main)
        assert got.values.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunked", [(3, 12)], indirect=True)
def test_evolve_reuses_the_chunked_spectrum(chunked, dk10, p_main,
                                            monkeypatch):
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    u = Field2D(10, np.random.default_rng(3).random((83, 83)))
    got = ide.evolve(u, dk10, p_main, 3, taps=range(4))
    want = whole(ide.evolve, u, dk10, p_main, 3, range(4))
    assert list(got) == list(want) == [0, 1, 2, 3]
    for g, w in zip(got.values(), want.values()):
        assert g.values.tobytes() == w.values.tobytes()


@pytest.mark.parametrize("chunked", CHUNKINGS, indirect=True, ids=IDS)
@pytest.mark.parametrize("taps", [None, [0, 2, 5]])
@pytest.mark.parametrize("threshold", [0, 10 ** 9], ids=["fft", "direct"])
def test_evolve_in_place_keeps_inputs_and_taps(chunked, taps, threshold,
                                              dk10, p_main, monkeypatch):
    # steps between the taps overwrite the field before them; the
    # caller's field and every returned tap keep the apply_Q_2d chain
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", threshold)
    u = Field2D(10, np.random.default_rng(4).random((83, 83)))
    before = u.values.tobytes()
    got = ide.evolve(u, dk10, p_main, 5, taps=taps)
    assert u.values.tobytes() == before
    chain = [u]
    for _ in range(5):
        chain.append(ide.apply_Q_2d(chain[-1], dk10, p_main))
    want = {t: chain[t] for t in ([5] if taps is None else taps)}
    assert list(got) == list(want)
    for t, g in got.items():
        assert g.values.tobytes() == want[t].values.tobytes()
    assert len({id(g.values) for g in got.values()}
               | {id(u.values)}) == len(got) + 1


@pytest.mark.parametrize("chunked", [(2, 1 << 12), (1, 1 << 12)],
                         indirect=True)
def test_evolve_holds_at_most_four_grids(chunked, dk8, p_main, monkeypatch):
    # the field in progress, its half spectrum and the kernel's: three
    # grids above the input (3.2 measured at 512^2), plus band buffers
    # of about CHUNK sites per worker
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    n = 512
    u = Field2D(8, np.random.default_rng(5).random((n, n)))
    ide.evolve(u, dk8, p_main, 1)     # starts the pool outside the trace
    tracemalloc.start()
    try:
        ide.evolve(u, dk8, p_main, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8


@pytest.mark.parametrize("chunked", [(2, 1 << 12), (1, 1 << 12)],
                         indirect=True)
def test_hydro_from_a_constant_holds_three_grids(chunked, square_spec,
                                                 monkeypatch):
    # a constant start is a broadcast view and the sampling tables wait
    # for the first lattice step, so the FFT steps hold the field in
    # progress, its half spectrum and the kernel's (3.1 grids measured
    # at 512^2): no start grid, plus band buffers of CHUNK sites
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    n = 512
    cfg = experiments.ExperimentConfig(L_list=(8,), W=n / 8, steps=2,
                                       seeds=(1,), kernel=square_spec)
    experiments.hydro_convergence(cfg, 0.5)     # starts the pool
    tracemalloc.start()
    try:
        experiments.hydro_convergence(cfg, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dk = discretize(square_spec, 8)
    bands = 8 * chunks.CHUNK * 16
    assert peak <= 3 * n * n * 8 + dk.offsets.nbytes + dk.masses.nbytes \
        + bands


@pytest.mark.parametrize("chunked", [(1, 1 << 12)], indirect=True)
def test_one_worker_step_makes_no_lattice_of_coins(chunked, dk10, p_main):
    # the padded copy, the new occupancy and the old one as bools: about
    # 3 B per site, plus coins and parents of one chunk at a time
    side = 256
    rng = LatticeRng(6)
    s = lattice.init(10, side, 0.4, rng)
    lattice.step(s, dk10, p_main, rng)    # sizes the thread's coin buffer
    tracemalloc.start()
    try:
        lattice.step(s, dk10, p_main, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < side * side * 8


def _run_seed(seed, dk, p):
    # three lattice steps of seed, on whichever process the map picks
    rng = LatticeRng(seed)
    s = lattice.init(10, 83, 0.5, rng)
    for _ in range(3):
        s, _ = lattice.step(s, dk, p, rng)
    return s.occ.tobytes()


@pytest.mark.parametrize("chunked", [(2, 12)], indirect=True)
def test_seed_processes_cut_their_steps(chunked, dk10, p_main):
    # seeds run at once on the caller and a worker process, each cutting
    # its steps into chunks of 12 sites (a fork inherits CHUNK), give the
    # bits of seeds run in turn
    tasks = [(seed, dk10, p_main) for seed in range(5)]
    got = chunks.map_processes(_run_seed, tasks)
    assert got == whole(lambda: [_run_seed(*t) for t in tasks])


@pytest.mark.parametrize("chunked", [(1, 4), (2, 4), (3, 12), (3, 1 << 16)],
                         indirect=True)
@pytest.mark.parametrize("n,width", [(0, 1), (1, 1), (83 * 83, 1),
                                     (150, 150), (76, 83), (42, 1 << 20)])
def test_ranges_tile_the_lines_in_order(chunked, n, width, monkeypatch):
    # the layout depends on the chunk size only: the pool's workers cut
    # the lines as one worker does inline
    _, size = chunked
    ranges = chunks.run(lambda a, b: (a, b), n, width)
    with monkeypatch.context() as mp:
        mp.setattr(chunks, "WORKERS", 1)
        assert chunks.run(lambda a, b: (a, b), n, width) == ranges
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    assert all(b == c for (_, b), (c, _) in zip(ranges, ranges[1:]))
    if n * width <= size:
        assert ranges == [(0, n)]
    else:
        # every chunk starts on a multiple of its line count, so a site
        # chunk starts on a Philox block of four sites
        lines = max(1, size // width)
        assert [a for a, _ in ranges] == list(range(0, n, lines))


def test_import_starts_no_thread():
    # nor loads the process map's modules
    code = ("import sys, threading, qcp, qcp.chunks; "
            "assert threading.active_count() == 1; "
            "assert qcp.chunks._pool is None; "
            "assert 'multiprocessing' not in sys.modules; "
            "assert 'concurrent.futures' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(qcp.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_pool_threads_at_most_the_worker_count(dk10, p_main, monkeypatch):
    # the module's own pool, at its own worker count, given many chunks
    monkeypatch.setattr(chunks, "CHUNK", 4)
    rng = LatticeRng(2)
    s = lattice.init(10, 83, 0.5, rng)
    lattice.step(s, dk10, p_main, rng)
    pool = [t for t in threading.enumerate()
            if t.name.startswith("qcp-chunk")]
    assert chunks.WORKERS == min(chunks._cores(), 8)
    assert len(pool) <= chunks.WORKERS
    assert bool(pool) == (chunks.WORKERS > 1)


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_process_map_returns_results_in_task_order(workers, monkeypatch):
    # with share = min(workers, 5) the caller runs tasks 0, share,
    # 2 share, ... and at most share - 1 worker processes the rest, or
    # the caller all of them with one worker
    monkeypatch.setattr(chunks, "WORKERS", workers)
    tasks = [(7, 2), (9, 4), (5, 5), (11, 3), (8, 3)]
    assert chunks.map_processes(divmod, tasks) == [divmod(*t) for t in tasks]
    pids = chunks.map_processes(os.getpid, [()] * 5)
    share = min(workers, 5)
    mine = [i for i, pid in enumerate(pids) if pid == os.getpid()]
    assert mine == list(range(0, 5, share))
    assert len(set(pids) - {os.getpid()}) <= share - 1
    assert multiprocessing.active_children() == []
    assert chunks.map_processes(divmod, []) == []


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_process_map_runs_at_most_cap_at_once(cap, monkeypatch):
    # the cap lowers the share, and a cap of 1 runs every task inline
    monkeypatch.setattr(chunks, "WORKERS", 3)
    pids = chunks.map_processes(os.getpid, [()] * 5, cap)
    mine = [i for i, pid in enumerate(pids) if pid == os.getpid()]
    assert mine == list(range(0, 5, cap))
    assert len(set(pids) - {os.getpid()}) <= cap - 1


def _workers():
    return chunks.WORKERS


def test_worker_runs_its_chunks_inline(monkeypatch):
    # the worker processes fill the cores, so none starts a chunk pool
    monkeypatch.setattr(chunks, "WORKERS", 2)
    assert chunks.map_processes(_workers, [()] * 2) == [2, 1]


def test_process_map_reraises_the_first_failure_in_task_order(
        monkeypatch):
    # tasks 0 and 2 run in the caller, 1 and 3 on the worker: the first
    # failure in task order is raised, whichever process ran it
    monkeypatch.setattr(chunks, "WORKERS", 2)
    with pytest.raises(ZeroDivisionError):
        chunks.map_processes(divmod, [(1, 1), (1, 0), (1, "x")])
    with pytest.raises(TypeError):
        chunks.map_processes(divmod, [(1, 1), (1, 1), (1, "x"), (1, 0)])
    assert multiprocessing.active_children() == []


def test_process_map_reraises_a_worker_exception(dk8, p_main, monkeypatch):
    # a probe with a budget of 1 step raises SpeedIndeterminate on the
    # worker; the caller's own probe, with a budget of 1,000, passes
    monkeypatch.setattr(chunks, "WORKERS", 2)
    psi = wavespeed._hump(dk8, p_main)
    k1 = marginal_1d(dk8, (1.0, 0.0), psi.delta)
    with pytest.raises(SpeedIndeterminate,
                       match="no classification for c=0.0 after 1 "):
        chunks.map_processes(wavespeed._classify, [
            (0.0, psi, k1, p_main, 0.01, 1000),
            (0.0, psi, k1, p_main, 0.01, 1)])
    assert multiprocessing.active_children() == []
