"""Large-grid passes cut into chunks across threads give the bits of
one whole-grid pass, whatever the worker count and the chunk size; the
process map gives the results of a loop, whatever the worker count."""

import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import qcp
from qcp import chunks, experiments, ide, kernel, lattice, wavespeed
from qcp.ide import Field2D
from qcp.kernel import KernelSpec, discretize, marginal_1d
from qcp.mean_field import Params
from qcp.rng import LatticeRng
from qcp.wavespeed import SpeedIndeterminate

from helpers import full_spectrum_step

# (workers, sites per chunk): every worker count cuts the same chunks,
# which 1 worker runs inline and in order
CHUNKINGS = [(w, c) for w in (1, 2, 3) for c in (4, 12, 1 << 16)]
IDS = [f"{w}workers-chunk{c}" for w, c in CHUNKINGS]
# 83 is not a multiple of 4, so chunks of 12 sites cross rows; 150^2
# sites fit in one chunk of 2^16
SIDES = (83, 150)


@pytest.fixture
def chunked(monkeypatch, request):
    """Run with the (workers, chunk) of the test's parameter."""
    workers, size = request.param
    monkeypatch.setattr(chunks, "WORKERS", workers)
    monkeypatch.setattr(chunks, "CHUNK", size)
    return workers, size


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


# each at L = 10, reach 10 or 7: a uniform square, a truncated
# gaussian and a table with atoms on rows 0, +-3 and +-7
_ORACLE_SPECS = {
    "square": KernelSpec("uniform-square", {"radius": 1.0}),
    "gauss": KernelSpec("truncated-gaussian",
                        {"sigma": 0.5, "cutoff": 1.0}),
    "table": KernelSpec("table", {"entries": [
        (0.0, 0.0, 0.4), (0.3, 0.2, 0.1), (-0.3, 0.2, 0.1),
        (0.3, -0.2, 0.1), (-0.3, -0.2, 0.1), (0.7, 0.0, 0.1),
        (-0.7, 0.0, 0.1)]}),
}


@pytest.mark.parametrize("chunked", [(w, c) for w in (1, 2)
                                     for c in (12, 1 << 16)],
                         indirect=True, ids=lambda wc: f"{wc[0]}w-{wc[1]}")
@pytest.mark.parametrize("name", list(_ORACLE_SPECS))
def test_distinct_rows_step_equals_the_half_spectrum_step(chunked, name,
                                                          p_main,
                                                          monkeypatch):
    # the kernel's transforms of its distinct rows give the bits of a
    # step through its whole half spectrum: on a torus, on a torus of 10
    # rows, where rows 10 apart (square, gaussian) or -3 and 7 (table)
    # sum into one, and on a clamped window padded by the reach
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    dk = discretize(_ORACLE_SPECS[name], 10)
    gen = np.random.default_rng(8)
    for shape, clamp in (((83, 150), None), ((10, 12), None),
                         ((40, 33), 0.3)):
        u = Field2D(10, gen.random(shape), clamp)
        want = whole(full_spectrum_step, u, dk, p_main)
        got = ide.apply_Q_2d(u, dk, p_main)
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
    # the field in progress and its half spectrum: two grids above the
    # input, plus the kernel's transforms of its distinct rows and band
    # buffers of about CHUNK sites per worker (2.08-2.17 grids measured
    # at 512^2)
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    n = 512
    u = Field2D(8, np.random.default_rng(5).random((n, n)))
    ide.evolve(u, dk8, p_main, 1)     # warms the caches outside the trace
    tracemalloc.start()
    try:
        ide.evolve(u, dk8, p_main, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 8


@pytest.mark.parametrize("chunked", [(2, 1 << 12), (1, 1 << 12)],
                         indirect=True)
def test_hydro_from_a_constant_holds_three_grids(chunked, square_spec,
                                                 monkeypatch):
    # a constant start is a broadcast view and the sampling tables wait
    # for the first lattice step, so the FFT steps hold the field in
    # progress and its half spectrum (2.08-2.17 grids measured at
    # 512^2): no start grid, plus the kernel and band buffers of CHUNK
    # sites
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    n = 512
    cfg = experiments.ExperimentConfig(L_list=(8,), W=n / 8, steps=2,
                                       seeds=(1,), kernel=square_spec)
    experiments.hydro_convergence(cfg, 0.5)     # warms the caches
    tracemalloc.start()
    try:
        experiments.hydro_convergence(cfg, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dk = discretize(square_spec, 8)
    bands = 8 * chunks.CHUNK * 16
    assert peak <= 2 * n * n * 8 + dk.offsets.nbytes + dk.masses.nbytes \
        + bands


def test_kernel_temporaries_are_chunk_sized(square_spec):
    # beside what each keeps, the symmetrised kernel holds its quadrant
    # and the tables nothing, plus temporaries over spans of CHUNK
    # entries: 0.82 grids above the offsets and masses of a symmetric
    # 801^2 grid (4.44 when built at once), and 1.8 MiB above the
    # tables at L = 200 (6.45 MiB)
    w = 1.0 - np.abs(np.arange(-400, 401)) / 401
    grid = np.outer(w, w)
    dk = discretize(square_spec, 200)
    tracemalloc.start()
    try:
        offsets, masses = kernel._symmetrise(grid, 400)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dk.build_tables()
        tables = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert built - offsets.nbytes - masses.nbytes < grid.nbytes
    assert tables - dk._cdf.nbytes - dk._guide.nbytes < 3 << 20


@pytest.mark.parametrize("chunked", [(1, 4), (1, 1 << 12)], indirect=True)
def test_gaussian_subcells_per_span_of_rows(chunked):
    # the 4x4 midpoint subcells of one grid row at a time, or of two, give
    # the bits of one span of all 101 rows
    spec = _ORACLE_SPECS["gauss"]
    got = discretize(spec, 50)
    want = whole(discretize, spec, 50)
    assert got.offsets.tobytes() == want.offsets.tobytes()
    assert got.masses.tobytes() == want.masses.tobytes()


def test_gaussian_discretize_is_chunk_sized():
    # the gaussian's 4x4 subcells are evaluated about CHUNK at a time,
    # so discretize peaks at 8.7 MiB at L = 200, to keep 2.9 MiB
    discretize(_ORACLE_SPECS["gauss"], 10)
    tracemalloc.start()
    try:
        discretize(_ORACLE_SPECS["gauss"], 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_hydro_frees_the_recursion_field_before_the_seeds(square_spec,
                                                          monkeypatch):
    # the seeds read a copy of the box-corner values, so no view keeps
    # the recursion's last field alive through the lattice runs
    fields, alive = [], []
    evolve, seed = experiments.evolve, experiments._hydro_seed

    def spy_evolve(*args):
        out = evolve(*args)
        fields.extend(weakref.ref(u.values) for u in out.values())
        return out

    def spy_seed(*args):
        alive.append([ref() is not None for ref in fields])
        return seed(*args)

    monkeypatch.setattr(experiments, "evolve", spy_evolve)
    monkeypatch.setattr(experiments, "_hydro_seed", spy_seed)
    cfg = experiments.ExperimentConfig(L_list=(8,), W=8.0, steps=2,
                                       seeds=(1, 2), kernel=square_spec,
                                       threads=1)
    experiments.hydro_convergence(cfg, 0.5)
    assert alive == [[False], [False]]


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
    # seeds run at once on two worker processes, each cutting its steps
    # into chunks of 12 sites (a fork inherits CHUNK), give the bits of
    # seeds run in turn
    tasks = [(seed, dk10, p_main) for seed in range(5)]
    got = chunks.map_processes(_run_seed, tasks)
    assert got == whole(lambda: [_run_seed(*t) for t in tasks])


@pytest.mark.parametrize("chunked", [(1, 4), (2, 4), (3, 12), (3, 1 << 16)],
                         indirect=True)
@pytest.mark.parametrize("n,width", [(0, 1), (1, 1), (83 * 83, 1),
                                     (150, 150), (76, 83), (42, 1 << 20)])
def test_ranges_tile_the_lines_in_order(chunked, n, width, monkeypatch):
    # the layout depends on the chunk size only: a pass's threads cut
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
            "assert 'multiprocessing' not in sys.modules; "
            "assert 'concurrent.futures' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(Path(qcp.__file__).parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _chunk_threads() -> int:
    return sum(t.name.startswith("qcp-chunk") for t in threading.enumerate())


def test_pool_threads_at_most_the_worker_count(dk10, p_main, monkeypatch):
    # a pass at the module's own worker count, given many chunks, runs on
    # at most that many threads of its own, and none is left after it
    monkeypatch.setattr(chunks, "CHUNK", 4)
    during = []
    chunks.run(lambda a, b: during.append(_chunk_threads()), 83 * 83)
    assert chunks.WORKERS == min(chunks._cores(), 8)
    assert max(during) <= chunks.WORKERS
    assert (max(during) > 0) == (chunks.WORKERS > 1)
    assert _chunk_threads() == 0
    rng = LatticeRng(2)
    lattice.step(lattice.init(10, 83, 0.5, rng), dk10, p_main, rng)
    assert _chunk_threads() == 0


@pytest.mark.parametrize("chunked", [(2, 12)], indirect=True)
def test_steps_build_the_sampling_tables_in_the_caller(chunked, square_spec,
                                                       p_main, monkeypatch):
    # a pass's threads are new at every pass: a build on one of them
    # would leave its transient in whichever malloc arena it drew
    builders = []
    original = kernel._sampling_tables

    def spy(masses):
        builders.append(threading.current_thread())
        return original(masses)

    monkeypatch.setattr(kernel, "_sampling_tables", spy)
    s = lattice.init(10, 83, 0.5, LatticeRng(1))
    lattice.step(s, discretize(square_spec, 10), p_main, LatticeRng(1))
    lattice.label_step(np.zeros((83, 83)), 0, discretize(square_spec, 10),
                       0.1, LatticeRng(1))
    assert builders == [threading.main_thread()] * 2


# one call of each kind that cuts its grids into chunks or maps its
# tasks on processes, at 2 workers and chunks of 12 sites
_SEEDS = experiments.ExperimentConfig(
    L_list=(20,), W=2.5, steps=3, seeds=(1, 2, 3), horizon=10, phase_L=5,
    phase_W=4.0, beta_grid=(0.3, 0.9), eta_grid=(0.1,), threads=2)
_CALLS = {
    "init": lambda dk, p, phi: lattice.init(10, 83, 0.5, LatticeRng(1)),
    "step": lambda dk, p, phi: lattice.step(
        lattice.init(10, 83, 0.5, LatticeRng(1)), dk, p, LatticeRng(1)),
    "label_step": lambda dk, p, phi: lattice.label_step(
        np.zeros((83, 83)), 0, dk, 0.1, LatticeRng(1)),
    "fft-evolve": lambda dk, p, phi: ide.evolve(
        Field2D(10, np.full((83, 83), 0.5)), dk, p, 2),
    "build_phi": lambda dk, p, phi: wavespeed.build_phi(
        *wavespeed.default_directions(), discretize(_SEEDS.kernel, 4), p,
        n=4, speed_tol=0.05),
    "hydro_convergence": lambda dk, p, phi: experiments.hydro_convergence(
        _SEEDS, 0.6),
    "phase_scan": lambda dk, p, phi: experiments.phase_scan(_SEEDS),
    "coupled_runs": lambda dk, p, phi: experiments.coupled_runs(
        _SEEDS, phi, 20),
}


@pytest.mark.parametrize("chunked", [(2, 12)], indirect=True)
@pytest.mark.parametrize("call", list(_CALLS))
def test_no_thread_or_process_outlives_its_call(chunked, call, dk10, p_main,
                                                phi_main, monkeypatch):
    monkeypatch.setattr(ide, "_FFT_SUPPORT_THRESHOLD", 0)
    before = threading.active_count()
    _CALLS[call](dk10, p_main, phi_main)
    assert threading.active_count() == before
    assert multiprocessing.active_children() == []


# a process map over a task whose argument is a lambda, in a fresh
# interpreter, so that a hang fails the test rather than stalling the run
_UNPICKLABLE = """
import multiprocessing, pickle
from qcp import chunks
chunks.WORKERS = 2
try:
    chunks.map_processes(divmod, [(7, 2), (lambda: 0, 1)])
except pickle.PicklingError:
    print("PicklingError")
assert multiprocessing.active_children() == []
"""


def test_unpicklable_task_raises_in_the_caller():
    # every task is pickled in the caller before any worker starts
    env = dict(os.environ, PYTHONPATH=str(Path(qcp.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _UNPICKLABLE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["PicklingError"]


def _assert_ran_on(pids, share):
    # none in the caller and at most share workers, or all in the caller
    if share < 2:
        assert pids == [os.getpid()] * len(pids)
    else:
        assert os.getpid() not in pids
        assert len(set(pids)) <= share


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_process_map_returns_results_in_task_order(workers, monkeypatch):
    # with share = min(workers, 5) at least 2, at most share worker
    # processes run every task while the caller waits; with one worker
    # the caller runs them all
    monkeypatch.setattr(chunks, "WORKERS", workers)
    tasks = [(7, 2), (9, 4), (5, 5), (11, 3), (8, 3)]
    assert chunks.map_processes(divmod, tasks) == [divmod(*t) for t in tasks]
    pids = chunks.map_processes(os.getpid, [()] * 5)
    _assert_ran_on(pids, min(workers, 5))
    assert multiprocessing.active_children() == []
    assert chunks.map_processes(divmod, []) == []


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_process_map_runs_at_most_cap_at_once(cap, monkeypatch):
    # the cap lowers the share, and a cap of 1 runs every task inline
    monkeypatch.setattr(chunks, "WORKERS", 3)
    _assert_ran_on(chunks.map_processes(os.getpid, [()] * 5, cap), cap)


def _workers():
    return chunks.WORKERS


def test_worker_runs_its_chunks_inline(monkeypatch):
    # the worker processes fill the cores, so none starts a chunk pool
    monkeypatch.setattr(chunks, "WORKERS", 2)
    assert chunks.map_processes(_workers, [()] * 2) == [1, 1]


def test_process_map_reraises_the_first_failure_in_task_order(
        monkeypatch):
    # every task runs on one of two workers: the first failure in task
    # order is raised, whichever worker ran it and whenever it ended
    monkeypatch.setattr(chunks, "WORKERS", 2)
    with pytest.raises(ZeroDivisionError):
        chunks.map_processes(divmod, [(1, 1), (1, 0), (1, "x")])
    with pytest.raises(TypeError):
        chunks.map_processes(divmod, [(1, 1), (1, 1), (1, "x"), (1, 0)])
    assert multiprocessing.active_children() == []


def test_process_map_reraises_a_worker_exception(dk8, p_main, monkeypatch):
    # a probe with a budget of 1 step raises SpeedIndeterminate on a
    # worker; the other probe, with a budget of 1,000, passes
    monkeypatch.setattr(chunks, "WORKERS", 2)
    psi = wavespeed._hump(dk8, p_main)
    k1 = marginal_1d(dk8, (1.0, 0.0), psi.delta)
    with pytest.raises(SpeedIndeterminate,
                       match="no classification for c=0.0 after 1 "):
        chunks.map_processes(wavespeed._classify, [
            (0.0, psi, k1, p_main, 0.01, 1000),
            (0.0, psi, k1, p_main, 0.01, 1)])
    assert multiprocessing.active_children() == []
