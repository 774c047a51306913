"""The coin producer of one-chunk lattice runs (rng.producer): the same
words whoever draws them, and no producer outlives its run."""

import os
import pickle
import signal
import threading

import numpy as np
import pytest

from qcp import chunks, comparison, experiments, lattice
from qcp.cli import run as cli_run
from qcp.experiments import aligned_side, run_coupled
from qcp.kernel import discretize

from test_cli import read_data_files

# the pids os.fork returned to the process that holds this list, while
# the forks fixture spies on it
_PIDS = []


@pytest.fixture
def forks(monkeypatch):
    """_PIDS, emptied, with a spy on os.fork that fills it; fork is the
    start method, as on Linux."""
    real = os.fork

    def spy():
        pid = real()
        if pid:
            _PIDS.append(pid)
        return pid

    _PIDS.clear()
    monkeypatch.setattr(os, "fork", spy)
    monkeypatch.setattr(chunks, "START_METHOD", "fork")
    return _PIDS


@pytest.fixture(scope="module")
def dk10(square_spec):
    return discretize(square_spec, 10)


def _hung(signum, frame):
    raise TimeoutError("a run waited on its producer too long")


@pytest.fixture(autouse=True)
def deadline():
    """Each test here fails, not hangs, if a run and its producer wait
    on each other: after 60 seconds, or after the seconds a test passes
    to the alarm this yields."""
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(60)
    try:
        yield signal.alarm
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _start(init):
    """c11's 80 x 80 label start: all-ones, or the centred square of
    side 2 at L = 10."""
    if init == "all_ones":
        return np.full((80, 80), -np.inf)
    start = np.full((80, 80), np.inf)
    start[30:50, 30:50] = -np.inf
    return start


def inline_and_produced(fn, monkeypatch, forks, runs):
    """fn() on one worker, where every run draws its own words, then on
    two, where each of the runs starts a producer."""
    monkeypatch.setattr(chunks, "WORKERS", 1)
    inline = fn()
    assert forks == []
    monkeypatch.setattr(chunks, "WORKERS", 2)
    produced = fn()
    assert len(forks) == runs
    return inline, produced


@pytest.mark.parametrize("init", ["all_ones", "finite_square"])
def test_label_runs_read_the_words_they_draw(init, dk10, forks, monkeypatch):
    seeds = range(401, 406)

    def finals():
        return [experiments._final_labels(_start(init), dk10, 0.1, seed, 60,
                                          0.95).tobytes() for seed in seeds]

    inline, produced = inline_and_produced(finals, monkeypatch, forks,
                                           len(seeds))
    assert produced == inline


def test_coupled_run_reads_the_words_it_draws(phi_main, square_spec, p_main,
                                              forks, monkeypatch):
    # compare-L50's run of seed 351: 22,500 sites, one chunk
    dk = discretize(square_spec, 50)
    cfg = comparison.make_comparison_config(phi_main, dk, 50, 0.3)

    def coupled():
        res = run_coupled(p_main, dk, 0.3, aligned_side(50, 0.3, 3.0), 60,
                          351, phi_main, cfg)
        return res.n_regions, pickle.dumps((res.points, res.reports))

    inline, produced = inline_and_produced(coupled, monkeypatch, forks, 1)
    assert inline[0] > 0     # errors spawned regions
    assert produced == inline


def test_lattice_run_writes_the_bits_it_draws(tmp_path, capsys, forks,
                                              monkeypatch):
    # beta < 1, so the producer draws the attempt words too
    def lattice_run():
        out = tmp_path / f"run{len(forks)}"
        assert cli_run(["lattice-run", "--L", "20", "--W", "4", "--steps",
                        "30", "--beta", "0.8", "--eta", "0.1",
                        "--snapshot-every", "10", "--out-dir",
                        str(out)]) == 0
        capsys.readouterr()
        return read_data_files(out)

    inline, produced = inline_and_produced(lattice_run, monkeypatch, forks, 1)
    assert len(inline) == 4 and produced == inline


def _no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def producing(forks, monkeypatch):
    monkeypatch.setattr(chunks, "WORKERS", 2)
    return forks


def test_extinct_label_run_reaps_its_producer(dk10, producing):
    # at eta 0.9 every label passes the top well before step 300
    B = experiments._final_labels(_start("finite_square"), dk10, 0.9, 401,
                                  300, 0.95)
    assert B.min() >= 0.95 and len(producing) == 1
    _no_child()


def test_failing_step_reaps_its_producer(dk10, producing, monkeypatch):
    label_step = lattice.label_step

    def fail_at_5(B, n, *args):
        if n == 5:
            raise ValueError("step 5 failed")
        return label_step(B, n, *args)

    monkeypatch.setattr(lattice, "label_step", fail_at_5)
    with pytest.raises(ValueError, match="step 5 failed"):
        experiments._final_labels(_start("all_ones"), dk10, 0.1, 401, 60,
                                  0.95)
    assert len(producing) == 1
    _no_child()


def test_killed_producer_raises_within_seconds(dk10, producing, deadline,
                                               monkeypatch):
    label_step = lattice.label_step

    def kill_at_10(B, n, *args):
        if n == 10:     # killed, not reaped: the run reaps it
            os.kill(producing[0], signal.SIGKILL)
        return label_step(B, n, *args)

    monkeypatch.setattr(lattice, "label_step", kill_at_10)
    deadline(10)
    with pytest.raises(RuntimeError, match="coin producer of seed 401"):
        experiments._final_labels(_start("all_ones"), dk10, 0.1, 401, 300,
                                  0.95)
    _no_child()


def _label_run_forks(start, dk, seed):
    # the forks of one label run, in whichever process runs it
    before = len(_PIDS)
    experiments._final_labels(start, dk, 0.1, seed, 10, 0.95)
    return len(_PIDS) - before


@pytest.mark.parametrize("case", ["two chunks", "one worker", "map worker",
                                  "thread alive", "spawn"])
def test_ineligible_runs_never_fork(case, dk10, producing, monkeypatch):
    start = _start("all_ones")
    if case == "two chunks":
        monkeypatch.setattr(chunks, "CHUNK", 4096)
    elif case == "one worker":
        monkeypatch.setattr(chunks, "WORKERS", 1)
    elif case == "spawn":
        monkeypatch.setattr(chunks, "START_METHOD", "spawn")
    if case == "map worker":
        # the map forks its two workers; their runs fork nothing
        assert chunks.map_processes(_label_run_forks, [
            (start, dk10, seed) for seed in (401, 402)]) == [0, 0]
        return
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "thread alive":
        thread.start()
    try:
        assert _label_run_forks(start, dk10, 401) == 0
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()
    assert producing == []
