import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcp import experiments, lattice
from qcp.cli import run
from qcp.ide import Field2D, evolve
from qcp.kernel import KernelSpec, discretize
from qcp.mean_field import Params
from qcp.rng import LatticeRng


def read_data_files(path):
    """Bytes of every data output under path, excluding manifests."""
    out = {}
    for f in sorted(path.rglob("*")):
        if f.is_file() and not f.name.endswith("manifest.json"):
            out[f.name] = f.read_bytes()
    return out


class TestMeanFieldCommand:
    def test_prints_roots(self, capsys):
        for argv, line in [
                # v(1 - v) = 1/9: the roots near 0.127322 and 0.872678
                (["--beta", "1", "--eta", "0.1"],
                 "0.0,0.12732200375003508,0.8726779962499649"),
                # beta (1 - eta) = 4 eta at the default beta 1: the tangent
                (["--eta", "0.2"], "0.0,0.5"),
                # below threshold only 0 is a root
                (["--beta", "0.3", "--eta", "0.2"], "0.0")]:
            assert run(["mean-field", *argv]) == 0
            assert capsys.readouterr().out == line + "\n"

    def test_trace_output(self, tmp_path, capsys):
        code = run(["mean-field", "--beta", "1.0", "--eta", "0.1",
                    "--out", "trace.csv", "--out-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "n,v"
        assert (tmp_path / "trace.manifest.json").exists()


class TestSpeedCommand:
    def test_csv_contract(self, tmp_path, capsys):
        code = run(["speed", "--angle", "0", "--tol", "0.05",
                    "--kernel-L", "4", "--beta", "1.0", "--eta", "0.05",
                    "--out", "speed.csv", "--out-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        lines = (tmp_path / "speed.csv").read_text().splitlines()
        assert lines[0] == "angle,c_star,bracket_lo,bracket_hi,method"
        row = lines[1].split(",")
        assert float(row[3]) - float(row[2]) <= 0.05 + 1e-12
        assert row[4] == "weinberger-bisection"

    def test_non_bistable_is_config_error(self, capsys, monkeypatch):
        # the error names no key: neither angle nor track-steps is at fault
        from qcp import wavespeed

        def no_probe(*args, **kwargs):
            raise AssertionError("probe ran on non-bistable parameters")

        monkeypatch.setattr(wavespeed, "_classify", no_probe)
        for method in ("bisection", "tracking", "both"):
            code = run(["speed", "--angle", "0", "--beta", "0.3",
                        "--eta", "0.2", "--method", method])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err == ("config error: spreading speeds need "
                                    "bistable parameters\n")
            assert captured.out == ""

    @pytest.mark.parametrize("method", ["bisection", "tracking", "both"])
    def test_zero_diameter_kernel_is_config_error(self, method, tmp_path,
                                                  capsys, monkeypatch):
        # a one-atom table kernel has d(k) = 0, so no profile grid
        from qcp import wavespeed

        def no_work(*args, **kwargs):
            raise AssertionError("a speed method ran on a kernel of "
                                 "diameter 0")

        monkeypatch.setattr(wavespeed, "_classify", no_work)
        monkeypatch.setattr(wavespeed, "apply_Q_1d", no_work)
        cfg = tmp_path / "point-mass.json"
        cfg.write_text(json.dumps({"kernel": {
            "family": "table", "params": {"entries": [[0, 0, 1]]}}}))
        out = tmp_path / "out"
        code = run(["speed", "--config", str(cfg), "--method", method,
                    "--out", "speed.csv", "--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert "kernel diameter" in captured.err
        assert captured.out == ""
        assert not out.exists()

    # the step budget is derived from d(k) and tol, so max-iter is no key
    @pytest.mark.parametrize("flags", [
        ["--tol", "0"], ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
        ["--max-iter", "5"], {"max-iter": 5}])
    def test_bad_budget_is_config_error(self, flags, tmp_path, capsys,
                                        monkeypatch):
        from qcp import wavespeed

        def no_probe(*args, **kwargs):
            raise AssertionError("probe ran before the settings were checked")

        monkeypatch.setattr(wavespeed, "_classify", no_probe)
        if isinstance(flags, dict):  # a config document
            cfg = tmp_path / "speed.json"
            cfg.write_text(json.dumps(flags))
            flags = ["--config", str(cfg)]
        code = run(["speed", "--angle", "0", "--kernel-L", "4"] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("flags", [["--track-steps", "1"],
                                       ["--angle", "nan"]])
    def test_tracking_checked_before_bisection(self, flags, tmp_path, capsys,
                                               monkeypatch):
        from qcp import cli

        def no_bisection(*args, **kwargs):
            raise AssertionError("bisection ran before the tracking "
                                 "settings were checked")

        monkeypatch.setattr(cli, "estimate_cstar", no_bisection)
        out = tmp_path / "out"
        code = run(["speed", "--method", "both", "--kernel-L", "4",
                    "--out", "speed.csv", "--out-dir", str(out)] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestErrors:
    def test_missing_config_file(self, capsys):
        assert run(["mean-field", "--config", "/nonexistent.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["mean-field", "--config", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run(["mean-field", "--frobnicate", "3"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert run(["transmogrify"]) == 1

    def test_runtime_failure_exit_two(self, tmp_path, capsys, monkeypatch):
        cfg = {"phase-L": 5, "phase-W": 2.0, "horizon": 5,
               "beta-grid": [0.5], "eta-grid": [0.1], "seeds": [1]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["lattice-run", "--density", "bogus",
                    "--out-dir", str(tmp_path)])
        assert code == 1  # a density that is no number is a config error

        # a ValueError raised once the run has started is no config error
        def fail(*args, **kwargs):
            raise ValueError("failed mid-run")

        monkeypatch.setattr(experiments, "phase_scan", fail)
        code = run(["phase-scan", "--config", str(path),
                    "--out-dir", str(tmp_path)])
        assert code == 2
        assert "runtime failure: failed mid-run" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lattice-run", "--L", "0"], ["lattice-run", "--W", "0.001"],
        ["lattice-run", "--steps", "-1"], ["ide-run", "--L", "0"],
        ["ide-run", "--steps", "-1"], ["hydro", "--steps", "-1"],
        ["mean-field", "--trace-steps", "-1", "--out", "t.csv"],
        ["hydro", {"beta": "x"}], ["hydro", {"L-list": 5}],
        ["hydro", {"seeds": [1.7]}], ["hydro", {"kernel": "{bad"}],
        ["lattice-run", {"L": "abc"}], ["lattice-run", {"snapshot-every": -1}],
        ["lattice-run", {"density": "abc"}],
        ["lattice-run", {"density": 1.5}],
        ["speed", {"angle": "x"}], ["speed", {"kernel-L": 0}],
        ["ide-run", {"clamp": "bogus"}],
        ["mean-field", "--out", "t.csv", {"v0": 2}],
        ["compare", {"phi-L": 0}], ["phase-scan", {"beta-grid": [1.5]}],
        ["phase-scan", {"beta_grid": [0.3, 0.9]}],
        ["hydro", {"W": float("inf")}], ["lattice-run", "--W", "inf"],
        ["ide-run", {"W": 1e308}], ["hydro", {"K": 2.0}],
        ["compare", {"delta": 0.1}], ["error-rate", {"block-N": 5}],
        ["phase-scan", "--phase-W", "1.5"],
        *(["speed", "--track-steps", steps, "--method", "tracking"]
          for steps in ("-1", "0", "1", "2")),
        ["speed", "--angle", "nan", "--method", "tracking"],
        # configs that yield no data
        ["compare", {"L-list": []}], ["hydro", {"L-list": []}],
        ["error-rate", {"seeds": []}], ["error-rate", "--steps", "0"],
        # compare writes one L: containment.csv has no L column
        ["compare", {"L-list": [20, 40]}],
        # threads counts the seeds run at once: 1 or more, and a key only
        # of the subcommands that run seeds
        ["hydro", "--threads", "0"], ["hydro", "--threads", "-2"],
        ["error-rate", {"threads": 0}], ["speed", "--threads", "2"],
        ["lattice-run", "--threads", "1"], ["mean-field", {"threads": 1}],
        ["ide-run", {"threads": 2}],
        # a u0 preset with a key it does not read, a number that is not
        # finite, or a constant, level or background outside [0, 1]
        ["hydro", {"u0": {"type": "constant", "valeu": 0.9}}],
        ["hydro", {"u0": {"type": "square", "sidee": 1.0}}],
        ["hydro", {"u0": {"value": 1.5}}],
        ["ide-run", {"u0": {"value": -0.1}}],
        ["hydro", {"u0": {"value": float("nan")}}],
        ["hydro", {"u0": {"type": "square", "level": -0.5}}],
        ["hydro", {"u0": {"type": "square", "background": 1.01}}],
        ["hydro", {"u0": {"type": "square", "side": float("inf")}}],
        ["hydro", {"u0": {"type": "cosine", "amplitude": float("inf")}}],
        # u0 is a key of hydro and ide-run only: the other experiment
        # subcommands read no start density
        ["phase-scan", {"u0": {"valeu": 7}}],
        ["compare", {"u0": {"valeu": 7}}],
        ["error-rate", {"u0": {"valeu": 7}}],
        # a hydro window of 3 sites at L = 8 holds no box of 4 sites
        ["hydro", "--W", "0.4", "--steps", "1", {"L-list": [8]}],
        # a clamp of null is the torus: no boundary key names it twice
        ["ide-run", {"boundary": "clamped"}],
        # a value is checked whether or not the mode reads it: a trace
        # not written, a tracking length beside a bisection
        ["mean-field", {"v0": 7}], ["mean-field", "--trace-steps", "-3"],
        ["speed", "--track-steps", "1"],
        # lattice-run's start density is a number in [0, 1]
        ["lattice-run", "--density", "nan"],
        ["lattice-run", {"density": -0.1}],
        ["lattice-run", {"init": "all_ones"}],
        # a JSON true is no kernel parameter, nor a table entry
        *(["speed", "--method", "tracking", {"kernel": kernel}] for kernel in (
            {"family": "uniform-square", "params": {"radius": True}},
            {"family": "truncated-gaussian",
             "params": {"sigma": True, "cutoff": 1.0}},
            {"family": "truncated-gaussian",
             "params": {"sigma": 0.5, "cutoff": True}},
            {"family": "table",
             "params": {"entries": [[True, 0, 0.5], [-1, 0, 0.5]]}})),
        # a bracket narrower than 1e-6: at 5e-324 and 1e-320 no probe
        # can classify
        ["speed", "--tol", "5e-324"], ["speed", "--tol", "1e-320"],
        ["speed", "--tol", "1e-7"],
        # a seed is one 64-bit key word: outside [0, 2**64) it would run
        # the trajectory of another seed
        ["lattice-run", "--seed", "-1"], ["lattice-run", {"seed": 2 ** 64}],
        ["phase-scan", {"seeds": [1, 2 ** 64 + 1]}],
        ["hydro", {"seeds": [-1]}]])
    def test_invalid_value_is_config_error(self, argv, tmp_path, capsys,
                                           monkeypatch):
        # a trailing dict is a config document; the error names its one
        # key, else the first flag (or the ExperimentConfig field behind it)
        from qcp import cli

        def no_work(*args, **kwargs):
            raise AssertionError("work began before the config was checked")

        monkeypatch.setattr(cli, "build_phi", no_work)
        monkeypatch.setattr(experiments, "evolve", no_work)
        monkeypatch.setattr(cli, "evolve", no_work)
        if isinstance(argv[-1], dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(argv[-1]))
            args, (key,) = argv[:-1] + ["--config", str(path)], argv[-1]
        else:
            args, key = argv, argv[1][2:]
        out = tmp_path / "out"
        code = run(args + ["--out-dir", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert key in captured.err or key.replace("-", "_") in captured.err
        assert captured.out == ""  # rejected before any output
        assert not out.exists()


    @pytest.mark.parametrize("taps", [[99], [-1], [0, 3], ["x"]])
    def test_ide_run_taps_outside_steps(self, taps, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"taps": taps, "L": 4, "W": 2,
                                    "steps": 2}))
        out = tmp_path / "out"
        code = run(["ide-run", "--config", str(path), "--out-dir", str(out)])
        assert code == 1
        assert "taps" in capsys.readouterr().err
        assert not out.exists()


class TestHydroPresets:
    @pytest.mark.parametrize("preset", [
        {"type": "constant", "value": 0.37},
        {"type": "square", "side": 1.0, "level": 0.9, "background": 0.1},
        {"type": "cosine", "mean": 0.5, "amplitude": 0.6, "period": 1.5}],
        ids=["constant", "square", "cosine"])
    def test_rows_of_the_preset_field(self, preset, tmp_path, capsys):
        # hydro.csv holds the rows of the preset's field at the smallest
        # L (a cosine clipped to [0, 1]); a constant goes in as its
        # number, with the same bytes
        from qcp import cli, manifest
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"L-list": [10, 20], "W": 3.0,
                                    "steps": 2, "seeds": [1], "u0": preset}))
        assert run(["hydro", "--config", str(path), "--out-dir",
                    str(tmp_path / "out")]) == 0
        cfg = experiments.ExperimentConfig(L_list=(10, 20), W=3.0, steps=2,
                                           seeds=(1,))
        rows = experiments.hydro_convergence(cfg, cli._u0_field(preset, 10,
                                                                3.0))
        manifest.write_csv(tmp_path / "want.csv", rows)
        assert (tmp_path / "out" / "hydro.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    def test_window_narrower_than_kernel(self, tmp_path, capsys):
        # at L = 10 the kernel spans 21 sites, wider than the 15-site
        # window: the FFT path wraps it around the torus
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"L-list": [10], "W": 1.5, "seeds": [1],
                                    "steps": 2}))
        assert run(["hydro", "--config", str(path), "--out-dir",
                    str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "hydro.csv").read_text().splitlines()
        assert len(rows) == 2  # header + one row


class TestLatticeRunCommand:
    def test_snapshots_and_trace(self, tmp_path, capsys):
        code = run(["lattice-run", "--L", "10", "--W", "2", "--seed", "5",
                    "--steps", "6", "--snapshot-every", "3",
                    "--beta", "1.0", "--eta", "0.05",
                    "--out-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        names = {f.name for f in tmp_path.iterdir()}
        assert "density.csv" in names
        assert "snapshot_00003.json" in names
        assert "snapshot_00006.json" in names
        trace = (tmp_path / "density.csv").read_text().splitlines()
        assert len(trace) == 8  # header + 7 rows

    def test_snapshot_loads_back(self, tmp_path, capsys):
        from helpers import load_snapshot
        run(["lattice-run", "--L", "8", "--W", "2", "--seed", "5",
             "--steps", "2", "--snapshot-every", "2", "--out-dir",
             str(tmp_path)])
        capsys.readouterr()
        s = load_snapshot(tmp_path / "snapshot_00002.json")
        assert s.time == 2 and s.side == 16

    @pytest.mark.parametrize("density", [None, 0.3])
    def test_density_is_the_start_density(self, density, tmp_path, capsys):
        # the start is lattice.init at the density, 1 by default
        flags = [] if density is None else ["--density", str(density)]
        run(["lattice-run", "--L", "8", "--W", "2", "--seed", "5", "--steps",
             "0", "--out-dir", str(tmp_path)] + flags)
        capsys.readouterr()
        want = lattice.init(8, 16, 1.0 if density is None else density,
                            LatticeRng(5)).density()
        trace = (tmp_path / "density.csv").read_text().splitlines()
        assert trace[1] == f"0,{want!r}"


class TestIdeRunCommand:
    def test_writes_fields(self, tmp_path, capsys):
        # at L = 10 the kernel spans 21 sites, wider than the window
        from helpers import field_from_csv
        for L, W, side in (("4", "3", 12), ("10", "1", 10)):
            out = tmp_path / L
            code = run(["ide-run", "--L", L, "--W", W, "--steps", "2",
                        "--beta", "1.0", "--eta", "0.1",
                        "--out-dir", str(out)])
            assert code == 0
            capsys.readouterr()
            assert field_from_csv(
                out / "field_00002.csv").values.shape == (side, side)

    def test_writes_each_tap_once(self, tmp_path, capsys):
        # a repeated tap is one file, named from the time evolve keys it by
        from helpers import field_from_csv
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"taps": [2, 0, 2], "steps": 2,
                                    "L": 4, "W": 2}))
        out = tmp_path / "out"
        assert run(["ide-run", "--config", str(path),
                    "--out-dir", str(out)]) == 0
        assert sorted(read_data_files(out)) == ["field_00000.csv",
                                                "field_00002.csv"]
        side = lattice.window_side(2.0, 4)
        want = evolve(Field2D(4, np.full((side, side), 0.5)),
                      discretize(KernelSpec("uniform-square",
                                            {"radius": 1.0}), 4),
                      Params(1.0, 0.05), 2, taps=[0, 2])
        for t, field in want.items():
            got = field_from_csv(out / f"field_{t:05d}.csv")
            assert got.L == 4 and got.clamp is None
            assert np.array_equal(got.values, field.values)

    def test_a_clamp_is_the_boundary(self, tmp_path, capsys):
        # a number clamps the window, and the header says so; null, the
        # default, is the torus
        from helpers import field_from_csv
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"clamp": 0.3, "steps": 1, "L": 4,
                                    "W": 2}))
        out = tmp_path / "out"
        assert run(["ide-run", "--config", str(path),
                    "--out-dir", str(out)]) == 0
        header = (out / "field_00001.csv").read_text().splitlines()[0]
        assert header.endswith("boundary=clamped clamp=0.3")
        side = lattice.window_side(2.0, 4)
        want = evolve(Field2D(4, np.full((side, side), 0.5), 0.3),
                      discretize(KernelSpec("uniform-square",
                                            {"radius": 1.0}), 4),
                      Params(1.0, 0.05), 1)[1]
        got = field_from_csv(out / "field_00001.csv")
        assert got.clamp == 0.3
        assert np.array_equal(got.values, want.values)


class TestCompareCommand:
    def test_small_run_no_violations(self, tmp_path, capsys):
        cfg = {"beta": 1.0, "eta": 0.05, "gamma": 0.3, "W": 2.5,
               "steps": 5, "L-list": [20], "seeds": [1], "phi-L": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["compare", "--config", str(path), "--assert",
                    "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0
        text = (tmp_path / "containment.csv").read_text()
        assert text.splitlines()[0] == "seed,n,bad_boxes,violations"

    def test_containment_breach_exits_three(self, tmp_path, capsys,
                                            monkeypatch):
        import qcp.experiments as experiments

        real = experiments.run_coupled

        def breached(*args, **kwargs):
            res = real(*args, **kwargs)
            res.reports[-1].violations.append((0, 0))
            return res

        monkeypatch.setattr(experiments, "run_coupled", breached)
        cfg = {"beta": 1.0, "eta": 0.05, "gamma": 0.3, "W": 2.5,
               "steps": 3, "L-list": [20], "seeds": [1], "phi-L": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run(["compare", "--config", str(path), "--assert",
                    "--out-dir", str(tmp_path)])
        assert code == 3
        assert "violated" in capsys.readouterr().err
        # without --assert the violation is reported data, not a failure
        code = run(["compare", "--config", str(path),
                    "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert code == 0


class TestReproducibility:
    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            d.mkdir()
            code = run(["lattice-run", "--L", "10", "--W", "2", "--seed",
                        "9", "--steps", "5", "--snapshot-every", "5",
                        "--out-dir", str(d)])
            assert code == 0
            outs.append(read_data_files(d))
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_thread_count_does_not_change_output(self, tmp_path, capsys):
        outs = []
        for name, threads in (("t1", "1"), ("t4", "4")):
            d = tmp_path / name
            d.mkdir()
            code = run(["phase-scan", "--horizon", "20",
                        "--phase-L", "5", "--phase-W", "4",
                        "--threads", threads, "--out-dir", str(d)])
            assert code == 0
            outs.append(read_data_files(d))
        capsys.readouterr()
        assert outs[0] == outs[1]


# Runs in a fresh interpreter where importing scipy raises: this test
# session has imported scipy already, and scipy is no runtime dependency.
_COLD_START = """
import json, sys
from importlib.abc import MetaPathFinder


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")


sys.meta_path.insert(0, NoScipy())
import qcp, qcp.cli
out = sys.argv[1]
with open(f"{out}/tiny.json", "w") as fh:
    json.dump({"W": 2.5, "steps": 3, "L-list": [20], "seeds": [7],
               "phi-L": 4}, fh)
for argv in (
        ["mean-field", "--out", "trace.csv"],
        ["lattice-run", "--L", "4", "--W", "2", "--steps", "2",
         "--snapshot-every", "2"],
        ["ide-run", "--L", "4", "--W", "2", "--steps", "2"],
        # 625 kernel offsets: the clamped FFT branch
        ["ide-run", "--L", "12", "--W", "3", "--steps", "1",
         "--clamp", "0"],
        ["speed", "--kernel-L", "4", "--tol", "0.05", "--out", "speed.csv"],
        ["phase-scan", "--horizon", "5", "--phase-L", "4", "--phase-W", "3"],
        # the binomial tests of properties (5) and (6)
        ["error-rate", "--config", f"{out}/tiny.json"]):
    code = qcp.cli.run(argv + ["--out-dir", f"{out}/{argv[0]}"])
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


class TestColdStart:
    def test_main_paths_do_not_import_scipy(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", _COLD_START,
                               str(tmp_path)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []
