"""Self-tests of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench
"""

import copy
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qcp import experiments, kernel  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _tiny_setup(seed):
    spec = kernel.build_kernel(workloads.SPEC)
    return {
        "hydro": experiments.ExperimentConfig(
            kernel=spec, L_list=(2,), W=4.0, steps=2, seeds=(seed,)),
        "scan": experiments.ExperimentConfig(
            kernel=spec, beta_grid=(0.3, 0.9), eta_grid=(0.1,), horizon=5,
            phase_L=2, phase_W=6.0, seeds=(seed, seed + 1)),
    }


def _tiny_job(ctx):
    return {"hydro": experiments.hydro_convergence(ctx["hydro"], 0.5),
            "scan": experiments.phase_scan(ctx["scan"])}


TINY = workloads.Workload("tiny", 7, _tiny_setup, _tiny_job,
                          compare=lambda out, ref: [("ran", True)])


def _references():
    return workloads.load_references()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_passes_its_own_check(name):
    w = workloads.WORKLOADS[name]
    checks = w.compare(copy.deepcopy(_references()[name]), _references()[name])
    assert checks and all(ok for _, ok in checks)


def _flip_probe_class(out):
    trace = out["traces"][1]
    trace[3][1] = "at_or_above" if trace[3][1] == "below_cstar" \
        else "below_cstar"


def _shift(path, delta):
    def perturb(out):
        *head, last = path
        for key in head:
            out = out[key]
        out[last] += delta
    return perturb


def _flip_survival(out):
    out[5]["survived"] = 1 - out[5]["survived"]


PERTURBATIONS = [
    ("phi", _flip_probe_class),
    ("phi", _shift(("brackets", 2, 0), 1e-12)),
    ("phi", _shift(("constants", "m"), 1e-6)),
    ("hydro-L400", _shift((0, "sup_S_err"), 1e-6)),
    ("hydro-L400", _shift((0, "boxes"), 1)),
    ("compare-L50", _shift((0, "points", 0, 2), 1e-12)),
    ("compare-L50", _shift((4, "n_regions"), 1)),
    ("phase-scan-L10", _flip_survival),
    ("phase-scan-L10", _shift((40, "final_density"), 1e-12)),
]


@pytest.mark.parametrize("name,perturb", PERTURBATIONS)
def test_perturbed_output_is_a_failure(name, perturb):
    out = copy.deepcopy(_references()[name])
    perturb(out)
    checks = workloads.WORKLOADS[name].compare(out, _references()[name])
    assert sum(not ok for _, ok in checks) == 1


def test_invariants_catch_broken_outputs():
    hydro = copy.deepcopy(_references()["hydro-L400"])
    assert all(ok for _, ok in workloads._hydro_invariants(hydro, None))
    hydro[0]["sup_R_err"] = 0.5
    assert not all(ok for _, ok in workloads._hydro_invariants(hydro, None))

    scan = copy.deepcopy(_references()["phase-scan-L10"])
    assert all(ok for _, ok in workloads._phase_invariants(scan, None))
    top = max((r for r in scan if r["init"] == "all_ones"
               and r["seed"] == 401), key=lambda r: r["beta"])
    top["survived"] = 0
    assert not all(ok for _, ok in workloads._phase_invariants(scan, None))

    class Cfg:
        @staticmethod
        def error_rate_bound():
            return 0.01

    ref = _references()["compare-L50"]
    assert all(ok for _, ok in workloads._compare_invariants(
        ref, {"cfg": Cfg}))
    for key, value in (("violations", 1), ("error_rate", 0.02)):
        runs = copy.deepcopy(ref)
        runs[2][key] = value
        assert not all(ok for _, ok in workloads._compare_invariants(
            runs, {"cfg": Cfg}))


def test_checks_use_references_only_on_the_recorded_inputs():
    scan = workloads.WORKLOADS["phase-scan-L10"]
    ref = _references()["phase-scan-L10"]
    assert len(workloads.check(scan, 401, ref, None)) == len(ref) + 1
    # another seed: the same rows fail the exact comparison but hold the
    # invariants, which is what a non-recorded seed is checked against
    assert all(ok for _, ok in workloads.check(scan, 402, ref, None))
    compare = workloads.WORKLOADS["compare-L50"]
    assert workloads.probe_checks(compare, 351, None) == []


def test_traced_run_restores_every_wrapped_function():
    before = tracing.current()
    metrics, checks, record = run.run_traced(TINY, 7)
    assert tracing.current() == before
    assert checks == [("ran", True), ("ran", True)]
    names = {span[0] for span in record["spans"]}
    assert {"setup", "job", "lattice.step", "rng.stream",
            "kernel.sample_indices", "ide.apply_Q_2d"} <= names
    assert metrics["lattice.step.calls"] > 0
    assert abs(sum(metrics[f"share.self.{layer}"]
                   for layer in tracing.LAYERS) - 1.0) < 1e-9
    assert metrics["share.incl.experiments"] > 0.9


def test_wrappers_are_restored_after_an_error():
    before = tracing.current()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed():
            1 / 0
    assert tracing.current() == before


def test_metric_names_match_the_benchmark_definition():
    declared = [m["name"] for key in ("end_to_end", "per_layer")
                for m in BENCH[key]]
    assert all(NAME.fullmatch(n) for n in declared)
    assert len(declared) == len(set(declared))
    traced, _, _ = run.run_traced(TINY, 7)
    assert set(traced) == {m["name"] for m in BENCH["per_layer"]}
    plain, _, _ = run.run_plain(TINY, 7, 0.0)
    assert set(plain) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v in plain.values())
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


def test_self_time_subtracts_children():
    spans = [["job", 0.0, 10.0, -1], ["lattice.step", 1.0, 5.0, 0],
             ["rng.stream", 1.5, 2.5, 1], ["rng.stream", 3.0, 4.0, 1]]
    spans.append(["rng.stream", 6.0, 7.0, 0])
    calls, total, self_s, self_by_root, incl_by_root = \
        tracing.span_totals(spans)
    assert calls["rng.stream"] == 3 and total["lattice.step"] == 4.0
    assert self_s["lattice.step"] == 2.0 and self_s["job"] == 5.0
    assert self_by_root["job"] == {"bench": 5.0, "lattice": 2.0, "rng": 3.0}
    assert incl_by_root["job"] == {"bench": 10.0, "lattice": 4.0, "rng": 3.0}


def test_step_latencies_and_tail_percentile():
    starts = [(0.0, 0), (1.0, 1), (3.0, 2), (10.0, 0), (10.5, 1)]
    assert tracing.step_latencies(starts) == [1.0, 2.0, 0.5]
    assert tracing.tail_percentile(300) == 96
    assert tracing.tail_percentile(13311) == 99
    values = sorted(range(1, 301))
    p = tracing.tail_percentile(len(values))
    assert sum(v > tracing.nearest_rank(values, p) for v in values) >= 10


def test_reference_timer_scales_by_the_calibrations_around_a_call(
        monkeypatch):
    speeds = iter([0.2, 0.6, 0.2])
    monkeypatch.setattr(calibration, "chunk_seconds", lambda: next(speeds))
    timer = calibration.ReferenceTimer()
    out, raw, ref = timer.time(lambda x: x + 1, 1)
    assert out == 2
    # the machine ran at half the reference speed on average around it
    assert ref == pytest.approx(raw * 0.2 / 0.4)
    _, raw, ref = timer.time(lambda: None)
    assert ref == pytest.approx(raw * 0.2 / 0.4)
