"""The benchmark's workloads: set-up, the timed job, and output checks.

Each job is one closed-loop caller in one process with ``threads=1``
and calls the same public library functions the CLI handlers call.  All
runs use ``beta=1``, ``eta=0.05`` and the uniform-square kernel of
radius 1 unless a workload says otherwise.

A job returns its outputs as plain JSON data.  On the workload's
recorded seed they are compared with ``references.json``, which holds
the outputs of the library as first benchmarked (``record_references.py``
rewrites it); on any other seed they are held to invariants that need
no reference.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from qcp import comparison, experiments, kernel, wavespeed
from qcp.mean_field import Params

REFERENCES = Path(__file__).with_name("references.json")

PARAMS = Params(1.0, 0.05)
SPEC = kernel.KernelSpec("uniform-square", {"radius": 1.0})
GAMMA = 0.3
# absolute tolerance for the outputs not compared exactly: the phi
# constants and the hydro sup errors
FLOAT_TOL = 1e-9
# ceiling for the sup box errors of hydro-L400 on any seed: seed 201
# gives 0.013 (S) and 0.051 (R), and the standard deviation of one box
# density (4356 sites) is below 0.008
HYDRO_ERR_CEILING = 0.1

Checks = list  # of (label, passed) pairs


@dataclass(frozen=True)
class Workload:
    """One workload.  ``recorded_seed`` is the seed whose outputs are in
    ``references.json`` (None: the workload takes no seed).  With a
    ``probe``, the timed job always runs the recorded inputs and the
    seed drives an untimed run of the probe instead."""

    name: str
    recorded_seed: int | None
    setup: Callable[[int], Any]     # seed -> context for the job
    job: Callable[[Any], Any]       # context -> JSON outputs
    compare: Callable[[Any, Any], Checks]       # (outputs, reference)
    invariants: Callable[[Any, Any], Checks] | None = None  # (outputs, context)
    probe: Callable[[Any], Any] | None = None   # context -> JSON outputs


@contextlib.contextmanager
def capture_results(owner, attr):
    """Collect the return values of ``owner.attr`` while the block runs.

    The library exposes the bisection trace only on ``SpeedResult``,
    which ``build_phi`` drops; this keeps it for the output check.
    """
    original = vars(owner)[attr]
    results = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    setattr(owner, attr, wrapper)
    try:
        yield results
    finally:
        setattr(owner, attr, original)


def _close(a, b) -> bool:
    return abs(a - b) <= FLOAT_TOL


# -- phi: build_phi in the phi_main configuration -------------------------

def _phi_setup(seed):
    return {"dk": kernel.discretize(SPEC, 8)}


def _build_phi(dk):
    dirs = wavespeed.default_directions()
    return wavespeed.build_phi(dirs[0], dirs[1], dirs[2], dk, PARAMS, n=4,
                               speed_tol=0.02)


def _phi_job(ctx):
    with capture_results(wavespeed, "estimate_cstar") as speeds:
        phi = _build_phi(ctx["dk"])
    return {
        "traces": [[[c, cls] for c, cls in r.trace] for r in speeds],
        "brackets": [list(r.bracket) for r in speeds],
        "speeds": list(phi.speeds),
        "constants": {"alpha": phi.alpha, "m": phi.m, "M": phi.M,
                      "l": phi.l, "c": phi.c},
    }


def _phi_compare(out, ref):
    checks = [("direction count", len(out["traces"]) == len(ref["traces"]))]
    for i, (got, want) in enumerate(zip(out["traces"], ref["traces"])):
        checks.append((f"direction {i} probe classes", got == want))
    for i, (got, want) in enumerate(zip(out["brackets"], ref["brackets"])):
        checks.append((f"direction {i} bracket", got == want))
    checks.append(("speeds", out["speeds"] == ref["speeds"]))
    for key, value in ref["constants"].items():
        checks.append((f"constant {key}",
                       _close(out["constants"][key], value)))
    return checks


# -- hydro-L400: one large-lattice hydrodynamic comparison ----------------

def _hydro_setup(seed):
    return {"cfg": experiments.ExperimentConfig(
        beta=1.0, eta=0.05, kernel=kernel.build_kernel(SPEC), L_list=(400,),
        gamma=GAMMA, W=4.0, steps=5, seeds=(seed,), threads=1)}


def _hydro_job(ctx):
    return experiments.hydro_convergence(ctx["cfg"], 0.5)


def _hydro_compare(out, ref):
    checks = [("row count", len(out) == len(ref))]
    for got, want in zip(out, ref):
        tag = f"seed {want['seed']}"
        checks.append((f"{tag} boxes", got["boxes"] == want["boxes"]
                       and got["m"] == want["m"]))
        checks.append((f"{tag} sup_S_err",
                       _close(got["sup_S_err"], want["sup_S_err"])))
        checks.append((f"{tag} sup_R_err",
                       _close(got["sup_R_err"], want["sup_R_err"])))
    return checks


def _hydro_invariants(out, ctx):
    # box geometry depends only on L, W and gamma, so it is seed-free
    ref = load_references()["hydro-L400"][0]
    checks = [("row count", len(out) == 1)]
    for row in out:
        tag = f"seed {row['seed']}"
        checks.append((f"{tag} boxes", row["boxes"] == ref["boxes"]
                       and row["m"] == ref["m"]))
        for key in ("sup_S_err", "sup_R_err"):
            checks.append((f"{tag} {key} in [0, {HYDRO_ERR_CEILING}]",
                           0.0 <= row[key] <= HYDRO_ERR_CEILING))
    return checks


# -- compare-L50: the coupled stress run where errors occur ---------------
#
# Its cost follows the number of live regions, which rare lattice errors
# create: over blocks of five seeds the job took 2.6 to 8.7 s.  So the
# timed job always runs the recorded seeds 351-355, and the workload
# seed drives an untimed probe block held to invariants.

COMPARE_L, COMPARE_W, COMPARE_STEPS, COMPARE_SEEDS = 50, 3.0, 60, 5
COMPARE_RECORDED_SEED = 351


def _compare_setup(seed):
    phi = _build_phi(kernel.discretize(SPEC, 8))
    dk = kernel.discretize(SPEC, COMPARE_L)
    return {"phi": phi, "dk": dk,
            "cfg": comparison.make_comparison_config(phi, dk, COMPARE_L,
                                                     GAMMA),
            "side": experiments.aligned_side(COMPARE_L, GAMMA, COMPARE_W),
            "probe_seed": seed}


def _coupled_runs(ctx, first_seed):
    runs = []
    for seed in range(first_seed, first_seed + COMPARE_SEEDS):
        res = experiments.run_coupled(PARAMS, ctx["dk"], GAMMA, ctx["side"],
                                      COMPARE_STEPS, seed, ctx["phi"],
                                      ctx["cfg"])
        runs.append({
            "seed": seed,
            "points": [[pt.location[0], pt.location[1], pt.t, pt.type,
                        pt.box[0], pt.box[1], pt.step] for pt in res.points],
            "n_regions": res.n_regions,
            "violations": res.violations,
            "error_rate": res.error_rate,
        })
    return runs


def _compare_job(ctx):
    return _coupled_runs(ctx, COMPARE_RECORDED_SEED)


def _compare_probe(ctx):
    return _coupled_runs(ctx, ctx["probe_seed"])


def _compare_compare(out, ref):
    checks = [("seed count", len(out) == len(ref))]
    for got, want in zip(out, ref):
        tag = f"seed {want['seed']}"
        checks.append((f"{tag} error points", got["points"] == want["points"]))
        checks.append((f"{tag} regions", got["n_regions"] == want["n_regions"]))
        checks.append((f"{tag} violations", got["violations"] == 0))
    return checks


def _compare_invariants(out, ctx):
    bound = ctx["cfg"].error_rate_bound()
    checks = [("seed count", len(out) == COMPARE_SEEDS)]
    for run in out:
        tag = f"seed {run['seed']}"
        checks.append((f"{tag} violations", run["violations"] == 0))
        checks.append((f"{tag} error rate within bound",
                       run["error_rate"] <= bound))
    return checks


# -- phase-scan-L10: many small lattice steps -----------------------------

PHASE_BETAS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)
PHASE_SEEDS = 5


def _phase_setup(seed):
    return {"cfg": experiments.ExperimentConfig(
        kernel=kernel.build_kernel(SPEC), beta_grid=PHASE_BETAS,
        eta_grid=(0.1,), horizon=300, phase_L=10, phase_W=8.0,
        seeds=tuple(range(seed, seed + PHASE_SEEDS)), threads=1)}


def _phase_job(ctx):
    cfg = ctx["cfg"]
    return (experiments.phase_scan(cfg, init="all_ones")
            + experiments.phase_scan(cfg, init="finite_square",
                                     square_side=2.0))


def _phase_compare(out, ref):
    checks = [("row count", len(out) == len(ref))]
    for got, want in zip(out, ref):
        checks.append((f"{want['init']} beta {want['beta']} seed "
                       f"{want['seed']}", got == want))
    return checks


def _phase_invariants(out, ctx):
    # same-seed runs share coins, so survival is monotone in beta
    per_run = {}
    for row in out:
        per_run.setdefault((row["init"], row["seed"]), []).append(
            (row["beta"], row["survived"]))
    checks = [("row count",
               len(out) == 2 * PHASE_SEEDS * len(PHASE_BETAS))]
    for (init, seed), seq in sorted(per_run.items()):
        survived = [s for _, s in sorted(seq)]
        checks.append((f"{init} seed {seed} survival nondecreasing in beta",
                       survived == sorted(survived)))
    return checks


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("phi", None, _phi_setup, _phi_job, _phi_compare),
    Workload("hydro-L400",
             201, _hydro_setup, _hydro_job, _hydro_compare,
             _hydro_invariants),
    Workload("compare-L50",
             COMPARE_RECORDED_SEED, _compare_setup, _compare_job,
             _compare_compare, _compare_invariants, probe=_compare_probe),
    Workload("phase-scan-L10",
             401, _phase_setup, _phase_job, _phase_compare,
             _phase_invariants),
)}


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def normalise(outputs):
    """Outputs as they read back from JSON, so that tuples, numpy
    scalars and lists compare alike."""
    return json.loads(json.dumps(outputs, default=_to_builtin))


def _to_builtin(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"cannot serialise {type(value).__name__}")


def _on_reference(workload: Workload, seed: int) -> bool:
    return workload.recorded_seed in (None, seed)


def check(workload: Workload, seed: int, outputs, ctx) -> Checks:
    """Checks of one job's outputs: against the reference when the job
    ran the recorded inputs, against invariants otherwise."""
    outputs = normalise(outputs)
    if workload.probe is not None or _on_reference(workload, seed):
        return workload.compare(outputs, load_references().get(workload.name))
    return workload.invariants(outputs, ctx)


def probe_checks(workload: Workload, seed: int, ctx) -> Checks:
    """Invariant checks of the untimed probe on the seed's inputs; none
    when the workload has no probe or the seed is the recorded one."""
    if workload.probe is None or _on_reference(workload, seed):
        return []
    return workload.invariants(normalise(workload.probe(ctx)), ctx)
