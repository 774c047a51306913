"""Single entry point: every module behind reproducible subcommands.

One JSON config document per run; command-line flags override config
keys.  Outputs are CSV/JSON data files plus a manifest; data files are
byte-identical across reruns with the same seed at any thread count.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 acceptance
violation (compare --assert).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import comparison, experiments, lattice, manifest
from .ide import Field2D, evolve
from .kernel import KernelSpec, build_kernel, discretize
from .mean_field import Params, equilibria, mean_field_trace
from .rng import LatticeRng
from .wavespeed import (build_phi, default_directions, estimate_cstar,
                        front_speed_tracking)

SUBCOMMANDS = ("mean-field", "ide-run", "speed", "lattice-run", "hydro",
               "compare", "phase-scan", "error-rate")


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            cfg = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        cfg[key.replace("_", "-")] = value
    return cfg

def _out_dir(cfg) -> Path:
    out = os.environ.get("QCP_OUT_DIR") or cfg.get("out-dir") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _kernel_spec(cfg) -> KernelSpec:
    kern = cfg.get("kernel", {"family": "uniform-square",
                              "params": {"radius": 1.0}})
    if isinstance(kern, str):
        kern = json.loads(kern)
    try:
        return build_kernel(KernelSpec(kern["family"], dict(kern["params"])))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad kernel spec: {exc}") from exc


def _params(cfg) -> Params:
    try:
        return Params(float(cfg.get("beta", 1.0)), float(cfg.get("eta", 0.05)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _count(cfg, key: str, default: int) -> int:
    n = int(cfg.get(key, default))
    if n < 0:
        raise ConfigError(f"{key} must be nonnegative, got {n}")
    return n


def _window(cfg, default_L: int) -> tuple[int, int]:
    """L and the side in sites of the W x W window, at least one each."""
    L = int(cfg.get("L", default_L))
    side = int(round(float(cfg.get("W", 4.0)) * L))
    if L < 1 or side < 1:
        raise ConfigError(f"L={L} and W={cfg.get('W', 4.0)} leave no site")
    return L, side


def _experiment_config(cfg) -> experiments.ExperimentConfig:
    fields = {
        "beta": float(cfg.get("beta", 1.0)),
        "eta": float(cfg.get("eta", 0.05)),
        "kernel": _kernel_spec(cfg),
        "gamma": float(cfg.get("gamma", 0.3)),
        "W": float(cfg.get("W", 4.0)),
        "steps": int(cfg.get("steps", 5)),
        "horizon": int(cfg.get("horizon", 500)),
        "K": float(cfg.get("K", 1.0)),
        "block_N": int(cfg.get("block-N", 30)),
        "threads": int(cfg.get("threads", 1)),
    }
    if "L-list" in cfg:
        fields["L_list"] = tuple(int(x) for x in cfg["L-list"])
    if "seeds" in cfg:
        fields["seeds"] = tuple(int(s) for s in cfg["seeds"])
    elif "seed" in cfg:
        fields["seeds"] = (int(cfg["seed"]),)
    if "beta-grid" in cfg:
        fields["beta_grid"] = tuple(float(x) for x in cfg["beta-grid"])
    if "eta-grid" in cfg:
        fields["eta_grid"] = tuple(float(x) for x in cfg["eta-grid"])
    if "phase-L" in cfg:
        fields["phase_L"] = int(cfg["phase-L"])
    if "phase-W" in cfg:
        fields["phase_W"] = float(cfg["phase-W"])
    try:
        return experiments.ExperimentConfig(**fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _manifest_config(cfg) -> dict:
    out = {}
    for k, v in cfg.items():
        out[k] = v.to_json() if isinstance(v, KernelSpec) else v
    return out


# -- subcommand handlers ---------------------------------------------------

def _cmd_mean_field(cfg) -> int:
    p = _params(cfg)
    steps = _count(cfg, "trace-steps", 100)
    eq = equilibria(p)
    print(",".join(repr(r.value) for r in eq.roots))
    out = cfg.get("out")
    if out:
        path = _out_dir(cfg) / out
        trace = mean_field_trace(p, float(cfg.get("v0", 0.5)), steps)
        manifest.write_csv(path, [{"n": i, "v": float(v)}
                                  for i, v in enumerate(trace)])
        manifest.write_manifest(path.with_suffix(".manifest.json"),
                                "mean-field", _manifest_config(cfg), [path])
    return 0


def _build_u0(cfg, L, side):
    preset = cfg.get("u0", {"type": "constant", "value": 0.5})
    xs = np.arange(side) / L
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    kind = preset.get("type", "constant")
    if kind == "constant":
        vals = np.full_like(gx, float(preset.get("value", 0.5)))
    elif kind == "square":
        half = float(preset.get("side", 2.0)) / 2.0
        cx = cy = xs[-1] / 2.0
        level = float(preset.get("level", 1.0))
        inside = (np.abs(gx - cx) <= half) & (np.abs(gy - cy) <= half)
        vals = np.where(inside, level, float(preset.get("background", 0.0)))
    elif kind == "cosine":
        mean = float(preset.get("mean", 0.55))
        amp = float(preset.get("amplitude", 0.12))
        period = float(preset.get("period", xs[-1] + 1.0 / L))
        vals = mean + amp * np.cos(2 * np.pi * gx / period) \
            * np.cos(2 * np.pi * gy / period)
    else:
        raise ConfigError(f"unknown u0 preset {kind!r}")
    return np.clip(vals, 0.0, 1.0)


def _taps(cfg, n: int) -> list[int]:
    """Sorted distinct output steps, each an integer in [0, n]."""
    try:
        taps = sorted(set(int(t) for t in cfg.get("taps", [n])))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"taps must be integers: {exc}") from exc
    if taps and (taps[0] < 0 or taps[-1] > n):
        raise ConfigError(f"taps must lie in [0, {n}], got {taps}")
    return taps


def _cmd_ide_run(cfg) -> int:
    p = _params(cfg)
    spec = _kernel_spec(cfg)
    L, side = _window(cfg, 8)
    n = _count(cfg, "steps", 10)
    taps = _taps(cfg, n)
    dk = discretize(spec, L)
    boundary = cfg.get("boundary", "periodic")
    field = Field2D(0.0, 0.0, 1.0 / L, _build_u0(cfg, L, side),
                    boundary=boundary,
                    clamp_value=float(cfg.get("clamp", 0.0)))
    fields = evolve(field, dk, p, n, taps=taps)
    outputs = []
    outdir = _out_dir(cfg)
    for t, f in zip(taps, fields):
        path = outdir / f"field_{t:05d}.csv"
        f.to_csv(path)
        outputs.append(path)
    manifest.write_manifest(outdir / "ide-run.manifest.json", "ide-run",
                            _manifest_config(cfg), outputs)
    return 0


def _cmd_speed(cfg) -> int:
    p = _params(cfg)
    if not p.bistable:
        raise ConfigError("speed needs bistable parameters "
                          "(beta (1 - eta) > 4 eta)")
    spec = _kernel_spec(cfg)
    dk = discretize(spec, int(cfg.get("kernel-L", 8)))
    angle = float(cfg.get("angle", 0.0))
    tol = float(cfg.get("tol", 0.01))
    xi = (np.cos(np.deg2rad(angle)), np.sin(np.deg2rad(angle)))
    method = cfg.get("method", "bisection")
    rows = []
    if method in ("bisection", "both"):
        kw = {}
        if cfg.get("max-iter") is not None:
            kw["max_iter"] = int(cfg["max-iter"])
        try:
            res = estimate_cstar(xi, dk, p, tol=tol, **kw)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows.append({"angle": angle, "c_star": res.c_star,
                     "bracket_lo": res.bracket[0],
                     "bracket_hi": res.bracket[1],
                     "method": "weinberger-bisection"})
    if method in ("tracking", "both"):
        c = front_speed_tracking(xi, dk, p,
                                 steps=int(cfg.get("track-steps", 80)))
        rows.append({"angle": angle, "c_star": c, "bracket_lo": c,
                     "bracket_hi": c, "method": "front-tracking"})
    if not rows:
        raise ConfigError(f"unknown speed method {method!r}")
    for row in rows:
        print(",".join(manifest.fmt_cell(row[c]) for c in
                       ("angle", "c_star", "bracket_lo", "bracket_hi",
                        "method")))
    out = cfg.get("out")
    if out:
        path = _out_dir(cfg) / out
        manifest.write_csv(path, rows, ["angle", "c_star", "bracket_lo",
                                        "bracket_hi", "method"])
        manifest.write_manifest(path.with_suffix(".manifest.json"), "speed",
                                _manifest_config(cfg), [path])
    return 0


def _cmd_lattice_run(cfg) -> int:
    p = _params(cfg)
    spec = _kernel_spec(cfg)
    L, side = _window(cfg, 20)
    seed = int(cfg.get("seed", 0))
    steps = _count(cfg, "steps", 100)
    snap_every = int(cfg.get("snapshot-every", 0))
    dk = discretize(spec, L)
    rng = LatticeRng(seed)
    init_mode = cfg.get("init", "all_ones")
    if init_mode.startswith("product:"):
        state = lattice.init("product", L, side=side, rng=rng,
                             p=float(init_mode.split(":", 1)[1]))
    elif init_mode == "all_ones":
        state = lattice.init("all_ones", L, side=side)
    else:
        raise ConfigError(f"unknown init {init_mode!r}")
    outdir = _out_dir(cfg)
    outputs = []
    trace = [{"n": 0, "density": state.density()}]
    for n in range(1, steps + 1):
        state, _ = lattice.step(state, dk, p, rng, anchor="site")
        trace.append({"n": n, "density": state.density()})
        if snap_every and n % snap_every == 0:
            path = outdir / f"snapshot_{n:05d}.json"
            lattice.save_snapshot(state, path, seed=seed, params=p)
            outputs.append(path)
    trace_path = outdir / "density.csv"
    manifest.write_csv(trace_path, trace, ["n", "density"])
    outputs.append(trace_path)
    manifest.write_manifest(outdir / "lattice-run.manifest.json",
                            "lattice-run", _manifest_config(cfg), outputs,
                            seed=seed)
    return 0


def _cmd_hydro(cfg) -> int:
    ecfg = _experiment_config(cfg)
    L0 = min(ecfg.L_list)
    side0 = int(round(ecfg.W * L0))
    u0_vals = _build_u0(cfg, L0, side0)
    u0 = Field2D(0.0, 0.0, 1.0 / L0, u0_vals)
    rows = experiments.hydro_convergence(ecfg, u0)
    outdir = _out_dir(cfg)
    path = outdir / "hydro.csv"
    manifest.write_csv(path, rows)
    manifest.write_manifest(outdir / "hydro.manifest.json", "hydro",
                            _manifest_config(cfg), [path])
    return 0


def _cmd_phase_scan(cfg) -> int:
    ecfg = _experiment_config(cfg)
    outdir = _out_dir(cfg)
    outputs = []
    freq_rows = []
    for init in ("all_ones", "finite_square"):
        rows = experiments.phase_scan(ecfg, init=init)
        path = outdir / f"phase_{init}.csv"
        manifest.write_csv(path, rows)
        outputs.append(path)
        for (b, e), f in experiments.survival_table(rows).items():
            freq_rows.append({"init": init, "beta": b, "eta": e,
                              "survival_freq": f})
    path = outdir / "phase_summary.csv"
    manifest.write_csv(path, freq_rows, ["init", "beta", "eta",
                                         "survival_freq"])
    outputs.append(path)
    manifest.write_manifest(outdir / "phase-scan.manifest.json", "phase-scan",
                            _manifest_config(cfg), outputs)
    return 0


def _default_phi(ecfg, speed_tol=0.05, phi_L=8):
    dk = discretize(ecfg.kernel, phi_L)
    dirs = default_directions()
    return build_phi(dirs[0], dirs[1], dirs[2], dk, ecfg.params,
                     speed_tol=speed_tol)


def _cmd_error_rate(cfg) -> int:
    ecfg = _experiment_config(cfg)
    phi = _default_phi(ecfg, phi_L=int(cfg.get("phi-L", 8)))
    rows = experiments.error_rate(ecfg, phi)
    outdir = _out_dir(cfg)
    path = outdir / "error_rate.csv"
    manifest.write_csv(path, rows)
    manifest.write_manifest(outdir / "error-rate.manifest.json", "error-rate",
                            _manifest_config(cfg), [path])
    return 0


def _cmd_compare(cfg) -> int:
    ecfg = _experiment_config(cfg)
    phi = _default_phi(ecfg, phi_L=int(cfg.get("phi-L", 8)))
    L = ecfg.L_list[0]
    dk = discretize(ecfg.kernel, L)
    cmp_cfg = comparison.make_comparison_config(phi, dk, L, ecfg.gamma)
    side = experiments.aligned_side(L, ecfg.gamma, ecfg.W)
    rows = []
    total_violations = 0
    for seed in ecfg.seeds:
        res = experiments.run_coupled(ecfg.params, dk, ecfg.gamma, side,
                                      ecfg.steps, seed, phi, cmp_cfg)
        total_violations += res.violations
        for rep in res.reports:
            rows.append({"seed": seed, "n": rep.time, "bad_boxes": rep.n_bad,
                         "violations": len(rep.violations)})
    outdir = _out_dir(cfg)
    path = outdir / "containment.csv"
    manifest.write_csv(path, rows, ["seed", "n", "bad_boxes", "violations"])
    manifest.write_manifest(outdir / "compare.manifest.json", "compare",
                            _manifest_config(cfg), [path],
                            extra={"total_violations": total_violations,
                                   "alpha": cmp_cfg.alpha,
                                   "r": cmp_cfg.r, "b": cmp_cfg.b,
                                   "c": cmp_cfg.c})
    if cfg.get("assert") and total_violations > 0:
        print(f"containment violated {total_violations} times",
              file=sys.stderr)
        return 3
    return 0


# -- argument parsing ------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="qcp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config document")
        sp.add_argument("--out-dir", dest="out_dir",
                        help="output directory (env QCP_OUT_DIR overrides)")
        sp.add_argument("--threads", type=int, help="worker count; results "
                        "are independent of it")
        for flag, kw in flags.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=func)

    num = {"type": float}
    add("mean-field", _cmd_mean_field,
        {"--beta": num, "--eta": num, "--v0": num,
         "--trace-steps": {"type": int}, "--out": {}})
    add("ide-run", _cmd_ide_run,
        {"--beta": num, "--eta": num, "--L": {"type": int},
         "--W": num, "--steps": {"type": int}, "--boundary": {}})
    add("speed", _cmd_speed,
        {"--beta": num, "--eta": num, "--angle": num, "--tol": num,
         "--max-iter": {"type": int}, "--kernel-L": {"type": int},
         "--method": {"choices": ["bisection", "tracking", "both"]},
         "--track-steps": {"type": int}, "--out": {}})
    add("lattice-run", _cmd_lattice_run,
        {"--beta": num, "--eta": num, "--L": {"type": int}, "--W": num,
         "--seed": {"type": int}, "--steps": {"type": int},
         "--snapshot-every": {"type": int}, "--init": {}})
    add("hydro", _cmd_hydro,
        {"--beta": num, "--eta": num, "--gamma": num, "--W": num,
         "--steps": {"type": int}})
    add("compare", _cmd_compare,
        {"--beta": num, "--eta": num, "--gamma": num, "--W": num,
         "--steps": {"type": int}, "--phi-L": {"type": int},
         "--assert": {"action": "store_true", "default": None}})
    add("phase-scan", _cmd_phase_scan,
        {"--horizon": {"type": int}, "--phase-L": {"type": int},
         "--phase-W": num})
    add("error-rate", _cmd_error_rate,
        {"--beta": num, "--eta": num, "--gamma": num, "--W": num,
         "--steps": {"type": int}, "--phi-L": {"type": int}})
    return parser


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # CLI boundary: map to exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
