"""Single entry point: every module behind reproducible subcommands.

One JSON config document per run; command-line flags override config
keys.  Outputs are CSV/JSON data files plus a manifest; data files are
byte-identical across reruns with the same seed at any thread count.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 acceptance
violation (compare --assert).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import typing
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import experiments, lattice, manifest
from .experiments import ExperimentConfig
from .ide import Field2D, evolve
from .kernel import KernelSpec, discretize
from .mean_field import Params, check_trace, equilibria, mean_field_trace
from .rng import LatticeRng, producer
from .wavespeed import (build_phi, check_tracking, default_directions,
                        estimate_cstar, front_speed_tracking)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@contextmanager
def _invalid(*keys, errors=(TypeError, ValueError)):
    """Re-raise errors from the block as a ConfigError naming its keys."""
    try:
        yield
    except errors as exc:
        prefix = f"{', '.join(keys)}: " if keys else ""
        raise ConfigError(f"{prefix}{exc}") from exc


# -- the config schema -----------------------------------------------------
# Each subcommand's table maps every key it reads to (type, default).  Range
# checks belong to the library objects the handlers build from the values.

# what each scalar type accepts from JSON or a flag; a bool is no number
_SCALARS = {int: (int, str), float: (int, float, str), str: (str,),
            bool: (bool,), dict: (dict,)}


def _count(value) -> int:
    """A nonnegative integer: a step count or interval."""
    n = _convert(int, value)
    if n < 0:
        raise ValueError(f"must be nonnegative, got {n}")
    return n


def _convert(tp, value):
    """value as the declared type tp: a scalar class, KernelSpec, X | None,
    tuple[X, ...], a Literal or a converter function.  Raises TypeError or
    ValueError for a value that is not one."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:  # X | None
        return None if value is None else _convert(args[0], value)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(_convert(args[0], v) for v in value)
    if origin is typing.Literal:
        if value not in args:
            raise ValueError(f"expected one of {args}, got {value!r}")
        return value
    if tp is KernelSpec:  # {"family": ..., "params": {...}}, maybe as text
        return KernelSpec.from_json(
            value if isinstance(value, str) else json.dumps(value))
    if tp not in _SCALARS:  # a converter function
        return tp(value)
    if tp is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if (not isinstance(value, _SCALARS[tp])
            or isinstance(value, bool) != (tp is bool)):
        raise TypeError(f"expected {tp.__name__}, got {value!r}")
    return tp(value)


# one key per ExperimentConfig field, "_" -> "-", with its annotation and
# default
_FIELDS = {f.name.replace("_", "-"): f
           for f in dataclasses.fields(ExperimentConfig)}
_HINTS = typing.get_type_hints(ExperimentConfig)
_EXPERIMENT = {key: (_HINTS[f.name], f.default_factory()
                     if f.default is dataclasses.MISSING else f.default)
               for key, f in _FIELDS.items()}


def _shared(*keys) -> dict:
    return {k: _EXPERIMENT[k] for k in keys}


_COMMON = {"out-dir": (str, ".")}
_OUT = {"out": (str | None, None)}
_U0 = {"u0": (dict, {})}  # a preset for _u0_field

SCHEMA = {
    "mean-field": {**_COMMON, **_OUT, **_shared("beta", "eta"),
                   "v0": (float, 0.5), "trace-steps": (int, 100)},
    "ide-run": {**_COMMON, **_U0, **_shared("beta", "eta", "kernel", "W"),
                "L": (int, 8), "steps": (_count, 10),
                "taps": (tuple[int, ...] | None, None),
                "clamp": (float | None, None)},
    "speed": {**_COMMON, **_OUT, **_shared("beta", "eta", "kernel"),
              "kernel-L": (int, 8), "angle": (float, 0.0),
              "tol": (float, 0.01),
              "method": (typing.Literal["bisection", "tracking", "both"],
                         "bisection"),
              "track-steps": (int, 80)},
    "lattice-run": {**_COMMON, **_shared("beta", "eta", "kernel", "W"),
                    "L": (int, 20), "seed": (int, 0), "steps": (_count, 100),
                    "snapshot-every": (_count, 0), "density": (float, 1.0)},
    **dict.fromkeys(("hydro", "compare", "phase-scan", "error-rate"),
                    {**_COMMON, **_EXPERIMENT, "phi-L": (int, 8),
                     "assert": (bool, False)}),
}
# hydro is the one experiment that reads a start density
SCHEMA["hydro"] = {**_COMMON, **_U0, **SCHEMA["hydro"]}
# compare runs one L, since containment.csv has no L column; by default
# the first of the shared list, the one it always ran
SCHEMA["compare"] = {**SCHEMA["compare"], "L-list": (
    _EXPERIMENT["L-list"][0], _EXPERIMENT["L-list"][1][:1])}


def _load_document(path) -> dict:
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    return doc


def _resolve(args) -> dict:
    """Every key of the subcommand's table, from its flag, else the config
    document, else its default, converted to its declared type."""
    table = SCHEMA[args.command]
    given = _load_document(args.config)
    given.update((k, v) for k, v in vars(args).items()
                 if v is not None and k not in ("command", "config"))
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown key(s) for {args.command}: "
                          f"{', '.join(unknown)}")
    cfg = {}
    for key, (tp, default) in table.items():
        with _invalid(key, errors=(TypeError, ValueError, LookupError)):
            cfg[key] = _convert(tp, given[key]) if key in given else default
    cfg["out-dir"] = os.environ.get("QCP_OUT_DIR") or cfg["out-dir"]
    return cfg


def _experiment(cfg) -> ExperimentConfig:
    with _invalid():
        return ExperimentConfig(**{f.name: cfg[key]
                                   for key, f in _FIELDS.items()})


def _out_dir(cfg) -> Path:
    path = Path(cfg["out-dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- subcommand handlers ---------------------------------------------------
# Each handler builds its library objects before any work or output; a run
# that checks its own arguments first is caught for ValueError only.

def _cmd_mean_field(cfg) -> int:
    with _invalid():
        p = Params(cfg["beta"], cfg["eta"])
    with _invalid("v0", "trace-steps", errors=ValueError):
        check_trace(cfg["v0"], cfg["trace-steps"])
    if cfg["out"]:  # the trace is computed only to be written
        trace = mean_field_trace(p, cfg["v0"], cfg["trace-steps"])
        path = _out_dir(cfg) / cfg["out"]
        manifest.write_csv(path, [{"n": i, "v": float(v)}
                                  for i, v in enumerate(trace)])
        manifest.write_manifest(path.with_suffix(".manifest.json"),
                                "mean-field", cfg, [path])
    print(",".join(map(repr, equilibria(p).roots)))
    return 0


# each u0 preset's numbers with their defaults; a cosine's period
# defaults to the window's side
_U0_PRESETS = {"constant": {"value": 0.5},
               "square": {"side": 2.0, "level": 1.0, "background": 0.0},
               "cosine": {"mean": 0.55, "amplitude": 0.12, "period": None}}


def _u0_preset(preset: dict) -> tuple[str, dict]:
    """The preset's type and numbers, defaults filled in.  ValueError for
    an unknown type or key, a number that is not finite, and a constant
    value or a square level or background outside [0, 1]."""
    kind = preset.get("type", "constant")
    if kind not in _U0_PRESETS:
        raise ValueError(f"unknown u0 preset {kind!r}")
    unknown = sorted(set(preset) - {"type", *_U0_PRESETS[kind]})
    if unknown:
        raise ValueError(f"unknown key(s) for a {kind} preset: "
                         f"{', '.join(unknown)}")
    num = {k: preset.get(k, v) for k, v in _U0_PRESETS[kind].items()}
    for k, v in num.items():
        if v is not None:
            num[k] = v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"{kind} preset {k} must be finite, got {v}")
            if k in ("value", "level", "background") and not 0.0 <= v <= 1.0:
                raise ValueError(f"{kind} preset {k} must lie in [0, 1], "
                                 f"got {v}")
    return kind, num


def _u0_field(preset: dict, L: int, W: float, clamp=None) -> Field2D:
    """The u0 preset on the W x W window at spacing 1/L, on its torus or
    clamped (see Field2D).  A cosine is clipped to [0, 1]; the other
    presets must lie in it (_u0_preset)."""
    kind, num = _u0_preset(preset)
    xs = np.arange(lattice.window_side(W, L)) / L
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    if kind == "constant":
        vals = np.full_like(gx, num["value"])
    elif kind == "square":
        half = num["side"] / 2.0
        cx = cy = xs[-1] / 2.0
        inside = (np.abs(gx - cx) <= half) & (np.abs(gy - cy) <= half)
        vals = np.where(inside, num["level"], num["background"])
    else:
        period = xs[-1] + 1.0 / L if num["period"] is None else num["period"]
        vals = np.clip(num["mean"] + num["amplitude"]
                       * np.cos(2 * np.pi * gx / period)
                       * np.cos(2 * np.pi * gy / period), 0.0, 1.0)
    return Field2D(L, vals, clamp)


def _cmd_ide_run(cfg) -> int:
    L, n = cfg["L"], cfg["steps"]
    with _invalid():
        p = Params(cfg["beta"], cfg["eta"])
        dk = discretize(cfg["kernel"], L)
    with _invalid("W", "u0", "clamp"):
        field = _u0_field(cfg["u0"], L, cfg["W"], cfg["clamp"])
    with _invalid("taps", errors=ValueError):  # checks taps first
        fields = evolve(field, dk, p, n, taps=cfg["taps"])
    outdir = _out_dir(cfg)
    outputs = [outdir / f"field_{t:05d}.csv" for t in fields]
    for f, path in zip(fields.values(), outputs):
        f.to_csv(path)
    manifest.write_manifest(outdir / "ide-run.manifest.json", "ide-run",
                            cfg, outputs)
    return 0


def _cmd_speed(cfg) -> int:
    with _invalid():
        p = Params(cfg["beta"], cfg["eta"])
    with _invalid("kernel-L"):
        dk = discretize(cfg["kernel"], cfg["kernel-L"])
    angle, method = cfg["angle"], cfg["method"]
    xi = (np.cos(np.deg2rad(angle)), np.sin(np.deg2rad(angle)))
    with _invalid("angle", "track-steps", errors=ValueError):  # any method
        check_tracking(xi, cfg["track-steps"])
    rows = []
    if method in ("bisection", "both"):
        with _invalid(errors=ValueError):  # checks tol first
            res = estimate_cstar(xi, dk, p, tol=cfg["tol"])
        rows.append({"angle": angle, "c_star": res.c_star,
                     "bracket_lo": res.bracket[0],
                     "bracket_hi": res.bracket[1],
                     "method": "weinberger-bisection"})
    if method in ("tracking", "both"):
        with _invalid(errors=ValueError):  # checks the kernel first
            c = front_speed_tracking(xi, dk, p, steps=cfg["track-steps"])
        rows.append({"angle": angle, "c_star": c, "bracket_lo": c,
                     "bracket_hi": c, "method": "front-tracking"})
    columns = ["angle", "c_star", "bracket_lo", "bracket_hi", "method"]
    for row in rows:
        print(",".join(manifest.fmt_cell(row[c]) for c in columns))
    if cfg["out"]:
        path = _out_dir(cfg) / cfg["out"]
        manifest.write_csv(path, rows, columns)
        manifest.write_manifest(path.with_suffix(".manifest.json"), "speed",
                                cfg, [path])
    return 0


def _cmd_lattice_run(cfg) -> int:
    L, seed = cfg["L"], cfg["seed"]
    with _invalid("seed"):
        rng = LatticeRng(seed)
    with _invalid():
        p = Params(cfg["beta"], cfg["eta"])
        dk = discretize(cfg["kernel"], L)
    with _invalid("W", "density"):
        state = lattice.init(L, lattice.window_side(cfg["W"], L),
                             cfg["density"], rng)
    outdir = _out_dir(cfg)
    outputs = []
    trace = [{"n": 0, "density": state.density()}]
    with producer(rng, state.occ.size, 1, cfg["steps"], p.beta < 1.0):
        for n in range(1, cfg["steps"] + 1):
            state, _ = lattice.step(state, dk, p, rng)
            trace.append({"n": n, "density": state.density()})
            if cfg["snapshot-every"] and n % cfg["snapshot-every"] == 0:
                path = outdir / f"snapshot_{n:05d}.json"
                lattice.save_snapshot(state, path, seed=seed, params=p)
                outputs.append(path)
    trace_path = outdir / "density.csv"
    manifest.write_csv(trace_path, trace, ["n", "density"])
    outputs.append(trace_path)
    manifest.write_manifest(outdir / "lattice-run.manifest.json",
                            "lattice-run", cfg, outputs, seed=seed)
    return 0


def _cmd_hydro(cfg) -> int:
    ecfg = _experiment(cfg)
    with _invalid("W", "L-list", "gamma"):
        experiments.hydro_sides(ecfg)
    with _invalid("u0"):
        kind, num = _u0_preset(cfg["u0"])
        # every node of a constant preset's field holds its number, so the
        # number goes in: hydro_convergence then holds no start grid
        u0 = (num["value"] if kind == "constant"
              else _u0_field(cfg["u0"], min(ecfg.L_list), ecfg.W))
    rows = experiments.hydro_convergence(ecfg, u0)
    outdir = _out_dir(cfg)
    path = outdir / "hydro.csv"
    manifest.write_csv(path, rows)
    manifest.write_manifest(outdir / "hydro.manifest.json", "hydro", cfg,
                            [path])
    return 0


def _cmd_phase_scan(cfg) -> int:
    ecfg = _experiment(cfg)
    with _invalid("phase-W", "phase-L"):
        experiments.square_bounds(ecfg)
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
                            cfg, outputs)
    return 0


def _default_phi(cfg, ecfg: ExperimentConfig):
    with _invalid("phi-L"):
        dk = discretize(ecfg.kernel, cfg["phi-L"])
    return build_phi(*default_directions(), dk, ecfg.params, speed_tol=0.05)


def _cmd_error_rate(cfg) -> int:
    ecfg = _experiment(cfg)
    if ecfg.steps < 1:  # the rates are per step
        raise ConfigError(f"steps: error-rate needs at least 1, "
                          f"got {ecfg.steps}")
    phi = _default_phi(cfg, ecfg)
    rows = experiments.error_rate(ecfg, phi)
    outdir = _out_dir(cfg)
    path = outdir / "error_rate.csv"
    manifest.write_csv(path, rows)
    manifest.write_manifest(outdir / "error-rate.manifest.json", "error-rate",
                            cfg, [path])
    return 0


def _cmd_compare(cfg) -> int:
    ecfg = _experiment(cfg)
    if len(ecfg.L_list) > 1:  # containment.csv has no L column
        raise ConfigError(f"L-list: compare runs one L, got "
                          f"{list(ecfg.L_list)}")
    phi = _default_phi(cfg, ecfg)
    cmp_cfg, _, results = experiments.coupled_runs(ecfg, phi, ecfg.L_list[0])
    rows = [{"seed": res.seed, "n": rep.time, "bad_boxes": rep.n_bad,
             "violations": len(rep.violations)}
            for res in results for rep in res.reports]
    total_violations = sum(res.violations for res in results)
    outdir = _out_dir(cfg)
    path = outdir / "containment.csv"
    manifest.write_csv(path, rows, ["seed", "n", "bad_boxes", "violations"])
    extra = {"total_violations": total_violations, "alpha": cmp_cfg.alpha,
             "r": cmp_cfg.r, "b": cmp_cfg.b, "c": cmp_cfg.c}
    manifest.write_manifest(outdir / "compare.manifest.json", "compare", cfg,
                            [path], extra=extra)
    if cfg["assert"] and total_violations > 0:
        print(f"containment violated {total_violations} times",
              file=sys.stderr)
        return 3
    return 0


# -- argument parsing ------------------------------------------------------

# subcommand -> (handler, keys that also have a flag)
_COMMANDS = {
    "mean-field": (_cmd_mean_field, "beta eta v0 trace-steps out"),
    "ide-run": (_cmd_ide_run, "beta eta L W steps clamp"),
    "speed": (_cmd_speed, "beta eta angle tol kernel-L method track-steps "
                          "out"),
    "lattice-run": (_cmd_lattice_run, "beta eta L W seed steps "
                                      "snapshot-every density"),
    "hydro": (_cmd_hydro, "beta eta gamma W steps threads"),
    "compare": (_cmd_compare, "beta eta gamma W steps phi-L assert threads"),
    "phase-scan": (_cmd_phase_scan, "horizon phase-L phase-W threads"),
    "error-rate": (_cmd_error_rate, "beta eta gamma W steps phi-L threads"),
}
_HELP = {"out-dir": "output directory (env QCP_OUT_DIR overrides)",
         "threads": "seeds run at once on worker processes, each running "
                    "its grid passes inline; results are independent of it"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config document")
        for key in ["out-dir"] + flags.split():
            tp = SCHEMA[name][key][0]
            kw = {}
            if tp is bool:
                kw = {"action": "store_true", "default": None}
            elif typing.get_origin(tp) is typing.Literal:
                kw = {"choices": typing.get_args(tp)}
            sp.add_argument("--" + key, dest=key, help=_HELP.get(key), **kw)
    return parser


def run(argv) -> int:
    """Parse and execute; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_resolve(args))
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
