"""Run manifests and deterministic CSV/JSON output helpers.

Data files carry no timestamps; wall-clock fields live only in the
manifest, so fixed-seed reruns produce byte-identical data outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time


def canonical_json(obj) -> str:
    # dataclass values in a config, such as a KernelSpec, become objects
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=dataclasses.asdict)


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def fmt_cell(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


def write_csv(path, rows, columns=None) -> None:
    rows = list(rows)
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(row.get(c, "")) for c in columns) + "\n")


def write_manifest(path, subcommand: str, config: dict, outputs,
                   seed=None, extra=None) -> None:
    from . import __version__
    doc = {
        "subcommand": subcommand,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "code_version": __version__,
        "outputs": [str(o) for o in outputs],
        "timestamps": {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")},
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True,
                  default=dataclasses.asdict)
        fh.write("\n")
