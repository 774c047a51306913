"""Record the reference outputs the benchmark checks against.

Run once on the commit whose outputs are the reference:

    python3 perfbench/record_references.py

It runs every workload on its recorded seed and rewrites
``perfbench/references.json``.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> None:
    refs = {}
    for w in workloads.WORKLOADS.values():
        seed = w.recorded_seed if w.recorded_seed is not None else 0
        t0 = time.perf_counter()
        ctx = w.setup(seed)
        t1 = time.perf_counter()
        refs[w.name] = workloads.normalise(w.job(ctx))
        t2 = time.perf_counter()
        print(f"{w.name}: setup {t1 - t0:.2f} s, job {t2 - t1:.2f} s",
              file=sys.stderr)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
