"""Record the reference means the benchmark checks its outputs against.

    python3 perfbench/record_reference.py

Runs each reference config with many trials and writes
``perfbench/reference.json``.  Re-record only when the statistics the
program computes are meant to change; a speed-up must pass against the
existing file.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE_PATH  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

SEED = 20210128
TRIALS = {"fig4b": 20000, "fig4a_m64": 10000, "fig2_grid": 4000}


def main() -> int:
    from risofdm import run_monte_carlo

    out = {}
    for workload in WORKLOADS.values():
        name = workload.reference
        if name in out:
            continue
        cfg = build_config(workload, SEED, TRIALS[name])
        curve = run_monte_carlo(cfg, workers=len(os.sched_getaffinity(0)))
        out[name] = {
            "seed": SEED,
            "trials": TRIALS[name],
            "config": workload.config,
            "rows": [
                {"x": p.x, "metric": p.metric, "mean": p.mean, "ci95": p.ci95}
                for p in sorted(curve, key=lambda p: (p.metric, p.x))
            ],
        }
        print(f"{name}: {len(curve)} rows", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
