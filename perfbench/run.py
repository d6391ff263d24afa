"""risofdm Monte Carlo benchmark.

    python3 perfbench/run.py --workload fig4b_point --seed 1 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) in a fresh Python process that
imports risofdm from this checkout's ``src/``, repeats the workload's grid
for ``--seconds`` seconds through ``run_monte_carlo`` and checks every
repetition's output.  ``--trace 0`` reports the end-to-end figures a user
sees, with throughput in units of a calibration kernel timed before each
repetition (see ``calibration.py``) and set-up time normalised by a bare
numpy import (see ``setup_seconds``); ``--trace 1`` replays the same trials
through a recorder and reports the per-stage split.  Prints one ``name
value unit`` line per metric, a manifest line, and as its last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count grid points, so
failed/attempted is the failed fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PAIRS = 16  # set-up launches, each paired with a numpy-import launch
# setup_s is in seconds at this duration of a bare ``import numpy`` launch.
NUMPY_IMPORT_S = 0.15
NUMPY_ONLY = ["-c", "import time, numpy; print(time.monotonic())"]
TIME_LIMIT = 170.0  # seconds for the whole benchmark run

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package sources, to identify a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "risofdm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child(argv: list[str], deadline: float):
    """Run Python with ``argv`` in a fresh process; its last stdout line is the result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("perfbench: out of time")
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(
            f"perfbench: {' '.join(argv)} exited with {proc.returncode} without a result"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_launch(workload: str, deadline: float) -> float:
    """Process start to a validated config, in a fresh process."""
    start = time.monotonic()
    ready = child([str(HERE / "ready.py"), workload], deadline)
    module = Path(ready["module"])
    if SRC not in module.parents:
        raise SystemExit(f"perfbench: imported risofdm from {module}, not from {SRC}")
    return ready["ready"] - start


def numpy_launch(deadline: float) -> float:
    """Process start to ``import numpy`` done, in a fresh process."""
    start = time.monotonic()
    return child(NUMPY_ONLY, deadline) - start


def setup_seconds(workload: str, deadline: float) -> tuple[float, list]:
    """Set-up time, normalised by a bare numpy import timed beside it.

    Process start-up on a shared host drifts by 20-30% over tens of
    minutes, with the disk cache and the neighbours' load.  A launch that
    only imports numpy (about 85% of set-up today) drifts with it, so the
    benchmark reports the median ratio of each set-up launch to the numpy
    launch next to it, in seconds at a numpy import of ``NUMPY_IMPORT_S``.
    Work the program adds to or removes from set-up moves the ratio in
    full.  Returns that figure and the (set-up s, numpy s) pairs.
    """
    pairs = []
    for i in range(SETUP_PAIRS):
        if i % 2:  # alternate the order, so neither launch warms the other's cache
            numpy_s = numpy_launch(deadline)
            setup_s = setup_launch(workload, deadline)
        else:
            setup_s = setup_launch(workload, deadline)
            numpy_s = numpy_launch(deadline)
        pairs.append((setup_s, numpy_s))
    return NUMPY_IMPORT_S * statistics.median(a / b for a, b in pairs), pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    if not (SRC / "risofdm" / "__init__.py").is_file():
        print(f"perfbench: no risofdm sources in {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT
    if not args.trace:
        setup, setup_pairs = setup_seconds(args.workload, deadline)
    result = child(
        [
            str(HERE / "measure.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        deadline,
    )
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (setup, "s")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    details = result["details"]
    if not args.trace:
        # Uncalibrated figures: what a user sees, but they drift with the host.
        print(f"trials_per_s {details['trials_per_s']:.6g} 1/s")
        print(f"trials_per_cpu_s {details['trials_per_cpu_s']:.6g} 1/cpu_s")
        print(f"calibration_s {details['calibration_s']:.6g} s")
        print(f"setup_raw_s {statistics.median(a for a, _ in setup_pairs):.6g} s")
        print(f"numpy_import_s {statistics.median(b for _, b in setup_pairs):.6g} s")
    print(
        f"failed_frac {details['failed_frac']:.6g} fraction "
        f"({result['failed']} of {result['attempted']} grid points)"
    )
    info = dict(result["manifest"], git_sha=git_sha(), src_sha256=src_sha256())
    if not args.trace:
        info.update(setup_pairs_s=setup_pairs)
    info.update(details)
    print("manifest " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["attempted"] > 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
