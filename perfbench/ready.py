"""Set-up of one workload in a fresh process: the program's start-up cost.

    python3 perfbench/ready.py fig4b_point

Imports risofdm from this checkout's ``src/``, validates the workload's
config, and prints the monotonic clock and the imported module's path as
one JSON line.  ``run.py`` starts it and times process start to that
clock.  It imports nothing else, so the time is the program's, not the
benchmark's.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import risofdm  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

build_config(WORKLOADS[sys.argv[1]], 1, 1)
print(json.dumps({"ready": time.monotonic(), "module": str(Path(risofdm.__file__).resolve())}))
