"""Re-record every pinned output under ``tests/data/``, in one command.

    PYTHONPATH=src python tests/record_pins.py

Each file is written through the call its pin test makes, and the pin
tests read their configs and arguments from here.  A change may re-record
the pins only when it legitimately moves a pinned number, and says which
lines moved and why; ``git diff tests/data`` shows them.  Recording every
file takes about 40 s on a 2-vCPU host, most of it ``verify all``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
from pathlib import Path

from risofdm.cli import main
from risofdm.harness import RECIPES, ExperimentConfig, emit_csv, recipe, run_monte_carlo
from risofdm.verification import MUTATIONS

DATA = Path(__file__).parent / "data"

# One tiny ``both`` config in which every stage runs: periodic and baseline
# frames, the joint estimator, a compensated and an uncompensated comb baseline.
GOLDEN_CONFIG = ExperimentConfig(
    n=32,
    l=4,
    l_cp=5,
    m=[1, 3],
    n_z=3,
    n_p=8,
    snr_db=[5.0, 20.0],
    epsilon={"policy": "uniform"},
    trials=8,
    base_seed=2024,
    estimator="both",
    compensate_baseline=True,
)

# The paper's Fig. 3 operation counts.
FIG3_ARGS = ("complexity", "--sweep", "m=1:1024:x2", "--n", "1024", "--l", "102", "--n-z", "4")


def recipe_config(name: str) -> ExperimentConfig:
    """The preset ``name`` at the 8 trials its pin holds."""
    return dataclasses.replace(recipe(name), trials=8)


def mutation_args(mutation: str) -> tuple[str, ...]:
    return ("verify", "exactness", "--mutation", mutation)


def cli_stdout(*args: str) -> bytes:
    """What ``risofdm <args>`` prints to stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        main(list(args))
    return buffer.getvalue().encode()


# File name -> writer of that file at the path it is given.
PINS = {
    "golden_both.csv": lambda path: emit_csv(run_monte_carlo(GOLDEN_CONFIG), path),
    **{
        f"recipe_{name}.csv": lambda path, name=name: emit_csv(
            run_monte_carlo(recipe_config(name)), path
        )
        for name in RECIPES
    },
    "verify_all.txt": lambda path: path.write_bytes(cli_stdout("verify", "all")),
    **{
        f"verify_mutation_{mutation}.txt": lambda path, mutation=mutation: path.write_bytes(
            cli_stdout(*mutation_args(mutation))
        )
        for mutation in MUTATIONS
    },
    "fig3_complexity.csv": lambda path: path.write_bytes(cli_stdout(*FIG3_ARGS)),
}


if __name__ == "__main__":
    for name, write in sorted(PINS.items()):
        write(DATA / name)
        print(f"wrote {DATA / name}")
