"""Write one workload's generated input files; run as a fresh interpreter.

    python3 sofbench/inputs.py --workload realdata --seed 1 --out DIR

Its wall time from process start to exit is the benchmark's set-up time:
importing sofreg.cli (and with it numpy) plus drawing and writing the inputs.
The draw is seeded by the benchmark's seed only; the program later reads the
files and is never told how they were made.
"""

from __future__ import annotations

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Shape of each workload: sample size, eta, the deltas of its mc cells, the
#: replicates per cell of one mc round, and how many samples are written.
#: realdata cycles through six, so one unusual draw does not set its figures;
#: the one mc-n100 sample feeds the A-matrix check.
SHAPES = {
    "mc-n100": {"n": 100, "eta": 1.0, "deltas": (0.0, 0.03), "m": 8, "samples": 1},
    "realdata": {"n": 65, "eta": 2.0, "deltas": (0.0,), "samples": 6},
}
BETA_ID = 3
MC_BOOTSTRAP = 500
TAGS = ("C", "CL", "S", "SL", "I", "IL", "W", "WL")


def sample_dir(out: str, index: int) -> str:
    return os.path.join(out, f"sample-{index}")


def write_inputs(workload: str, seed: int, out: str, n: int | None = None) -> None:
    sys.path.insert(0, SRC)
    import sofreg.cli  # noqa: F401  (the import is part of set-up)
    from sofreg.dataio import atomic_write_text, write_curves_csv, write_responses_csv
    from sofreg.simulation import DgpConfig, generate_dataset

    shape = SHAPES[workload]
    n = n or shape["n"]
    config = DgpConfig(beta_id=BETA_ID, delta=shape["deltas"][-1], eta=shape["eta"], n=n)
    for index in range(shape["samples"]):
        sample, _, _ = generate_dataset(config, [seed, index])
        directory = sample_dir(out, index)
        os.makedirs(directory, exist_ok=True)
        write_curves_csv(os.path.join(directory, "curves.csv"), sample.x)
        write_responses_csv(os.path.join(directory, "responses.csv"), sample.y, sample.r)
    if workload.startswith("mc-"):
        atomic_write_text(os.path.join(out, "mc.cfg"), "\n".join([
            f"beta_id = {BETA_ID}",
            f"eta = {shape['eta']}",
            f"n = {n}",
            "delta = " + ", ".join(str(d) for d in shape["deltas"]),
            "estimators = " + ", ".join(TAGS),
            f"m = {shape['m']}",
            f"bootstrap = {MC_BOOTSTRAP}",
        ]) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--n", type=int)
    args = parser.parse_args()
    write_inputs(args.workload, args.seed, args.out, args.n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
