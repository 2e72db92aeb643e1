#!/usr/bin/env python3
"""Reproduce the headline experiments: policy-comparison sweeps and the
convergence trace of the gradient-ascent rate adapter.

Writes one CSV per swept parameter plus ``convergence.csv`` into --outdir.
"""

import argparse
import csv
import pathlib

from senselink import harness
from senselink import optimizer as opt

SWEEPS = {
    "observations": [1, 2, 5, 10, 20],
    "snr-db": [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0],
    "antennas": [1, 2, 4, 8],
    "blocklength": [50, 100, 200, 400],
}
POLICIES = ["adaptive", "brute", "urllc", "bits:32", "bits:16"]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
    parser.add_argument("--trials", type=positive_int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error(f"argument --seed: {args.seed} is not a non-negative integer")
    args.outdir.mkdir(parents=True, exist_ok=True)

    base = harness.ExperimentConfig(observations=10)
    for param, values in SWEEPS.items():
        rows = harness.sweep(base, param, values, POLICIES, args.trials, args.seed)
        path = args.outdir / f"sweep_{param.replace('-', '_')}.csv"
        path.write_text(harness.rows_to_csv(rows))
        print(f"wrote {path} ({len(rows)} rows)")

    # convergence trace at the step-size study operating point
    params = harness.build_params(harness.ExperimentConfig(observations=20))
    trace: list[float] = []
    opt.gradient_ascent(params, opt.OptimizerSettings(step=0.01),
                        on_iterate=trace.append)
    path = args.outdir / "convergence.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "rate", "surrogate"])
        for i, rate in enumerate(trace):
            writer.writerow([i, repr(rate), repr(opt.surrogate(rate, params))])
    print(f"wrote {path} ({len(trace)} iterations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
