"""Command-line interface: optimize, simulate, sweep, and validate subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None,
                   help="JSON file with ExperimentConfig fields; flags override it")
    p.add_argument("--snr-db", type=float, dest="snr_db")
    p.add_argument("--antennas", type=int)
    p.add_argument("--blocklength", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--clip", type=float)
    p.add_argument("--observations", type=int)
    p.add_argument("--centroid", type=float)
    p.add_argument("--model-file", type=str, dest="model_file")
    p.add_argument("--noise-model", choices=["quantizer", "lemma1"], dest="noise_model")


def _build_config(args: argparse.Namespace, extra: dict | None = None) -> harness.ExperimentConfig:
    fields = {f.name for f in dataclasses.fields(harness.ExperimentConfig)}
    values: dict = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            loaded = json.load(fh)
        if unknown := set(loaded) - fields:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for name in fields:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if extra:
        values.update(extra)
    return harness.ExperimentConfig(**values)


def _cmd_optimize(args) -> int:
    decision = harness.decide(_build_config(args, extra={"policy": "adaptive"}))
    print(json.dumps({
        "continuous_rate": decision.continuous_rate,
        "bits_per_feature": decision.bits_per_feature,
        "rounded_rate": decision.rounded_rate,
        "predicted_bound": decision.predicted_bound,
        "predicted_exact": decision.predicted_exact,
    }, indent=2))
    return 0


def _cmd_simulate(args) -> int:
    config = _build_config(args)
    params = harness.build_params(config)
    row = harness.estimate_error(config, harness.decide(config, params), config.trials,
                                 config.seed, params=params)
    print(json.dumps(dataclasses.asdict(row), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    config = _build_config(args)
    # a missing --out directory fails before the sweep; the file is written only after it
    os.stat(os.path.dirname(os.path.abspath(args.out)))
    values = [v for v in args.values.split(",") if v]
    policies = [p for p in args.policies.split(",") if p]
    rows = harness.sweep(config, args.param, values, policies, args.trials, args.seed)
    with open(args.out, "w", newline="") as fh:
        fh.write(harness.rows_to_csv(rows))
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    from . import validation  # loads scipy.stats, which no other command needs
    report = validation.validate(args.seed)
    print(report.render())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="senselink",
                                     description="Source-channel tradeoff toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="adapt the coding rate and report the decision")
    _add_model_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("simulate", help="Monte Carlo error estimate for one policy")
    _add_model_flags(p)
    p.add_argument("--policy", type=str)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="policy comparison over a swept parameter")
    _add_model_flags(p)
    p.add_argument("--param", required=True,
                   choices=list(harness.SWEEP_FIELDS))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--policies", required=True, help="comma-separated policies")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("validate", help="run the analytical-claim validation suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # a bad setting or file: one usage line, exit status 2
        parser.error(str(exc))
    except RuntimeError as exc:  # a sweep cell that failed on a bad setting or file
        if not isinstance(exc.__cause__, (OSError, ValueError)):
            raise
        parser.error(f"{exc}: {exc.__cause__}")


if __name__ == "__main__":
    sys.exit(main())
