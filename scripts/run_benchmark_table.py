#!/usr/bin/env python3
"""Run the benchmark Monte Carlo in both missingness scenarios.

Produces one summary CSV per scenario (lower median and MAD of the
estimated lags, in grid steps) in --outdir, mirroring the package's
acceptance experiment. Takes a few seconds single-core at 200 replications.
Both CSVs are opened before the first run and land only when both runs
finish. A run ends as ``leadlag mc`` ends one: a bad config, or an output
path that cannot be written or names the config's or its model's file, is
exit 2 before any replication runs; a numerical failure is exit 3; and an
invalid summary is a warning and exit 3 once both CSVs are written.
"""

import argparse
import dataclasses
import os
import sys
import time

from leadlag.cli import atomic_outputs, summary_status
from leadlag.errors import DataError, LeadLagError
from leadlag.model import json_object
from leadlag.montecarlo import load_mc_config, run_mc, write_summary_csv

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CONFIG = os.path.join(HERE, "..", "configs", "benchmark_mc.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--reps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--outdir", default=".")
    args = parser.parse_args()
    try:
        return run_table(args)
    except LeadLagError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


def run_table(args):
    raw = json_object(args.config, "MC config")
    base = load_mc_config(raw, replications=args.reps, master_seed=args.seed, threads=args.threads)
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"output directory {args.outdir!r}: {exc.strerror}") from None

    scenarios = {pi: os.path.join(args.outdir, f"benchmark_table_pi{pi:g}.csv") for pi in (0.0, 0.5)}
    # load_mc_config refuses a model_path that is not a file name
    inputs = {"--config": args.config, "MC config key 'model_path'": raw.get("model_path")}
    summaries = {}
    with atomic_outputs({f"--outdir pi={pi:g}": out for pi, out in scenarios.items()}, inputs) as handles:
        for (pi, out), fh in zip(scenarios.items(), handles.values()):
            config = dataclasses.replace(base, scheme=dataclasses.replace(base.scheme, pi1=pi, pi2=pi))
            start = time.perf_counter()
            summary = summaries[pi] = run_mc(config)
            elapsed = time.perf_counter() - start
            write_summary_csv(summary, fh)
            print(f"pi={pi:g}: {summary.replications} reps in {elapsed:.1f}s -> {out}")
            for name, medians in summary.medians.items():
                print(f"  {name:5s} medians: {medians}")
    return max(map(summary_status, summaries.values()))


if __name__ == "__main__":
    sys.exit(main())
