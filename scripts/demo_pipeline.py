#!/usr/bin/env python3
"""End-to-end demo: simulate a path, dump ticks, re-ingest, estimate.

Walks the same route a study on real tick data would take: tick CSVs in,
previous-tick alignment onto a regular grid, per-scale cross-covariance
curves, one estimated lead-lag time per scale. Negative lags mean the
second series leads. A step that fails ends the demo with that step's exit
code, after the step's own one-line message on stderr.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import leadlag

HERE = os.path.dirname(os.path.abspath(__file__))
MODEL = os.path.join(HERE, "..", "configs", "benchmark_model.json")


def run(cmd):
    print("+", " ".join(cmd), flush=True)
    if code := subprocess.run(cmd).returncode:
        raise SystemExit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--levels", type=int, default=6)
    parser.add_argument("--maxlag", type=int, default=30)
    args = parser.parse_args()
    _, scheme = leadlag.load_model(MODEL)

    with tempfile.TemporaryDirectory() as tmp:
        ticks1 = os.path.join(tmp, "series1.csv")
        ticks2 = os.path.join(tmp, "series2.csv")
        report = os.path.join(tmp, "report.json")
        run(
            [
                sys.executable, "-m", "leadlag.cli", "simulate",
                "--model", MODEL,
                "--seed", str(args.seed),
                "--out", os.path.join(tmp, "path.csv"),
                "--ticks1", ticks1,
                "--ticks2", ticks2,
            ]
        )
        run(
            [
                sys.executable, "-m", "leadlag.cli", "estimate",
                "--in1", ticks1,
                "--in2", ticks2,
                "--family", "la20",
                "--levels", str(args.levels),
                "--maxlag", str(args.maxlag),
                "--tau", repr(scheme.tau),
                "--t0", "0.0",
                "--n", str(scheme.n),
                "--out", report,
            ]
        )
        with open(report, encoding="utf-8") as fh:
            data = json.load(fh)
        print("\nestimated lead-lag times (grid steps):")
        for lvl in data["levels"]:
            print(
                f"  level {lvl['j']}: lag {lvl['theta_hat_steps']:+d} steps "
                f"(peak {lvl['peak']:.4f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
