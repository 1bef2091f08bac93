#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics of this checkout, run from its root:

    python3 scripts/record_bench.py --pr N

Runs ``perfbench/run.py --workload all --trace 0 --seconds S --seed k`` for
k = 1..5, with S the ``run_seconds`` of BENCHMARK.json, one run after the
other, and writes ``bench/BENCH_<pr>.json``. The file holds the commit and
the environment that run.py reports, every run (its check counts, every
``workload:metric`` value and each workload's wall time per call), and each
metric's median and quartiles over the runs. Wall times are kept beside the
``ref_s`` metrics because a run whose calibration kernel is slowed more
than the workload reads a slower wall time as a smaller ``ref_s`` figure.

A run that fails its output checks or any operation stays in the file as it
is, and the script exits 1; so it does for a run whose ``call_ref_s_tail``
reads below its ``call_ref_s_p50`` (a run too short for a tail above the
median), printing its seed and workload. When run.py itself fails, the
script exits 1 and writes no file.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
WALL = re.compile(r"^note (\S+) wall time per call: median (\S+) s, (p[\d.]+) (\S+) s$")


def parse_run(text: str) -> dict:
    """One run.py output as ``{seed, env, correct, attempted, failed,
    metrics, wall_s_per_call}``; ``metrics`` maps each ``workload:metric`` of
    the last line's JSON to its value and unit. Raises ValueError on an
    output that lacks the JSON line or reports one environment key two
    ways."""
    lines = text.splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError("run.py output does not end in its JSON line") from None
    env = {}
    wall = {}
    for line in lines:
        if line.startswith("env "):
            key, _, value = line[4:].partition(" = ")
            if key != "workload" and env.setdefault(key, value) != value:
                raise ValueError(f"env {key} reads both {env[key]!r} and {value!r}")
        elif match := WALL.match(line):
            workload, median, tail, tail_value = match.groups()
            wall[workload] = {"median": float(median), tail: float(tail_value)}
    return {
        "seed": int(env.pop("seed")),
        "env": env,
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": last["metrics"],
        "wall_s_per_call": wall,
    }


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def tails_below_median(run: dict) -> list[str]:
    """The workloads whose ``call_ref_s_tail`` reads below their
    ``call_ref_s_p50`` in ``run``, an output parsed by ``parse_run``."""
    metrics = run["metrics"]
    return [
        name.split(":")[0]
        for name in metrics
        if name.endswith(":call_ref_s_tail")
        and metrics[name]["value"] < metrics[name.replace("_tail", "_p50")]["value"]
    ]


def record(pr: int, runs: list[dict], seconds: float) -> dict:
    """The BENCH file of ``runs``, outputs of run.py parsed by ``parse_run``."""
    env = runs[0]["env"]
    for run in runs:
        if run["env"] != env:
            raise ValueError(f"the run at seed {run['seed']} reports another environment")
    names = list(runs[0]["metrics"])
    summary = {
        name: {
            "unit": runs[0]["metrics"][name]["unit"],
            **quartiles([run["metrics"][name]["value"] for run in runs]),
        }
        for name in names
    }
    wall = {
        workload: quartiles([run["wall_s_per_call"][workload]["median"] for run in runs])
        for workload in runs[0]["wall_s_per_call"]
    }
    return {
        "pr": pr,
        "commit": env["git_commit"],
        "command": ["python3", "perfbench/run.py", "--workload", "all", "--trace", "0",
                    "--seconds", repr(seconds)],
        "env": {key: value for key, value in env.items() if key != "git_commit"},
        "runs": [
            {**{key: run[key] for key in
                ("seed", "correct", "attempted", "failed", "wall_s_per_call")},
             "metrics": {name: run["metrics"][name]["value"] for name in names}}
            for run in runs
        ],
        "summary": summary,
        "wall_s_per_call": wall,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--pr", type=int, required=True, help="number in the file name")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in SEEDS:
        argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "0",
                "--seconds", repr(seconds), "--seed", str(seed)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"run.py failed at seed {seed} (exit {proc.returncode}):\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        runs.append(parse_run(proc.stdout))
        print(f"seed {seed}: correct={runs[-1]['correct']} failed={runs[-1]['failed']}")
    bench = record(args.pr, runs, seconds)
    out = ROOT / "bench" / f"BENCH_{args.pr}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    ok = all(run["correct"] and run["failed"] == 0 for run in runs)
    for run in runs:
        for workload in tails_below_median(run):
            print(f"seed {run['seed']} {workload}: call_ref_s_tail reads below call_ref_s_p50",
                  file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
