"""Smoke tests: the experiment scripts under scripts/ run against the package."""

import os
import re
import subprocess
import sys

import leadlag as ll

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
    env.pop("LEADLAG_THREADS", None)
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_benchmark_table(tmp_path):
    proc = run_script(
        "run_benchmark_table.py", "--reps", "4", "--threads", "1", "--outdir", "tmp", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    written = sorted(os.listdir(tmp_path / "tmp"))
    assert written == ["benchmark_table_pi0.5.csv", "benchmark_table_pi0.csv"]
    for name in written:
        lines = (tmp_path / "tmp" / name).read_text().splitlines()
        assert lines[:2] == [
            "# leadlag-mc-summary schema_version=1",
            "family,statistic,j1,j2,j3,j4,j5,j6,j7,j8",
        ]


def test_demo_pipeline(tmp_path):
    proc = run_script("demo_pipeline.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    levels = re.findall(r"^  level (\d+): lag [+-]\d+ steps", proc.stdout, flags=re.MULTILINE)
    assert levels == [str(j) for j in range(1, 7)]
