"""Smoke tests: the experiment scripts under scripts/ run against the package,
and the traced benchmark run's hooks record every layer."""

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import leadlag as ll
from leadlag import cli
from leadlag.montecarlo import load_mc_config, run_mc

from conftest import BENCHMARK_LEVELS, CONFIGS

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
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
    # one medians line per summary row, families first and then the baseline
    names = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")]
    assert names == ["haar", "la8", "la20", "hry"] * 2


def test_run_benchmark_table_takes_a_model_path_config(tmp_path):
    config = {"model_path": str(CONFIGS / "benchmark_model.json"), "families": ["haar"], "j_max": 1}
    (tmp_path / "mc.json").write_text(json.dumps(config))
    proc = run_script(
        "run_benchmark_table.py", "--config", "mc.json", "--reps", "2", "--threads", "1",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    # the model file's pi is 0, so that scenario is the config as mc runs it
    argv = ["mc", "--config", str(tmp_path / "mc.json"), "--reps", "2", "--threads", "1"]
    assert cli.main(argv + ["--out", str(tmp_path / "mc.csv")]) == 0
    assert (tmp_path / "benchmark_table_pi0.csv").read_text() == (tmp_path / "mc.csv").read_text()
    lines = (tmp_path / "benchmark_table_pi0.5.csv").read_text().splitlines()
    assert lines[1] == "family,statistic,j1"
    assert [line.split(",")[:2] for line in lines[2:]] == [
        ["haar", "median"], ["haar", "mad"], ["hry", "median"], ["hry", "mad"]
    ]
    names = [line.split()[0] for line in proc.stdout.splitlines() if line.startswith("  ")]
    assert names == ["haar", "hry"] * 2


def load_module(path):
    spec = importlib.util.spec_from_file_location(pathlib.Path(path).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "case, needle",
    [
        ("outdir-entry-is-a-directory", "output path 'od/benchmark_table_pi0.csv' is not a regular file"),
        ("outdir-is-a-file", "output directory 'afile': File exists"),
        ("missing-model-path", "cannot read model file"),
    ],
)
def test_run_benchmark_table_fails_before_the_work(tmp_path, monkeypatch, capsys, case, needle):
    script = load_module(os.path.join(SCRIPTS, "run_benchmark_table.py"))
    runs = []
    monkeypatch.setattr(script, "run_mc", runs.append)
    monkeypatch.chdir(tmp_path)
    argv = ["--reps", "2", "--threads", "1", "--outdir", "od"]
    if case == "outdir-entry-is-a-directory":
        os.makedirs("od/benchmark_table_pi0.csv")
    elif case == "outdir-is-a-file":
        pathlib.Path("afile").write_text("kept\n")
        argv[-1] = "afile"
    else:
        pathlib.Path("mc.json").write_text(json.dumps({"model_path": "absent.json"}))
        argv += ["--config", "mc.json"]
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(sys, "argv", ["run_benchmark_table.py", *argv])
    assert script.main() == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and needle in err
    assert runs == []  # no replication ran
    assert sorted(tmp_path.rglob("*")) == before  # and no file was made


def test_gen_la_filters_reproduces_the_embedded_la8(tmp_path):
    # the script is the record of how the least-asymmetric roots were
    # chosen; L = 20 matches too, but its root search takes about 14 s
    pytest.importorskip("mpmath")
    proc = run_script("gen_la_filters.py", "8", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    source = pathlib.Path(ll.__file__).with_name("filters.py").read_text(encoding="utf-8")
    embedded = re.search(r"^_LA8_SCALING = \(\n.*?^\)\n", source, flags=re.MULTILINE | re.DOTALL)
    assert embedded.group(0) in proc.stdout


def test_demo_pipeline(tmp_path):
    proc = run_script("demo_pipeline.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lags = re.findall(r"^  level (\d+): lag ([+-]\d+) steps", proc.stdout, flags=re.MULTILINE)
    assert [int(j) for j, _ in lags] == list(range(1, 7))
    assert [int(lag) for _, lag in lags[:4]] == [e["theta_over_tau"] for e in BENCHMARK_LEVELS[:4]]


def test_benchmark_configs_share_one_model():
    # perfbench checks both workloads against one set of model lags
    root = pathlib.Path(SCRIPTS).parent / "configs"
    inline = json.loads((root / "benchmark_mc.json").read_text())["model"]
    model = json.loads((root / "benchmark_model.json").read_text())
    model.pop("schema_version")
    inline.pop("schema_version", None)
    assert inline == model


def test_traced_run_hooks_record_every_layer(tmp_path):
    # perfbench's traced run swaps module globals for recording wrappers; a
    # call that bypasses one of them would drop that layer's metrics
    tracing = load_module(os.path.join(os.path.dirname(SCRIPTS), "perfbench", "tracing.py"))

    model = {
        "J": 13,
        "n": 2048,
        "pi1": 0.3,
        "pi2": 0.3,
        "levels": [{"j": 1, "R": 0.5, "theta_over_tau": -1}, {"j": 3, "R": 0.5, "theta_over_tau": -2}],
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    ticks = [str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")]
    assert cli.main(
        ["simulate", "--model", str(tmp_path / "model.json"), "--seed", "3",
         "--out", str(tmp_path / "path.csv"), "--ticks1", ticks[0], "--ticks2", ticks[1]]
    ) == 0

    tracer = tracing.Tracer()
    with tracing.installed(tracing.layer_hooks(tracer)):
        config = load_mc_config(
            {"model": model, "families": ["haar"], "j_max": 3, "l_max": 10,
             "replications": 2},
            threads=1,
        )
        assert run_mc(config).failures == 0
        assert cli.main(
            ["estimate", "--in1", ticks[0], "--in2", ticks[1], "--family", "haar",
             "--levels", "3", "--maxlag", "10", "--tau", repr(2.0**-14),
             "--out", str(tmp_path / "report.json")]
        ) == 0

    recorded = {span[0] for span in tracer.spans}
    expected = {
        *(f"estimator.{name}" for name in
          ("cross_cov_curve", "estimate_lag", "estimate_levels", "hry_lag", "modwt")),
        "filters.base_filter", "filters.cascade",
        "ingest.align_to_grid", "ingest.read_csv", "ingest.returns_from_sample",
        "model.increment_cross_cov", "model.load_model",
        "montecarlo.run_replication", "montecarlo.summarize",
        "simulate.build_embedding", "simulate.circulant_embed_sample",
    }
    assert len(expected) == 16
    assert expected - recorded == set()
    # tracing.py reads both counts from the embedding it records
    embeddings = [span[5] for span in tracer.spans if span[0] == "simulate.build_embedding"]
    assert embeddings == [{"size": 4096, "clipped": 0}]
