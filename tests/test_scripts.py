"""Smoke tests of what sits around the package: the scripts under scripts/
run against it, the README's Library example and commands run as written,
the committed benchmark configs share one model, the traced benchmark run's
hooks record every layer, and the committed benchmark records keep their
schema."""

import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import re
import statistics
import subprocess
import sys

import pytest

import leadlag as ll
from leadlag import cli
from leadlag.montecarlo import load_mc_config, run_mc

from conftest import BENCHMARK_LEVELS, CONFIGS

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
ROOT = pathlib.Path(SCRIPTS).parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def load_module(path):
    spec = importlib.util.spec_from_file_location(pathlib.Path(path).stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_demo_pipeline_ends_with_a_failing_steps_exit_code(tmp_path):
    proc = run_script("demo_pipeline.py", "--levels", "0", cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == "usage error: --levels must be >= 1, got 0\n"


def readme_library_section():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_block_runs(monkeypatch):
    code = re.search(r"```python\n(.*?)```", readme_library_section(), re.DOTALL)[1]
    monkeypatch.chdir(ROOT)  # the block names its configs from the repo root
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().count("\n") == 9  # 8 levels and the summary


def test_readme_record_list_names_every_field():
    from leadlag import simulate

    records = re.findall(r"^- `(?:ll\.)?(\w+)\(([^)]*)\)`", readme_library_section(), re.MULTILINE)
    assert [name for name, _ in records] == [
        "CirculantEmbedding", "PathSample", "AlignedReturns", "CrossCovCurve",
    ]
    for name, fields in records:
        record = getattr(simulate, name, None) or getattr(ll, name)
        assert fields.split(", ") == [f.name for f in dataclasses.fields(record)], name


def test_benchmark_configs_share_one_model():
    # perfbench checks both workloads against one set of model lags, and the
    # Table-2 configs differ only in the missing probabilities
    mc = json.loads((CONFIGS / "benchmark_mc.json").read_text())
    model = json.loads((CONFIGS / "benchmark_model.json").read_text())
    model.pop("schema_version")
    assert mc["model"] == model
    missing = json.loads((CONFIGS / "benchmark_mc_pi05.json").read_text())
    assert (missing["model"].pop("pi1"), missing["model"].pop("pi2")) == (0.5, 0.5)
    for key in ("pi1", "pi2"):
        mc["model"].pop(key)
    assert missing == mc


def test_readme_commands_name_loadable_configs():
    # the README's recipes, Table 2's included, name only configs that load
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = "".join(re.findall(r"```bash\n(.*?)```", text, re.DOTALL))
    named = re.findall(r"(\S+) (configs/\S+)", commands)
    table2 = {"configs/benchmark_mc.json", "configs/benchmark_mc_pi05.json"}
    assert table2 <= {path for _, path in named}
    for flag, path in named:
        load = load_mc_config if flag == "--config" else ll.load_model
        load(str(ROOT / path))


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



def canned_run(seed, correct=True, scale=1.0):
    """The standard output of ``perfbench/run.py --workload all --trace 0``,
    trimmed to the lines a record reads and a few it skips."""
    lines = []
    metrics = {}
    for k, workload in enumerate(("mc_serial", "estimate_day")):
        lines += [
            f"env workload = {workload}",
            f"env seed = {seed}",
            "env traced = False",
            "env git_commit = " + "0123456789abcdef" * 2 + "01234567",
            "env numpy = 2.4.6",
        ]
        for m, name in enumerate(
            ("setup_s", "throughput_per_ref_s", "call_ref_s_p50", "call_ref_s_tail", "peak_rss_mb")
        ):
            value = scale * (k + 1) * (m + 1) / 8
            metrics[f"{workload}:{name}"] = {"value": value, "unit": "s"}
            lines.append(f"metric {workload} {name} = {value!r} s (median of 14 calls)")
        lines += [
            f"note {workload} wall time per call: median {0.2 * scale * (k + 1):.4f} s, "
            f"p28.6 {0.19 * scale * (k + 1):.4f} s",
            f"note {workload} host speed: 6 calibration blocks took 0.0134 to 0.0195 s",
            f"check {workload} PASS: 16 of 16 output checks passed; 0 of 224 operations failed",
        ]
    result = {"correct": correct, "attempted": 480, "failed": 0 if correct else 1, "metrics": metrics}
    return "\n".join(lines + [json.dumps(result)]) + "\n"


def test_record_bench_parses_run_output():
    script = load_module(os.path.join(SCRIPTS, "record_bench.py"))
    run = script.parse_run(canned_run(3))
    assert run["seed"] == 3
    assert run["env"] == {
        "traced": "False", "git_commit": "0123456789abcdef" * 2 + "01234567", "numpy": "2.4.6"
    }
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 480, 0)
    assert run["metrics"]["estimate_day:call_ref_s_p50"] == {"value": 0.75, "unit": "s"}
    assert run["wall_s_per_call"] == {
        "mc_serial": {"median": 0.2, "p28.6": 0.19}, "estimate_day": {"median": 0.4, "p28.6": 0.38}
    }
    with pytest.raises(ValueError, match="JSON line"):
        script.parse_run(canned_run(3).rsplit("{", 1)[0])
    with pytest.raises(ValueError, match="env numpy"):
        script.parse_run(canned_run(3).replace("numpy = 2.4.6", "numpy = 2.0.0", 1))


def test_record_bench_keeps_a_failed_run_and_exits_1(tmp_path, monkeypatch):
    script = load_module(os.path.join(SCRIPTS, "record_bench.py"))
    seeds = []

    def run(argv, **kwargs):
        seed = int(argv[argv.index("--seed") + 1])
        seeds.append(seed)
        return subprocess.CompletedProcess(argv, 0, canned_run(seed, seed != 4, seed), "")

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2}))
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main(["--pr", "7"]) == 1
    assert seeds == [1, 2, 3, 4, 5]
    bench = json.loads((tmp_path / "bench" / "BENCH_7.json").read_text())
    assert [r["correct"] for r in bench["runs"]] == [True, True, True, False, True]
    assert bench["runs"][3]["failed"] == 1
    assert bench["command"][-2:] == ["--seconds", "2"]
    # runs at scale 1..5: median 3, quartiles 2 and 4 of the scale
    assert bench["summary"]["mc_serial:setup_s"] == {
        "unit": "s", "median": 3 / 8, "q1": 2 / 8, "q3": 4 / 8
    }


def test_record_bench_flags_a_tail_below_its_median(tmp_path, monkeypatch, capsys):
    script = load_module(os.path.join(SCRIPTS, "record_bench.py"))

    def run(argv, **kwargs):
        seed = int(argv[argv.index("--seed") + 1])
        head, last = canned_run(seed).rstrip("\n").rsplit("\n", 1)
        result = json.loads(last)
        if seed == 2:  # call_ref_s_p50 reads 0.75
            result["metrics"]["estimate_day:call_ref_s_tail"]["value"] = 0.5
        return subprocess.CompletedProcess(argv, 0, head + "\n" + json.dumps(result) + "\n", "")

    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 2}))
    monkeypatch.setattr(script, "ROOT", tmp_path)
    monkeypatch.setattr(script.subprocess, "run", run)
    assert script.main(["--pr", "7"]) == 1
    assert capsys.readouterr().err == (
        "seed 2 estimate_day: call_ref_s_tail reads below call_ref_s_p50\n"
    )
    bench = json.loads((tmp_path / "bench" / "BENCH_7.json").read_text())
    assert [r["seed"] for r in bench["runs"]] == [1, 2, 3, 4, 5]
    assert bench["runs"][1]["metrics"]["estimate_day:call_ref_s_tail"] == 0.5
    assert all(r["correct"] and r["failed"] == 0 for r in bench["runs"])


def test_bench_records_hold_every_end_to_end_metric():
    # the committed perf trajectory: its schema only, with no timing gate
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    wanted = {f"{w}:{m['name']}" for w in workloads for m in spec["end_to_end"]}
    files = sorted((ROOT / "bench").glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        assert path.name == f"BENCH_{bench['pr']}.json"
        assert re.fullmatch(r"[0-9a-f]{40}", bench["commit"])
        assert bench["command"][:2] == ["python3", "perfbench/run.py"]
        assert isinstance(bench["env"], dict) and bench["runs"]
        for run in bench["runs"]:
            assert isinstance(run["seed"], int) and isinstance(run["correct"], bool)
            assert isinstance(run["attempted"], int) and isinstance(run["failed"], int)
            assert wanted <= set(run["metrics"])
            assert set(run["wall_s_per_call"]) == workloads
        for name in wanted:
            values = [run["metrics"][name] for run in bench["runs"]]
            stats = bench["summary"][name]
            assert stats["median"] == statistics.median(values)
            assert min(values) <= stats["q1"] <= stats["median"] <= stats["q3"] <= max(values)
        for workload in workloads:
            walls = [run["wall_s_per_call"][workload]["median"] for run in bench["runs"]]
            assert bench["wall_s_per_call"][workload]["median"] == statistics.median(walls)
