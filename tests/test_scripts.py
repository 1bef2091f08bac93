"""Smoke tests: the experiment scripts under scripts/ and the README's
Library example run against the package, the traced benchmark run's hooks
record every layer, and the committed benchmark records keep their schema."""

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
from leadlag import cli, montecarlo
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


def run_mc_entry_point(entry, tmp_path, monkeypatch, *args):
    """Exit code of ``leadlag mc`` (``entry`` "mc") or the Table-2 script
    run in-process on ``tmp_path/mc.json``, writing into ``tmp_path``. The
    script is loaded here, so it binds any ``montecarlo`` attribute the
    caller has patched."""
    monkeypatch.chdir(tmp_path)
    if entry == "mc":
        return cli.main(["mc", "--config", "mc.json", "--out", "mc.csv", *args])
    script = load_module(os.path.join(SCRIPTS, "run_benchmark_table.py"))
    monkeypatch.setattr(sys, "argv", ["run_benchmark_table.py", "--config", "mc.json", *args])
    return script.main()


def write_small_mc_config(tmp_path):
    model = dict(json.loads((CONFIGS / "benchmark_model.json").read_text()), n=1200)
    config = {"model": model, "families": ["haar"], "j_max": 1, "l_max": 12}
    (tmp_path / "mc.json").write_text(json.dumps(config))


@pytest.mark.parametrize("entry", ["mc", "script"])
@pytest.mark.parametrize(
    "error, label, code",
    [(ll.UsageError, "usage error", 1), (ll.DataError, "data error", 2),
     (ll.NumericError, "numeric error", 3), (ll.LeadLagError, "error", 2)],
    ids=["usage", "data", "numeric", "plain"],
)
def test_mc_and_the_script_report_a_failure_alike(
    tmp_path, monkeypatch, capsys, entry, error, label, code
):
    def fail(config):
        raise error("injected failure")

    write_small_mc_config(tmp_path)
    monkeypatch.setattr(montecarlo, "run_mc", fail)
    assert run_mc_entry_point(entry, tmp_path, monkeypatch, "--threads", "1") == code
    assert capsys.readouterr().err == f"{label}: injected failure\n"
    assert sorted(os.listdir(tmp_path)) == ["mc.json"]  # no output and no temp file


def test_run_benchmark_table_warns_of_an_invalid_summary(tmp_path, monkeypatch, capsys):
    # every other replication fails: each scenario's summary is written,
    # warned of and marked invalid, as mc does
    real = montecarlo.run_replication
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise ll.NumericError("injected")
        return real(*args)

    write_small_mc_config(tmp_path)
    monkeypatch.setattr(montecarlo, "run_replication", flaky)
    code = run_mc_entry_point("script", tmp_path, monkeypatch, "--reps", "4", "--threads", "1")
    out, err = capsys.readouterr()
    assert code == 3
    assert err == "warning: 2 of 4 replications failed; summary marked invalid\n" * 2
    assert len(calls) == 8
    for pi in ("0", "0.5"):
        lines = (tmp_path / f"benchmark_table_pi{pi}.csv").read_text().splitlines()
        assert lines[0] == "# leadlag-mc-summary schema_version=1"
        assert lines[2].startswith("haar,median,")
        assert f"pi={pi}: 4 reps" in out


@pytest.mark.parametrize(
    "config_name, model_name, flag, first",
    [("benchmark_table_pi0.csv", "model.json", "--outdir pi=0", "--config"),
     ("mc.json", "benchmark_table_pi0.5.csv", "--outdir pi=0.5", "MC config key 'model_path'")],
    ids=["config", "model-path"],
)
def test_run_benchmark_table_refuses_a_csv_on_an_input(
    tmp_path, monkeypatch, capsys, config_name, model_name, flag, first
):
    # a CSV renamed onto the config or its model file would replace it
    (tmp_path / model_name).write_text((CONFIGS / "benchmark_model.json").read_text())
    config = {"model_path": model_name, "families": ["haar"], "j_max": 1}
    (tmp_path / config_name).write_text(json.dumps(config))
    originals = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    runs = []
    monkeypatch.setattr(montecarlo, "run_mc", runs.append)
    monkeypatch.chdir(tmp_path)
    script = load_module(os.path.join(SCRIPTS, "run_benchmark_table.py"))
    monkeypatch.setattr(sys, "argv", ["run_benchmark_table.py", "--config", config_name])
    assert script.main() == 2
    csv = os.path.join(".", config_name if first == "--config" else model_name)
    assert capsys.readouterr().err == (
        f"data error: output path {csv!r} of {flag} is also the file of {first}\n"
    )
    assert runs == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == originals


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
