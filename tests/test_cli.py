import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import leadlag as ll
from leadlag import cli, montecarlo
from leadlag.cli import atomic_output, main, render_report
from leadlag.filters import FAMILIES, level_gain

from conftest import benchmark_spec, tick_csv_text


def write_model(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


SMALL_SPEC = {
    "J": 13,
    "n": 2000,
    "pi1": 0.0,
    "pi2": 0.0,
    "levels": [
        {"j": 1, "R": 0.3, "theta_over_tau": -1},
        {"j": 2, "R": 0.5, "theta_over_tau": -1},
        {"j": 3, "R": 0.7, "theta_over_tau": -2},
    ],
}


class TestParsing:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_unknown_flag(self, capsys):
        assert main(["gain", "--family", "haar", "--frobnicate"]) == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_missing_required_flag_names_it(self, capsys):
        assert main(["simulate", "--seed", "1", "--out", "x.csv"]) == 1
        assert "--model" in capsys.readouterr().err

    def test_gain_valid_minimal(self, tmp_path):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--family", "haar", "--level", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_infeasible_levels_fail_before_reading_data(self, capsys):
        code = main(
            [
                "estimate",
                "--in1", "does-not-exist-1.csv",
                "--in2", "does-not-exist-2.csv",
                "--family", "la20",
                "--levels", "30",
                "--maxlag", "10",
                "--n", "1000",
                "--out", "report.json",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "max feasible level" in err

    def test_unreadable_file_is_data_error(self, capsys):
        code = main(
            [
                "estimate",
                "--in1", "does-not-exist-1.csv",
                "--in2", "does-not-exist-2.csv",
                "--out", "report.json",
            ]
        )
        assert code == 2
        assert "cannot open" in capsys.readouterr().err


class TestGain:
    def test_csv_matches_closed_form(self, tmp_path):
        out = tmp_path / "gain.csv"
        assert main(
            ["gain", "--family", "la20", "--level", "3", "--points", "1024", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# leadlag-gain")
        assert lines[1] == "lambda,H_jL,empirical_gain"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        assert rows.shape == (1024, 3)
        assert rows[0, 0] == 0.0
        assert rows[-1, 0] == pytest.approx(math.pi)
        assert np.allclose(rows[:, 1], level_gain(3, 20, rows[:, 0]), atol=1e-12)
        assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-10


class TestSimulate:
    def test_path_csv_round_trip(self, tmp_path):
        model_path = write_model(tmp_path, SMALL_SPEC)
        out = tmp_path / "path.csv"
        assert main(["simulate", "--model", model_path, "--seed", "42", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "k,r1,r2,miss1,miss2"
        assert len(lines) == 2 + SMALL_SPEC["n"]
        model, scheme = ll.load_model(SMALL_SPEC)
        sample = ll.circulant_embed_sample(model, scheme, 42)
        first = lines[2].split(",")
        assert float(first[1]) == sample.returns1[0]
        assert float(first[2]) == sample.returns2[0]

    def test_determinism_across_runs(self, tmp_path):
        model_path = write_model(tmp_path, SMALL_SPEC)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--model", model_path, "--seed", "7", "--out", str(out1)])
        main(["simulate", "--model", model_path, "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_saturated_model_exits_numeric(self, tmp_path, capsys):
        bad = dict(SMALL_SPEC, levels=[{"j": 1, "R": 1.0, "theta_over_tau": 0}])
        model_path = write_model(tmp_path, bad)
        code = main(["simulate", "--model", model_path, "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "embedding" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestModelCheck:
    def test_valid_model(self, tmp_path, capsys):
        model_path = write_model(tmp_path, SMALL_SPEC)
        assert main(["model-check", "--model", model_path]) == 0
        out = capsys.readouterr().out
        assert "model ok" in out
        assert "admissible" in out

    def test_inadmissible_correlation(self, tmp_path, capsys):
        bad = dict(SMALL_SPEC, levels=[{"j": 1, "R": 1.2}])
        model_path = write_model(tmp_path, bad)
        assert main(["model-check", "--model", model_path]) == 2
        assert "admissibility" in capsys.readouterr().err

    def test_lag_outside_grid(self, tmp_path, capsys):
        model_path = write_model(tmp_path, SMALL_SPEC)
        assert main(["model-check", "--model", model_path, "--l-max", "1"]) == 2
        assert "outside the search grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path, value",
        [
            (("n",), "abc"),
            (("n",), 64.9),
            (("n",), True),
            (("J",), 3.7),
            (("J",), False),
            (("tau",), "x"),
            (("tau",), float("nan")),
            (("pi2",), None),
            (("levels",), 5),
            (("levels",), [5]),
            (("levels", 0, "j"), 1.5),
            (("levels", 1, "R"), float("inf")),
            (("levels", 2, "theta_over_tau"), "abc"),
            (("levels", 2, "theta_over_tau"), float("nan")),
        ],
    )
    @pytest.mark.parametrize("command", ["model-check", "simulate"])
    def test_wrongly_typed_model_value_is_data_error(self, tmp_path, capsys, command, path, value):
        spec = json.loads(json.dumps(SMALL_SPEC))
        target = spec
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        model_path = write_model(tmp_path, spec)
        argv = [command, "--model", model_path]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "path.csv"), "--ticks1", str(tmp_path / "t1.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        where = f" in levels[{path[1]}]" if len(path) == 3 else ""
        assert f"model key {path[-1]!r}{where} must be" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    @pytest.mark.parametrize(
        "path, key",
        [((), "pi_1"), ((), "sim_max_lag"), (("levels", 0), "theta"), (("levels", 2), "lag")],
        ids=["pi_1", "sim_max_lag", "levels0-theta", "levels2-lag"],
    )
    @pytest.mark.parametrize("command", ["model-check", "simulate"])
    def test_unknown_model_key_is_data_error(self, tmp_path, capsys, command, path, key):
        spec = json.loads(json.dumps(SMALL_SPEC))
        target = spec
        for step in path:
            target = target[step]
        target[key] = -2
        model_path = write_model(tmp_path, spec)
        argv = [command, "--model", model_path]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "path.csv"), "--ticks1", str(tmp_path / "t1.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if path:
            needle = f"unknown model key {key!r} in levels[{path[1]}]; known: j, R, theta_over_tau"
        else:
            needle = f"unknown model key {key!r}; known: schema_version, J, n, tau, pi1, pi2, levels"
        assert needle in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    @pytest.mark.parametrize(
        "content",
        [b'{"J": 3, "levels": [], "note": "\xff"}', b'{"J": 3, "n": ' + b"9" * 5000 + b"}", b"{"],
        ids=["not-utf8", "integer-too-long", "truncated"],
    )
    @pytest.mark.parametrize(
        "argv, needle",
        [(["model-check", "--model"], "cannot read model file"), (["mc", "--config"], "cannot read MC config")],
        ids=["model-check", "mc"],
    )
    def test_unreadable_json_is_data_error(self, tmp_path, capsys, content, argv, needle):
        path = tmp_path / "in.json"
        path.write_bytes(content)
        argv = argv + [str(path)]
        if argv[0] == "mc":
            argv += ["--out", str(tmp_path / "o.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["in.json"]


class TestEndToEnd:
    def test_simulate_then_estimate_recovers_lags(self, tmp_path):
        spec = dict(SMALL_SPEC, n=15000)
        model_path = write_model(tmp_path, spec)
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        path_csv = tmp_path / "path.csv"
        assert main(
            [
                "simulate",
                "--model", model_path,
                "--seed", "3",
                "--out", str(path_csv),
                "--ticks1", str(t1),
                "--ticks2", str(t2),
            ]
        ) == 0
        report_path = tmp_path / "report.json"
        tau = 2.0**-14
        assert main(
            [
                "estimate",
                "--in1", str(t1),
                "--in2", str(t2),
                "--family", "la20",
                "--levels", "3",
                "--maxlag", "10",
                "--tau", f"{tau!r}",
                "--t0", "0.0",
                "--n", "15000",
                "--out", str(report_path),
            ]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["schema_version"] == 1
        assert [lvl["j"] for lvl in report["levels"]] == [1, 2, 3]
        configured = {1: -1, 2: -1, 3: -2}
        for lvl in report["levels"]:
            assert abs(lvl["theta_hat_steps"] - configured[lvl["j"]]) <= 1
            assert lvl["theta_hat_seconds"] == pytest.approx(lvl["theta_hat_steps"] * tau)
            assert len(lvl["curve"]) == 21
            norms = [abs(pt["rho_norm"]) for pt in lvl["curve"]]
            assert max(norms) <= 1.0 + 1e-9

    def test_estimate_derives_grid_from_data(self, tmp_path):
        rng = np.random.default_rng(31)
        for name, start in (("a.csv", 0.0), ("b.csv", 2.0)):
            ts = start + np.arange(100.0)
            px = 100.0 * np.exp(np.cumsum(0.001 * rng.standard_normal(100)))
            lines = ["timestamp,price"] + [
                f"{float(t)!r},{float(p)!r}" for t, p in zip(ts, px)
            ]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "estimate",
                "--in1", str(tmp_path / "a.csv"),
                "--in2", str(tmp_path / "b.csv"),
                "--family", "haar",
                "--levels", "2",
                "--maxlag", "3",
                "--tau", "1.0",
                "--out", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        # origin snaps to the later first tick; horizon to the shorter series
        assert report["t0"] == 2.0
        assert report["n"] == 97
        assert len(report["levels"]) == 2

    def test_estimate_without_overlap_is_data_error(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("timestamp,price\n0.0,100.0\n1.0,101.0\n")
        (tmp_path / "b.csv").write_text("timestamp,price\n50.0,100.0\n50.5,101.0\n")
        code = main(
            [
                "estimate",
                "--in1", str(tmp_path / "a.csv"),
                "--in2", str(tmp_path / "b.csv"),
                "--tau", "1.0",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_row, needle",
        [("2.0,nan", "non-finite price at row 3"), ("nan,100.5", "non-finite timestamp at row 3")],
    )
    def test_estimate_non_finite_tick_is_data_error(self, tmp_path, capsys, bad_row, needle):
        rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(40)]
        good = "\n".join(rows) + "\n"
        rows[3] = bad_row
        (tmp_path / "a.csv").write_text(good)
        (tmp_path / "b.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        code = main(
            [
                "estimate",
                "--in1", str(tmp_path / "a.csv"),
                "--in2", str(tmp_path / "b.csv"),
                "--family", "haar",
                "--levels", "1",
                "--maxlag", "2",
                "--out", str(out),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mc_unknown_family_is_data_error(self, tmp_path, capsys):
        config = {"model": benchmark_spec(n=1200), "families": ["la9"], "j_max": 1, "l_max": 12}
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        code = main(["mc", "--config", str(config_path), "--reps", "1", "--threads", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "'la9'" in err
        assert "haar, la8, la20" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, code",
        [
            ("--tau nan", 1),
            ("--tau inf", 1),
            ("--tau 0", 1),
            ("--tau -1", 1),
            ("--t0 nan", 1),
            ("--t0 nan --n 40", 1),
            ("--t0 inf --n 40", 1),
            ("--tau 1e-300", 2),
        ],
    )
    def test_estimate_bad_grid_flags(self, tmp_path, capsys, flags, code):
        rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(60)]
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        argv = [
            "estimate",
            "--in1", str(tmp_path / "a.csv"),
            "--in2", str(tmp_path / "b.csv"),
            "--family", "haar",
            "--levels", "1",
            "--maxlag", "2",
            "--out", str(out),
        ]
        assert main(argv + flags.split()) == code
        err = capsys.readouterr().err
        assert flags.split()[0] in err or "too large" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sim_max_lag", "replication"])
    def test_mc_unknown_config_key_is_data_error(self, tmp_path, capsys, key):
        config = {"schema_version": 1, "model": benchmark_spec(n=1200), "j_max": 1, key: 2}
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        code = main(["mc", "--config", str(config_path), "--reps", "1", "--threads", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown MC config key {key!r}" in err
        assert "schema_version, model, model_path" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, needle",
        [
            ("j_max", "eight", "must be an integer"),
            ("j_max", 2.0, "must be an integer"),
            ("l_max", True, "must be an integer"),
            ("replications", "3", "must be an integer"),
            ("master_seed", None, "must be an integer"),
            ("threads", [1], "must be an integer"),
            ("include_hry", "false", "must be true or false"),
            ("include_hry", 0, "must be true or false"),
            ("families", "la20", "must be a list of family names"),
            ("families", ["haar", 8], "must be a list of family names"),
        ],
    )
    def test_mc_wrongly_typed_config_value_is_data_error(
        self, tmp_path, capsys, key, value, needle
    ):
        config = {"model": benchmark_spec(n=1200), "families": ["haar"], "j_max": 1, "l_max": 12}
        config[key] = value
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        code = main(["mc", "--config", str(config_path), "--reps", "1", "--threads", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"MC config key {key!r} {needle}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mc_invalid_summary_exits_numeric(self, tmp_path, capsys, monkeypatch):
        real = montecarlo.run_replication
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ll.NumericError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_replication", flaky)
        config = {"model": benchmark_spec(n=1200), "families": ["haar"], "j_max": 1, "l_max": 12}
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        code = main(["mc", "--config", str(config_path), "--reps", "4", "--threads", "1", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "warning: 1 of 4 replications failed; summary marked invalid" in err
        assert "Traceback" not in err
        lines = out.read_text().splitlines()
        assert lines[0] == "# leadlag-mc-summary schema_version=1"
        assert lines[2].startswith("haar,median,")

    def test_mc_smoke_two_replications(self, tmp_path):
        config = {
            "model": benchmark_spec(n=1200),
            "families": ["haar"],
            "j_max": 2,
            "l_max": 12,
        }
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "table.csv"
        assert main(
            ["mc", "--config", str(config_path), "--reps", "2", "--seed", "7", "--out", str(out)]
        ) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "family,statistic,j1,j2"
        assert lines[2].startswith("haar,median,")
        assert lines[4].startswith("hry,median,")

    def test_threads_env_override_invalid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LEADLAG_THREADS", "many")
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps({"model": benchmark_spec(n=1200)}))
        code = main(["mc", "--config", str(config_path), "--reps", "1", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "LEADLAG_THREADS" in capsys.readouterr().err

    def test_threads_env_override_applies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LEADLAG_THREADS", "1")
        config = {
            "model": benchmark_spec(n=1200),
            "families": ["haar"],
            "j_max": 1,
            "l_max": 12,
        }
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        assert main(["mc", "--config", str(config_path), "--reps", "1", "--out", str(out)]) == 0
        assert out.exists()


class TestMcEmbedding:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_invalid_embedding_exits_numeric_at_every_thread_count(self, tmp_path, threads):
        # |R| = 0.95 is beyond the embedding's ceiling of about 0.92
        model = {"J": 13, "n": 2000, "levels": [{"j": 3, "R": 0.95, "theta_over_tau": -2}]}
        config = {"model": model, "families": ["haar"], "j_max": 3, "l_max": 12, "replications": 4}
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        env.pop("LEADLAG_THREADS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "leadlag.cli", "mc", "--config", str(config_path),
             "--threads", threads, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert "numeric error: invalid circulant embedding" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


class TestTooLargeToAllocate:
    # sizes numpy refuses up front, before it reserves any memory

    @pytest.mark.parametrize("n", [2**40, 2**62])
    def test_simulate(self, tmp_path, capsys, n):
        model_path = write_model(tmp_path, dict(SMALL_SPEC, n=n))
        argv = ["simulate", "--model", model_path, "--out", str(tmp_path / "path.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"n={n} is too large to allocate" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc(self, tmp_path, capsys, threads):
        config = {"model": dict(SMALL_SPEC, n=2**40), "families": ["haar"], "j_max": 1, "l_max": 12}
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        argv = ["mc", "--config", str(config_path), "--reps", "2", "--threads", threads]
        assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert f"n={2**40} is too large to allocate" in err
        assert sorted(os.listdir(tmp_path)) == ["mc.json"]

    def test_gain_points(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--family", "haar", "--points", "100000000000", "--out", str(out)]) == 2
        assert "--points 100000000000 is too large to allocate" in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_maxlag(self, tmp_path, capsys):
        rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(60)]
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        argv = [
            "estimate",
            "--in1", str(tmp_path / "a.csv"),
            "--in2", str(tmp_path / "b.csv"),
            "--family", "haar",
            "--levels", "1",
            "--maxlag", "100000000000",
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "grid half-width 100000000000" in capsys.readouterr().err
        assert not out.exists()


class TestMcDesign:
    @pytest.mark.parametrize(
        "file_threads, flag, env, expected",
        [
            (3, None, None, 3),
            (None, None, None, 6),
            (3, "2", None, 2),
            (3, None, "4", 4),
            (3, "2", "5", 5),
        ],
        ids=["config-key", "all-cores", "flag-over-key", "env-over-key", "env-over-flag"],
    )
    def test_mc_thread_count_precedence(
        self, tmp_path, monkeypatch, file_threads, flag, env, expected
    ):
        # --threads or LEADLAG_THREADS, then the config's threads key, then every core
        seen = []
        real = cli.run_mc

        def spy(config):
            seen.append(config.threads)
            return real(dataclasses.replace(config, threads=1))

        monkeypatch.setattr(cli, "run_mc", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        if env is None:
            monkeypatch.delenv("LEADLAG_THREADS", raising=False)
        else:
            monkeypatch.setenv("LEADLAG_THREADS", env)
        config = {"model": benchmark_spec(n=1200), "families": ["haar"], "j_max": 1, "l_max": 12}
        if file_threads is not None:
            config["threads"] = file_threads
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        argv = ["mc", "--config", str(config_path), "--reps", "1", "--out", str(tmp_path / "o.csv")]
        if flag is not None:
            argv += ["--threads", flag]
        assert main(argv) == 0
        assert seen == [expected]

    @pytest.mark.parametrize(
        "key, value, needle",
        [
            ("j_max", 0, "MC config key 'j_max' must be >= 1, got 0"),
            ("j_max", -3, "MC config key 'j_max' must be >= 1, got -3"),
            ("families", [], "MC config key 'families' must name at least one filter family"),
        ],
    )
    def test_mc_empty_design_is_data_error(self, tmp_path, capsys, key, value, needle):
        config = {"model": benchmark_spec(n=1200), "families": ["haar"], "j_max": 1, "l_max": 12}
        config[key] = value
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        code = main(["mc", "--config", str(config_path), "--reps", "2", "--threads", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert not out.exists()


EDGE_FLOATS = (
    -0.0, 0.0, 5e-324, -5e-324, 2.225e-308, 1e308, -1e308, 1.7976931348623157e308,
    math.nan, math.inf, -math.inf,
)
report_floats = st.sampled_from(EDGE_FLOATS) | st.floats()


@st.composite
def estimate_reports(draw):
    """Reports shaped like the estimate command's, with any float values."""
    levels = []
    for j in range(1, draw(st.integers(1, 8)) + 1):
        lags = sorted(draw(st.sets(st.integers(-400, 400), max_size=30)))
        levels.append(
            {
                "j": j,
                "theta_hat_steps": draw(st.integers(-400, 400)),
                "theta_hat_seconds": draw(report_floats),
                "peak": draw(report_floats),
                "runner_up_gap": draw(report_floats),
                "tied": draw(st.booleans()),
                "degenerate": draw(st.booleans()),
                "curve": [
                    {"l": l, "rho": draw(report_floats), "rho_norm": draw(report_floats)}
                    for l in lags
                ],
            }
        )
    return {
        "schema_version": 1,
        "family": draw(st.sampled_from(FAMILIES)),
        "tau": draw(report_floats),
        "t0": draw(report_floats),
        "n": draw(st.integers(1, 2**40)),
        "levels": levels,
    }


class TestReportWriter:
    @given(report=estimate_reports())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps(self, report):
        assert render_report(report) == json.dumps(report, indent=2) + "\n"

    def test_estimate_report_round_trips_and_equals_old_rendering(self, tmp_path):
        spec = dict(SMALL_SPEC, pi1=0.3, pi2=0.3)
        model_path = write_model(tmp_path, spec)
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        path_csv = tmp_path / "path.csv"
        assert main(
            ["simulate", "--model", model_path, "--seed", "11", "--out", str(path_csv),
             "--ticks1", str(t1), "--ticks2", str(t2)]
        ) == 0
        tau, n = 2.0**-14, SMALL_SPEC["n"]
        report_path = tmp_path / "report.json"
        assert main(
            ["estimate", "--in1", str(t1), "--in2", str(t2), "--family", "la8", "--levels", "3",
             "--maxlag", "12", "--tau", repr(tau), "--t0", "0", "--n", str(n),
             "--out", str(report_path)]
        ) == 0
        raw = report_path.read_bytes()
        with open(report_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert (json.dumps(loaded, indent=2) + "\n").encode() == raw
        # the same report built and dumped as the command did before its writer
        r1 = ll.align_to_grid(ll.read_csv(t1), 0.0, tau, n)
        r2 = ll.align_to_grid(ll.read_csv(t2), 0.0, tau, n)
        results = ll.estimate_levels(r1, r2, "la8", 3, ll.LagGrid.symmetric(12))
        old = {
            "schema_version": 1,
            "family": "la8",
            "tau": tau,
            "t0": 0.0,
            "n": n,
            "levels": [
                {
                    "j": est.level,
                    "theta_hat_steps": est.lag,
                    "theta_hat_seconds": est.theta_seconds,
                    "peak": est.peak_value,
                    "runner_up_gap": est.runner_up_gap,
                    "tied": est.tied,
                    "degenerate": est.degenerate,
                    "curve": [
                        {"l": int(l), "rho": float(r), "rho_norm": float(rn)}
                        for l, r, rn in zip(curve.lags, curve.rho, curve.rho_normalized)
                    ],
                }
                for curve, est in results
            ],
        }
        assert raw == (json.dumps(old, indent=2) + "\n").encode()


GRID_FLOATS = st.sampled_from((math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300))


@st.composite
def estimate_flags(draw):
    """Grid and level flags of the estimate command; the grid flags may be
    absent.

    Generated timestamps lie in [0, 210] and a finite positive --tau is at
    least 0.05, so a grid derived from the data has at most 4200 steps.
    """
    values = {
        "--levels": st.sampled_from((1, 2, 3, 4, 5, 6, 0, -1)),
        "--maxlag": st.integers(-1, 30),
        "--tau": st.none() | GRID_FLOATS | st.floats(0.05, 50.0),
        "--t0": st.none() | GRID_FLOATS | st.floats(-5.0, 120.0),
        "--n": st.none() | st.integers(-3, 3000),
    }
    drawn = {flag: draw(strategy) for flag, strategy in values.items()}
    return [f"{flag}={value!r}" for flag, value in drawn.items() if value is not None]


class TestEstimateProperty:
    @given(
        text1=tick_csv_text(plain=True) | tick_csv_text(),
        text2=tick_csv_text(plain=True) | tick_csv_text(),
        flags=estimate_flags(),
    )
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_exit_code_and_no_partial_output(self, tmp_path, text1, text2, flags):
        # in-process, a traceback would be an exception escaping main()
        work = tempfile.mkdtemp(dir=tmp_path)
        for name, text in (("a.csv", text1), ("b.csv", text2)):
            with open(os.path.join(work, name), "wb") as fh:
                fh.write(text.encode("utf-8"))
        out = os.path.join(work, "report.json")
        argv = ["estimate", "--in1", os.path.join(work, "a.csv"), "--in2",
                os.path.join(work, "b.csv"), "--family", "haar", "--out", out] + flags
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        expected = ["a.csv", "b.csv"] + (["report.json"] if code == 0 else [])
        assert sorted(os.listdir(work)) == expected
        if code == 0:
            with open(out, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            assert len(report["levels"]) >= 1


class TestImport:
    def test_cli_import_leaves_scipy_signal_unloaded(self):
        probe = "import sys, leadlag.cli; print('scipy.signal' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("module", ["leadlag", "leadlag.cli"])
    def test_import_loads_no_scipy_module(self, module):
        probe = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestHelpDocumentsUnits:
    @pytest.mark.parametrize(
        "command,needle",
        [("estimate", "seconds"), ("estimate", "grid"), ("mc", "grid steps"), ("gain", "radians")],
    )
    def test_subcommand_help_mentions_units(self, capsys, command, needle):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert needle in capsys.readouterr().out


class TestAtomicOutput:
    def test_bad_output_directory_fails_before_computation(self, tmp_path, capsys):
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps({"model": benchmark_spec(n=1200)}))
        code = main(
            ["mc", "--config", str(config_path), "--reps", "1",
             "--out", str(tmp_path / "missing" / "out.csv")]
        )
        assert code == 2
        assert "output directory" in capsys.readouterr().err

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with atomic_output(str(target)) as fh:
                fh.write("partial content\n")
                raise RuntimeError("interrupted")
        assert not target.exists()
        assert not any(p.name.startswith(".leadlag-") for p in tmp_path.iterdir())

    def test_success_replaces_atomically(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("old")
        with atomic_output(str(target)) as fh:
            fh.write("new content\n")
        assert target.read_text() == "new content\n"
