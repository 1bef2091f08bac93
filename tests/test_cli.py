import ast
import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import resource
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import leadlag as ll
from leadlag import cli, model, montecarlo
from leadlag.cli import atomic_output, main, render_report
from leadlag.filters import FAMILIES, level_gain

from conftest import CONFIGS, benchmark_spec, clipping_spec, pipe_path, tick_csv_text


def write_model(tmp_path, spec, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


# the child prints how long main() took, so a bound can exclude start-up
TIMED_MAIN = """
import sys, time
from leadlag.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"main took {time.perf_counter() - start:.6f} s", file=sys.stderr)
sys.exit(code)
"""


def run_capped(argv, cwd):
    """Run the CLI in a child process capped at 1 GiB of address space, so a
    command that grows memory without bound ends in MemoryError rather than
    starving the machine. Returns (exit code, stderr, seconds in main)."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", TIMED_MAIN, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60, preexec_fn=cap,
    )
    took = re.search(r"main took (\S+) s\n$", proc.stderr)
    return proc.returncode, proc.stderr, float(took.group(1)) if took else math.inf


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

    def test_other_package_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # a LeadLagError of no subclass is reported as a plain error
        def refuse(family):
            raise ll.LeadLagError(f"no table for {family}")

        monkeypatch.setattr(cli, "base_filter", refuse)
        assert main(["gain", "--family", "haar", "--out", str(tmp_path / "g.csv")]) == 2
        assert capsys.readouterr().err == "error: no table for haar\n"
        assert list(tmp_path.iterdir()) == []

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
        for points in (1024, 2, 257):
            assert main(
                ["gain", "--family", "la20", "--level", "3", "--points", str(points), "--out", str(out)]
            ) == 0
            lines = out.read_text().strip().splitlines()
            assert lines[0].startswith("# leadlag-gain")
            assert lines[1] == "lambda,H_jL,empirical_gain"
            rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
            assert rows.shape == (points, 3)
            assert rows[0, 0] == 0.0
            assert rows[-1, 0] == pytest.approx(math.pi)
            assert np.allclose(rows[:, 1], level_gain(3, 20, rows[:, 0]), atol=1e-12)
            assert np.max(np.abs(rows[:, 1] - rows[:, 2])) < 1e-10, f"--points {points}"

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--level", "0"], "--level must be >= 1, got 0"),
            (["--level", "13"], "--level 13: cascade filters beyond level 12 are too large"),
            (["--points", "1"], "--points must be >= 2, got 1"),
        ],
        ids=["level-0", "level-13", "points-1"],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--family", "haar", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {needle}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_without_out_writes_the_csv_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        assert main(["gain", "--family", "la8", "--level", "2", "--points", "5", "--out", str(out)]) == 0
        assert main(["gain", "--family", "la8", "--level", "2", "--points", "5"]) == 0
        assert capsys.readouterr().out == out.read_text()


class TestSimulate:
    def test_path_csv_round_trip(self, tmp_path):
        model_path = write_model(tmp_path, SMALL_SPEC)
        out = tmp_path / "path.csv"
        assert main(["simulate", "--model", model_path, "--seed", "42", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[1] == "k,r1,r2,miss1,miss2"
        assert len(lines) == 2 + SMALL_SPEC["n"]
        model, scheme = ll.load_model(SMALL_SPEC)
        sample = ll.circulant_embed_sample(ll.build_embedding(model, scheme), 42)
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

    @pytest.mark.parametrize(
        "seed, flag, needle",
        [
            (2, "--ticks1", "series 1: tick price exp(-724.6882920886079) at grid point 26"),
            (3, "--ticks1", "series 1: tick price exp(799.8945070541911) at grid point 40"),
            (2, "--ticks2", "series 2: tick price exp(757.0902356224851) at grid point 81"),
            (3, "--ticks2", "series 2: tick price exp(-771.2855901471598) at grid point 22"),
        ],
        ids=["underflow-1", "overflow-1", "overflow-2", "underflow-2"],
    )
    def test_tick_price_outside_float_range_exits_numeric(self, tmp_path, capsys, seed, flag, needle):
        # a random walk of variance 1e4 per step leaves exp's range within a few dozen steps
        spec = {"J": 3, "tau": 10000.0, "n": 1000, "levels": [{"j": 1, "R": 0.5}]}
        argv = ["simulate", "--model", write_model(tmp_path, spec), "--seed", str(seed)]
        code = main(argv + ["--out", str(tmp_path / "o.csv"), flag, str(tmp_path / "t.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"numeric error: {needle} is outside the normal float range" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["model.json"]


# the band kernel at 1e308 steps overflows to NaN, so the cross spectrum does too
NAN_SPECTRUM_SPEC = {"J": 3, "n": 16, "levels": [{"j": 1, "R": 0.5, "theta_over_tau": 1e308}]}
INF_STEPS_SPEC = {"J": 3, "n": 16, "tau": 1e-320, "levels": [{"j": 1, "R": 0.5, "theta_seconds": 1.0}]}
INF_STEPS_MESSAGE = "model key 'theta_seconds' in levels[0] is inf grid steps, not finite"
DEEP_SPEC = {"J": 2000, "tau": 1.0, "n": 16, "levels": [{"j": 1, "R": 0.5, "theta_over_tau": -1}]}
# the default tau, 2^-(J+1), underflows to 0 from J = 1074 on
ZERO_TAU_SPEC = {key: value for key, value in DEEP_SPEC.items() if key != "tau"}
ZERO_TAU_MESSAGE = "J=2000 makes the default grid spacing tau = 2^-(J+1) underflow to 0; give tau"


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

    @pytest.mark.parametrize("spec", [SMALL_SPEC, {"J": 13, "n": 1200}], ids=["lagged", "no-bands"])
    def test_negative_l_max_is_usage_error(self, tmp_path, capsys, spec):
        model_path = write_model(tmp_path, spec)
        assert main(["model-check", "--model", model_path, "--l-max", "-1"]) == 1
        captured = capsys.readouterr()
        assert "--l-max must be >= 0, got -1" in captured.err
        assert "model ok" not in captured.out

    @pytest.mark.parametrize(
        "spec, extra",
        [
            ({"J": 6, "n": 512, "levels": [{"j": 1, "R": 1.0}]}, []),
            (
                {"J": 13, "n": 15000, "levels": [{"j": 3, "R": 0.95, "theta_over_tau": -2}]},
                ["--l-max", "60"],
            ),
        ],
        ids=["J6-R1", "J13-R0.95"],
    )
    def test_embedding_guard_exits_numeric_as_simulate_does(
        self, tmp_path, capsys, spec, extra
    ):
        # |R| <= 1 holds, but the cut circulant row overshoots the variance
        model_path = write_model(tmp_path, spec)
        assert main(["model-check", "--model", model_path, *extra]) == 3
        captured = capsys.readouterr()
        assert "invalid circulant embedding" in captured.err
        assert "Traceback" not in captured.err
        assert "model ok" not in captured.out
        simulate = ["simulate", "--model", model_path, "--out", str(tmp_path / "x.csv")]
        assert main(simulate) == 3
        assert capsys.readouterr().err == captured.err

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ({"J": 0}, "finest level must be >= 1, got 0"),
            # an integer beyond the float range
            ({"J": 3, "levels": [{"j": 1, "R": 10**400}]},
             "model key 'R' in levels[0] must be a finite number, got 1000"),
        ],
        ids=["J-0", "R-of-400-digits"],
    )
    def test_out_of_range_model_value_is_data_error(self, tmp_path, capsys, spec, needle):
        assert main(["model-check", "--model", write_model(tmp_path, spec)]) == 2
        captured = capsys.readouterr()
        assert f"data error: {needle}" in captured.err
        assert "Traceback" not in captured.err
        assert "model ok" not in captured.out

    def test_band_level_beyond_the_float_range_runs(self, tmp_path, capsys):
        # the band's scale 2^-j is 0.0 there; it used to end in OverflowError
        spec = {"J": 10**400, "tau": 0.001, "n": 256, "levels": [{"j": 10**400, "R": 0.3}]}
        assert main(["model-check", "--model", write_model(tmp_path, spec)]) == 0
        captured = capsys.readouterr()
        assert "model ok" in captured.out
        assert "Traceback" not in captured.err

    def test_max_corr_is_read_from_the_bands(self, tmp_path, capsys):
        # a coarse band that sampled frequencies would miss
        spec = {"J": 13, "n": 15000, "levels": [{"j": 13, "R": 0.9}]}
        assert main(["model-check", "--model", write_model(tmp_path, spec)]) == 0
        assert "band correlations: max |R| = 0.900000 (admissible <= 1)" in capsys.readouterr().out

    def test_benchmark_model_reports_its_embedding(self, capsys):
        model_path = str(CONFIGS / "benchmark_model.json")
        assert main(["model-check", "--model", model_path, "--l-max", "60"]) == 0
        out = capsys.readouterr().out
        assert "band correlations: max |R| = 0.700000 (admissible <= 1)" in out
        assert "circulant embedding: 30000 points" in out
        assert "0 clipped" in out

    def test_clipped_eigenvalues_are_counted(self, tmp_path, capsys):
        spec = clipping_spec()
        clipped = ll.build_embedding(*ll.load_model(spec)).clipped
        assert clipped > 0
        assert main(["model-check", "--model", write_model(tmp_path, spec)]) == 0
        assert f" tau, {clipped} clipped" in capsys.readouterr().out

    def test_clip_is_reported_once_and_readably(self, tmp_path):
        # a subprocess: pytest's log capture hides a logged record in-process
        spec = clipping_spec()
        emb = ll.build_embedding(*ll.load_model(spec))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "leadlag.cli", "model-check", "--model", write_model(tmp_path, spec)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        line = proc.stdout.splitlines()[-1]
        assert re.fullmatch(
            rf"circulant embedding: 1024 points, smallest eigenvalue -\d(\.\d+)?e-\d+ tau, "
            rf"{emb.clipped} clipped",
            line,
        ), line

    def test_n_too_large_to_embed_is_data_error(self, tmp_path, capsys):
        model_path = write_model(tmp_path, dict(SMALL_SPEC, n=2**40))
        assert main(["model-check", "--model", model_path]) == 2
        captured = capsys.readouterr()
        assert f"n={2**40} is too large to allocate a circulant embedding" in captured.err
        assert "model ok" not in captured.out

    @pytest.mark.parametrize(
        "spec",
        [SMALL_SPEC, {"J": 13, "n": 15000, "levels": [{"j": 13, "R": 0.9}]}, {"J": 3}],
        ids=["small", "coarse-band", "no-bands"],
    )
    def test_report_has_no_sampled_density_lines(self, tmp_path, capsys, spec):
        assert main(["model-check", "--model", write_model(tmp_path, spec)]) == 0
        lines = capsys.readouterr().out.lower().splitlines()
        assert len(lines) == 5
        assert not [line for line in lines if "sampled" in line or "hermitian" in line]

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
        "command, spec, code, needle",
        [
            ("model-check", NAN_SPECTRUM_SPEC, 3, "the model's cross spectrum is not finite"),
            ("simulate", NAN_SPECTRUM_SPEC, 3, "the model's cross spectrum is not finite"),
            # mc's lag-grid check refuses the lag of 1e308 steps before any embedding
            ("mc", NAN_SPECTRUM_SPEC, 2, "outside the search grid"),
            ("model-check", INF_STEPS_SPEC, 2, INF_STEPS_MESSAGE),
            ("simulate", INF_STEPS_SPEC, 2, INF_STEPS_MESSAGE),
            ("mc", INF_STEPS_SPEC, 2, INF_STEPS_MESSAGE),
            ("model-check", ZERO_TAU_SPEC, 2, ZERO_TAU_MESSAGE),
            ("simulate", ZERO_TAU_SPEC, 2, ZERO_TAU_MESSAGE),
            ("mc", ZERO_TAU_SPEC, 2, ZERO_TAU_MESSAGE),
        ],
        ids=[
            f"{c}-{m}"
            for m in ("nan-spectrum", "inf-steps", "zero-tau")
            for c in ("model-check", "simulate", "mc")
        ],
    )
    def test_non_finite_model_is_refused(self, tmp_path, capsys, command, spec, code, needle):
        if command == "mc":
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"model": spec, "families": ["haar"], "j_max": 1, "l_max": 2}))
            argv = ["mc", "--config", str(path), "--out", str(tmp_path / "o.csv")]
        else:
            argv = [command, "--model", write_model(tmp_path, spec)]
            if command == "simulate":
                argv += ["--out", str(tmp_path / "o.csv"), "--ticks1", str(tmp_path / "t1.csv")]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert needle in captured.err
        assert "Traceback" not in captured.err
        assert "model ok" not in captured.out
        assert os.listdir(tmp_path) == [os.path.basename(argv[2])]  # the input file only

    @pytest.mark.parametrize("command", ["model-check", "simulate", "mc"])
    def test_deep_model_runs_as_a_shallow_one(self, tmp_path, capsys, command):
        # band j's scale is 2^-j for any J; 2^(J-j+1) alone overflows at J >= 1024
        outputs = []
        for J in (2000, 3):
            work = tmp_path / str(J)
            work.mkdir()
            spec = dict(DEEP_SPEC, J=J)
            if command == "mc":
                path = work / "config.json"
                path.write_text(json.dumps({"model": spec, "families": ["haar"], "j_max": 1, "l_max": 2}))
                argv = ["mc", "--config", str(path), "--reps", "3", "--threads", "1"]
            else:
                argv = [command, "--model", write_model(work, spec)]
            if command != "model-check":
                argv += ["--out", str(work / "o.csv")]
            if command == "simulate":
                argv += ["--seed", "4", "--ticks1", str(work / "t1.csv")]
            assert main(argv) == 0
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            files = [(work / name).read_bytes() for name in ("o.csv", "t1.csv") if (work / name).exists()]
            outputs.append((captured.out.replace(f"J={J},", "J,"), files))
        assert outputs[0] == outputs[1]

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


class TestNegativeSettings:
    def test_simulate_negative_seed_is_usage_error(self, tmp_path, capsys):
        model_path = write_model(tmp_path, SMALL_SPEC)
        argv = ["simulate", "--model", model_path, "--seed", "-1", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--seed must be >= 0, got -1" in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    @pytest.mark.parametrize(
        "setting, flags, needle",
        [
            ({}, ["--seed", "-1"], "master seed (master_seed) must be >= 0, got -1"),
            ({"master_seed": -1}, [], "master seed (master_seed) must be >= 0, got -1"),
            ({"l_max": -1}, [], "MC config key 'l_max' must be >= 0, got -1"),
            ({"l_max": -1, "model": {"J": 13, "n": 1200}}, [], "MC config key 'l_max' must be >= 0, got -1"),
            ({}, ["--reps", "0"], "replication count (replications) must be >= 1, got 0"),
            ({}, ["--threads", "0"], "worker count (threads) must be >= 1, got 0"),
        ],
        ids=["seed-flag", "seed-key", "l_max-lagged-bands", "l_max-no-bands", "reps-flag", "threads-flag"],
    )
    def test_mc_negative_setting_names_its_key(
        self, tmp_path, capsys, monkeypatch, setting, flags, needle
    ):
        def no_embedding(*args):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(montecarlo, "build_embedding", no_embedding)
        config = {"model": benchmark_spec(n=1200), "families": ["haar"], "j_max": 1, "l_max": 12}
        config.update(setting)
        (tmp_path / "mc.json").write_text(json.dumps(config))
        argv = ["mc", "--config", str(tmp_path / "mc.json"), "--reps", "2", "--threads", "1"]
        assert main(argv + flags + ["--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["mc.json"]


    @pytest.mark.parametrize("levels", [20000, 10**20], ids=["20000", "1e20"])
    @pytest.mark.parametrize("command, code", [("estimate", 1), ("mc", 2)])
    def test_level_beyond_the_bit_length_of_n_is_refused_at_once(
        self, tmp_path, command, code, levels
    ):
        # 2^levels is never built: at 20000 levels the message used to print
        # its 6000 digits and fail, and at 10^20 it grew memory without bound
        if command == "mc":
            config = {"model": benchmark_spec(n=1000), "families": ["haar"], "j_max": levels, "l_max": 12}
            (tmp_path / "mc.json").write_text(json.dumps(config))
            argv = ["mc", "--config", "mc.json", "--threads", "1"]
        else:
            argv = ["estimate", "--in1", "a.csv", "--in2", "b.csv", "--levels", str(levels), "--n", "1000"]
        returncode, err, took = run_capped(argv + ["--out", "out"], cwd=tmp_path)
        assert returncode == code, err
        assert f"level {levels} with grid half-width" in err
        assert "needs more than n=1000 samples; max feasible level is" in err
        assert "Traceback" not in err
        assert took < 0.5
        assert sorted(os.listdir(tmp_path)) == (["mc.json"] if command == "mc" else [])

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_estimate_n_below_one_is_usage_error(self, tmp_path, capsys, n):
        out = tmp_path / "r.json"
        argv = ["estimate", "--in1", "a.csv", "--in2", "b.csv", "--n", n, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: --n must be >= 1, got {n}\n"
        assert not out.exists()


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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_estimate_reads_pipes_as_the_files(self, tmp_path):
        model_path = write_model(tmp_path, dict(SMALL_SPEC, n=512))
        ticks = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
        assert main(
            ["simulate", "--model", model_path, "--seed", "4", "--out", str(tmp_path / "path.csv"),
             "--ticks1", str(ticks[0]), "--ticks2", str(ticks[1])]
        ) == 0
        argv = ["estimate", "--family", "haar", "--levels", "3", "--maxlag", "5",
                "--tau", repr(2.0**-14), "--t0", "0.0", "--n", "512"]
        assert main(argv + ["--in1", str(ticks[0]), "--in2", str(ticks[1]),
                            "--out", str(tmp_path / "files.json")]) == 0
        with pipe_path(ticks[0].read_bytes()) as in1, pipe_path(ticks[1].read_bytes()) as in2:
            assert main(argv + ["--in1", in1, "--in2", in2, "--out", str(tmp_path / "pipes.json")]) == 0
        assert (tmp_path / "pipes.json").read_bytes() == (tmp_path / "files.json").read_bytes()

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

    @pytest.mark.parametrize("grid", [["--t0", "0.0", "--n", "2000"], []], ids=["fixed", "derived"])
    def test_estimate_log_price_input_matches_raw_prices(self, tmp_path, grid):
        model_path = write_model(tmp_path, SMALL_SPEC)
        raw = [tmp_path / "t1.csv", tmp_path / "t2.csv"]
        assert main(
            ["simulate", "--model", model_path, "--seed", "5", "--out", str(tmp_path / "path.csv"),
             "--ticks1", str(raw[0]), "--ticks2", str(raw[1])]
        ) == 0
        logged = [tmp_path / "l1.csv", tmp_path / "l2.csv"]
        for src, dst in zip(raw, logged):
            ticks = ll.read_csv(src)
            rows = zip(ticks.timestamps.tolist(), np.log(ticks.prices).tolist())
            dst.write_text("timestamp,price\n" + "".join(f"{t!r},{p!r}\n" for t, p in rows))
        argv = ["estimate", "--family", "la8", "--levels", "3", "--maxlag", "6",
                "--tau", repr(2.0**-14), *grid]
        assert main(argv + ["--in1", str(raw[0]), "--in2", str(raw[1]),
                            "--out", str(tmp_path / "raw.json")]) == 0
        assert main(argv + ["--in1", str(logged[0]), "--in2", str(logged[1]), "--scale", "log_price",
                            "--out", str(tmp_path / "log.json")]) == 0
        assert (tmp_path / "log.json").read_bytes() == (tmp_path / "raw.json").read_bytes()

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
        "t0, flag, path, last",
        [("20", "--in2", "b.csv", "10.0"), ("200", "--in1", "a.csv", "100.0")],
        ids=["after-in2", "after-both"],
    )
    def test_estimate_grid_after_the_data_is_data_error(self, tmp_path, capsys, t0, flag, path, last):
        # every grid return of such a series would be 0: a report of all-degenerate levels
        for name, stop in (("a.csv", 101), ("b.csv", 11)):
            rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(stop)]
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        code = main(
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "b.csv"),
             "--family", "haar", "--levels", "2", "--maxlag", "3",
             "--t0", t0, "--tau", "1.0", "--n", "50", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{flag} {str(tmp_path / path)!r} has no tick inside the grid" in err
        assert f"({float(t0)}, {float(t0) + 50.0}]" in err and f"last tick is at {last}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_estimate_derived_grid_too_short_fails_before_alignment(
        self, tmp_path, capsys, monkeypatch
    ):
        rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(60)]
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("\n".join(rows) + "\n")

        def align_to_grid(*args):
            raise AssertionError("ticks aligned before the levels were checked")

        monkeypatch.setattr(cli, "align_to_grid", align_to_grid)
        out = tmp_path / "r.json"
        code = main(
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "b.csv"),
             "--family", "la20", "--levels", "8", "--maxlag", "2", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "la20 level 8 with grid half-width 2" in err and "n=59" in err
        assert "max feasible level" in err
        assert not out.exists()

    def test_estimate_colliding_grid_is_data_error(self, tmp_path, capsys):
        rows = ["timestamp,price"] + [f"{1.7e9 + t!r},{100.0 + t}" for t in range(3)]
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        code = main(
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "b.csv"),
             "--family", "haar", "--levels", "1", "--maxlag", "2",
             "--t0", "1.7e9", "--tau", "1e-7", "--n", "5000", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "grid points collide" in err and "tau=1e-07" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_estimate_overflowing_grid_is_data_error(self, tmp_path, capsys):
        # the points past step 17 overflow to +inf, where they would collide
        (tmp_path / "a.csv").write_text("timestamp,price\n0,1\n1,2\n")
        out = tmp_path / "r.json"
        code = main(
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "a.csv"),
             "--family", "haar", "--levels", "1", "--maxlag", "0",
             "--t0", "0", "--tau", "1e307", "--n", "30", "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "grid overflows" in err and "collide" not in err
        assert "t0=0.0" in err and "tau=1e+307" in err and "n=30" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_estimate_derived_grid_of_too_many_steps_is_data_error(self, tmp_path, capsys):
        # 59 s over the subnormal tau=5e-324 is inf grid steps
        rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(60)]
        (tmp_path / "a.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "r.json"
        code = main(
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "a.csv"),
             "--family", "haar", "--levels", "1", "--maxlag", "2", "--tau", "5e-324",
             "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: series overlap of 59.0 s holds too many grid steps of 5e-324 s" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_estimate_given_n_checks_the_levels_once(self, tmp_path, monkeypatch):
        rows = ["timestamp,price"] + [f"{t}.0,{100.0 + t}" for t in range(60)]
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("\n".join(rows) + "\n")
        calls = []
        check = cli.check_levels_fit
        monkeypatch.setattr(cli, "check_levels_fit", lambda *a: calls.append(a) or check(*a))
        code = main(
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "b.csv"),
             "--family", "haar", "--levels", "2", "--maxlag", "3", "--n", "50",
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 0
        assert calls == [("haar", 2, 3, 50)]

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
            ("--maxlag -1", 1),
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

    @pytest.mark.parametrize("key", ["sim_max_lag", "replication", "threads", "include_hry"])
    def test_mc_unknown_config_key_is_data_error(self, tmp_path, capsys, monkeypatch, key):
        def no_embedding(*args):
            raise AssertionError("the experiment started")

        monkeypatch.setattr(montecarlo, "build_embedding", no_embedding)
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
            ("families", "la20", "must be a list of family names"),
            ("families", ["haar", 8], "must be a list of family names"),
            ("families", ["haar", "haar"], "names 'haar' more than once"),
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc_every_replication_failed_names_the_first(self, tmp_path, capsys, monkeypatch, threads):
        def failing(*args, **kwargs):
            raise ll.DataError("injected failure")

        monkeypatch.setattr(montecarlo, "run_replication", failing)
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps({"model": benchmark_spec(n=1200), "j_max": 1, "l_max": 12}))
        out = tmp_path / "o.csv"
        code = main(
            ["mc", "--config", str(config_path), "--reps", "16", "--seed", "5",
             "--threads", threads, "--out", str(out)]
        )
        assert code == 2
        seed = montecarlo.replication_seeds(5, 16)[0]
        assert capsys.readouterr().err == (
            f"data error: every replication failed; the first, replication 0 (seed {seed}), "
            "raised DataError: injected failure\n"
        )
        assert os.listdir(tmp_path) == ["mc.json"]

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

    def test_mc_config_naming_model_and_model_path_is_data_error(self, tmp_path, capsys):
        config = {"model": benchmark_spec(n=1200), "model_path": str(CONFIGS / "benchmark_model.json")}
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        assert main(["mc", "--config", str(config_path), "--reps", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: MC config names both 'model' and 'model_path'" in err
        assert os.listdir(tmp_path) == ["mc.json"]

    def test_leadlag_threads_in_environment_is_ignored(self, tmp_path, monkeypatch):
        # the worker count comes from --threads alone
        config = {
            "model": benchmark_spec(n=1200),
            "families": ["haar"],
            "j_max": 1,
            "l_max": 12,
        }
        config_path = tmp_path / "mc.json"
        config_path.write_text(json.dumps(config))
        argv = ["mc", "--config", str(config_path), "--reps", "2", "--out"]
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        monkeypatch.setenv("LEADLAG_THREADS", "many")
        assert main(argv + [str(tmp_path / "env.csv")]) == 0
        assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


class TestSchemaVersion:
    @pytest.mark.parametrize("version", ["1", 2, True], ids=["string", "two", "true"])
    @pytest.mark.parametrize("command", ["model-check", "simulate", "mc"])
    def test_unsupported_version_is_data_error(self, tmp_path, capsys, command, version):
        if command == "mc":
            config = {"schema_version": version, "model": SMALL_SPEC, "families": ["haar"], "j_max": 1}
            (tmp_path / "in.json").write_text(json.dumps(config))
            argv = ["mc", "--config", str(tmp_path / "in.json"), "--threads", "1"]
            needle = "MC config key 'schema_version'"
        else:
            write_model(tmp_path, dict(SMALL_SPEC, schema_version=version), name="in.json")
            argv = [command, "--model", str(tmp_path / "in.json")]
            needle = "model key 'schema_version'"
        if command != "model-check":
            argv += ["--out", str(tmp_path / "out.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == ["in.json"]


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

    @pytest.mark.parametrize(
        "n", [10**4000, int("9" * 4300)], ids=["4001-digits", "4300-digits"]
    )
    @pytest.mark.parametrize("command", ["simulate", "mc"])
    def test_unindexable_n_exits_promptly(self, tmp_path, command, n):
        # the largest integers a JSON file can hold; 2n points cannot be indexed
        if command == "mc":
            config = {"model": dict(SMALL_SPEC, n=n), "families": ["haar"], "j_max": 1, "l_max": 12}
            (tmp_path / "in.json").write_text(json.dumps(config))
            argv = ["mc", "--config", str(tmp_path / "in.json"), "--threads", "1"]
        else:
            write_model(tmp_path, dict(SMALL_SPEC, n=n), name="in.json")
            argv = ["simulate", "--model", str(tmp_path / "in.json")]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "leadlag.cli", *argv, "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert "is too large to allocate a circulant embedding" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["in.json"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_mc_replication_count_beyond_seed_generator(self, tmp_path, threads):
        # numpy refuses this many seeds up front; a count it would allocate is not run
        reps = str(2**62)
        config = {"model": SMALL_SPEC, "families": ["haar"], "j_max": 1, "l_max": 12}
        (tmp_path / "in.json").write_text(json.dumps(config))
        argv = ["mc", "--config", str(tmp_path / "in.json"), "--reps", reps, "--threads", threads]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "leadlag.cli", *argv, "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert f"replications={reps} is too many" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert sorted(os.listdir(tmp_path)) == ["in.json"]

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
        "flag, expected", [(None, 6), ("2", 2)], ids=["all-cores", "flag"]
    )
    def test_mc_thread_count_precedence(self, tmp_path, monkeypatch, flag, expected):
        # --threads, else every core
        seen = []
        real = montecarlo.run_mc

        def spy(config):
            seen.append(config.threads)
            return real(dataclasses.replace(config, threads=1))

        monkeypatch.setattr(montecarlo, "run_mc", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        config = {"model": benchmark_spec(n=1200), "families": ["haar"], "j_max": 1, "l_max": 12}
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


def array_fed(report):
    """``report`` with each level's list of curve points as a CrossCovCurve."""
    return dict(
        report,
        levels=[
            dict(
                level,
                curve=ll.CrossCovCurve(
                    level=level["j"],
                    tau=1.0,
                    lags=np.array([p["l"] for p in level["curve"]], dtype=np.int64),
                    rho=np.array([p["rho"] for p in level["curve"]], dtype=float),
                    rho_normalized=np.array([p["rho_norm"] for p in level["curve"]], dtype=float),
                ),
            )
            for level in report["levels"]
        ],
    )


class TestArrayFedReport:
    @given(report=estimate_reports())
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_json_dumps_of_the_points(self, report):
        assert render_report(array_fed(report)) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("rho_norm", [math.nan, math.inf, -math.inf, 0.5])
    def test_edge_floats(self, rho_norm):
        points = [
            {"l": -2, "rho": -0.0, "rho_norm": 0.0},
            {"l": -1, "rho": 5e-324, "rho_norm": -5e-324},
            {"l": 0, "rho": 1e308, "rho_norm": rho_norm},
            {"l": 1, "rho": -1.7976931348623157e308, "rho_norm": 2.225e-308},
        ]
        report = {
            "schema_version": 1, "family": "haar", "tau": 0.1, "t0": 1.7e9, "n": 9,
            "levels": [
                {"j": 1, "theta_hat_steps": 0, "theta_hat_seconds": 0.0, "peak": 1e308,
                 "runner_up_gap": 0.0, "tied": False, "degenerate": False, "curve": points},
                {"j": 2, "theta_hat_steps": 0, "theta_hat_seconds": 0.0, "peak": 0.0,
                 "runner_up_gap": 0.0, "tied": False, "degenerate": True, "curve": []},
            ],
        }
        text = render_report(array_fed(report))
        assert text == json.dumps(report, indent=2) + "\n"
        assert '"rho": -0.0,' in text and '"rho": 5e-324,' in text


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


def opens_for_writing(call) -> bool:
    """Whether an ast.Call is an ``open`` or ``fdopen`` whose mode writes,
    appends or creates, or is not a string literal."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name not in ("open", "fdopen"):
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or bool(set(mode.value) & set("wax+"))
        for mode in modes
    )


class TestImport:
    def test_cli_import_leaves_the_process_pool_unloaded(self):
        # run_mc imports the pool only when it starts one
        probe = (
            "import sys, leadlag.cli; "
            "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("module", ["leadlag", "leadlag.cli"])
    def test_import_loads_no_scipy_module(self, module):
        probe = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_package_imports_no_scipy(self):
        # numpy is the only runtime dependency; the scipy oracles live in tests/
        src = pathlib.Path(ll.__file__).parent
        found = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
        ]
        assert found == []

    def test_every_public_name_is_used_inside_the_package(self):
        # keeps test-only code out of the package: each public top-level
        # function and class of a module is named by package code.
        src = pathlib.Path(ll.__file__).parent
        trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        unused = [
            f"{name[:-3]}.{node.name}"
            for name, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in used
        ]
        assert unused == []

    def test_every_dataclass_field_is_read(self):
        # keeps dead fields out of the package: each field of a dataclass is
        # read as an attribute (x.field) by the package, perfbench/ or
        # scripts/. It matches by name alone, so a field that shares its
        # name with another read, such as args.t0 or args.seed, passes.
        root = CONFIGS.parent
        trees = [
            ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src/leadlag", "perfbench", "scripts")
            for path in sorted((root / folder).glob("*.py"))
        ]
        read = {
            node.attr
            for tree in trees
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        }
        src = pathlib.Path(ll.__file__).parent
        unread = [
            f"{path.stem}.{node.name}.{field.target.id}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
            and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list
            )
            for field in node.body
            if isinstance(field, ast.AnnAssign) and field.target.id not in read
        ]
        assert unread == []

    def test_every_imported_name_is_used_in_its_module(self):
        # montecarlo keeps base_filter, which it does not call:
        # perfbench/tracing.py hooks it as a module attribute.
        src = pathlib.Path(ll.__file__).parent
        unused = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {
                alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names
            }
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.stem}.{name}" for name in sorted(imported - used)]
        assert unused == ["montecarlo.base_filter"]

    def test_package_filters_only_through_the_pyramid(self):
        # one filtering algorithm: no convolution or correlation helper
        # besides estimator._dilated_valid and the lag kernel's transforms
        src = pathlib.Path(ll.__file__).parent
        calls = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in ("convolve", "correlate")
            or isinstance(node, ast.alias) and node.name in ("convolve", "correlate")
        ]
        assert calls == []

    def test_package_makes_no_matrix_product(self):
        # forked mc workers then start no BLAS threads: numpy's dot, matmul,
        # inner, vdot, tensordot and linalg are the calls that reach BLAS
        src = pathlib.Path(ll.__file__).parent
        names = ("dot", "matmul", "inner", "vdot", "tensordot", "linalg")
        calls = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.alias) and node.name.split(".")[-1] in names
            or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        ]
        assert calls == []

    def test_package_logs_nothing_and_reads_no_environment(self):
        # a command's flags and files are its only inputs, stdout and stderr
        # its only reports: no logging records, no environment variables
        src = pathlib.Path(ll.__file__).parent
        env_names = ("environ", "environb", "getenv", "putenv")
        found = [
            f"{path.stem}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "logging" for alias in node.names)
            or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "logging"
            or isinstance(node, ast.Attribute) and node.attr in env_names
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            or isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in env_names for alias in node.names)
        ]
        assert found == []

    def test_cli_import_leaves_logging_unloaded(self):
        probe = "import sys, leadlag.cli; print('logging' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_only_atomic_output_writes_files(self):
        # one output path: only cli.atomic_output creates, renames or removes
        # a file or opens one for writing; every other open() reads
        src = pathlib.Path(ll.__file__).parent
        file_ops = ("mkstemp", "replace", "rename", "unlink", "remove")
        found = []
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            allowed = {
                id(node)
                for func in ast.walk(tree)
                if isinstance(func, ast.FunctionDef) and (path.stem, func.name) == ("cli", "atomic_output")
                for node in ast.walk(func)
            }
            found += [
                f"{path.stem}:{node.lineno}"
                for node in ast.walk(tree)
                if id(node) not in allowed
                and (
                    isinstance(node, ast.Attribute) and node.attr in file_ops
                    and isinstance(node.value, ast.Name) and node.value.id in ("os", "tempfile")
                    or isinstance(node, ast.ImportFrom) and node.module in ("os", "tempfile")
                    and any(alias.name in file_ops for alias in node.names)
                    or isinstance(node, ast.Call) and opens_for_writing(node)
                )
            ]
        assert found == []

    def test_version_matches_pyproject(self, capsys):
        tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            version = tomllib.load(fh)["project"]["version"]
        assert ll.__version__ == version
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"leadlag {version}"

    @staticmethod
    def fresh_output(probe, *args):
        """stdout of ``probe`` run in a fresh interpreter with ``args``."""
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ll.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", probe, *args], env=env, capture_output=True, text=True, check=True
        )
        return out.stdout.strip()

    def test_estimate_and_gain_leave_model_simulate_and_mc_unloaded(self, tmp_path):
        # the estimate path imports none of the three, nor do its commands
        ticks = "timestamp,price\n" + "".join(f"{t}.0,{100 + t % 7}.0\n" for t in range(400))
        (tmp_path / "a.csv").write_text(ticks)
        (tmp_path / "b.csv").write_text(ticks)
        probe = (
            "import json, sys, leadlag.cli\n"
            "lazy = ('leadlag.model', 'leadlag.simulate', 'leadlag.montecarlo')\n"
            "seen = [[m for m in lazy if m in sys.modules]]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    seen.append([leadlag.cli.main(argv)] + [m for m in lazy if m in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        argvs = [
            ["estimate", "--in1", str(tmp_path / "a.csv"), "--in2", str(tmp_path / "b.csv"),
             "--family", "haar", "--levels", "2", "--maxlag", "5", "--out", str(tmp_path / "r.json")],
            ["gain", "--family", "la8", "--level", "2", "--out", str(tmp_path / "g.csv")],
        ]
        assert json.loads(self.fresh_output(probe, json.dumps(argvs))) == [[], [0], [0]]
        assert json.loads((tmp_path / "r.json").read_text())["n"] == 399

    def test_every_public_name_is_its_modules_object(self):
        probe = (
            "import importlib, leadlag\n"
            "for name in leadlag.__all__:\n"
            "    obj = getattr(leadlag, name)\n"
            "    module = importlib.import_module(obj.__module__)\n"
            "    print(name, module.__name__, getattr(module, name) is obj)\n"
        )
        lines = self.fresh_output(probe).splitlines()
        assert [line.split()[0] for line in lines] == ll.__all__
        assert [line for line in lines if not line.endswith(" True")] == []
        owners = {name: owner for name, owner, _ in map(str.split, lines)}
        assert owners["load_model"] == "leadlag.model"
        assert owners["PathSample"] == "leadlag.simulate"
        assert owners["run_mc"] == "leadlag.montecarlo"

    def test_unknown_name_raises_attribute_error(self):
        # a submodule not yet imported is an unknown name too, so that
        # "from leadlag import montecarlo" falls back to importing it
        probe = (
            "import leadlag\n"
            "for name in ('no_such_name', 'montecarlo', 'estimator'):\n"
            "    try:\n"
            "        getattr(leadlag, name)\n"
            "    except AttributeError as exc:\n"
            "        print(exc)\n"
        )
        assert self.fresh_output(probe).splitlines() == [
            "module 'leadlag' has no attribute 'no_such_name'",
            "module 'leadlag' has no attribute 'montecarlo'",
            "module 'leadlag' has no attribute 'estimator'",
        ]

    def test_package_import_loads_no_module_and_lists_every_name(self):
        # every public name imports its module on first access, and dir()
        # lists all of them before any is loaded
        probe = (
            "import sys, leadlag\n"
            "print([m for m in sys.modules if m.startswith('leadlag.') or m == 'numpy'])\n"
            "print([name for name in leadlag.__all__ if name not in dir(leadlag)])\n"
        )
        assert self.fresh_output(probe).splitlines() == ["[]", "[]"]

    def test_submodules_import_after_the_cli(self):
        probe = (
            "import leadlag.cli\n"
            "from leadlag import montecarlo, simulate\n"
            "print(montecarlo.__name__, simulate.__name__, montecarlo.run_mc is leadlag.run_mc)\n"
        )
        assert self.fresh_output(probe) == "leadlag.montecarlo leadlag.simulate True"


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

    def test_target_made_a_directory_during_the_work_is_data_error(self, tmp_path):
        target = tmp_path / "out.csv"
        with pytest.raises(ll.DataError, match="cannot write"):
            with atomic_output(str(target)) as fh:
                fh.write("content\n")
                target.mkdir()
        assert os.listdir(tmp_path) == ["out.csv"]
        assert os.listdir(target) == []


def snapshot(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


# each command's output flags, with the call that starts its work
OUTPUT_FLAGS = [
    ("gain", "--out", "base_filter"),
    ("estimate", "--out", "read_csv"),
    ("mc", "--out", "run_mc"),
    ("simulate", "--out", "load_model"),
    ("simulate", "--ticks1", "load_model"),
    ("simulate", "--ticks2", "load_model"),
]


def call_owner(first_call):
    """The module whose attribute ``first_call`` a command reads at call
    time: mc and simulate import their work functions when they run."""
    return {"run_mc": montecarlo, "load_model": model}.get(first_call, cli)


class TestBadOutputPath:
    """Every output is opened before the work: a path that cannot be an
    output file is exit 2, naming it, with no input read and no file left
    (for simulate, none of its path and tick files)."""

    @pytest.fixture
    def work(self, tmp_path, monkeypatch):
        inputs = tmp_path / "in"
        inputs.mkdir()
        (inputs / "model.json").write_text(json.dumps(dict(SMALL_SPEC, n=64)))
        (inputs / "mc.json").write_text(json.dumps({"model": benchmark_spec(n=1200), "j_max": 1}))
        ticks = "timestamp,price\n" + "".join(f"{t}.0,{100 + t % 3}.0\n" for t in range(64))
        (inputs / "a.csv").write_text(ticks)
        (inputs / "b.csv").write_text(ticks)
        work = tmp_path / "work"
        (work / "existing").mkdir(parents=True)
        monkeypatch.chdir(work)  # the bad paths are relative to it; "" resolves into tmp_path
        return tmp_path

    @staticmethod
    def argv(root, command, flag, bad):
        inputs, work = root / "in", root / "work"
        argv = {
            "gain": ["gain", "--family", "haar", "--level", "2"],
            "estimate": ["estimate", "--in1", str(inputs / "a.csv"), "--in2", str(inputs / "b.csv"),
                         "--levels", "1", "--maxlag", "2"],
            "mc": ["mc", "--config", str(inputs / "mc.json"), "--reps", "1", "--threads", "1"],
            "simulate": ["simulate", "--model", str(inputs / "model.json"),
                         "--out", str(work / "path.csv"), "--ticks1", str(work / "t1.csv"),
                         "--ticks2", str(work / "t2.csv")],
        }[command]
        if flag in argv:
            argv[argv.index(flag) + 1] = bad
        else:
            argv += [flag, bad]
        return argv

    @pytest.mark.parametrize("bad", ["existing", "new" + os.sep, ""], ids=["directory", "separator", "empty"])
    @pytest.mark.parametrize("command, flag, first_call", OUTPUT_FLAGS, ids=lambda v: v)
    def test_exits_2_before_the_work(self, work, capsys, monkeypatch, command, flag, first_call, bad):
        calls = []
        owner = call_owner(first_call)
        real = getattr(owner, first_call)
        monkeypatch.setattr(owner, first_call, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        before = snapshot(work)
        code = main(self.argv(work, command, flag, bad))
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"data error: output path {bad!r}" in err
        assert "Traceback" not in err
        assert calls == []
        assert snapshot(work) == before


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


@pytest.mark.usefixtures("umask_022")
@pytest.mark.parametrize("command, flag, first_call", OUTPUT_FLAGS, ids=lambda v: v)
class TestOutputLandsAsOpenWould:
    """Each output lands as ``open(path, "w")`` would leave it: a new file
    takes 0666 less the umask, a replaced one keeps its mode, a symlink
    keeps pointing at its target, which is rewritten, and an existing path
    that is not a regular file, or has other hard links, is refused before
    the work."""

    work = TestBadOutputPath.work

    @staticmethod
    def run(root, command, flag, path):
        assert main(TestBadOutputPath.argv(root, command, flag, path)) == 0

    def test_new_output_takes_the_umask(self, work, command, flag, first_call):
        self.run(work, command, flag, "new.csv")
        assert stat.S_IMODE(os.stat(work / "work" / "new.csv").st_mode) == 0o644

    def test_replaced_output_keeps_its_mode(self, work, command, flag, first_call):
        out = work / "work" / "old.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        self.run(work, command, flag, "old.csv")
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
        assert out.read_text() != "old\n"

    def test_symlink_keeps_the_link_and_rewrites_its_target(self, work, command, flag, first_call):
        target = work / "in" / "target.csv"
        target.write_text("old\n")
        link = work / "work" / "link.csv"
        link.symlink_to(target)
        self.run(work, command, flag, "link.csv")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() != "old\n"
        assert not any(p.name.startswith(".leadlag-") for p in work.rglob("*"))

    def test_fifo_is_exit_2_before_the_work(self, work, capsys, monkeypatch, command, flag, first_call):
        os.mkfifo(work / "work" / "fifo")
        calls = []
        owner = call_owner(first_call)
        real = getattr(owner, first_call)
        monkeypatch.setattr(owner, first_call, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        before = snapshot(work)
        code = main(TestBadOutputPath.argv(work, command, flag, "fifo"))
        err = capsys.readouterr().err
        assert code == 2, err
        assert "data error: output path 'fifo' is not a regular file" in err
        assert calls == []
        assert snapshot(work) == before
        assert stat.S_ISFIFO(os.stat(work / "work" / "fifo").st_mode)

    def test_hard_link_is_exit_2_before_the_work(self, work, capsys, monkeypatch, command, flag, first_call):
        # replacing one name would leave the other on the old content
        out, hard = work / "work" / "out.csv", work / "work" / "hard.csv"
        out.write_text("old\n")
        os.link(out, hard)
        calls = []
        owner = call_owner(first_call)
        real = getattr(owner, first_call)
        monkeypatch.setattr(owner, first_call, lambda *a, **kw: calls.append(a) or real(*a, **kw))
        before = snapshot(work)
        code = main(TestBadOutputPath.argv(work, command, flag, "out.csv"))
        err = capsys.readouterr().err
        assert code == 2, err
        assert "data error: output path 'out.csv' has other hard links" in err
        assert calls == []
        assert snapshot(work) == before
        assert out.read_text() == hard.read_text() == "old\n"
        assert os.path.samefile(out, hard)


class TestEstimateOutputIsNotAnInput:
    """A report renamed onto an input's file would replace that tick file:
    exit 2 before any input is read, naming both flags."""

    work = TestBadOutputPath.work

    @pytest.mark.parametrize(
        "path, first",
        [("../in/a.csv", "--in1"), ("../in/b.csv", "--in2"), ("link.csv", "--in1")],
        ids=["in1", "in2", "symlink"],
    )
    def test_exits_2_before_the_work(self, work, capsys, monkeypatch, path, first):
        (work / "work" / "link.csv").symlink_to(work / "in" / "a.csv")
        ticks = (work / "in" / "a.csv").read_text()
        calls = []
        monkeypatch.setattr(cli, "read_csv", lambda *a, **kw: calls.append(a))
        before = snapshot(work)
        code = main(TestBadOutputPath.argv(work, "estimate", "--out", path))
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"data error: output path {path!r} of --out is also the file of {first}" in err
        assert calls == []
        assert snapshot(work) == before
        assert (work / "in" / "a.csv").read_text() == ticks


class TestSimulateOutputsAreDistinct:
    """Two simulate outputs on one file would each be renamed onto it and
    only the last kept: exit 2 before the work, naming both flags."""

    work = TestBadOutputPath.work

    @pytest.mark.parametrize(
        "flag, path, first",
        [("--ticks1", "path.csv", "--out"), ("--ticks2", "t1.csv", "--ticks1"),
         ("--ticks2", "link.csv", "--out")],
        ids=["out-ticks1", "ticks1-ticks2", "symlink"],
    )
    def test_exits_2_before_the_work(self, work, capsys, monkeypatch, flag, path, first):
        (work / "work" / "link.csv").symlink_to("path.csv")
        calls = []
        monkeypatch.setattr(model, "load_model", lambda *a, **kw: calls.append(a))
        before = snapshot(work)
        code = main(TestBadOutputPath.argv(work, "simulate", flag, path))
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"data error: output path {path!r} of {flag} is also the file of {first}" in err
        assert calls == []
        assert snapshot(work) == before
