"""Every CLI command's outputs, byte for byte, as sha256 digests.

The outputs are regenerated in a temporary directory through ``cli.main``
and compared with digests recorded from the package before the simulated
tick path was routed through ``align_to_grid`` (the clipped draw's, before
the embedding clamped its eigenvalues in place). Float text is ``repr``, so
the digests hold for the numpy they were recorded with (``RECORDED_WITH``);
another numpy may legitimately round a transform differently.
"""

import contextlib
import hashlib
import io
import json

import numpy as np

from leadlag.cli import main

from conftest import CONFIGS, clipping_spec

RECORDED_WITH = "numpy 2.4.6, Python 3.11, x86-64"

GOLDEN = {
    "clipped-path.csv": "e8b50c04f1f5679696909411d4d005fed2aeba768c90d3768335345d2bbc8646",
    "derived.json": "934f41601acc87794d7eb56ff488b48fe6e91ba9935ad278c870add776d91272",
    "fixed.json": "934f41601acc87794d7eb56ff488b48fe6e91ba9935ad278c870add776d91272",
    "gain.csv": "d7620fff73ce19d6478e0348612d3167264a21f3eee1aebcea4805c2f1d0455c",
    "mc-pi0.5-threads1.csv": "d513da27b8d2936feb5572ca51aebf9aa2011e947c255d1bc52dbee37ca0d7f6",
    "mc-pi0.5-threads2.csv": "d513da27b8d2936feb5572ca51aebf9aa2011e947c255d1bc52dbee37ca0d7f6",
    "mc-threads1.csv": "0b98fc3e9ce74ab67ef7b0d7d98627a0dc57825ad6a7650a3f1f690430d06a3b",
    "mc-threads2.csv": "0b98fc3e9ce74ab67ef7b0d7d98627a0dc57825ad6a7650a3f1f690430d06a3b",
    "model-check stdout": "6110d61356743916c1030531bd456bdbc25f7bb19c112798b07c80e11c9cf6aa",
    "path.csv": "4054d73c9c3b868b497fc08b9363a0b384dc484fa4c2b5a24beb5b9a5563e281",
    "t1.csv": "299cb95e4d167234bfe73016d05cdecb97a5ed5c994aa6c2314928003be05818",
    "t2.csv": "99830bbe89fbecdd1a9f09b10fa17e85b76574237bf27b45cd5b5812605155b6",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_outputs(tmp_path) -> dict:
    """Run each command once and return {output name: sha256 of its bytes}."""
    model = str(CONFIGS / "benchmark_model.json")
    out = {}

    def run(argv, files=()):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        assert code == 0, argv
        for name in files:
            out[name] = _digest((tmp_path / name).read_bytes())
        if stdout.getvalue():
            out[f"{argv[0]} stdout"] = _digest(stdout.getvalue().encode())

    path, ticks1, ticks2 = (str(tmp_path / f) for f in ("path.csv", "t1.csv", "t2.csv"))
    run(
        ["simulate", "--model", model, "--seed", "11", "--out", path,
         "--ticks1", ticks1, "--ticks2", ticks2],
        ("path.csv", "t1.csv", "t2.csv"),
    )
    estimate = ["estimate", "--in1", ticks1, "--in2", ticks2, "--family", "haar",
                "--levels", "6", "--maxlag", "60", "--tau", repr(2.0**-14)]
    run([*estimate, "--t0", "0", "--n", "15000",
         "--out", str(tmp_path / "fixed.json")], ("fixed.json",))
    run([*estimate, "--out", str(tmp_path / "derived.json")], ("derived.json",))

    config = json.loads((CONFIGS / "benchmark_mc.json").read_text(encoding="utf-8"))
    config["model"].update(pi1=0.5, pi2=0.5)
    missing = tmp_path / "mc_pi05.json"
    missing.write_text(json.dumps(config))
    for name, source in (("mc", CONFIGS / "benchmark_mc.json"), ("mc-pi0.5", missing)):
        for threads in ("1", "2"):
            label = f"{name}-threads{threads}.csv"
            run(["mc", "--config", str(source), "--reps", "16", "--seed", "3",
                 "--threads", threads, "--out", str(tmp_path / label)], (label,))

    # a draw whose embedding clips eigenvalues just below zero
    clipping = tmp_path / "clipping.json"
    clipping.write_text(json.dumps(clipping_spec()))
    run(["simulate", "--model", str(clipping), "--seed", "5",
         "--out", str(tmp_path / "clipped-path.csv")], ("clipped-path.csv",))

    run(["gain", "--family", "la20", "--level", "3", "--out", str(tmp_path / "gain.csv")],
        ("gain.csv",))
    run(["model-check", "--model", model, "--l-max", "60"])
    return out


def test_outputs_match_recorded_digests(tmp_path):
    got = golden_outputs(tmp_path)
    # --threads changes no byte
    for name in ("mc", "mc-pi0.5"):
        assert got[f"{name}-threads1.csv"] == got[f"{name}-threads2.csv"]
    changed = sorted(k for k in GOLDEN.keys() | got.keys() if GOLDEN.get(k) != got.get(k))
    assert not changed, (
        f"outputs differ from the digests recorded with {RECORDED_WITH} "
        f"(this is numpy {np.__version__}): {changed}"
    )
