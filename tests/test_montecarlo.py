import concurrent.futures
import contextlib
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

import leadlag as ll
from leadlag import montecarlo
from leadlag.errors import DataError, NumericError
from leadlag.montecarlo import (
    MCConfig,
    load_mc_config,
    lower_median,
    median_abs_deviation,
    replication_seeds,
    run_mc,
    run_replication,
    summarize,
    write_summary_csv,
)
from leadlag.simulate import build_embedding

from conftest import CONFIGS, benchmark_spec


def small_config(**kw):
    model, scheme = ll.load_model(benchmark_spec(n=1200, **kw.pop("spec_kw", {})))
    defaults = dict(
        model=model,
        scheme=scheme,
        families=("haar", "la8"),
        j_max=3,
        l_max=12,
        replications=4,
        master_seed=5,
        threads=1,
    )
    defaults.update(kw)
    return MCConfig(**defaults)


class TestSummaryStatistics:
    def test_constant_sample(self):
        assert lower_median([-2, -2, -2]) == -2
        assert median_abs_deviation([-2, -2, -2]) == 0

    def test_symmetric_sample(self):
        assert lower_median([-1, -2, -3]) == -2
        assert median_abs_deviation([-1, -2, -3]) == 1

    def test_outlier_sample(self):
        assert lower_median([-5, -5, -4, -6, -20]) == -5
        assert median_abs_deviation([-5, -5, -4, -6, -20]) == 1

    def test_even_count_takes_lower_middle(self):
        assert lower_median([1, 2, 3, 4]) == 2
        assert lower_median([4, 3, 2, 1]) == 2

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            lower_median([])

    def test_summarize_single_replication(self):
        summary = summarize([{"haar": (-1, -2), "hry": (-1, -1)}], replications=1)
        assert summary.medians["haar"] == (-1, -2)
        assert summary.mads["haar"] == (0, 0)
        assert summary.medians["hry"] == (-1, -1)
        assert summary.mads["hry"] == (0, 0)
        assert summary.valid

    def test_summarize_flags_excess_failures(self):
        summary = summarize([{"haar": (-1,), "hry": (-1,)}] * 10, replications=11)
        assert summary.failures == 1
        assert not summary.valid

    def test_summarize_without_families_rejected(self):
        with pytest.raises(DataError, match="no filter families to summarize"):
            summarize([{}], replications=1)

    def test_summarize_without_rows_rejected(self):
        with pytest.raises(DataError, match="no replications to summarize"):
            summarize([], replications=1)

    def test_summarize_rejects_more_rows_than_replications(self):
        # a negative failure count used to pass as a valid summary
        with pytest.raises(DataError, match="5 rows to summarize from 3 replications"):
            summarize([{"haar": (-1,)}] * 5, replications=3)


class TestRunMc:
    def test_single_replication_matches_direct_call(self):
        config = small_config(replications=1)
        summary = run_mc(config)
        seed = replication_seeds(config.master_seed, 1)[0]
        direct = run_replication(config, build_embedding(config.model, config.scheme), seed)
        assert list(summary.medians) == [*config.families, "hry"]
        for name in summary.medians:
            assert summary.medians[name] == direct[name]
            assert summary.mads[name] == (0,) * config.j_max
        assert direct["hry"] == (direct["hry"][0],) * config.j_max

    def test_medians_stay_on_grid(self):
        summary = run_mc(small_config())
        for name in summary.medians:
            assert all(abs(v) <= 12 for v in summary.medians[name])

    def test_parallel_merge_matches_sequential(self):
        sequential = run_mc(small_config())
        parallel = run_mc(small_config(threads=2))
        assert sequential == parallel

    def test_runtime_roughly_linear_in_replications(self):
        config2 = small_config(replications=2)
        config8 = small_config(replications=8)
        run_mc(config2)  # warm caches
        t0 = time.perf_counter()
        run_mc(config2)
        t2 = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_mc(config8)
        t8 = time.perf_counter() - t0
        # linear prediction is 4x; allow a factor-2 band on either side
        assert t8 / t2 < 8.0

    def test_model_lag_outside_grid_rejected(self):
        with pytest.raises(DataError, match="outside the search grid"):
            small_config(l_max=5)

    def test_infeasible_level_rejected(self):
        with pytest.raises(DataError, match="needs"):
            small_config(j_max=9)

    def test_unknown_family_rejected(self):
        with pytest.raises(DataError, match="unknown filter family 'la9'"):
            small_config(families=("haar", "la9"))

    def test_repeated_family_rejected(self):
        with pytest.raises(DataError, match="MC config key 'families' names 'haar' more than once"):
            small_config(families=("haar", "la8", "haar"))

    @pytest.mark.parametrize(
        "count, message",
        [
            (-1, "replications=-1 is negative; seeds need a count >= 0"),
            (10**20, f"replications={10**20} is too many to derive seeds for"),
        ],
        ids=["negative", "overflow"],
    )
    def test_seed_count_out_of_range_is_data_error(self, count, message):
        with pytest.raises(DataError) as info:
            replication_seeds(1, count)
        assert str(info.value) == message

    def test_expected_errors_count_as_failures(self, monkeypatch):
        real = montecarlo.run_replication
        first = replication_seeds(5, 1)[0]

        def flaky(*args, **kwargs):
            if args[2] == first:
                raise NumericError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "run_replication", flaky)
        summary = run_mc(small_config())
        assert summary.failures == 1
        assert summary.replications == 4

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(montecarlo, "run_replication", broken)
        with pytest.raises(RuntimeError, match="bug"):
            run_mc(small_config())


class TestSummaryOfRows:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_summary_of_the_replications_rows_is_run_mcs(self, monkeypatch, threads):
        # rows from run_replication, one call per seed, summarise to run_mc's CSV
        config = small_config(replications=6, threads=threads)
        seeds = replication_seeds(config.master_seed, config.replications)
        real = montecarlo.run_replication

        def flaky(config, embedding, seed):
            if seed == seeds[2]:
                raise NumericError("injected")
            return real(config, embedding, seed)

        monkeypatch.setattr(montecarlo, "run_replication", flaky)
        monkeypatch.setattr(montecarlo, "CHUNKSIZE", 3)  # two threads start two workers
        embedding = build_embedding(config.model, config.scheme)
        rows = []
        for seed in seeds:
            with contextlib.suppress(NumericError):
                rows.append(flaky(config, embedding, seed))
        texts = []
        for summary in (summarize(rows, replications=6), run_mc(config)):
            assert (summary.replications, summary.failures, summary.valid) == (6, 1, False)
            out = io.StringIO()
            write_summary_csv(summary, out)
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        assert [line.split(",")[0] for line in texts[0].splitlines()[2:]] == [
            "haar", "haar", "la8", "la8", "hry", "hry"
        ]


class TestPoolSize:
    """run_mc starts min(threads, ceil(replications / CHUNKSIZE)) workers,
    sends each ceil(replications / workers) seeds at most, and runs
    in-process when that is one worker."""

    # (replications, workers) -> seeds per chunk: 5 + 4, 6 + 6 + 5, 8 + 8
    CHUNKS = {(9, 2): 5, (17, 3): 6, (16, 2): 8}

    @pytest.mark.parametrize(
        "threads, replications, workers",
        [
            (2, 1, None), (2, 4, None), (2, 8, None), (1, 20, None),
            (2, 9, 2), (4, 9, 2), (3, 17, 3), (8, 16, 2),
        ],
    )
    def test_workers_follow_the_work(self, monkeypatch, threads, replications, workers):
        started, chunks = [], []

        class RecordingPool:
            """Records the worker count and chunk size and runs the tasks in
            this process."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                montecarlo._WORKER.clear()

            def map(self, fn, items, chunksize):
                chunks.append(chunksize)
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        summary = run_mc(small_config(families=("haar",), threads=threads, replications=replications))
        assert summary.failures == 0
        assert started == ([] if workers is None else [workers])
        assert chunks == ([] if workers is None else [self.CHUNKS[replications, workers]])

    def test_two_worker_pool_writes_the_serial_csv(self, monkeypatch):
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        texts = []
        for threads in (1, 2):
            out = io.StringIO()
            write_summary_csv(run_mc(small_config(replications=9, threads=threads)), out)
            texts.append(out.getvalue())
        assert started == [2]
        assert texts[0] == texts[1]


class TestConfigLoading:
    def test_inline_model_with_overrides(self):
        raw = {
            "model": benchmark_spec(n=1200),
            "families": ["haar"],
            "j_max": 2,
            "l_max": 12,
            "replications": 50,
            "master_seed": 1,
        }
        config = load_mc_config(raw, replications=3, master_seed=9)
        assert config.replications == 3
        assert config.master_seed == 9
        assert config.families == ("haar",)
        assert config.l_max == 12

    @pytest.mark.parametrize(
        "overrides",
        [{"replication": 3}, {"thread": 1}, {"seed": 4}, {"j_max": 2}, {"l_max": 5}],
        ids=["replication", "thread", "seed", "j_max", "l_max"],
    )
    def test_unknown_override_is_type_error(self, overrides):
        # a misspelt keyword used to be dropped, leaving the file's setting
        with pytest.raises(TypeError, match="unexpected keyword"):
            load_mc_config({"model": benchmark_spec(n=1200)}, **overrides)

    @pytest.mark.parametrize(
        "overrides, needle",
        [
            ({"replications": "3"}, "replication count (replications) must be an integer, got '3'"),
            ({"master_seed": 1.5}, "master seed (master_seed) must be an integer, got 1.5"),
            ({"threads": True}, "worker count (threads) must be an integer, got True"),
        ],
        ids=["replications", "master_seed", "threads"],
    )
    def test_wrongly_typed_override_names_the_setting(self, overrides, needle):
        # an override is a flag value, not a config key
        with pytest.raises(DataError) as exc:
            load_mc_config({"model": benchmark_spec(n=1200)}, **overrides)
        assert str(exc.value) == needle

    def test_file_round_trip(self, tmp_path):
        import json

        path = tmp_path / "mc.json"
        path.write_text(
            json.dumps(
                {
                    "model": benchmark_spec(n=1200),
                    "families": ["haar"],
                    "j_max": 2,
                    "l_max": 12,
                }
            )
        )
        config = load_mc_config(str(path), replications=2)
        assert config.replications == 2

    def test_missing_model_rejected(self):
        with pytest.raises(DataError, match="model"):
            load_mc_config({"families": ["haar"]})

    def test_path_object_is_read(self):
        path = CONFIGS / "benchmark_mc.json"
        assert load_mc_config(path) == load_mc_config(str(path))

    @pytest.mark.parametrize(
        "raw, needle",
        [
            ({"model": 5}, "MC config key 'model' must be an object, got 5"),
            ({"model": "model.json"}, "MC config key 'model' must be an object"),
            ({"model_path": 5}, "MC config key 'model_path' must be a file name, got 5"),
            ({"model_path": ["model.json"]}, "MC config key 'model_path' must be a file name"),
        ],
        ids=["model-number", "model-string", "path-number", "path-list"],
    )
    def test_model_source_of_wrong_type_rejected(self, raw, needle):
        with pytest.raises(DataError) as exc:
            load_mc_config(raw)
        assert needle in str(exc.value)

    @pytest.mark.parametrize(
        "model_path",
        [str(CONFIGS / "benchmark_model.json"), "/nonexistent/other.json"],
        ids=["existing", "missing"],
    )
    def test_model_and_model_path_together_rejected(self, model_path):
        # neither key silently wins over the other
        with pytest.raises(DataError) as exc:
            load_mc_config({"model": benchmark_spec(), "model_path": model_path})
        assert "'model' and 'model_path'" in str(exc.value)

    def test_defaults_are_mcconfig_defaults(self, monkeypatch):
        # the worker count defaults to the core count, in a file as in MCConfig
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        model, scheme = ll.load_model(benchmark_spec())
        config = load_mc_config({"model": benchmark_spec()})
        assert config == MCConfig(model, scheme)
        assert config.threads == 6

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text('[{"model": {}}]')
        with pytest.raises(DataError, match="JSON object"):
            load_mc_config(str(path))


class TestSummaryCsv:
    def test_layout(self, tmp_path):
        summary = summarize(
            [{"haar": (-1, -2), "hry": (-1, -1)}] * 2 + [{"haar": (-1, -3), "hry": (-1, -1)}],
            replications=3,
        )
        out = tmp_path / "summary.csv"
        with open(out, "w") as fh:
            write_summary_csv(summary, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# leadlag-mc-summary")
        assert lines[1] == "family,statistic,j1,j2"
        assert lines[2] == "haar,median,-1,-2"
        assert lines[3] == "haar,mad,0,0"
        assert lines[4] == "hry,median,-1,-1"
        assert lines[5] == "hry,mad,0,0"

    def test_lags_of_a_million_steps_or_more_are_written_whole(self):
        # '{:g}' would round these to six significant digits (-1.23457e+06)
        summary = summarize(
            [
                {"haar": (-1234567, 3), "hry": (2000001,) * 2},
                {"haar": (-1234569, 3), "hry": (2000002,) * 2},
                {"haar": (-1234570, 5), "hry": (2000003,) * 2},
            ],
            replications=3,
        )
        fh = io.StringIO()
        write_summary_csv(summary, fh)
        assert fh.getvalue().splitlines()[2:] == [
            "haar,median,-1234569,3",
            "haar,mad,1,0",
            "hry,median,2000002,2000002",
            "hry,mad,1,1",
        ]
