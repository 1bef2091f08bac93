import time

import pytest

import leadlag as ll
from leadlag import montecarlo
from leadlag.errors import DataError, NumericError
from leadlag.estimator import LagGrid
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

from conftest import CONFIGS, benchmark_spec


def small_config(**kw):
    model, scheme = ll.load_model(benchmark_spec(n=1200, **kw.pop("spec_kw", {})))
    defaults = dict(
        model=model,
        scheme=scheme,
        families=("haar", "la8"),
        j_max=3,
        grid_half_width=12,
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
        summary = summarize({"haar": [[-1, -2]]}, [-1], replications=1)
        assert summary.medians["haar"] == (-1, -2)
        assert summary.mads["haar"] == (0, 0)
        assert summary.hry_median == -1
        assert summary.hry_mad == 0
        assert summary.valid

    def test_summarize_flags_excess_failures(self):
        summary = summarize({"haar": [[-1]] * 10}, None, replications=11, failures=1)
        assert not summary.valid


class TestRunMc:
    def test_single_replication_matches_direct_call(self):
        config = small_config(replications=1)
        summary = run_mc(config)
        seed = replication_seeds(config.master_seed, 1)[0]
        direct = run_replication(
            config.model,
            config.scheme,
            config.families,
            config.j_max,
            LagGrid.symmetric(config.grid_half_width),
            True,
            seed,
        )
        for family in config.families:
            assert summary.medians[family] == tuple(direct[family])
            assert summary.mads[family] == (0,) * config.j_max
        assert summary.hry_median == direct["hry"]

    def test_medians_stay_on_grid(self):
        summary = run_mc(small_config())
        for family in summary.families:
            assert all(abs(v) <= 12 for v in summary.medians[family])

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
            small_config(grid_half_width=5)

    def test_infeasible_level_rejected(self):
        with pytest.raises(DataError, match="needs"):
            small_config(j_max=9)

    def test_unknown_family_rejected(self):
        with pytest.raises(DataError, match="unknown filter family 'la9'"):
            small_config(families=("haar", "la9"))

    def test_expected_errors_count_as_failures(self, monkeypatch):
        real = montecarlo.run_replication
        first = replication_seeds(5, 1)[0]

        def flaky(*args, **kwargs):
            if args[6] == first:
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
        assert config.grid_half_width == 12

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

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "mc.json"
        path.write_text('[{"model": {}}]')
        with pytest.raises(DataError, match="JSON object"):
            load_mc_config(str(path))


class TestSummaryCsv:
    def test_layout(self, tmp_path):
        summary = summarize(
            {"haar": [[-1, -2], [-1, -2], [-1, -3]]},
            [-1, -1, -1],
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
