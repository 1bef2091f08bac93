"""Replicated simulate-ingest-estimate experiments with median/MAD summaries.

Each replication draws one path with a seed derived from (master seed,
replication index), so results are identical for any parallelism degree and
merge deterministically by index.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, LeadLagError
from .estimator import LagGrid, check_levels_fit, estimate_levels, hry_lag
# base_filter is unused here, but perfbench/tracing.py hooks it as a module attribute
from .filters import FAMILIES, base_filter  # noqa: F401
from .ingest import returns_from_sample
from .model import (
    ObservationScheme,
    SpectralModel,
    check_keys,
    check_lags_in_grid,
    json_object,
    load_model,
)
from .simulate import CirculantEmbedding, build_embedding, circulant_embed_sample

SUMMARY_SCHEMA_VERSION = 1

DEFAULT_FAMILIES = ("haar", "la8", "la20")

MC_CONFIG_KEYS = (
    "schema_version", "model", "model_path", "families", "j_max", "l_max",
    "replications", "master_seed", "include_hry", "threads",
)


@dataclass(frozen=True)
class MCConfig:
    """Design of one Monte Carlo experiment."""

    model: SpectralModel
    scheme: ObservationScheme
    families: tuple[str, ...] = DEFAULT_FAMILIES
    j_max: int = 8
    grid_half_width: int = 60
    replications: int = 200
    master_seed: int = 0
    include_hry: bool = True
    threads: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise DataError(f"need at least one replication, got {self.replications}")
        if self.threads < 1:
            raise DataError(f"thread count must be >= 1, got {self.threads}")
        if self.j_max < 1:
            raise DataError(f"MC config key 'j_max' must be >= 1, got {self.j_max}")
        if not self.families:
            raise DataError("MC config key 'families' must name at least one filter family")
        for family in self.families:
            if family not in FAMILIES:
                raise DataError(
                    f"unknown filter family {family!r}; known: {', '.join(FAMILIES)}"
                )
            check_levels_fit(family, self.j_max, self.grid_half_width, self.scheme.n)
        check_lags_in_grid(self.model, self.grid_half_width)


@dataclass(frozen=True)
class MCSummary:
    """Lower median and MAD of the per-replication lag estimates."""

    families: tuple[str, ...]
    j_max: int
    replications: int
    failures: int
    valid: bool
    medians: dict = field(default_factory=dict)  # family -> tuple over j
    mads: dict = field(default_factory=dict)
    hry_median: float | None = None
    hry_mad: float | None = None


def lower_median(values) -> float:
    """Median that stays on the sample grid: element (R-1)//2 of the sorted
    values, which is the usual median for odd counts and the lower of the
    two middle values for even counts."""
    vals = sorted(values)
    if not vals:
        raise DataError("median of an empty collection")
    return float(vals[(len(vals) - 1) // 2])


def median_abs_deviation(values) -> float:
    """Lower median of absolute deviations from the lower median."""
    center = lower_median(values)
    return lower_median(abs(v - center) for v in values)


def summarize(
    lags_by_family: dict,
    hry_lags=None,
    *,
    replications: int | None = None,
    failures: int = 0,
) -> MCSummary:
    """Aggregate per-replication lag estimates into medians and MADs.

    ``lags_by_family`` maps family -> list of per-replication lag vectors
    (one integer per level); its key order is the summary's family order.
    """
    families = tuple(lags_by_family)
    counts = [len(v) for v in lags_by_family.values()]
    if hry_lags is not None:
        counts.append(len(hry_lags))
    if not counts or min(counts) == 0:
        raise DataError("no replications to summarize")
    if replications is None:
        replications = max(counts) + failures
    j_max = len(next(iter(lags_by_family.values()))[0])
    medians, mads = {}, {}
    for family in families:
        per_rep = np.asarray(lags_by_family[family])
        medians[family] = tuple(
            lower_median(per_rep[:, j]) for j in range(per_rep.shape[1])
        )
        mads[family] = tuple(
            median_abs_deviation(per_rep[:, j]) for j in range(per_rep.shape[1])
        )
    hry_med = hry_mad = None
    if hry_lags is not None:
        hry_med = lower_median(hry_lags)
        hry_mad = median_abs_deviation(hry_lags)
    return MCSummary(
        families=families,
        j_max=j_max,
        replications=replications,
        failures=failures,
        valid=failures <= 0.05 * replications,
        medians=medians,
        mads=mads,
        hry_median=hry_med,
        hry_mad=hry_mad,
    )


def replication_seeds(master_seed: int, count: int) -> list[int]:
    """One 64-bit seed per replication, derived from the master seed."""
    state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def run_replication(
    model: SpectralModel,
    scheme: ObservationScheme,
    families,
    j_max: int,
    grid: LagGrid,
    include_hry: bool,
    seed: int,
    embedding: CirculantEmbedding | None = None,
) -> dict:
    """One simulate-ingest-estimate pass; returns lags per family (+ 'hry')."""
    sample = circulant_embed_sample(model, scheme, seed, embedding=embedding)
    ret1, ret2 = returns_from_sample(sample, scheme)
    out = {}
    for family in families:
        results = estimate_levels(ret1, ret2, family, j_max, grid)
        out[family] = [est.lag for _, est in results]
    if include_hry:
        out["hry"] = hry_lag(ret1, ret2, grid).lag
    return out


_WORKER: dict = {}


def _init_worker(*args):
    _WORKER["args"] = args


def _run_worker(seed: int):
    model, scheme, families, j_max, half_width, include_hry, embedding = _WORKER["args"]
    grid = LagGrid.symmetric(half_width)
    try:
        return run_replication(
            model, scheme, families, j_max, grid, include_hry, seed, embedding=embedding
        )
    except LeadLagError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_mc(config: MCConfig) -> MCSummary:
    """Run the replicated experiment described by ``config``.

    The embedding is built once, here, so a model it rejects stops the run
    before any worker starts. At one thread the replications run in this
    process through the same worker functions as the pool's.
    """
    seeds = replication_seeds(config.master_seed, config.replications)
    init = (
        config.model,
        config.scheme,
        config.families,
        config.j_max,
        config.grid_half_width,
        config.include_hry,
        build_embedding(config.model, config.scheme),
    )
    if config.threads > 1:
        with ProcessPoolExecutor(
            max_workers=config.threads, initializer=_init_worker, initargs=init
        ) as pool:
            results = list(pool.map(_run_worker, seeds, chunksize=8))
    else:
        try:
            _init_worker(*init)
            results = [_run_worker(seed) for seed in seeds]
        finally:
            _WORKER.clear()

    lags_by_family = {family: [] for family in config.families}
    hry_lags = [] if config.include_hry else None
    failures = 0
    for res in results:
        if "error" in res:
            failures += 1
            continue
        for family in config.families:
            lags_by_family[family].append(res[family])
        if config.include_hry:
            hry_lags.append(res["hry"])
    if failures == config.replications:
        raise DataError("every replication failed")
    return summarize(
        lags_by_family, hry_lags, replications=config.replications, failures=failures
    )


def load_mc_config(source, **overrides) -> MCConfig:
    """Build an MCConfig from a parsed mapping or a JSON file path.

    Recognized fields are MC_CONFIG_KEYS; model (an inline object) or
    model_path is required, and any other key is a DataError. So is a value
    of the wrong JSON type: j_max, l_max, replications, master_seed and
    threads are integers, include_hry is a boolean and families a list of
    names. Keyword overrides (replications, master_seed, threads) take
    precedence when not None. The worker count defaults to the number of
    cores.
    """
    raw = json_object(source, "MC config")
    check_keys(raw, MC_CONFIG_KEYS, "MC config")
    if "model" in raw:
        model_source = raw["model"]
        if not isinstance(model_source, Mapping):
            raise DataError(f"MC config key 'model' must be an object, got {model_source!r}")
    elif "model_path" in raw:
        model_source = raw["model_path"]
        if not isinstance(model_source, (str, os.PathLike)):
            raise DataError(f"MC config key 'model_path' must be a file name, got {model_source!r}")
    else:
        raise DataError("MC config needs 'model' or 'model_path'")
    model, scheme = load_model(model_source)

    def integer(key, value):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise DataError(f"MC config key {key!r} must be an integer, got {value!r}")
        return int(value)

    def setting(key, default):
        # the file's value is checked even where an override replaces it
        value = integer(key, raw.get(key, default))
        override = overrides.get(key)
        return value if override is None else integer(key, override)

    families = raw.get("families", DEFAULT_FAMILIES)
    if not isinstance(families, (list, tuple)) or not all(
        isinstance(f, str) for f in families
    ):
        raise DataError(
            f"MC config key 'families' must be a list of family names, got {families!r}"
        )
    include_hry = raw.get("include_hry", True)
    if not isinstance(include_hry, bool):
        raise DataError(
            f"MC config key 'include_hry' must be true or false, got {include_hry!r}"
        )
    return MCConfig(
        model=model,
        scheme=scheme,
        families=tuple(families),
        j_max=setting("j_max", 8),
        grid_half_width=setting("l_max", 60),
        replications=setting("replications", 200),
        master_seed=setting("master_seed", 0),
        include_hry=include_hry,
        threads=setting("threads", os.cpu_count() or 1),
    )


def write_summary_csv(summary: MCSummary, fh) -> None:
    """Table-style CSV: one median and one MAD row per family, columns by
    level, plus a single-valued baseline row replicated across columns."""
    fh.write(f"# leadlag-mc-summary schema_version={SUMMARY_SCHEMA_VERSION}\n")
    cols = ",".join(f"j{j}" for j in range(1, summary.j_max + 1))
    fh.write(f"family,statistic,{cols}\n")
    for family in summary.families:
        med = ",".join(f"{v:g}" for v in summary.medians[family])
        mad = ",".join(f"{v:g}" for v in summary.mads[family])
        fh.write(f"{family},median,{med}\n")
        fh.write(f"{family},mad,{mad}\n")
    if summary.hry_median is not None:
        med = ",".join(f"{summary.hry_median:g}" for _ in range(summary.j_max))
        mad = ",".join(f"{summary.hry_mad:g}" for _ in range(summary.j_max))
        fh.write(f"hry,median,{med}\n")
        fh.write(f"hry,mad,{mad}\n")
