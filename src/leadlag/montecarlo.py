"""Replicated simulate-ingest-estimate experiments with median/MAD summaries.

Each replication draws one path with a seed derived from (master seed,
replication index), so results are identical for any parallelism degree and
merge deterministically by index.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, LeadLagError, int_text, json_integer
from .estimator import LagGrid, check_levels_fit, estimate_levels, hry_lag
# base_filter is unused here, but perfbench/tracing.py hooks it as a module attribute
from .filters import FAMILIES, base_filter  # noqa: F401
from .ingest import returns_from_sample
from .model import (
    ObservationScheme,
    SpectralModel,
    check_keys,
    check_lags_in_grid,
    check_schema_version,
    json_object,
    load_model,
)
from .simulate import CirculantEmbedding, build_embedding, circulant_embed_sample

SUMMARY_SCHEMA_VERSION = 1
CHUNKSIZE = 8  # replications per task sent to a pool worker

MC_CONFIG_KEYS = (
    "schema_version", "model", "model_path", "families", "j_max", "l_max",
    "replications", "master_seed",
)
# integer MC config keys, each an MCConfig field of the same name
INTEGER_SETTINGS = ("j_max", "l_max", "replications", "master_seed")


@dataclass(frozen=True)
class MCConfig:
    """Design of one Monte Carlo experiment, plus the run's worker count
    ``threads``, which changes no result. The design's field defaults are
    the defaults of an MC config file too."""

    model: SpectralModel
    scheme: ObservationScheme
    families: tuple[str, ...] = FAMILIES
    j_max: int = 8
    l_max: int = 60
    replications: int = 200
    master_seed: int = 0
    threads: int = field(default_factory=lambda: os.cpu_count() or 1)

    def __post_init__(self):
        if self.replications < 1:
            raise DataError(f"replication count (replications) must be >= 1, got {self.replications}")
        if self.threads < 1:
            raise DataError(f"worker count (threads) must be >= 1, got {self.threads}")
        if self.j_max < 1:
            raise DataError(f"MC config key 'j_max' must be >= 1, got {self.j_max}")
        if self.l_max < 0:
            raise DataError(f"MC config key 'l_max' must be >= 0, got {self.l_max}")
        if self.master_seed < 0:
            raise DataError(f"master seed (master_seed) must be >= 0, got {self.master_seed}")
        if not self.families:
            raise DataError("MC config key 'families' must name at least one filter family")
        for i, family in enumerate(self.families):
            if family not in FAMILIES:
                raise DataError(
                    f"unknown filter family {family!r}; known: {', '.join(FAMILIES)}"
                )
            if family in self.families[:i]:
                raise DataError(f"MC config key 'families' names {family!r} more than once")
            check_levels_fit(family, self.j_max, self.l_max, self.scheme.n)
        check_lags_in_grid(self.model, self.l_max)


@dataclass(frozen=True)
class MCSummary:
    """Lower median and MAD, per level, of each row of the successful
    replications: the filter families in config order, then 'hry'."""

    replications: int
    failures: int
    valid: bool
    medians: dict  # row name -> tuple over levels
    mads: dict


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


def summarize(rows, *, replications: int) -> MCSummary:
    """Aggregate the successful replications' rows into medians and MADs.

    ``rows`` holds one mapping per successful replication, as
    ``run_replication`` returns it: row name -> lags per level. The names
    of ``rows[0]``, in order, are the summary's. ``replications`` counts
    the failed replications too.
    """
    if not rows:
        raise DataError("no replications to summarize")
    if not rows[0]:
        raise DataError("no filter families to summarize")
    if replications < len(rows):
        raise DataError(f"{len(rows)} rows to summarize from {replications} replications")
    medians, mads = {}, {}
    for name in rows[0]:
        levels = list(zip(*(row[name] for row in rows)))
        medians[name] = tuple(lower_median(lags) for lags in levels)
        mads[name] = tuple(median_abs_deviation(lags) for lags in levels)
    failures = replications - len(rows)
    return MCSummary(
        replications=replications,
        failures=failures,
        valid=failures <= 0.05 * replications,
        medians=medians,
        mads=mads,
    )


def replication_seeds(master_seed: int, count: int) -> list[int]:
    """One 64-bit seed per replication, derived from the master seed."""
    if count < 0:
        raise DataError(f"{int_text('replications', count)} is negative; seeds need a count >= 0")
    try:
        state = np.random.SeedSequence(master_seed).generate_state(count, dtype=np.uint64)
    except (ValueError, MemoryError):
        raise DataError(
            f"{int_text('replications', count)} is too many to derive seeds for"
        ) from None
    return [int(s) for s in state]


def run_replication(config: MCConfig, embedding: CirculantEmbedding, seed: int) -> dict:
    """One simulate-ingest-estimate pass of ``config``'s design on the path
    that ``seed`` draws from ``embedding`` (``build_embedding`` of the
    config's model and scheme); returns one row of lags per level for each
    family and, under 'hry', the single-scale baseline's one lag repeated
    at every level."""
    sample = circulant_embed_sample(embedding, seed)
    ret1, ret2 = returns_from_sample(sample, config.scheme)
    grid = LagGrid.symmetric(config.l_max)
    out = {}
    for family in config.families:
        results = estimate_levels(ret1, ret2, family, config.j_max, grid)
        out[family] = tuple(est.lag for _, est in results)
    out["hry"] = (hry_lag(ret1, ret2, grid).lag,) * config.j_max
    return out


_WORKER: dict = {}


def _init_worker(config: MCConfig, embedding: CirculantEmbedding):
    _WORKER.update(config=config, embedding=embedding)


def _run_worker(seed: int):
    try:
        return run_replication(_WORKER["config"], _WORKER["embedding"], seed)
    except LeadLagError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def run_mc(config: MCConfig) -> MCSummary:
    """Run the replicated experiment described by ``config``.

    The embedding is built once, here, so a model it rejects stops the run
    before any worker starts. The pool has one worker per chunk of
    ``CHUNKSIZE`` replications, up to ``config.threads``, and the chunk
    shrinks to ceil(replications / workers) so that every worker gets work;
    when that is one worker the replications run in this process, through
    the same worker functions as the pool's.
    """
    seeds = replication_seeds(config.master_seed, config.replications)
    init = (config, build_embedding(config.model, config.scheme))
    workers = min(config.threads, -(-config.replications // CHUNKSIZE))
    if workers > 1:
        # imported here: multiprocessing loads only when a pool starts
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=init
        ) as pool:
            chunksize = min(CHUNKSIZE, -(-config.replications // workers))
            results = list(pool.map(_run_worker, seeds, chunksize=chunksize))
    else:
        try:
            _init_worker(*init)
            results = [_run_worker(seed) for seed in seeds]
        finally:
            _WORKER.clear()

    rows = [res for res in results if "error" not in res]
    if not rows:
        raise DataError(
            f"every replication failed; the first, replication 0 (seed {seeds[0]}), "
            f"raised {results[0]['error']}"
        )
    return summarize(rows, replications=config.replications)


def load_mc_config(source, *, replications=None, master_seed=None, threads=None) -> MCConfig:
    """Build an MCConfig from a parsed mapping or a JSON file path.

    Recognized fields are MC_CONFIG_KEYS; exactly one of model (an inline
    object) and model_path is required, and any other key is a DataError.
    So is a value of the wrong JSON type: j_max, l_max, replications and
    master_seed are integers, families a list of names, and schema_version
    must be 1. The keyword-only replications and master_seed take precedence
    over the file when not None. The keyword-only threads, an integer, is
    the worker count; no file key sets it. A setting that none of these
    gives keeps MCConfig's default.
    """
    raw = json_object(source, "MC config")
    check_keys(raw, MC_CONFIG_KEYS, "MC config")
    check_schema_version(raw, "MC config")
    if "model" in raw and "model_path" in raw:
        raise DataError("MC config names both 'model' and 'model_path'; give one")
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

    settings = {}
    for key in INTEGER_SETTINGS:
        # the file's value is checked even where an override replaces it
        if key in raw:
            settings[key] = json_integer(raw[key], f"MC config key {key!r}")
    for what, key, value in (
        ("worker count", "threads", threads),
        ("replication count", "replications", replications),
        ("master seed", "master_seed", master_seed),
    ):
        if value is not None:
            settings[key] = json_integer(value, f"{what} ({key})")
    if "families" in raw:
        families = raw["families"]
        if not isinstance(families, (list, tuple)) or not all(
            isinstance(f, str) for f in families
        ):
            raise DataError(
                f"MC config key 'families' must be a list of family names, got {families!r}"
            )
        settings["families"] = tuple(families)
    return MCConfig(model=model, scheme=scheme, **settings)


def write_summary_csv(summary: MCSummary, fh) -> None:
    """Table-style CSV: one median and one MAD line per summary row, columns
    by level. Lags and MADs are whole grid steps and are written as integers."""
    fh.write(f"# leadlag-mc-summary schema_version={SUMMARY_SCHEMA_VERSION}\n")
    levels = len(next(iter(summary.medians.values())))
    fh.write("family,statistic," + ",".join(f"j{j}" for j in range(1, levels + 1)) + "\n")
    for name, medians in summary.medians.items():
        for statistic, values in (("median", medians), ("mad", summary.mads[name])):
            fh.write(f"{name},{statistic}," + ",".join(str(int(v)) for v in values) + "\n")
