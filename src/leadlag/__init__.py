"""Scale-by-scale lead-lag estimation via wavelet cross-covariance.

Library layout:

- ``filters``: Daubechies filter bank and gain functions
- ``model``: multi-scale cross-spectral model and its loader
- ``simulate``: circulant-embedding path generator with missingness
- ``ingest``: tick ingestion and previous-tick grid alignment
- ``estimator``: non-decimated wavelet cross-covariance and lag estimates
- ``montecarlo``: replicated experiments with median/MAD summaries
- ``cli``: the ``leadlag`` command
- ``theory``: the estimator's large-sample limit (``limit_constant``) and
  its kernels, the numeric oracles of the tests

numpy is the only runtime dependency. ``leadlag.theory`` also needs scipy,
and ``import leadlag`` does not load it.
"""

__version__ = "0.1.0"

from .errors import DataError, LeadLagError, NumericError, UsageError
from .filters import BaseFilterPair, LevelFilter, base_filter, cascade
from .model import (
    ObservationScheme,
    ScaleComponent,
    SpectralModel,
    increment_cross_cov,
    load_model,
)
from .simulate import PathSample, apply_missing, build_embedding, circulant_embed_sample
from .ingest import AlignedReturns, TickSeries, align_to_grid, read_csv, returns_from_sample
from .estimator import (
    CrossCovCurve,
    LagEstimate,
    LagGrid,
    WaveletCoeffs,
    cross_cov_curve,
    estimate_lag,
    estimate_levels,
    hry_lag,
    modwt,
)
from .montecarlo import MCConfig, MCSummary, load_mc_config, run_mc, summarize

__all__ = [
    "AlignedReturns",
    "BaseFilterPair",
    "CrossCovCurve",
    "DataError",
    "LagEstimate",
    "LagGrid",
    "LeadLagError",
    "LevelFilter",
    "MCConfig",
    "MCSummary",
    "NumericError",
    "ObservationScheme",
    "PathSample",
    "ScaleComponent",
    "SpectralModel",
    "TickSeries",
    "UsageError",
    "WaveletCoeffs",
    "align_to_grid",
    "apply_missing",
    "base_filter",
    "build_embedding",
    "cascade",
    "circulant_embed_sample",
    "cross_cov_curve",
    "estimate_lag",
    "estimate_levels",
    "hry_lag",
    "increment_cross_cov",
    "load_mc_config",
    "load_model",
    "modwt",
    "read_csv",
    "returns_from_sample",
    "run_mc",
    "summarize",
]
