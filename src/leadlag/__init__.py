"""Scale-by-scale lead-lag estimation via wavelet cross-covariance.

Library layout:

- ``filters``: Daubechies filter bank and gain functions
- ``model``: multi-scale cross-spectral model, loader and increment covariance
- ``simulate``: circulant-embedding path generator with missingness
- ``ingest``: previous-tick grid alignment of ticks and simulated masks
- ``estimator``: non-decimated wavelet cross-covariance and lag estimates
- ``montecarlo``: replicated experiments with median/MAD summaries
- ``cli``: the ``leadlag`` command

The names from ``model``, ``simulate`` and ``montecarlo`` import their
module on first access, so ``import leadlag.cli`` and the ``estimate``
command load none of the three.

numpy is the package's only third-party import. The estimator's limit
theory, the tests' numeric oracle, lives in ``tests/oracles.py`` and needs
scipy.
"""

__version__ = "0.3.0"

import importlib

from .errors import DataError, LeadLagError, NumericError, UsageError
from .filters import BaseFilterPair, LevelFilter, base_filter, cascade
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

# the model, simulator and Monte Carlo names, by the module that defines them
_LAZY = {
    **dict.fromkeys(
        ("ObservationScheme", "ScaleComponent", "SpectralModel", "increment_cross_cov", "load_model"),
        "model",
    ),
    **dict.fromkeys(("PathSample", "build_embedding", "circulant_embed_sample"), "simulate"),
    **dict.fromkeys(("MCConfig", "MCSummary", "load_mc_config", "run_mc", "summarize"), "montecarlo"),
}


def __getattr__(name):
    """A model, simulator or Monte Carlo name, read from its module, which
    imports on the first such access (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


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
