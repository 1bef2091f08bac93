"""Scale-by-scale lead-lag estimation via wavelet cross-covariance.

Library layout:

- ``filters``: Daubechies filter bank and gain functions
- ``model``: multi-scale cross-spectral model, loader and increment covariance
- ``simulate``: circulant-embedding path generator with missingness
- ``ingest``: previous-tick grid alignment of ticks and simulated masks
- ``estimator``: non-decimated wavelet cross-covariance and lag estimates
- ``montecarlo``: replicated experiments with median/MAD summaries
- ``cli``: the ``leadlag`` command

``import leadlag`` loads no module of the package: each public name
imports the module that defines it on first access (PEP 562). So
``import leadlag.cli`` and the ``estimate`` command load none of
``model``, ``simulate`` and ``montecarlo``.

numpy is the package's only third-party import. The estimator's limit
theory, the tests' numeric oracle, lives in ``tests/oracles.py`` and needs
scipy.
"""

__version__ = "0.3.0"

import importlib

# every public name, by the module that defines it
_MODULES = {
    "errors": ("DataError", "LeadLagError", "NumericError", "UsageError"),
    "filters": ("BaseFilterPair", "LevelFilter", "base_filter", "cascade"),
    "ingest": ("AlignedReturns", "TickSeries", "align_to_grid", "read_csv", "returns_from_sample"),
    "estimator": (
        "CrossCovCurve", "LagEstimate", "LagGrid", "WaveletCoeffs", "cross_cov_curve",
        "estimate_lag", "estimate_levels", "hry_lag", "modwt",
    ),
    "model": ("ObservationScheme", "ScaleComponent", "SpectralModel", "increment_cross_cov", "load_model"),
    "simulate": ("PathSample", "build_embedding", "circulant_embed_sample"),
    "montecarlo": ("MCConfig", "MCSummary", "load_mc_config", "run_mc", "summarize"),
}
_OWNER = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """A public name, read from its module, which imports on first access."""
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)


def __dir__():
    """The module's own names and every public name, loaded or not."""
    return sorted({*globals(), *__all__})
