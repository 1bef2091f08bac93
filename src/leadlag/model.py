"""Multi-scale cross-spectral model for a pair of Brownian log-price drivers.

Each dyadic frequency band carries a correlation strength and a time lag;
level 1 is the finest band resolvable on the sampling grid. The module
holds the model, its sampling scheme and their loader, and the increment
cross-covariance the simulator draws from. The model's cross-spectral
density and the estimator's large-sample limit, the oracles of the tests,
live in ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DataError, int_text, json_integer


@dataclass(frozen=True)
class ScaleComponent:
    """One band of the cross spectrum: level j, correlation, lag in grid steps."""

    level: int
    corr: float
    lag_steps: float


@dataclass(frozen=True)
class SpectralModel:
    """Piecewise cross-spectral density over dyadic bands.

    ``finest_level`` is the dyadic depth J of the sampling grid; the grid
    spacing in model time is 2^(-J-1). Components live on levels 1..J+1
    (level j occupies the band (pi/2^j, pi/2^(j-1)] in grid-step frequency);
    missing levels have zero correlation. ``abs(corr) <= 1`` keeps the
    density admissible (its modulus can never exceed 1 because the bands
    are disjoint).
    """

    finest_level: int
    components: tuple[ScaleComponent, ...]

    def __post_init__(self):
        if self.finest_level < 1:
            raise DataError(f"finest level must be >= 1, got {self.finest_level}")
        seen = set()
        for c in self.components:
            if not 1 <= c.level <= self.finest_level + 1:
                raise DataError(
                    f"component level {c.level} outside 1..{self.finest_level + 1}"
                )
            if c.level in seen:
                raise DataError(f"duplicate component for level {c.level}")
            seen.add(c.level)
            if not abs(c.corr) <= 1:
                raise DataError(
                    f"band correlation at level {c.level} is {c.corr}, "
                    "admissibility requires |corr| <= 1"
                )

    @property
    def tau(self) -> float:
        """Grid spacing in model time units, 2^(-J-1); a DataError from
        J = 1074 on, where it underflows to 0."""
        return _default_tau(self.finest_level)

    def active_levels(self) -> list[int]:
        return sorted(c.level for c in self.components if c.corr != 0.0)


def _default_tau(J: int) -> float:
    tau = math.ldexp(1.0, -(J + 1))  # 2.0 ** -(J + 1), and 0.0 where J overflows a float
    if tau == 0.0:
        raise DataError(
            f"{int_text('J', J)} makes the default grid spacing tau = 2^-(J+1) "
            "underflow to 0; give tau"
        )
    return tau


@dataclass(frozen=True)
class ObservationScheme:
    """Sampling grid: spacing in seconds, increment count, missing probabilities."""

    tau: float
    n: int
    pi1: float = 0.0
    pi2: float = 0.0

    def __post_init__(self):
        if self.n < 1:
            raise DataError(f"need at least one increment, got n={self.n}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise DataError(f"grid spacing tau must be finite and positive, got {self.tau}")
        for name, p in (("pi1", self.pi1), ("pi2", self.pi2)):
            if not 0.0 <= p < 1.0:
                raise DataError(f"missing probability {name}={p} outside [0, 1)")


SCHEMA_VERSION = 1
MODEL_KEYS = ("schema_version", "J", "n", "tau", "pi1", "pi2", "levels")
LEVEL_KEYS = ("j", "R", "theta_over_tau", "theta_seconds")


def json_object(source, what: str) -> Mapping:
    """``source`` itself if it is a mapping, else the JSON object in the file
    it names (a ``str``, ``bytes`` or ``os.PathLike`` path)."""
    if isinstance(source, Mapping):
        return source
    try:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:  # never a descriptor
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, not UTF-8
        raise DataError(f"cannot read {what}: {exc}") from exc
    if not isinstance(raw, Mapping):
        raise DataError(f"{what} must be a JSON object")
    return raw


def check_keys(raw: Mapping, known, what: str, where: str = "") -> None:
    """Raise DataError naming every key of ``raw`` outside ``known``."""
    unknown = [key for key in raw if key not in known]
    if unknown:
        raise DataError(
            f"unknown {what} key {', '.join(map(repr, unknown))}{where}; "
            f"known: {', '.join(known)}"
        )


def check_schema_version(raw: Mapping, what: str) -> None:
    """Raise DataError unless ``raw`` omits schema_version or gives the
    integer SCHEMA_VERSION."""
    if "schema_version" in raw:
        version = raw["schema_version"]
        key = f"{what} key 'schema_version'"
        if json_integer(version, f"{key} (supported: {SCHEMA_VERSION})") != SCHEMA_VERSION:
            raise DataError(f"{key} must be {SCHEMA_VERSION}, the supported version, got {version!r}")


def load_model(source) -> tuple[SpectralModel, ObservationScheme]:
    """Load a model + sampling scheme from a parsed mapping or a JSON file path.

    Expected fields: J, levels: [{j, R, theta_over_tau | theta_seconds}],
    and optionally tau (seconds per grid step, default 2^(-J-1)), n, pi1,
    pi2 and schema_version (1, the only version). J, n and each j are
    integers; tau, R, the thetas, pi1 and pi2 finite numbers. An unknown key
    or any other value is a DataError naming the key, and the level entry
    where there is one.
    """
    raw = json_object(source, "model file")
    check_keys(raw, MODEL_KEYS, "model")
    check_schema_version(raw, "model")

    def number(key, value, where=""):
        if not isinstance(value, bool) and isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            try:
                if math.isfinite(value):
                    return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
        raise DataError(f"model key {key!r}{where} must be a finite number, got {value!r}")

    if "J" not in raw:
        raise DataError("model JSON needs an integer field 'J'")
    J = json_integer(raw["J"], "model key 'J'")
    if J < 1:  # checked before 2^(-J-1), which overflows for J far below 1
        raise DataError(f"finest level must be >= 1, got {J}")
    scheme = ObservationScheme(
        tau=number("tau", raw["tau"]) if "tau" in raw else _default_tau(J),
        n=json_integer(raw.get("n", 1), "model key 'n'"),
        pi1=number("pi1", raw.get("pi1", 0.0)),
        pi2=number("pi2", raw.get("pi2", 0.0)),
    )
    levels = raw.get("levels", [])
    if not isinstance(levels, (list, tuple)) or not all(isinstance(e, dict) for e in levels):
        raise DataError(f"model key 'levels' must be a list of objects, got {levels!r}")
    components = []
    for i, entry in enumerate(levels):
        where = f" in levels[{i}]"
        check_keys(entry, LEVEL_KEYS, "model", where)
        if "j" not in entry or "R" not in entry:
            raise DataError(f"bad level entry {entry!r}: needs fields 'j' and 'R'")
        if "theta_over_tau" in entry:
            steps = number("theta_over_tau", entry["theta_over_tau"], where)
        elif "theta_seconds" in entry:
            steps = number("theta_seconds", entry["theta_seconds"], where) / scheme.tau
            if not math.isfinite(steps):
                raise DataError(f"model key 'theta_seconds'{where} is {steps} grid steps, not finite")
        else:
            steps = 0.0
        components.append(
            ScaleComponent(
                level=json_integer(entry["j"], f"model key 'j'{where}"),
                corr=number("R", entry["R"], where),
                lag_steps=steps,
            )
        )
    model = SpectralModel(finest_level=J, components=tuple(components))
    return model, scheme


def check_lags_in_grid(model: SpectralModel, half_width: int) -> None:
    """Raise DataError unless every band's lag lies on the grid +-half_width."""
    if half_width < 0:
        raise DataError(f"grid half-width must be >= 0, got {half_width}")
    for c in model.components:
        if abs(c.lag_steps) > half_width:
            raise DataError(
                f"model lag {c.lag_steps} steps at level {c.level} lies "
                f"outside the search grid +-{half_width}"
            )


def _sinc(x: np.ndarray, out: np.ndarray) -> None:
    """out = ``numpy.sinc(x)``, by numpy's operations in its order; x is
    overwritten. (Older numpy set zeros to 1e-20 before the pi *; at a
    zero both give exactly 1.0.)"""
    x *= np.pi
    np.copyto(x, np.finfo(float).eps, where=x == 0)
    np.sin(x, out=out)
    out /= x


def increment_cross_cov(model: SpectralModel, lag: np.ndarray, tau: float) -> np.ndarray:
    """Cross-covariance of unit-step increments of the two drivers at an
    integer ``lag`` array, for ``tau`` seconds per step.

    Band m contributes 2^m tau_c^2 R psi(2^m tau_c (l - lag_steps)), with
    tau_c the model grid spacing and psi(s) = 2 sinc(2s) - sinc(s), and the
    sum is rescaled linearly to ``tau``. Variances are exactly ``tau`` per
    step, so each band's implied spectrum is tau * R on the band and
    admissibility |R| <= 1 keeps it bounded. Three arrays, made once per
    call, hold each band's terms.

    The band kernel is point-sampled at integer lags, so the per-step cross
    spectrum is flat on the band. The tests' ``limit_constant`` oracle instead
    weights the band by the discretization kernel D of Brownian increments
    over a grid step. At the same R, D-weighting gives 0.6127, 0.8864 and
    0.9704 times the flat value at levels 1, 2 and 3 (above 0.99 from level
    4). The simulator keeps the flat spectrum: the benchmark table's medians
    are pinned to flat-spectrum paths, and D-weighting would cut the level-1
    band correlation to 0.61 times its value.
    """
    out = np.zeros(lag.shape)
    s, x, term = np.empty(lag.shape), np.empty(lag.shape), np.empty(lag.shape)
    for c in model.components:
        beta = math.ldexp(1.0, -c.level)  # band scale 2^(J-j+1) tau_c, <= 1/2
        np.subtract(lag, c.lag_steps, out=s)
        s *= beta
        np.multiply(s, 2.0, out=x)
        _sinc(x, term)
        term *= 2.0
        _sinc(s, x)
        term -= x  # psi(s)
        term *= beta * c.corr
        out += term
    out *= tau
    return out
