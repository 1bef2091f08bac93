"""Daubechies wavelet filter bank: base filters, dyadic cascades, gain functions.

The estimator needs three filter families (haar, la8, la20) together with
their level-j band-pass cascades. Coefficients are embedded constants in the
Percival-Walden orientation (wavelet filter ``h`` sums to zero, scaling
filter ``g`` sums to sqrt(2), both unit energy); the closed-form squared
gain function is the arbiter for their correctness, see tests.

The estimator filters with the MODWT pyramid (``estimator.modwt``): level j
applies the length-L base filters, taps spaced 2^(j-1) apart, to the level
j-1 smooth, so a ``LevelFilter`` names a (family, level) pair and does not
hold the level-j cascade. Its ``coefficients``, all (2^j - 1)(L - 1) + 1
taps, are built on first read, for ``leadlag gain`` and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, pi

import numpy as np

FAMILIES = ("haar", "la8", "la20")

_HAAR_SCALING = (
    0.70710678118654752,
    0.70710678118654752,
)

# Least-asymmetric scaling filters, generated at 60-digit precision by
# scripts/gen_la_filters.py and rounded to float64.
_LA8_SCALING = (
    -0.075765714789502213,
    -0.029635527646002492,
    0.49761866763277499,
    0.80373875180513208,
    0.29785779560530605,
    -0.099219543576633533,
    -0.012603967262031304,
    0.032223100604051468,
)

_LA20_SCALING = (
    0.00077015980911445982,
    9.5632670722852731e-5,
    -0.0086412992770221503,
    -0.0014653825813046105,
    0.045927239231091509,
    0.011609893903711318,
    -0.15949427888491061,
    -0.070880535783231572,
    0.47169066693844291,
    0.76951003702109794,
    0.38382676106707633,
    -0.035536740473819586,
    -0.031990056882428114,
    0.049994972077375156,
    0.0057649120335811497,
    -0.020354939812311111,
    -0.0008043589320164513,
    0.0045931735853117919,
    5.7036083618495007e-5,
    -0.00045932942100465204,
)

_SCALING_TABLE = {
    "haar": _HAAR_SCALING,
    "la8": _LA8_SCALING,
    "la20": _LA20_SCALING,
}


@dataclass(frozen=True)
class BaseFilterPair:
    """Wavelet (high-pass) and scaling (low-pass) filter of one family."""

    family: str
    wavelet: np.ndarray
    scaling: np.ndarray

    @property
    def length(self) -> int:
        return len(self.wavelet)


@dataclass(frozen=True)
class LevelFilter:
    """Level-j band-pass filter of one family's dyadic cascade."""

    base: BaseFilterPair
    level: int

    @property
    def length(self) -> int:
        return cascade_length(self.base.length, self.level)

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The cascade's taps, by upsample-convolve recursion.

        Level 1 is the base wavelet filter. Each further level convolves the
        2^i-upsampled scaling filter into the low-pass stack and applies the
        2^(j-1)-upsampled wavelet filter on top, so the squared gain equals
        H(2^(j-1) lambda) * prod_i G(2^i lambda).
        """
        base, level = self.base, self.level
        if level == 1:
            coef = np.array(base.wavelet)
        else:
            low = np.array(base.scaling)
            for i in range(1, level - 1):
                low = np.convolve(_upsample(base.scaling, 2**i), low)
            coef = np.convolve(_upsample(base.wavelet, 2 ** (level - 1)), low)
        assert len(coef) == self.length
        coef.setflags(write=False)
        return coef


def cascade_length(base_length: int, level: int) -> int:
    """Length of the level-j cascade filter: (2^j - 1)(L - 1) + 1."""
    return (2**level - 1) * (base_length - 1) + 1


def wavelet_from_scaling(scaling) -> np.ndarray:
    """Inverse quadrature mirror: h_p = (-1)^p g_(L-p-1)."""
    g = np.asarray(scaling, dtype=float)
    if g.ndim != 1 or len(g) % 2 != 0:
        raise ValueError(f"scaling filter length must be even, got {g.shape}")
    L = len(g)
    p = np.arange(L)
    return (-1.0) ** p * g[L - p - 1]


def base_filter(family: str) -> BaseFilterPair:
    """Return the embedded filter pair for one of haar, la8, la20."""
    key = family.lower()
    if key not in _SCALING_TABLE:
        raise ValueError(f"unknown filter family {family!r}, expected one of {FAMILIES}")
    g = np.asarray(_SCALING_TABLE[key], dtype=float)
    h = wavelet_from_scaling(g)
    g.setflags(write=False)
    h.setflags(write=False)
    return BaseFilterPair(family=key, wavelet=h, scaling=g)


def _upsample(x: np.ndarray, step: int) -> np.ndarray:
    out = np.zeros(step * (len(x) - 1) + 1)
    out[::step] = x
    return out


def cascade(base: BaseFilterPair, level: int) -> LevelFilter:
    """The level-j band-pass filter of ``base``'s family, for j >= 1."""
    if level < 1:
        raise ValueError(f"cascade level must be >= 1, got {level}")
    return LevelFilter(base=base, level=level)


def wavelet_gain(length: int, lam) -> np.ndarray:
    """Closed-form squared gain of the Daubechies wavelet filter of even length.

    2 sin^L(lam/2) * sum_p C(L/2-1+p, p) cos^(2p)(lam/2); peaks at 2.
    """
    if length < 2 or length % 2 != 0:
        raise ValueError(f"filter length must be even and >= 2, got {length}")
    lam = np.asarray(lam, dtype=float)
    half = length // 2
    c2 = np.cos(lam / 2.0) ** 2
    acc = np.zeros_like(lam)
    for p in range(half - 1, -1, -1):
        acc = acc * c2 + comb(half - 1 + p, p)
    return 2.0 * np.sin(lam / 2.0) ** length * acc


def scaling_gain(length: int, lam) -> np.ndarray:
    """Squared gain of the scaling filter: the wavelet gain shifted by pi."""
    return wavelet_gain(length, np.asarray(lam, dtype=float) - pi)


def level_gain(level: int, length: int, lam) -> np.ndarray:
    """Squared gain of the level-j cascade: H(2^(j-1) lam) prod_i G(2^i lam)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    lam = np.asarray(lam, dtype=float)
    out = wavelet_gain(length, 2 ** (level - 1) * lam)
    for i in range(level - 1):
        out = out * scaling_gain(length, 2**i * lam)
    return out


def empirical_gain(coefficients, lam) -> np.ndarray:
    """|DFT|^2 of a filter evaluated at arbitrary angular frequencies."""
    coef = np.asarray(coefficients, dtype=float)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    taps = np.arange(len(coef))
    out = np.empty(len(lam))
    # block the frequency axis so the phase matrix stays a few MB
    step = max(1, (1 << 22) // max(len(coef), 1))
    for i in range(0, len(lam), step):
        phases = np.exp(-1j * np.outer(lam[i : i + step], taps))
        out[i : i + step] = np.abs(phases @ coef) ** 2
    return out
