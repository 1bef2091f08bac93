"""Scale-by-scale lead-lag estimation from grid-aligned returns.

Pipeline per level: band-pass filter the two return series (non-decimated
transform, boundary coefficients dropped), slide one set of coefficients
against the other over a lag grid, normalize the curve, and take the lag
with the largest absolute value. A single-scale baseline on the raw returns
serves as comparison.

The band-pass is the MODWT pyramid (Percival & Walden 2000, ch. 5): level j
filters the level j-1 smooth with the length-L base filters, taps spaced
2^(j-1) apart, so a level costs O(L n) instead of the O(L_j n) of a
convolution with the whole level-j cascade. Each level's coefficients carry
the smooth they were filtered from, and the next level continues from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import DataError, NumericError
from .filters import LevelFilter, base_filter, cascade, cascade_length
from .ingest import AlignedReturns
from .simulate import _next_fast_len


@dataclass(frozen=True)
class WaveletCoeffs:
    """Level-j coefficients for k = L_j - 1 .. n - 1 (boundary excluded).

    ``smooth`` is the level j-1 smooth the values were filtered from (the
    series itself at level 1) and ``family`` its filter family; ``modwt``
    continues the pyramid from them at level j + 1.
    """

    level: int
    filter_length: int
    n: int
    values: np.ndarray
    smooth: np.ndarray | None = field(default=None, compare=False, repr=False)
    family: str | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LagGrid:
    """Symmetric, strictly increasing integer lag grid."""

    lags: np.ndarray

    def __post_init__(self):
        lags = np.asarray(self.lags, dtype=int)
        if lags.ndim != 1 or len(lags) == 0:
            raise DataError("lag grid must be a nonempty vector")
        if np.any(np.diff(lags) <= 0):
            raise DataError("lag grid must be strictly increasing")
        if not np.array_equal(lags, -lags[::-1]):
            raise DataError("lag grid must be symmetric around zero")
        lags.setflags(write=False)
        object.__setattr__(self, "lags", lags)

    @classmethod
    def symmetric(cls, half_width: int) -> "LagGrid":
        if half_width < 0:
            raise DataError(f"grid half-width must be >= 0, got {half_width}")
        return cls(np.arange(-half_width, half_width + 1))

    @property
    def half_width(self) -> int:
        return int(self.lags[-1])

    def __len__(self) -> int:
        return len(self.lags)


@dataclass(frozen=True)
class CrossCovCurve:
    """Per-scale cross-covariance over a lag grid, raw and normalized."""

    level: int
    tau: float
    lags: np.ndarray
    rho: np.ndarray
    rho_normalized: np.ndarray
    divisor: float


@dataclass(frozen=True)
class LagEstimate:
    """Argmax of |rho| over the grid with tie-break and degeneracy flags.

    Ties at the peak are broken by smallest |lag|, then by the negative
    one; ``tied`` records that the rule fired. An all-zero curve yields
    lag 0 with ``degenerate`` set.
    """

    level: int
    lag: int
    theta_seconds: float
    peak_value: float
    runner_up_gap: float
    tied: bool
    degenerate: bool


def _as_returns(returns) -> np.ndarray:
    if isinstance(returns, AlignedReturns):
        return returns.returns
    return np.asarray(returns, dtype=float)


def _dilated_valid(x: np.ndarray, taps: np.ndarray, step: int) -> np.ndarray:
    """sum_p taps[p] * x[k + (L - 1 - p) * step] for every k whose taps all
    land in x: a "valid" convolution with the taps spaced ``step`` apart.

    einsum's own loop, not BLAS. With the default output order, step 1 ran
    about twice as slow as the wider steps; order="F" removes that.
    """
    span = (len(taps) - 1) * step
    windows = as_strided(
        x,
        shape=(len(x) - span, len(taps)),
        strides=(x.strides[0], step * x.strides[0]),
        writeable=False,
    )
    return np.einsum("kp,p->k", windows, taps[::-1], order="F")


def modwt(source, level_filter: LevelFilter) -> WaveletCoeffs:
    """Filter a return series with a level-j filter, no circular wrap.

    Coefficient k (for k = L_j - 1 .. n - 1) is sum_p h_{j,p} r[k - p] with
    h_j the level-j cascade, so only fully-supported positions are kept. It
    is computed by the pyramid: j - 1 scaling steps, then one wavelet step;
    step i is a valid convolution with the base filter's taps spaced
    2^(i-1) apart. ``source`` is the return series, or the same family's
    level j-1 coefficients, whose smooth needs one scaling step only; both
    give the same values bit for bit.
    """
    base, level = level_filter.base, level_filter.level
    if isinstance(source, WaveletCoeffs):
        if (
            source.family != base.family
            or source.level != level - 1
            or source.smooth is None
        ):
            raise DataError(
                f"cannot continue {source.family} level-{source.level} coefficients "
                f"to {base.family} level {level}: need {base.family} level {level - 1}"
            )
        n, smooth, done = source.n, source.smooth, source.level - 1
    else:
        smooth = _as_returns(source)
        if smooth.ndim != 1:
            raise DataError(f"return series must be one-dimensional, got shape {smooth.shape}")
        if smooth.flags.writeable:  # the smooth outlives this call; keep the caller's array out
            smooth = smooth.copy()
            smooth.setflags(write=False)
        n, done = len(smooth), 0
    L = level_filter.length
    if n < L:
        raise DataError(f"series shorter than filter: n={n} < L_j={L} at level {level}")
    for i in range(done + 1, level):
        smooth = _dilated_valid(smooth, base.scaling, 2 ** (i - 1))
        smooth.setflags(write=False)
    values = _dilated_valid(smooth, base.wavelet, 2 ** (level - 1))
    values.setflags(write=False)
    return WaveletCoeffs(
        level=level, filter_length=L, n=n, values=values, smooth=smooth, family=base.family
    )


def _check_pair(w1: WaveletCoeffs, w2: WaveletCoeffs) -> None:
    if w1.level != w2.level:
        raise DataError(f"level mismatch: {w1.level} vs {w2.level}")
    if w1.n != w2.n or w1.filter_length != w2.filter_length:
        raise DataError("coefficient series have different shapes")


def _lagged_sums(x1: np.ndarray, x2: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """sum_k x1[k] * x2[k + l] over the overlapping positions, for each lag l.

    One zero-padded FFT cross-correlation serves the whole grid: with the
    padded size at least m + max|l|, circular wrap-around only ever meets
    the zero padding.
    """
    m = len(x1)
    widest = int(lags[np.argmax(np.abs(lags))])
    if abs(widest) >= m:
        raise DataError(f"empty summation range at lag {widest}: only {m} values")
    size = _next_fast_len(m + abs(widest))
    spectrum = np.conj(np.fft.rfft(x1, size)) * np.fft.rfft(x2, size)
    return np.fft.irfft(spectrum, size)[lags % size]


def cross_cov_curve(
    w1: WaveletCoeffs, w2: WaveletCoeffs, grid: LagGrid, tau: float
) -> CrossCovCurve:
    """Evaluate the cross-covariance over the grid and normalize.

    The normalizer is the lag-independent geometric mean of the two series'
    second moments, (1/(tau * (n - L_j + 1))) * sqrt(sum W1^2 * sum W2^2),
    so identical inputs give 1 to rounding at lag 0.
    """
    _check_pair(w1, w2)
    count = len(w1.values)
    sums = _lagged_sums(w1.values, w2.values, grid.lags)
    rho = sums / (tau * (count - np.abs(grid.lags)))
    # einsum's own loop, not BLAS: a forked mc worker must start no BLAS threads
    energy1 = float(np.einsum("i,i", w1.values, w1.values))
    energy2 = float(np.einsum("i,i", w2.values, w2.values))
    divisor = np.sqrt(energy1 * energy2) / (tau * count)
    if divisor > 0.0:
        normalized = rho / divisor
    else:
        normalized = np.zeros_like(rho)
    return CrossCovCurve(
        level=w1.level,
        tau=tau,
        lags=grid.lags,
        rho=rho,
        rho_normalized=normalized,
        divisor=float(divisor),
    )


def _lag_estimate(
    level: int, lags: np.ndarray, values: np.ndarray, tau: float
) -> LagEstimate:
    """Argmax of |values| with the tie-break and flags of ``LagEstimate``."""
    magnitude = np.abs(values)
    peak = float(magnitude.max())  # NaN or inf anywhere in the curve reaches the peak
    if not np.isfinite(peak):
        raise NumericError(f"lag curve at level {level} holds a non-finite value")
    candidates = lags[magnitude == peak]
    lag = int(min(candidates, key=lambda l: (abs(int(l)), int(l))))
    if len(magnitude) > 1:
        gap = peak - float(magnitude[lags != lag].max())
    else:
        gap = peak
    return LagEstimate(
        level=level,
        lag=lag,
        theta_seconds=lag * tau,
        peak_value=peak,
        runner_up_gap=gap,
        tied=len(candidates) > 1,
        degenerate=peak == 0.0,
    )


def estimate_lag(curve: CrossCovCurve) -> LagEstimate:
    """Lag with the largest |cross-covariance| on the grid."""
    return _lag_estimate(curve.level, curve.lags, curve.rho, curve.tau)


def hry_lag(ret1: AlignedReturns, ret2: AlignedReturns, grid: LagGrid) -> LagEstimate:
    """Single-scale baseline: argmax |sum_k r1[k] r2[k+l]| over the grid.

    On an equally spaced previous-tick grid the overlapping-interval
    contrast reduces to this raw cross-covariance of the aligned returns.
    """
    r1, r2 = ret1.returns, ret2.returns
    if len(r1) != len(r2):
        raise DataError(f"return series differ in length: {len(r1)} vs {len(r2)}")
    return _lag_estimate(0, grid.lags, _lagged_sums(r1, r2, grid.lags), ret1.tau)


def max_feasible_level(family: str, n: int) -> int:
    """Largest level whose cascade filter still fits in n samples."""
    base = base_filter(family)
    level = 0
    while cascade_length(base.length, level + 1) <= n:
        level += 1
    return level


def check_levels_fit(family: str, j_max: int, half_width: int, n: int) -> None:
    """Raise DataError unless the level-j_max cascade plus the grid
    half-width fits in n samples; the message names the largest level that
    does."""
    needed = cascade_length(base_filter(family).length, j_max) + half_width
    if needed > n:
        raise DataError(
            f"{family} level {j_max} with grid half-width {half_width} needs "
            f"{needed} samples but n={n}; max feasible level is "
            f"{max_feasible_level(family, n - half_width)}"
        )


def estimate_levels(
    ret1: AlignedReturns,
    ret2: AlignedReturns,
    family: str,
    j_max: int,
    grid: LagGrid,
) -> list[tuple[CrossCovCurve, LagEstimate]]:
    """Run the filter-curve-argmax pipeline for levels 1..j_max."""
    if ret1.n != ret2.n:
        raise DataError(f"return series differ in length: {ret1.n} vs {ret2.n}")
    if ret1.tau != ret2.tau:
        raise DataError(f"grid spacings differ: {ret1.tau} vs {ret2.tau}")
    if j_max < 1:
        raise DataError(f"need at least one level, got j_max={j_max}")
    check_levels_fit(family, j_max, grid.half_width, ret1.n)
    base = base_filter(family)
    out = []
    w1, w2 = ret1, ret2
    for level in range(1, j_max + 1):
        filt = cascade(base, level)
        w1 = modwt(w1, filt)
        w2 = modwt(w2, filt)
        curve = cross_cov_curve(w1, w2, grid, ret1.tau)
        out.append((curve, estimate_lag(curve)))
    return out
