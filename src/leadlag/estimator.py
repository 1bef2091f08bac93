"""Scale-by-scale lead-lag estimation from grid-aligned returns.

Pipeline per level: band-pass filter the two return series (non-decimated
transform, boundary coefficients dropped), slide one set of coefficients
against the other over the dense lag grid -H..H, normalize the curve, and
take the lag with the largest absolute value. A single-scale baseline on the
raw returns serves as comparison.

The band-pass is the MODWT pyramid (Percival & Walden 2000, ch. 5): level j
filters the level j-1 smooth with the length-L base filters, taps spaced
2^(j-1) apart, so a level costs O(L n) instead of the O(L_j n) of a
convolution with the whole level-j cascade. Each level's coefficients carry
the smooth they were filtered from, and the next level continues from it;
a return series that a caller could still write is copied first.
Every step above 1 runs in blocks of 1024 outputs that stay in cache while
einsum adds the taps; the values are those of one call bit for bit.

The wavelet curve and the baseline share one lag kernel, a sectioned FFT
cross-correlation whose transforms are sized by the lag grid, not by the
series: 1024 points at +-60 and 4800 at +-300 for any long series. The
sections of a series are transformed together, in one group per series
when they fit in 2^16 transform points, so a curve at mc scale costs one
forward transform per series and one inverse. Set-up that does not depend
on the data is kept off this path: strided views come from the ndarray
constructor, and transform lengths from a cached ``_next_fast_len``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError, NumericError, int_text, json_integer
from .filters import LevelFilter, base_filter, cascade, cascade_length
from .ingest import AlignedReturns, _frozen


@dataclass(frozen=True)
class WaveletCoeffs:
    """Level-j coefficients for k = L_j - 1 .. n - 1 (boundary excluded), so
    the series had n = len(values) + filter_length - 1 returns.

    ``smooth`` is the level j-1 smooth the values were filtered from (the
    series itself at level 1) and ``family`` its filter family; ``modwt``
    continues the pyramid from them at level j + 1.
    """

    level: int
    filter_length: int
    values: np.ndarray
    smooth: np.ndarray | None = field(default=None, compare=False, repr=False)
    family: str | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LagGrid:
    """The dense lag grid -H, ..., H, compared and hashed by its half-width H."""

    half_width: int

    def __post_init__(self):
        half = json_integer(self.half_width, "grid half-width")
        if half < 0:
            raise DataError(f"grid half-width must be >= 0, got {half}")
        object.__setattr__(self, "half_width", half)

    @classmethod
    def symmetric(cls, half_width: int) -> "LagGrid":
        return cls(half_width)

    @cached_property
    def lags(self) -> np.ndarray:
        lags = np.arange(-self.half_width, self.half_width + 1)
        lags.setflags(write=False)
        return lags


@dataclass(frozen=True)
class CrossCovCurve:
    """Per-scale cross-covariance over a lag grid, raw and normalized."""

    level: int
    tau: float
    lags: np.ndarray
    rho: np.ndarray
    rho_normalized: np.ndarray


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


# A dilated step (above 1) runs in blocks of _BLOCK outputs, whose input and
# output stay in the L1 cache while einsum adds one tap after another,
# instead of streaming the whole series through the cache once per tap.
# Blocked over one-call time, la20 / la8 / haar: 0.69 / 0.72 / 0.89 per
# step (steps 2-128) at n = 2^17, 0.80 / 0.90 / 1.16 per 8-level pyramid at
# n = 15000, and 0.94 per mc replication, which runs all three (2-vCPU Xeon,
# 48 KiB L1d). At step 1 the tap and output strides tie, einsum then loops
# over the taps innermost, and blocks ran 1.5-5x slower.
_BLOCK = 1024


def _dilated_valid(x: np.ndarray, taps: np.ndarray, step: int) -> np.ndarray:
    """sum_p taps[p] * x[k + (L - 1 - p) * step] for every k whose taps all
    land in x: a "valid" convolution with the taps spaced ``step`` apart.
    x must be contiguous: the windows are a view built by the ndarray
    constructor, which costs a fraction of ``as_strided``'s Python set-up
    and refuses a view that would reach past x's buffer.

    einsum's own loop, not BLAS. With the default output order, step 1 ran
    about twice as slow as the wider steps; order="F" removes that. Above
    step 1 the whole blocks go through one blocked call, and the outputs
    past them (the whole series at step 1) through one more. At any step
    every output adds its taps in the same order, so the values are those
    of one call over every output bit for bit.
    """
    L = len(taps)
    count = len(x) - (L - 1) * step
    stride = x.strides[0]
    out = np.empty(count)
    done = 0
    if step > 1:
        blocks = count // _BLOCK
        done = blocks * _BLOCK
        windows = np.ndarray(
            (blocks, _BLOCK, L), x.dtype, buffer=x, strides=(_BLOCK * stride, stride, step * stride)
        )
        np.einsum("bkp,p->bk", windows, taps[::-1], out=out[:done].reshape(blocks, _BLOCK))
    windows = np.ndarray(
        (count - done, L), x.dtype, buffer=x, offset=done * stride, strides=(stride, step * stride)
    )
    np.einsum("kp,p->k", windows, taps[::-1], out=out[done:], order="F")
    return out


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
        n = len(source.values) + source.filter_length - 1
        smooth, done = source.smooth, source.level - 1
    else:
        # the smooth outlives this call, so it must be an array that no
        # caller can write; one that owns its data is also contiguous, as
        # the pyramid's strided views need
        smooth = _frozen(source)
        if smooth.ndim != 1:
            raise DataError(f"return series must be one-dimensional, got shape {smooth.shape}")
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
        level=level, filter_length=L, values=values, smooth=smooth, family=base.family
    )


def _check_pair(w1: WaveletCoeffs, w2: WaveletCoeffs) -> None:
    if w1.level != w2.level:
        raise DataError(f"level mismatch: {w1.level} vs {w2.level}")
    if len(w1.values) != len(w2.values) or w1.filter_length != w2.filter_length:
        raise DataError("coefficient series have different shapes")


def _check_returns_pair(ret1: AlignedReturns, ret2: AlignedReturns) -> None:
    if len(ret1.returns) != len(ret2.returns):
        raise DataError(
            f"return series differ in length: {len(ret1.returns)} vs {len(ret2.returns)}"
        )
    if ret1.tau != ret2.tau:
        raise DataError(f"grid spacings differ: {ret1.tau} vs {ret2.tau}")


@lru_cache(maxsize=256)
def _next_fast_len(target: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= target, a length pocketfft transforms
    fast; the rule of ``scipy.fft.next_fast_len(target, real=True)``.

    Cached: the lag kernel asks for the same few lengths on every curve."""
    target = int(target)
    best = 1 << (target - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # p35 * 2^k with the least k that reaches target
            best = min(best, p35 << ((target - 1) // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _lagged_sums(x1: np.ndarray, x2: np.ndarray, half: int) -> np.ndarray:
    """sum_k x1[k] * x2[k + l] over the overlapping positions, for l = -H..H.

    A sectioned (overlap-save) FFT cross-correlation serves the whole grid
    (Stockham 1966). With H = half, x1 is cut into sections of B values, and
    each is correlated with the B + 2H values of x2 (zero past either end)
    that its lags reach. The transforms are B + 2H points, sized by the grid:
    the 5-smooth length at least min(m + 2H, max(1024, 16H)), so a short
    series is one section. The sections' cross spectra are summed, and the
    first 2H + 1 values of one inverse transform are the sums, lag l at index
    l + H; wrap-around only ever meets a section's zero padding. Sections are
    transformed in groups of at most 2^16 transform points, so at day scale
    (m = 2^17, H = 300) the peak memory stays below that of one transform of
    the whole series; each group's rows and cross spectrum are released
    before the next group's rows are built. Every group's x1 rows are built
    zero-padded to the transform length, which transforms faster than
    asking ``rfft`` to pad. The partial last section joins the last group,
    so a series that fits one group (m = 15000 at +-60: 17 sections of 1024
    points) costs one transform per series. The sum adds the same rows in
    the same order as transforming that section alone would: its cross
    spectrum is added on its own, after the whole sections of its group, so
    the sums equal those of a separate last group bit for bit.
    """
    m = len(x1)
    if half >= m:
        raise DataError(f"empty summation range at lag {-half}: only {m} values")
    size = _next_fast_len(min(m + 2 * half, max(1024, 16 * half)))
    block = size - 2 * half
    full, rest = divmod(m, block)
    sections = full + (rest > 0)
    padded = np.zeros(sections * block + 2 * half)
    padded[half : half + m] = x2
    stride = padded.strides[0]
    windows = np.ndarray(
        (sections, size), padded.dtype, buffer=padded, strides=(block * stride, stride)
    )
    group = max(1, (1 << 16) // size)
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    for first in range(0, sections, group):
        count = min(group, sections - first)
        whole = min(count, full - first)  # sections of B values; the rest is partial
        values = x1[first * block : (first + count) * block]
        rows = np.zeros((count, size), dtype=x1.dtype)
        rows[:whole, :block] = values[: whole * block].reshape(whole, block)
        rows[whole:, : len(values) - whole * block] = values[whole * block :]
        cross = np.fft.rfft(rows)
        del rows
        np.conjugate(cross, out=cross)
        cross *= np.fft.rfft(windows[first : first + count])
        if whole:
            spectrum += cross[:whole].sum(axis=0)
        if whole < count:  # added on its own, the order of a separate last group
            spectrum += cross[-1]
        del cross
    return np.fft.irfft(spectrum, size)[: 2 * half + 1]


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
    sums = _lagged_sums(w1.values, w2.values, grid.half_width)
    rho = sums / (tau * (count - np.abs(grid.lags)))
    # einsum's own loop, not BLAS: a forked mc worker must start no BLAS threads
    energy1 = float(np.einsum("i,i", w1.values, w1.values))
    energy2 = float(np.einsum("i,i", w2.values, w2.values))
    divisor = np.sqrt(energy1 * energy2) / (tau * count)
    if divisor > 0.0:
        normalized = rho / divisor
    else:
        normalized = np.zeros_like(rho)
    rho.setflags(write=False)
    normalized.setflags(write=False)
    return CrossCovCurve(
        level=w1.level,
        tau=tau,
        lags=grid.lags,
        rho=rho,
        rho_normalized=normalized,
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
    if len(candidates) == 1:
        lag = int(candidates[0])
    else:
        lag = int(min(candidates, key=lambda l: (abs(int(l)), int(l))))
    gap = peak - float(magnitude[lags != lag].max(initial=0.0))  # on one lag, the peak
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

    At pi = 0, with every grid point observed, these grid sums are the
    overlapping-interval contrast of Hoffmann, Rosenbaum and Yoshida (2013).
    Under missingness the baseline is this grid version: on previous-tick
    returns its curve differs from the true contrast on the observation
    intervals by about twice the curve's peak (largest difference over a
    +-60 grid on the benchmark model, median over 60 replications: 2.2x at
    pi = 0.5, 1.9x at (pi1, pi2) = (0.2, 0.6)), while the two argmaxes
    agreed in 60 of 60 replications at both.
    """
    _check_returns_pair(ret1, ret2)
    sums = _lagged_sums(ret1.returns, ret2.returns, grid.half_width)
    return _lag_estimate(0, grid.lags, sums, ret1.tau)


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
    does. A cascade is at least 2^j_max long, so a level beyond n's bit
    length cannot fit and is refused without computing that length."""
    if j_max > n.bit_length() or (
        cascade_length(base_filter(family).length, j_max) + half_width > n
    ):
        raise DataError(
            f"{family} level {j_max} with grid half-width {half_width} needs "
            f"more than {int_text('n', n)} samples; max feasible level is "
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
    _check_returns_pair(ret1, ret2)
    if j_max < 1:
        raise DataError(f"need at least one level, got j_max={j_max}")
    check_levels_fit(family, j_max, grid.half_width, len(ret1.returns))
    base = base_filter(family)
    out = []
    w1, w2 = ret1.returns, ret2.returns
    for level in range(1, j_max + 1):
        filt = cascade(base, level)
        w1 = modwt(w1, filt)
        w2 = modwt(w2, filt)
        curve = cross_cov_curve(w1, w2, grid, ret1.tau)
        out.append((curve, estimate_lag(curve)))
    return out
