"""Bivariate Gaussian increment paths via circulant embedding in regression form.

Each series is marginally a Brownian increment sequence (white, variance tau
per step); the pair carries the model's band-structured cross-covariance
c12, whose circulant spectrum is s12. Series 2 is white noise, and series 1
is series 2 filtered through conj(s12) / tau plus independent noise with the
residual spectrum tau - |s12|^2 / tau = (tau - |s12|)(tau + |s12|) / tau
(Chan & Wood 1999). tau - |s12| is the smaller eigenvalue of the 2x2
spectral matrix, so the embedding is valid exactly when the implied cross
spectrum stays below tau. Admissibility (|corr| <= 1) bounds the model's
band spectrum, but the circulant row stops at lag size // 2, and that cut
rings at sharp band edges (Gibbs): the overshoot, about 9%, makes a band
with |corr| above about 0.92 fail the eigenvalue guard. The guard stays
because no admissible circulant is also exact: one built from the band
spectrum itself misses the model's cross-covariance by up to 3.9e-5 tau at
visible lags, and a taper of the lags beyond n - 1 would need a
positive-definite window equal to 1 on |k| < n, which does not exist.

Both filters act on the size // 2 + 1 bins of the half spectrum: one
``numpy.fft.rfft`` of two rows of normals and one ``numpy.fft.irfft`` give
series 1, and Cov(x1[a], x2[b]) = c12(b - a).

A draw is two calls: ``build_embedding(model, scheme)`` once, then
``circulant_embed_sample(embedding, seed)`` per seed. The embedding carries
its sampling scheme, so the draw reads nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, int_text
from .estimator import _next_fast_len
from .model import ObservationScheme, SpectralModel, increment_cross_cov

# eigenvalues this far below zero (relative to tau) abort; closer ones clip
EIGENVALUE_FLOOR = 1e-8


@dataclass(frozen=True)
class PathSample:
    """One simulated draw: n increments per series plus n+1 missingness flags,
    on the grid of ``scheme``, the embedding's sampling scheme.

    mask entries are True where the corresponding grid point is missing;
    index 0 is always observed.
    """

    returns1: np.ndarray
    returns2: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    scheme: ObservationScheme


@dataclass(frozen=True)
class CirculantEmbedding:
    """The two half-spectrum filters of the regression form for one model
    and sampling scheme; every seed draws from the same embedding.

    ``scheme`` gives the path length n, the step tau and the missing
    probabilities. ``size`` is the circulant length,
    ``_next_fast_len(2 * n)``. On its size // 2 + 1 half-spectrum bins,
    ``gain`` filters series 2 into series 1 and ``resid`` filters series
    1's own noise; ``clipped`` counts the slightly negative eigenvalues set
    to zero, where ``resid`` is zero.
    """

    scheme: ObservationScheme
    size: int
    gain: np.ndarray  # complex, conj(s12) / sqrt(tau)
    resid: np.ndarray  # real, sqrt(tau - |s12|^2 / tau)
    clipped: int
    min_eigenvalue: float


def build_embedding(model: SpectralModel, scheme: ObservationScheme) -> CirculantEmbedding:
    """Embed the block-Toeplitz target covariance into a circulant and derive
    the regression filters from its cross spectrum.

    The circulant length is ``_next_fast_len(2 * n)``. Its first row holds
    the model's cross-covariance at every circulant lag (k up to size // 2,
    k - size above), so the embedding is exact at every lag |l| <= n - 1
    that a sample can see; there is no truncation parameter.
    """
    n, tau = scheme.n, scheme.tau
    too_large = f"{int_text('n', n)} is too large to allocate a circulant embedding of"
    if 2 * n > np.iinfo(np.intp).max:  # unindexable; _next_fast_len would take hours
        raise DataError(f"{too_large} 2n points")
    size = _next_fast_len(2 * n)
    # Probe the largest array, the size-point complex cross spectrum, and
    # drop it: numpy refuses a size it cannot allocate up front, before the
    # cross-covariance is tabulated. Under glibc, freeing it also raises
    # malloc's mmap and trim thresholds to its size, so the draws' arrays,
    # none larger, come from the heap (n = 15000: a process that only draws
    # took 405 minor faults per draw without the probe, 202 with it).
    try:
        np.empty(size, dtype=complex)
    except (MemoryError, ValueError):
        raise DataError(f"{too_large} {size} points") from None
    k = np.arange(size)
    lags = np.where(k <= size // 2, k, k - size)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite spectrum is refused below
        s12 = np.fft.fft(increment_cross_cov(model, lags, tau=tau))

    mag = np.abs(s12)
    lam_minus = tau - mag
    lam_plus = tau + mag
    min_eig = float(lam_minus.min())
    if not np.isfinite(min_eig):  # NaN would pass the comparison below
        raise NumericError("invalid circulant embedding: the model's cross spectrum is not finite")
    if min_eig < -EIGENVALUE_FLOOR * tau:
        raise NumericError(
            f"invalid circulant embedding: eigenvalue {min_eig:.6e} below "
            f"-{EIGENVALUE_FLOOR:.0e} * tau; the model's implied spectrum "
            "exceeds the increment variance"
        )
    negative = lam_minus < 0.0
    clipped = int(np.count_nonzero(negative))
    if clipped:
        lam_minus = np.where(negative, 0.0, lam_minus)

    half = size // 2 + 1
    gain = np.conj(s12[:half]) / np.sqrt(tau)
    resid = np.sqrt(lam_minus[:half] * lam_plus[:half] / tau)
    # every draw of a run reads these filters
    gain.setflags(write=False)
    resid.setflags(write=False)
    return CirculantEmbedding(
        scheme=scheme, size=size, gain=gain, resid=resid, clipped=clipped, min_eigenvalue=min_eig
    )


def _seed_streams(seed: int):
    """The path, mask-1 and mask-2 streams of a seed."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(seed).spawn(3)


def _masks(scheme: ObservationScheme, ss1, ss2) -> tuple[np.ndarray, np.ndarray]:
    masks = []
    for ss, p in ((ss1, scheme.pi1), (ss2, scheme.pi2)):
        rng = np.random.Generator(np.random.Philox(ss))
        mask = np.zeros(scheme.n + 1, dtype=bool)
        mask[1:] = rng.random(scheme.n) < p
        mask.setflags(write=False)
        masks.append(mask)
    return masks[0], masks[1]


def _synthesize(embedding: CirculantEmbedding, normals: np.ndarray) -> np.ndarray:
    """The first n increments of both series, shape (2, n), from real
    normals of shape (2, size): row 1 is series 2's white noise and row 0
    series 1's own noise.

    Series 2 is sqrt(tau) times row 1. Series 1 is the circular convolution
    of row 1 with the filter ``gain`` plus that of row 0 with ``resid``,
    taken on the half spectrum with ``rfft`` and ``irfft``: the normals are
    real, so the other bins are the conjugates of these.
    """
    white = np.fft.rfft(normals, axis=1)
    # series 1's spectrum, formed in place: each temporary would be another
    # half-spectrum array for the heap to fault in
    white[1] *= embedding.gain
    white[0] *= embedding.resid
    white[1] += white[0]
    n, tau = embedding.scheme.n, embedding.scheme.tau
    out = np.empty((2, n))  # one row per series, each C-contiguous
    out[0] = np.fft.irfft(white[1], embedding.size)[:n]
    out[1] = np.sqrt(tau) * normals[1, :n]
    return out


def circulant_embed_sample(embedding: CirculantEmbedding, seed: int) -> PathSample:
    """Draw one bivariate increment path plus missingness masks from
    ``embedding`` (``build_embedding`` of the model and sampling scheme).

    The path comes from one draw of 2 x size standard normals
    (``_synthesize``): returns2 is white noise, and returns1 is returns2
    filtered through the model's cross spectrum plus independent noise with
    the residual spectrum, the regression form of circulant embedding. Its
    covariance is the target exactly (up to eigenvalue clipping), with
    Cov(returns1[a], returns2[b]) the model's cross-covariance at lag b - a.
    The masks come from their own streams of the seed, one Bernoulli draw
    per grid point after the origin, with the missing probabilities of the
    embedding's scheme.
    """
    path_ss, ss1, ss2 = _seed_streams(seed)
    rng = np.random.Generator(np.random.Philox(path_ss))
    returns = _synthesize(embedding, rng.standard_normal((2, embedding.size)))
    mask1, mask2 = _masks(embedding.scheme, ss1, ss2)
    returns.setflags(write=False)
    return PathSample(returns[0], returns[1], mask1, mask2, embedding.scheme)
