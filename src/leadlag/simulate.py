"""Bivariate Gaussian increment paths via multivariate circulant embedding.

Each series is marginally a Brownian increment sequence (white, variance tau
per step); the pair carries the model's band-structured cross-covariance.
Per frequency the 2x2 spectral matrix is [[tau, s], [conj(s), tau]] with
eigenvalues tau +- |s|, so the embedding is valid exactly when the implied
cross spectrum stays below tau. Admissibility (|corr| <= 1) bounds the
model's band spectrum, but the circulant row stops at lag size // 2, and
that cut rings at sharp band edges (Gibbs): the overshoot, about 9%, makes
a band with |corr| above about 0.92 fail the eigenvalue guard. The guard
stays because no admissible circulant is also exact: one built from the band
spectrum itself misses the model's cross-covariance by up to 3.9e-5 tau at
visible lags, and a taper of the lags beyond n - 1 would need a
positive-definite window equal to 1 on |k| < n, which does not exist.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import ObservationScheme, SpectralModel, increment_cross_cov

logger = logging.getLogger(__name__)

# eigenvalues this far below zero (relative to tau) abort; closer ones clip
EIGENVALUE_FLOOR = 1e-8


def _next_fast_len(target: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= target, a length pocketfft transforms
    fast; the rule of ``scipy.fft.next_fast_len(target, real=True)``."""
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


@dataclass(frozen=True)
class PathSample:
    """One simulated draw: n increments per series plus n+1 missingness flags.

    mask entries are True where the corresponding grid point is missing;
    index 0 is always observed.
    """

    returns1: np.ndarray
    returns2: np.ndarray
    mask1: np.ndarray
    mask2: np.ndarray
    seed: int


@dataclass(frozen=True)
class CirculantEmbedding:
    """Precomputed per-frequency factors, reusable across seeds.

    ``size`` is the circulant length, ``_next_fast_len(2 * n)``; ``clipped``
    counts the slightly negative eigenvalues set to zero.
    """

    n: int
    tau: float
    size: int
    factors: np.ndarray  # (size, 2, 2) complex, A A^H = spectral matrix
    clipped: int
    min_eigenvalue: float


def build_embedding(model: SpectralModel, scheme: ObservationScheme) -> CirculantEmbedding:
    """Embed the block-Toeplitz target covariance into a circulant and factor
    each frequency's 2x2 spectral matrix.

    The circulant length is ``_next_fast_len(2 * n)``. Its first row holds
    the model's cross-covariance at every circulant lag (k up to size // 2,
    k - size above), so the embedding is exact at every lag |l| <= n - 1
    that a sample can see; there is no truncation parameter.
    """
    n, tau = scheme.n, scheme.tau
    size = _next_fast_len(2 * n)
    # Probe the largest array and drop it: numpy refuses a size it cannot
    # allocate up front, before any work. Keeping the probe as ``factors``
    # measured about 12 times the minor page faults of an mc run (20k against
    # 1.7k per 16 replications, Linux/glibc) and 6% less throughput, so
    # ``factors`` is allocated last.
    try:
        np.empty((size, 2, 2), dtype=complex)
    except (MemoryError, ValueError):
        raise DataError(
            f"n={n} is too large to allocate a circulant embedding of {size} points"
        ) from None
    k = np.arange(size)
    lags = np.where(k <= size // 2, k, k - size)
    s12 = np.fft.fft(increment_cross_cov(model, lags, tau=tau))

    mag = np.abs(s12)
    lam_minus = tau - mag
    lam_plus = tau + mag
    min_eig = float(lam_minus.min())
    if min_eig < -EIGENVALUE_FLOOR * tau:
        raise NumericError(
            f"invalid circulant embedding: eigenvalue {min_eig:.6e} below "
            f"-{EIGENVALUE_FLOOR:.0e} * tau; the model's implied spectrum "
            "exceeds the increment variance"
        )
    negative = lam_minus < 0.0
    clipped = int(np.count_nonzero(negative))
    if clipped:
        logger.warning(
            "clipped %d of %d spectral eigenvalues to zero (most negative %.3e, "
            "relative %.3e)",
            clipped,
            size,
            min_eig,
            min_eig / tau,
        )
        lam_minus = np.where(negative, 0.0, lam_minus)

    phase = np.where(mag > 0.0, s12 / np.where(mag > 0.0, mag, 1.0), 1.0)
    sqrt_plus = np.sqrt(lam_plus / 2.0)
    sqrt_minus = np.sqrt(lam_minus / 2.0)
    factors = np.empty((size, 2, 2), dtype=complex)
    factors[:, 0, 0] = sqrt_plus * phase
    factors[:, 0, 1] = -sqrt_minus * phase
    factors[:, 1, 0] = sqrt_plus
    factors[:, 1, 1] = sqrt_minus
    return CirculantEmbedding(
        n=n,
        tau=tau,
        size=size,
        factors=factors,
        clipped=clipped,
        min_eigenvalue=min_eig,
    )


def _seed_streams(seed: int):
    return np.random.SeedSequence(seed).spawn(3)


def apply_missing(scheme: ObservationScheme, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent Bernoulli missingness masks for the two series.

    Streams are derived from the same seed tree as the path noise, so masks
    drawn standalone agree with the ones inside circulant_embed_sample.
    """
    _, ss1, ss2 = _seed_streams(seed)
    masks = []
    for ss, p in ((ss1, scheme.pi1), (ss2, scheme.pi2)):
        rng = np.random.Generator(np.random.Philox(ss))
        mask = np.zeros(scheme.n + 1, dtype=bool)
        mask[1:] = rng.random(scheme.n) < p
        mask.setflags(write=False)
        masks.append(mask)
    return masks[0], masks[1]


def circulant_embed_sample(
    model: SpectralModel,
    scheme: ObservationScheme,
    seed: int,
    embedding: CirculantEmbedding | None = None,
) -> PathSample:
    """Draw one bivariate increment path plus missingness masks.

    Synthesis is the standard spectral route: independent standard complex
    Gaussians per frequency, colored by the factored spectral matrices,
    transformed back with one FFT; the real part carries the target
    covariance exactly (up to eigenvalue clipping).
    """
    if embedding is None:
        embedding = build_embedding(model, scheme)
    if embedding.n != scheme.n or embedding.tau != scheme.tau:
        raise DataError("embedding was built for a different sampling scheme")
    path_ss, _, _ = _seed_streams(seed)
    rng = np.random.Generator(np.random.Philox(path_ss))
    size = embedding.size
    noise = rng.standard_normal((size, 2)) + 1j * rng.standard_normal((size, 2))
    colored = np.einsum("kij,kj->ki", embedding.factors, noise)
    paths = np.fft.fft(colored, axis=0)[: scheme.n] / np.sqrt(size)
    returns = np.ascontiguousarray(paths.real.T)
    mask1, mask2 = apply_missing(scheme, seed)
    returns.setflags(write=False)
    return PathSample(
        returns1=returns[0],
        returns2=returns[1],
        mask1=mask1,
        mask2=mask2,
        seed=seed,
    )
