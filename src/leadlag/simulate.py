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

A path is synthesised in real-output form (Dietrich & Newsam 1997): the
noise is Hermitian-symmetric, so only the size // 2 + 1 bins of the half
spectrum are drawn and coloured, and one ``numpy.fft.hfft`` call returns
both real paths. ``hfft`` is the forward transform of the Hermitian
extension, the same direction as a full ``fft``, so Cov(x1[a], x2[b]) =
c12(b - a) for the model's increment cross-covariance c12.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, int_text
from .model import ObservationScheme, SpectralModel, increment_cross_cov

logger = logging.getLogger(__name__)

# eigenvalues this far below zero (relative to tau) abort; closer ones clip
EIGENVALUE_FLOOR = 1e-8


@functools.lru_cache(maxsize=256)
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
    too_large = f"{int_text('n', n)} is too large to allocate a circulant embedding of"
    if 2 * n > np.iinfo(np.intp).max:  # unindexable; _next_fast_len would take hours
        raise DataError(f"{too_large} 2n points")
    size = _next_fast_len(2 * n)
    # Probe the largest array and drop it: numpy refuses a size it cannot
    # allocate up front, before any work. Keeping the probe as ``factors``
    # measured about 12 times the minor page faults of an mc run (20k against
    # 1.7k per 16 replications, Linux/glibc) and 6% less throughput, so
    # ``factors`` is allocated last.
    try:
        np.empty((size, 2, 2), dtype=complex)
    except (MemoryError, ValueError):
        raise DataError(f"{too_large} {size} points") from None
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


def apply_missing(scheme: ObservationScheme, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Independent Bernoulli missingness masks for the two series.

    Streams are derived from the same seed tree as the path noise, so masks
    drawn standalone agree with the ones inside circulant_embed_sample.
    """
    _, ss1, ss2 = _seed_streams(seed)
    return _masks(scheme, ss1, ss2)


def _synthesize(embedding: CirculantEmbedding, normals: np.ndarray, n: int) -> np.ndarray:
    """The first n increments of both series, shape (2, n), from real
    normals of shape (2, size // 2 + 1, 2): real and imaginary parts of the
    half spectrum's noise, per bin and series.

    The noise is xi = (g0 + i g1) / sqrt(2) on the interior bins and real
    (g0) at bin 0 and, for even size, at bin size / 2, so that its Hermitian
    extension has unit covariance in every bin. The factors of bin size - k
    are the conjugates of bin k's, so colouring the half spectrum colours the
    whole extension.
    """
    size = embedding.size
    noise = normals[0] + 1j * normals[1]
    noise *= np.sqrt(0.5)
    noise[0] = normals[0, 0]
    if size % 2 == 0:
        noise[-1] = normals[0, -1]
    # C order keeps each series' bins, and so its path, contiguous
    colored = np.einsum("kij,kj->ik", embedding.factors[: size // 2 + 1], noise, order="C")
    return np.fft.hfft(colored, size, axis=1)[:, :n] / np.sqrt(size)


def circulant_embed_sample(
    model: SpectralModel,
    scheme: ObservationScheme,
    seed: int,
    embedding: CirculantEmbedding | None = None,
) -> PathSample:
    """Draw one bivariate increment path plus missingness masks.

    The path comes from one draw of size // 2 + 1 complex Gaussians per
    series on the half spectrum (``_synthesize``): Hermitian-symmetric noise,
    the real-output form of circulant embedding, coloured by the factored
    spectral matrices and taken back with one ``hfft``, the forward
    transform of the Hermitian extension. Its covariance is the target
    exactly (up to eigenvalue clipping), with Cov(returns1[a], returns2[b])
    the model's cross-covariance at lag b - a. The masks come from their own
    streams of the seed (``apply_missing``).
    """
    if embedding is None:
        embedding = build_embedding(model, scheme)
    if embedding.n != scheme.n or embedding.tau != scheme.tau:
        raise DataError("embedding was built for a different sampling scheme")
    path_ss, ss1, ss2 = _seed_streams(seed)
    rng = np.random.Generator(np.random.Philox(path_ss))
    returns = _synthesize(
        embedding, rng.standard_normal((2, embedding.size // 2 + 1, 2)), scheme.n
    )
    mask1, mask2 = _masks(scheme, ss1, ss2)
    returns.setflags(write=False)
    return PathSample(
        returns1=returns[0],
        returns2=returns[1],
        mask1=mask1,
        mask2=mask2,
        seed=seed,
    )
