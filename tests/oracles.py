"""Numeric oracles of the tests: the estimator's limit theory.

The closed-form kernels of the wavelet cross-covariance estimator's
large-sample limit (discretization kernel, interpolation kernel, volatility
weight) and the limit constant itself, evaluated by adaptive quadrature,
plus the model's piecewise cross-spectral density, which the simulator's
circulant cross spectrum approaches inside each band, and the band-limited
wavelet kernel, the reference for the simulator's cross-covariance table.
The estimation pipeline does not use them, and they need scipy, which the
package does not import.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy import integrate

from leadlag.errors import DataError, NumericError
from leadlag.model import SpectralModel


def lp_scaling(s):
    """Band-limited scaling kernel sin(pi s) / (pi s), with value 1 at 0."""
    return np.sinc(np.asarray(s, dtype=float))


def lp_wavelet(s):
    """Band-limited wavelet kernel 2 sinc(2s) - sinc(s); transform is the
    indicator of the octave (pi, 2 pi]. The reference for the band terms of
    ``leadlag.model.increment_cross_cov``."""
    s = np.asarray(s, dtype=float)
    return 2.0 * np.sinc(2.0 * s) - np.sinc(s)


def discretization_kernel(lam):
    """Kernel (2/pi) sin^2(lam/2) / lam^2 capturing increment discretization;
    continuous at 0 with value 1/(2 pi) and unit integral over the line."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.full(lam.shape, 1.0 / (2.0 * math.pi))
    nz = lam != 0.0
    out[nz] = (2.0 / math.pi) * np.sin(lam[nz] / 2.0) ** 2 / lam[nz] ** 2
    return float(out[0]) if scalar else out


def interpolation_kernel(lam, pi1: float, pi2: float):
    """Frequency response of previous-tick interpolation under Bernoulli
    missingness: (1-pi1)(1-pi2) / ((1-pi1 e^(i lam))(1-pi2 e^(-i lam)))."""
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    z = np.exp(1j * np.atleast_1d(lam))
    out = (1.0 - pi1) * (1.0 - pi2) / ((1.0 - pi1 * z) * (1.0 - pi2 * np.conj(z)))
    return complex(out[0]) if scalar else out


def cross_spectral_density(model: SpectralModel, lam):
    """Evaluate the piecewise cross-spectral density at angular frequency lam.

    Frequencies are in radians per model time unit; the level-j component
    occupies +-(2^m pi, 2^(m+1) pi] with m = J - j + 1. Returns 0 outside
    all bands (lam = 0 included).

    The simulator's spectral oracle: inside each band, the circulant cross
    spectrum of ``leadlag.simulate.build_embedding`` over tau approaches it.
    """
    lam = np.asarray(lam, dtype=float)
    scalar = lam.ndim == 0
    lam = np.atleast_1d(lam)
    out = np.zeros(lam.shape, dtype=complex)
    mag = np.abs(lam)
    nz = mag > 0
    if np.any(nz):
        ratio = mag[nz] / math.pi
        edge = np.log2(ratio)
        m = np.floor(edge).astype(int)
        on_edge = 2.0**m * math.pi == mag[nz]
        m = np.where(on_edge, m - 1, m)  # bands are open at the inner edge
        level = model.finest_level - m + 1
        vals = np.zeros(level.shape, dtype=complex)
        for c in model.components:
            sel = level == c.level
            if np.any(sel):
                theta = c.lag_steps * model.tau
                vals[sel] = c.corr * np.exp(-1j * theta * lam[nz][sel])
        out[nz] = vals
    return out[0] if scalar else out


def sigma_weight(theta: float, sigma1, sigma2, horizon: float, t: float | None = None) -> float:
    """Volatility overlap weight of the limit constant.

    For theta >= 0 this is (1/(T-theta)) * int_0^((t-theta)+) s1(u) s2(u+theta) du,
    mirrored for negative theta. ``sigma1``/``sigma2`` are callables of time.
    """
    if t is None:
        t = horizon
    if horizon - abs(theta) <= 0:
        raise DataError(f"lag {theta} is not smaller than the horizon {horizon}")
    if theta >= 0:
        upper = max(t - theta, 0.0)
        if upper == 0.0:
            return 0.0
        val, _ = integrate.quad(lambda u: sigma1(u) * sigma2(u + theta), 0.0, upper)
        return val / (horizon - theta)
    upper = max(t + theta, 0.0)
    if upper == 0.0:
        return 0.0
    val, _ = integrate.quad(lambda u: sigma1(u - theta) * sigma2(u), 0.0, upper)
    return val / (horizon + theta)


def _band_quad(func, lo: float, hi: float) -> complex:
    re, _ = integrate.quad(lambda x: func(x).real, lo, hi, epsabs=1e-9, limit=200)
    im, _ = integrate.quad(lambda x: func(x).imag, lo, hi, epsabs=1e-9, limit=200)
    return complex(re, im)


def limit_constant(
    level: int,
    b: float,
    pi1: float,
    pi2: float,
    corr: float,
    sigma_value: float,
) -> float:
    """Large-sample value of the cross-covariance estimator near the true lag.

    2^j * sigma_value * corr * int over +-(pi/2^j, pi/2^(j-1)] of
    D(lam) Pi(lam) e^(i b lam) d lam, evaluated by adaptive quadrature on
    the two symmetric band halves. The integrand is hermitian, so the
    imaginary part must cancel; anything above 1e-9 is a numerical failure.

    This is the ideal band-pass limit: the level-j squared gain is taken as
    2^j on the band and 0 off it, which the Daubechies gain approaches only
    as the filter length grows without bound. D models Brownian increments
    over one grid step; ``leadlag.model.increment_cross_cov`` draws a flat
    per-step cross spectrum instead, see there.
    """
    if level < 1:
        raise DataError(f"level must be >= 1, got {level}")
    if abs(b) > 0.5:
        warnings.warn(
            f"grid offset b={b} is outside [-1/2, 1/2]; the limit is only "
            "guaranteed nonzero inside that range",
            stacklevel=2,
        )

    def integrand(lam):
        return (
            discretization_kernel(lam)
            * interpolation_kernel(lam, pi1, pi2)
            * cmath.exp(1j * b * lam)
        )

    lo, hi = math.pi / 2.0**level, math.pi / 2.0 ** (level - 1)
    total = _band_quad(integrand, lo, hi) + _band_quad(integrand, -hi, -lo)
    if abs(total.imag) > 1e-9:
        raise NumericError(
            f"band integral has non-cancelling imaginary part {total.imag:.3e}"
        )
    return 2.0**level * sigma_value * corr * total.real
