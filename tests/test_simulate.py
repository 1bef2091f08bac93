import time

import numpy as np
import pytest
from scipy.fft import next_fast_len

import leadlag as ll
from leadlag.errors import DataError, NumericError
from leadlag.simulate import (
    EIGENVALUE_FLOOR,
    _next_fast_len,
    _seed_streams,
    _synthesize,
    build_embedding,
    circulant_embed_sample,
)

from conftest import benchmark_spec, clipping_spec
from oracles import cross_spectral_density


def spectral_matrices(emb):
    """Per-frequency spectral matrix of the regression filters g = gain and
    r = resid, [[|g|^2 + r^2, conj(g) sqrt(tau)], [g sqrt(tau), tau]], on the
    Hermitian extension of the half spectrum to all size bins; shape
    (size, 2, 2)."""
    k = np.arange(emb.size)
    fold = np.minimum(k, emb.size - k)
    gain = np.where(k > emb.size // 2, np.conj(emb.gain[fold]), emb.gain[fold])
    resid = emb.resid[fold]
    out = np.empty((emb.size, 2, 2), dtype=complex)
    out[:, 0, 0] = np.abs(gain) ** 2 + resid**2
    out[:, 0, 1] = np.conj(gain) * np.sqrt(emb.scheme.tau)
    out[:, 1, 0] = gain * np.sqrt(emb.scheme.tau)
    out[:, 1, 1] = emb.scheme.tau
    return out


def circulant_row(emb, i, j, lags):
    """Entry (i, j) of the embedded covariance at the given lags: the inverse
    FFT of that spectral entry, read at lag mod size."""
    row = np.fft.ifft(spectral_matrices(emb)[:, i, j])
    return row[np.asarray(lags) % emb.size]


class TestCovarianceTables:
    def test_auto_is_white_with_variance_tau(self, benchmark_model):
        model, scheme = benchmark_model
        emb = build_embedding(model, scheme)
        lags = np.arange(17)
        for nu in (0, 1):
            auto = circulant_row(emb, nu, nu, lags)
            assert auto[0].real == pytest.approx(scheme.tau, rel=1e-12)
            assert np.all(np.abs(auto[1:]) < 1e-12 * scheme.tau)

    def test_zero_model_has_zero_cross(self):
        model, scheme = ll.load_model({"J": 6, "n": 256, "levels": []})
        emb = build_embedding(model, scheme)
        assert np.all(spectral_matrices(emb)[:, 0, 1] == 0.0)

    def test_cross_matches_model_oracle_per_lag(self, benchmark_model):
        model, scheme = benchmark_model
        emb = build_embedding(model, scheme)
        cross = circulant_row(emb, 0, 1, np.arange(-32, 33))
        target = ll.increment_cross_cov(model, np.arange(-32, 33), tau=model.tau)
        for value, want in zip(cross, target):
            assert value.real == pytest.approx(want, rel=1e-12, abs=1e-18)

    def test_embedding_is_exact_at_every_visible_lag(self, benchmark_model):
        # the circulant row holds the model's cross-covariance out to lag
        # size // 2 >= n, so nothing a sample of n increments sees is cut
        model, scheme = benchmark_model
        assert scheme.n == 15000
        emb = build_embedding(model, scheme)
        lags = np.arange(-(scheme.n - 1), scheme.n)
        cross = circulant_row(emb, 0, 1, lags)
        target = ll.increment_cross_cov(model, lags, tau=scheme.tau)
        worst = int(np.argmax(np.abs(cross - target)))
        assert np.abs(cross - target).max() <= 1e-12 * scheme.tau, (
            f"lag {lags[worst]}: embedded {cross[worst]} vs model {target[worst]}"
        )


def five_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


class TestFastLength:
    def test_matches_scipy_real_rule(self):
        wrong = [t for t in range(1, 200001) if _next_fast_len(t) != next_fast_len(t, real=True)]
        assert not wrong, f"{len(wrong)} targets differ, the first at {wrong[0]}"

    # at n = 777 scipy's complex rule would pick 1568 = 2^5 * 7^2
    @pytest.mark.parametrize("n, size", [(1, 2), (256, 512), (777, 1600), (2000, 4000), (15000, 30000)])
    def test_embedding_size_is_5_smooth_and_covers_2n(self, n, size):
        model, scheme = ll.load_model(benchmark_spec(n=n))
        assert build_embedding(model, scheme).size == size
        assert five_smooth(size) and size >= 2 * n


class TestEmbedding:
    def test_benchmark_embedding_is_valid(self, benchmark_model):
        model, scheme = benchmark_model
        emb = build_embedding(model, scheme)
        assert emb.size == next_fast_len(2 * scheme.n) == 30000
        assert emb.clipped == 0
        assert emb.min_eigenvalue > 0.0

    def test_filters_reproduce_spectral_matrices(self):
        model, scheme = ll.load_model(benchmark_spec(n=512))
        emb = build_embedding(model, scheme)
        k = np.arange(emb.size)
        lags = np.where(k <= emb.size // 2, k, k - emb.size)
        s12 = np.fft.fft(ll.increment_cross_cov(model, lags, tau=scheme.tau))
        prod = spectral_matrices(emb)
        assert np.allclose(prod[:, 0, 0].real, scheme.tau, atol=1e-18)
        assert np.allclose(prod[:, 1, 1].real, scheme.tau, atol=1e-18)
        assert np.allclose(prod[:, 0, 1], s12, atol=1e-18)

    def test_cross_spectrum_matches_model_density_inside_each_band(self, benchmark_model):
        # s12 = conj(gain) sqrt(tau) at bin k is the cross spectrum at
        # lam = 2 pi k / size per grid step; over tau it approaches the
        # model's density at lam / model.tau. A band's edges ring (Gibbs, up
        # to 0.25 at level 3), so only the middle half of each band is held
        # to the tolerance.
        model, scheme = benchmark_model
        emb = build_embedding(model, scheme)
        s12 = np.conj(emb.gain) * np.sqrt(scheme.tau)
        lam = 2.0 * np.pi * np.arange(len(s12)) / emb.size
        density = cross_spectral_density(model, lam / model.tau)
        for level in range(1, 9):
            lo, hi = np.pi / 2.0**level, np.pi / 2.0 ** (level - 1)
            quarter = (hi - lo) / 4.0
            middle = (lam > lo + quarter) & (lam < hi - quarter)
            assert middle.any()
            err = np.abs(s12[middle] / scheme.tau - density[middle]).max()
            assert err < 5e-3, f"level {level}: {err:.3e}"

    @pytest.mark.parametrize("name", ["gain", "resid"])
    def test_filters_are_read_only(self, name):
        # every draw of a run reads one embedding, so no caller may write it
        model, scheme = ll.load_model(benchmark_spec(n=512))
        emb = build_embedding(model, scheme)
        before = circulant_embed_sample(emb, 5)
        with pytest.raises(ValueError):
            getattr(emb, name)[:] *= 0
        after = circulant_embed_sample(emb, 5)
        assert after.returns1.tobytes() == before.returns1.tobytes()

    def test_saturated_correlation_fails_loudly(self):
        # |corr| = 1 with a kernel cut at size // 2 overshoots the variance
        # at the band edges, which must abort rather than silently distort
        model, scheme = ll.load_model(
            {"J": 6, "n": 512, "levels": [{"j": 1, "R": 1.0, "theta_over_tau": 0}]}
        )
        with pytest.raises(NumericError, match="invalid circulant embedding"):
            build_embedding(model, scheme)

    def test_eigenvalue_just_below_zero_is_clipped_and_reported(self):
        model, scheme = ll.load_model(clipping_spec())
        emb = build_embedding(model, scheme)
        assert -EIGENVALUE_FLOOR * scheme.tau < emb.min_eigenvalue < 0.0
        assert emb.clipped > 0
        sample = circulant_embed_sample(emb, 5)
        assert np.isfinite(sample.returns1).all() and np.isfinite(sample.returns2).all()

    def test_unprintable_n_named_by_bit_length(self, benchmark_model):
        # more digits than Python converts to text; the message still forms
        model, scheme = benchmark_model
        start = time.perf_counter()
        with pytest.raises(DataError, match="n of 16610 bits is too large to allocate"):
            huge = ll.ObservationScheme(tau=scheme.tau, n=10**5000)
            circulant_embed_sample(build_embedding(model, huge), 1)
        assert time.perf_counter() - start < 1.0


class TestSampling:
    def test_fixed_seed_is_byte_identical(self):
        model, scheme = ll.load_model(benchmark_spec(n=512, pi1=0.3, pi2=0.6))
        a = circulant_embed_sample(build_embedding(model, scheme), seed=42)
        b = circulant_embed_sample(build_embedding(model, scheme), seed=42)
        assert a.returns1.tobytes() == b.returns1.tobytes()
        assert a.returns2.tobytes() == b.returns2.tobytes()
        assert a.mask1.tobytes() == b.mask1.tobytes()
        assert a.mask2.tobytes() == b.mask2.tobytes()
        c = circulant_embed_sample(build_embedding(model, scheme), seed=43)
        assert a.returns1.tobytes() != c.returns1.tobytes()

    def test_shared_embedding_matches_fresh(self):
        # an embedding reused across seeds and a second build of the same
        # model and scheme draw the same path
        model, scheme = ll.load_model(benchmark_spec(n=512))
        emb = build_embedding(model, scheme)
        circulant_embed_sample(emb, 6)
        a = circulant_embed_sample(emb, 7)
        b = circulant_embed_sample(build_embedding(model, scheme), 7)
        assert np.array_equal(a.returns1, b.returns1)

    def test_sample_carries_the_embeddings_scheme(self):
        model, scheme = ll.load_model(benchmark_spec(n=512, pi1=0.3))
        emb = build_embedding(model, scheme)
        assert all(circulant_embed_sample(emb, seed).scheme is emb.scheme for seed in (0, 1))

    def test_independent_case_uncorrelated(self):
        model, scheme = ll.load_model({"J": 13, "n": 15000, "levels": []})
        sample = circulant_embed_sample(build_embedding(model, scheme), seed=1)
        r1, r2 = sample.returns1, sample.returns2
        n = scheme.n
        bound = 4.0 / np.sqrt(n)
        for lag in range(-60, 61):
            if lag >= 0:
                c = np.dot(r1[: n - lag], r2[lag:]) / ((n - lag) * scheme.tau)
            else:
                c = np.dot(r1[-lag:], r2[: n + lag]) / ((n + lag) * scheme.tau)
            assert abs(c) < bound, f"lag {lag}: correlation {c}"

    def test_single_scale_peak_covariance(self):
        level, corr, steps = 2, 0.6, -3
        model, scheme = ll.load_model(
            {"J": 10, "n": 2500, "levels": [{"j": level, "R": corr, "theta_over_tau": steps}]}
        )
        emb = build_embedding(model, scheme)
        n = scheme.n
        prods = []
        for seed in range(4):  # pools 10^4 increments
            s = circulant_embed_sample(emb, seed)
            if steps >= 0:
                prods.append(s.returns1[: n - steps] * s.returns2[steps:])
            else:
                prods.append(s.returns1[-steps:] * s.returns2[: n + steps])
        prods = np.concatenate(prods)
        target = ll.increment_cross_cov(model, np.array([steps]), tau=scheme.tau)[0]
        se = prods.std(ddof=1) / np.sqrt(len(prods))
        assert abs(prods.mean() - target) < 4 * se

    def test_marginal_variance_and_whiteness(self):
        model, scheme = ll.load_model(benchmark_spec(n=4096))
        emb = build_embedding(model, scheme)
        returns = np.empty((2, 20, 4096))
        for seed in range(20):
            s = circulant_embed_sample(emb, seed)
            returns[0, seed], returns[1, seed] = s.returns1, s.returns2
        for nu in (0, 1):
            assert returns[nu].var() == pytest.approx(scheme.tau, rel=0.02)
        total = returns[0].size
        for lag in range(1, 11):
            ac = np.mean(returns[0, :, :-lag] * returns[0, :, lag:]) / scheme.tau
            assert abs(ac) < 4.0 / np.sqrt(total)


class TestSynthesis:
    """The draw's linear map M from normals to the two paths, probed with
    unit vectors: M M^T is the covariance of a draw."""

    @pytest.mark.parametrize("n, size", [(7, 15), (8, 16), (50, 100)])
    def test_covariance_is_exact(self, n, size):
        model, scheme = ll.load_model(benchmark_spec(n=n))
        emb = build_embedding(model, scheme)
        assert emb.size == size
        shape = (2, size)
        probes = np.eye(np.prod(shape)).reshape(-1, *shape)
        m = np.stack([_synthesize(emb, e).ravel() for e in probes], axis=1)
        cov = m @ m.T
        # Cov(x1[a], x2[b]) = c12(b - a); c12 is not even on this model
        lags = np.arange(n)[None, :] - np.arange(n)[:, None]
        c12 = ll.increment_cross_cov(model, lags, tau=scheme.tau)
        assert not np.allclose(c12, c12.T)
        eye = scheme.tau * np.eye(n)
        target = np.block([[eye, c12], [c12.T, eye]])
        assert np.abs(cov - target).max() <= 1e-12 * scheme.tau

    def test_sample_is_one_draw_of_two_rows_of_normals(self):
        model, scheme = ll.load_model(benchmark_spec(n=512, pi1=0.3, pi2=0.6))
        emb = build_embedding(model, scheme)
        path_ss, _, _ = _seed_streams(11)
        rng = np.random.Generator(np.random.Philox(path_ss))
        normals = rng.standard_normal((2, emb.size))
        expected = _synthesize(emb, normals)
        sample = circulant_embed_sample(build_embedding(model, scheme), 11)
        assert np.array_equal(sample.returns1, expected[0])
        assert np.array_equal(sample.returns2, expected[1])
        # series 2 is the scaled white noise itself, bit for bit
        white = np.sqrt(scheme.tau) * normals[1, : scheme.n]
        assert sample.returns2.tobytes() == white.tobytes()
        assert sample.returns1.flags.c_contiguous and sample.returns2.flags.c_contiguous


class TestMissingness:
    @staticmethod
    def masks(n, pi1, pi2, seed):
        model, scheme = ll.load_model(benchmark_spec(n=n, pi1=pi1, pi2=pi2))
        sample = circulant_embed_sample(build_embedding(model, scheme), seed)
        return sample.mask1, sample.mask2

    def test_zero_probability_all_observed(self):
        m1, m2 = self.masks(100, 0.0, 0.0, seed=0)
        assert not m1.any() and not m2.any()
        assert len(m1) == 101

    def test_origin_always_observed(self):
        model, scheme = ll.load_model(benchmark_spec(n=50, pi1=0.9, pi2=0.9))
        emb = build_embedding(model, scheme)
        for seed in range(10):
            sample = circulant_embed_sample(emb, seed)
            assert not sample.mask1[0] and not sample.mask2[0]

    def test_half_probability_concentrates(self):
        m1, m2 = self.masks(15000, 0.5, 0.5, seed=3)
        assert m1[1:].mean() == pytest.approx(0.5, abs=0.02)
        assert m2[1:].mean() == pytest.approx(0.5, abs=0.02)

    def test_streams_uncorrelated(self):
        m1, m2 = self.masks(15000, 0.5, 0.5, seed=4)
        corr = np.corrcoef(m1[1:], m2[1:])[0, 1]
        assert abs(corr) < 0.03

    def test_negative_seed_is_data_error(self):
        model, scheme = ll.load_model(benchmark_spec(n=256, pi1=0.4, pi2=0.2))
        with pytest.raises(DataError, match="seed must be >= 0, got -1"):
            circulant_embed_sample(build_embedding(model, scheme), -1)
