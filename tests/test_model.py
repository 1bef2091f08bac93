import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import leadlag as ll
from leadlag.errors import DataError
from leadlag.estimator import _next_fast_len
from leadlag.model import (
    check_lags_in_grid,
    increment_cross_cov,
)
from conftest import BENCHMARK_LEVELS, CONFIGS, benchmark_spec
from oracles import (
    cross_spectral_density,
    discretization_kernel,
    interpolation_kernel,
    limit_constant,
    lp_scaling,
    lp_wavelet,
    sigma_weight,
)

# frozen before the build from an independent 40-digit quadrature of the
# band integral: 2 * int over +-(pi/2, pi] of (2/pi) sin^2(x/2)/x^2 dx
LIMIT_CONSTANT_J1_B0 = 0.61265089002312911


class TestBandKernels:
    def test_lp_scaling_values(self):
        assert lp_scaling(0.0) == pytest.approx(1.0, abs=1e-15)
        assert lp_scaling(1.0) == pytest.approx(0.0, abs=1e-15)
        assert lp_scaling(0.5) == pytest.approx(2.0 / math.pi, abs=1e-12)

    def test_lp_wavelet_values(self):
        assert lp_wavelet(0.0) == pytest.approx(1.0, abs=1e-15)
        assert lp_wavelet(1.0) == pytest.approx(0.0, abs=1e-15)
        assert lp_wavelet(0.5) == pytest.approx(-2.0 / math.pi, abs=1e-12)

    def test_lp_wavelet_is_difference_of_kernels(self):
        s = np.linspace(-3, 3, 301)
        assert np.allclose(lp_wavelet(s), 2 * lp_scaling(2 * s) - lp_scaling(s), atol=1e-14)


class TestSpectralDensity:
    def test_zero_frequency_outside_all_bands(self, benchmark_model):
        model, _ = benchmark_model
        assert cross_spectral_density(model, 0.0) == 0

    def test_in_band_value_without_lag(self):
        model = ll.SpectralModel(
            finest_level=3, components=(ll.ScaleComponent(level=2, corr=0.7, lag_steps=0.0),)
        )
        # level 2 of J=3 occupies (2^2 pi, 2^3 pi]
        lam = 5.0 * math.pi
        assert cross_spectral_density(model, lam) == pytest.approx(0.7)
        assert cross_spectral_density(model, 2.0**3 * math.pi) == pytest.approx(0.7)
        assert cross_spectral_density(model, 2.0**2 * math.pi) == 0  # open inner edge

    def test_hermitian_symmetry(self, benchmark_model):
        model, _ = benchmark_model
        rng = np.random.default_rng(3)
        lam = rng.uniform(0.0, 2.0**14 * math.pi, size=100)
        f = cross_spectral_density(model, lam)
        assert np.max(np.abs(np.conj(f) - cross_spectral_density(model, -lam))) < 1e-12

    def test_modulus_bounded_by_one(self, benchmark_model):
        model, _ = benchmark_model
        rng = np.random.default_rng(4)
        lam = rng.uniform(-(2.0**14) * math.pi, 2.0**14 * math.pi, size=2000)
        assert np.max(np.abs(cross_spectral_density(model, lam))) <= 1.0 + 1e-12

    def test_admissibility_enforced(self):
        with pytest.raises(DataError, match="admissibility"):
            ll.SpectralModel(
                finest_level=3, components=(ll.ScaleComponent(level=1, corr=1.2, lag_steps=0.0),)
            )

    def test_duplicate_level_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            ll.SpectralModel(
                finest_level=3,
                components=(
                    ll.ScaleComponent(level=1, corr=0.2, lag_steps=0.0),
                    ll.ScaleComponent(level=1, corr=0.3, lag_steps=0.0),
                ),
            )


class TestIncrementCrossCov:
    def test_single_scale_peak_value(self):
        # at the peak the band kernel is 1, leaving 2^m tau^2 R with
        # m = J - j + 1 the band index
        J, j, r, steps = 9, 2, 0.45, -3
        model, _ = ll.load_model(
            {"J": J, "levels": [{"j": j, "R": r, "theta_over_tau": steps}]}
        )
        tau = model.tau
        expected = 2.0 ** (J - j + 1) * tau**2 * r
        got = increment_cross_cov(model, np.array([steps]), tau=model.tau)
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_underflowing_default_tau_is_data_error(self):
        # 2^-(J+1) is 0.0 from J = 1074 on; an explicit tau still works
        model = ll.SpectralModel(1100, (ll.ScaleComponent(level=1, corr=0.5, lag_steps=-1.0),))
        with pytest.raises(DataError, match=r"^J=1100 makes the default grid spacing .* give tau$"):
            increment_cross_cov(model, np.array([0.0, 1.0]), tau=model.tau)
        shallow = ll.SpectralModel(3, model.components)
        assert np.array_equal(
            increment_cross_cov(model, np.array([0.0, 1.0]), tau=0.5),
            increment_cross_cov(shallow, np.array([0.0, 1.0]), tau=0.5),
        )
        assert ll.SpectralModel(1073, model.components).tau == 2.0**-1074

    def test_all_zero_correlations(self):
        model, _ = ll.load_model({"J": 5, "levels": [{"j": 1, "R": 0.0}]})
        lags = np.arange(-50, 51)
        assert np.all(increment_cross_cov(model, lags, tau=model.tau) == 0.0)

    def test_benchmark_value_against_direct_summation(self, benchmark_model):
        # independent transcription: loop over the 14 bands of the J=13 grid
        # with plain math calls
        model, _ = benchmark_model
        tau = 2.0**-14
        by_level = {e["j"]: e for e in BENCHMARK_LEVELS}
        got = increment_cross_cov(model, np.array([0, -2, 5]), tau=model.tau)
        for lag, value in zip((0, -2, 5), got):
            total = 0.0
            for m in range(0, 14):
                level = 13 - m + 1
                entry = by_level.get(level)
                if entry is None:
                    continue
                x = 2.0**m * tau * (lag - entry["theta_over_tau"])
                if x == 0.0:
                    psi = 1.0
                else:
                    psi = (math.sin(2 * math.pi * x) / (math.pi * x)) - (
                        math.sin(math.pi * x) / (math.pi * x)
                    )
                total += 2.0**m * tau**2 * entry["R"] * psi
            assert value == pytest.approx(total, rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(-0.9, 0.9),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=-30, max_value=30),
    )
    @settings(max_examples=60)
    def test_lag_reflection_symmetry(self, level, corr, steps, lag):
        spec = {"J": 6, "levels": [{"j": level, "R": corr, "theta_over_tau": steps}]}
        flipped = {"J": 6, "levels": [{"j": level, "R": corr, "theta_over_tau": -steps}]}
        m1, _ = ll.load_model(spec)
        m2, _ = ll.load_model(flipped)
        assert increment_cross_cov(m1, np.array([lag]), tau=m1.tau)[0] == pytest.approx(
            increment_cross_cov(m2, np.array([-lag]), tau=m2.tau)[0], rel=1e-12, abs=1e-18
        )

    @pytest.mark.parametrize(
        "spec",
        [
            benchmark_spec(),
            # fractional lags, and integer ones at levels 3 and 6
            benchmark_spec() | {
                "levels": [
                    e | {"theta_over_tau": e["theta_over_tau"] + 0.25 * (e["j"] % 3)}
                    for e in BENCHMARK_LEVELS
                ]
            },
            benchmark_spec(n=131072),  # the day scale of simulate and model-check
        ],
        ids=["benchmark", "fractional", "day"],
    )
    def test_circulant_table_is_the_band_kernel_sum_bit_for_bit(self, spec):
        # the in-place table against sum_beta beta R psi(beta (l - theta)) tau,
        # summed as numpy expressions over the circulant's lags
        model, scheme = ll.load_model(spec)
        size = _next_fast_len(2 * scheme.n)
        k = np.arange(size)
        lags = np.where(k <= size // 2, k, k - size)
        assert any(c.lag_steps in lags for c in model.components)  # psi's zero argument
        want = np.zeros(size)
        for c in model.components:
            beta = math.ldexp(1.0, -c.level)
            want += beta * c.corr * lp_wavelet(beta * (lags - c.lag_steps))
        want *= scheme.tau
        got = increment_cross_cov(model, lags, tau=scheme.tau)
        assert got.tobytes() == want.tobytes()

    def test_physical_rescaling_is_linear(self):
        spec = {"J": 4, "levels": [{"j": 1, "R": 0.5, "theta_over_tau": -1}]}
        model, _ = ll.load_model(spec)
        lags = np.arange(-5, 6)
        base = increment_cross_cov(model, lags, tau=model.tau)
        scaled = increment_cross_cov(model, lags, tau=1.0)
        assert np.allclose(scaled, base / model.tau, rtol=1e-12)


class TestDiscretizationKernel:
    def test_continuity_at_zero(self):
        assert discretization_kernel(0.0) == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)
        assert discretization_kernel(1e-9) == pytest.approx(1.0 / (2 * math.pi), rel=1e-6)

    def test_zero_at_two_pi(self):
        assert discretization_kernel(2 * math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_unit_mass_by_quadrature(self):
        # piecewise over periods out to 400 pi; the tail decays like 1/x^2
        total = 0.0
        for k in range(200):
            val, _ = integrate.quad(
                discretization_kernel, 2 * math.pi * k, 2 * math.pi * (k + 1)
            )
            total += val
        assert abs(2 * total - 1.0) < 1e-3


class TestInterpolationKernel:
    def test_no_missingness_is_identity(self):
        lam = np.linspace(-math.pi, math.pi, 64)
        assert np.allclose(interpolation_kernel(lam, 0.0, 0.0), 1.0, atol=1e-15)

    def test_unity_at_zero_frequency(self):
        for p1, p2 in ((0.3, 0.6), (0.9, 0.1), (0.5, 0.5)):
            assert interpolation_kernel(0.0, p1, p2) == pytest.approx(1.0, abs=1e-14)

    def test_positive_real_part_with_grid_offset(self):
        # the phase-shifted kernel keeps a positive real part on (0, pi)
        # for offsets up to half a grid step, which makes the limit
        # constant nonzero there
        lams = np.linspace(1e-3, math.pi - 1e-3, 100)
        for b in np.linspace(-0.5, 0.5, 11):
            vals = interpolation_kernel(lams, 0.4, 0.7) * np.exp(1j * b * lams)
            assert np.all(vals.real > 0.0)


class TestSigmaWeight:
    def test_constant_unit_volatility(self):
        one = lambda s: 1.0
        for theta in (-0.7, 0.0, 0.4):
            assert sigma_weight(theta, one, one, horizon=1.0) == pytest.approx(1.0, rel=1e-10)

    def test_empty_window(self):
        one = lambda s: 1.0
        assert sigma_weight(0.5, one, one, horizon=1.0, t=0.3) == 0.0

    def test_linear_volatility(self):
        T = 2.0
        val = sigma_weight(0.0, lambda s: s, lambda s: 1.0, horizon=T)
        assert val == pytest.approx(T / 2.0, rel=1e-10)


class TestLimitConstant:
    def test_zero_correlation(self):
        assert limit_constant(3, 0.0, 0.2, 0.4, 0.0, 1.0) == 0.0

    def test_frozen_regression_value(self):
        assert limit_constant(1, 0.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(
            LIMIT_CONSTANT_J1_B0, abs=1e-9
        )

    @pytest.mark.parametrize("level", [1, 2, 4])
    @pytest.mark.parametrize("b", [-0.5, -0.25, 0.0, 0.25, 0.5])
    @pytest.mark.parametrize("pis", [(0.0, 0.0), (0.5, 0.5), (0.2, 0.7)])
    def test_nonzero_inside_theory_range(self, level, b, pis):
        val = limit_constant(level, b, pis[0], pis[1], 0.7, 1.0)
        assert val != 0.0

    def test_sign_follows_correlation(self):
        for corr in (0.3, -0.3):
            val = limit_constant(2, 0.0, 0.0, 0.0, corr, 1.0)
            assert math.copysign(1.0, val) == math.copysign(1.0, corr)

    def test_out_of_range_offset_warns(self):
        with pytest.warns(UserWarning, match="outside"):
            limit_constant(1, 0.75, 0.0, 0.0, 0.5, 1.0)

    def test_quadrature_agrees_with_direct_integrand(self):
        # cross-check against a plain fixed-grid integration
        level, b, p1, p2 = 2, 0.25, 0.3, 0.5
        lam = np.linspace(math.pi / 4, math.pi / 2, 200001)
        integrand = (
            discretization_kernel(lam)
            * interpolation_kernel(lam, p1, p2)
            * np.exp(1j * b * lam)
        )
        both_halves = 2.0 * np.trapezoid(integrand.real, lam)
        expected = 2.0**level * 0.8 * both_halves
        assert limit_constant(level, b, p1, p2, 0.8, 1.0) == pytest.approx(expected, rel=1e-6)


class TestLagGridCheck:
    def test_lags_inside_and_outside(self):
        model, _ = ll.load_model(benchmark_spec())
        check_lags_in_grid(model, 60)
        with pytest.raises(DataError, match="outside the search grid"):
            check_lags_in_grid(model, 1)

    @pytest.mark.parametrize("spec", [benchmark_spec(), {"J": 13, "n": 1200}], ids=["lagged", "no-bands"])
    def test_negative_half_width_rejected(self, spec):
        model, _ = ll.load_model(spec)
        with pytest.raises(DataError, match="grid half-width must be >= 0, got -1"):
            check_lags_in_grid(model, -1)


class TestModelLoading:
    def test_roundtrip_of_benchmark_spec(self):
        model, scheme = ll.load_model(benchmark_spec())
        assert model.finest_level == 13
        assert scheme.tau == 2.0**-14
        assert scheme.n == 15000
        bands = {c.level: c for c in model.components}
        assert bands[3].corr == 0.7
        assert bands[8].lag_steps == -10
        assert 9 not in bands

    def test_theta_seconds_converted(self):
        model, _ = ll.load_model(
            {"J": 3, "tau": 0.5, "levels": [{"j": 1, "R": 0.1, "theta_seconds": -1.5}]}
        )
        assert model.components[0].lag_steps == pytest.approx(-3.0)

    def test_path_object_is_read(self):
        path = CONFIGS / "benchmark_model.json"
        assert ll.load_model(path) == ll.load_model(str(path))

    @pytest.mark.parametrize(
        "spec, needle",
        [
            ({"J": 3, "pi_1": 0.5, "levels": []}, "unknown model key 'pi_1'; known: schema_version, J"),
            (
                {"J": 3, "levels": [{"j": 3, "R": 0.7, "theta": -2}]},
                "unknown model key 'theta' in levels[0]; known: j, R, theta_over_tau, theta_seconds",
            ),
        ],
        ids=["top-level", "level-entry"],
    )
    def test_unknown_key_rejected(self, spec, needle):
        with pytest.raises(DataError) as exc:
            ll.load_model(spec)
        assert needle in str(exc.value)

    def test_missing_J_rejected(self):
        with pytest.raises(DataError, match="'J'"):
            ll.load_model({"levels": []})

    def test_bad_level_entry_rejected(self):
        with pytest.raises(DataError, match="level entry"):
            ll.load_model({"J": 3, "levels": [{"R": 0.5}]})

    def test_level_out_of_range_rejected(self):
        with pytest.raises(DataError, match="outside"):
            ll.load_model({"J": 3, "levels": [{"j": 9, "R": 0.5}]})

    def test_bad_missing_probability_rejected(self):
        with pytest.raises(DataError, match="pi1"):
            ll.load_model({"J": 3, "pi1": 1.0, "levels": []})

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ll.ObservationScheme(tau=1.0, n=0), "need at least one increment, got n=0"),
            (lambda: ll.SpectralModel(finest_level=0, components=()), "finest level must be >= 1, got 0"),
        ],
        ids=["scheme-n", "model-finest-level"],
    )
    def test_direct_construction_below_one_rejected(self, build, message):
        with pytest.raises(DataError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_scheme_spacing_rejected(self, tau):
        with pytest.raises(DataError, match="tau"):
            ll.ObservationScheme(tau=tau, n=64)
