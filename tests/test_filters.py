import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from leadlag.filters import (
    FAMILIES,
    base_filter,
    cascade,
    cascade_length,
    empirical_gain,
    level_gain,
    scaling_gain,
    wavelet_from_scaling,
    wavelet_gain,
)

SQRT2_INV = 0.7071067811865475


def scaling_from_wavelet(wavelet) -> np.ndarray:
    """Quadrature mirror: g_p = (-1)^(p+1) h_(L-p-1)."""
    h = np.asarray(wavelet, dtype=float)
    if h.ndim != 1 or len(h) % 2 != 0:
        raise ValueError(f"wavelet filter length must be even, got {h.shape}")
    L = len(h)
    p = np.arange(L)
    return (-1.0) ** (p + 1) * h[L - p - 1]


class TestBaseFilters:
    def test_haar_wavelet_exact(self):
        b = base_filter("haar")
        assert b.wavelet == pytest.approx((SQRT2_INV, -SQRT2_INV), abs=1e-15)

    def test_haar_scaling_exact(self):
        b = base_filter("haar")
        assert b.scaling == pytest.approx((SQRT2_INV, SQRT2_INV), abs=1e-15)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown filter family"):
            base_filter("db4")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_invariants(self, family):
        b = base_filter(family)
        assert abs(np.sum(b.wavelet**2) - 1.0) < 1e-12
        assert abs(np.sum(b.wavelet)) < 1e-12
        assert abs(np.sum(b.scaling) - math.sqrt(2)) < 1e-12
        # quadrature mirror relation, coefficient by coefficient
        L = b.length
        for p in range(L):
            assert b.scaling[p] == pytest.approx(
                (-1.0) ** (p + 1) * b.wavelet[L - p - 1], abs=1e-15
            )

    @pytest.mark.parametrize("family,length", [("haar", 2), ("la8", 8), ("la20", 20)])
    def test_base_gain_matches_closed_form(self, family, length):
        b = base_filter(family)
        lams = np.linspace(0.0, math.pi, 1024)
        assert np.max(np.abs(empirical_gain(b.wavelet, lams) - wavelet_gain(length, lams))) < 1e-10
        assert np.max(np.abs(empirical_gain(b.scaling, lams) - scaling_gain(length, lams))) < 1e-10


class TestQuadratureMirror:
    def test_two_tap_formula(self):
        assert scaling_from_wavelet([1.0, 2.0]) == pytest.approx([-2.0, 1.0])

    def test_haar(self):
        g = scaling_from_wavelet(base_filter("haar").wavelet)
        assert g == pytest.approx([SQRT2_INV, SQRT2_INV])

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="even"):
            scaling_from_wavelet([1.0, 0.0, -1.0])

    def test_la8_scaling_gain(self):
        g = scaling_from_wavelet(base_filter("la8").wavelet)
        lams = np.linspace(0.0, math.pi, 512)
        assert np.max(np.abs(empirical_gain(g, lams) - scaling_gain(8, lams))) < 1e-10

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=24).filter(lambda v: len(v) % 2 == 0))
    def test_roundtrip(self, coeffs):
        h = np.asarray(coeffs)
        assert np.allclose(wavelet_from_scaling(scaling_from_wavelet(h)), h, atol=1e-12)


class TestCascade:
    def test_level_one_is_base(self):
        b = base_filter("haar")
        f = cascade(b, 1)
        assert np.array_equal(f.coefficients, b.wavelet)

    def test_haar_level_two(self):
        f = cascade(base_filter("haar"), 2)
        assert f.coefficients == pytest.approx([0.5, 0.5, -0.5, -0.5], abs=1e-15)
        assert abs(np.sum(f.coefficients**2) - 1.0) < 1e-14

    def test_la8_level_three_length(self):
        f = cascade(base_filter("la8"), 3)
        assert f.length == 50

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            cascade(base_filter("haar"), 0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_length_and_energy_through_level_eight(self, family):
        b = base_filter(family)
        for j in range(1, 9):
            f = cascade(b, j)
            assert f.length == (2**j - 1) * (b.length - 1) + 1
            assert f.length == cascade_length(b.length, j)
            assert abs(np.sum(f.coefficients**2) - 1.0) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gain_oracle(self, family):
        # the embedded coefficient tables stand or fall with this check
        b = base_filter(family)
        lams = np.linspace(0.0, math.pi, 1024)
        for j in range(1, 7):
            f = cascade(b, j)
            err = np.abs(empirical_gain(f.coefficients, lams) - level_gain(j, b.length, lams))
            assert err.max() < 1e-10, f"{family} level {j}: {err.max():.3e}"


class TestGainFunctions:
    def test_haar_at_pi(self):
        assert wavelet_gain(2, math.pi) == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("length", [2, 8, 20])
    def test_zero_frequency(self, length):
        assert wavelet_gain(length, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_scaling_examples(self):
        assert scaling_gain(2, 0.0) == pytest.approx(2.0, abs=1e-14)
        for length in (2, 8, 20):
            assert scaling_gain(length, math.pi) == pytest.approx(0.0, abs=1e-14)
        assert scaling_gain(20, 1.0) == pytest.approx(2.0 - wavelet_gain(20, 1.0), abs=1e-12)

    @pytest.mark.parametrize("length", [2, 8, 20])
    def test_high_low_split_identity(self, length):
        lams = np.linspace(-math.pi, math.pi, 1001)
        total = wavelet_gain(length, lams) + scaling_gain(length, lams)
        assert np.max(np.abs(total - 2.0)) < 1e-12

    def test_level_gain_reduces_to_base(self):
        lams = np.linspace(0.0, math.pi, 257)
        assert np.allclose(level_gain(1, 8, lams), wavelet_gain(8, lams), atol=1e-14)

    @pytest.mark.parametrize("level", [1, 2, 3, 5])
    def test_level_gain_vanishes_at_zero(self, level):
        assert level_gain(level, 8, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_level_two_haar_product(self):
        lams = np.linspace(0.0, math.pi, 101)
        expected = wavelet_gain(2, 2 * lams) * scaling_gain(2, lams)
        assert np.allclose(level_gain(2, 2, lams), expected, atol=1e-14)

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError, match="even"):
            wavelet_gain(7, 0.5)


class TestBandPassApproximation:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_la20_concentrates_on_band(self, level):
        pass_mid = 1.5 * math.pi / 2**level
        stop_mid = math.pi / 2 ** (level + 2)
        assert level_gain(level, 20, pass_mid) / 2**level > 0.9
        assert level_gain(level, 20, stop_mid) / 2**level < 0.1
