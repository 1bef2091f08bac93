import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import leadlag as ll
from leadlag.errors import DataError, NumericError
from leadlag.estimator import (
    LagGrid,
    _dilated_valid,
    _lagged_sums,
    cross_cov_curve,
    estimate_lag,
    estimate_levels,
    hry_lag,
    max_feasible_level,
    modwt,
)
from leadlag.filters import FAMILIES, base_filter, cascade
from leadlag.ingest import AlignedReturns
from leadlag.simulate import _next_fast_len

from conftest import convolved_cascade_taps


def estimate_all_levels(ret1, ret2, families, j_max, grid):
    """estimate_levels for several filter families at once."""
    return {
        family: estimate_levels(ret1, ret2, family, j_max, grid)
        for family in families
    }


def cross_cov(w1, w2, lag, tau):
    """The lagged coefficient covariance at one lag: cross_cov_curve on the
    grid +-|lag|, read at lag."""
    curve = cross_cov_curve(w1, w2, LagGrid.symmetric(abs(lag)), tau)
    return float(curve.rho[abs(lag) + lag])


def eq17_cross_cov(w1, w2, lag, tau, n, filter_length):
    """Double-loop transcription of the lagged coefficient covariance.

    Written against the index contract directly: coefficients live at
    k = L_j - 1 .. n - 1, positive lags shift the second series, negative
    lags shift the first, each normalized by its own pair count.
    """
    Lj = filter_length
    first = Lj - 1
    if lag >= 0:
        count = n - lag - Lj + 1
        total = 0.0
        for k in range(first, n - lag):
            total += w1[k - first] * w2[k + lag - first]
    else:
        count = n + lag - Lj + 1
        total = 0.0
        for k in range(first, n + lag):
            total += w1[k - lag - first] * w2[k - first]
    return total / (tau * count)


def single_call_step(x, taps, step):
    """One pyramid step as one einsum over every output: the valid
    convolution with the taps spaced ``step`` apart, unblocked."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (len(taps) - 1) * step + 1)[:, ::step]
    return np.einsum("kp,p->k", windows, taps[::-1], order="F")


def aligned(values, tau=1.0):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return AlignedReturns(tau=tau, n=n, returns=values, observed=np.ones(n + 1, bool))


class TestModwt:
    def test_zero_input(self):
        f = cascade(base_filter("la8"), 2)
        w = modwt(np.zeros(100), f)
        assert np.all(w.values == 0.0)
        assert len(w.values) == 100 - f.length + 1

    def test_haar_two_points(self):
        f = cascade(base_filter("haar"), 1)
        w = modwt(np.array([3.0, 5.0]), f)
        assert len(w.values) == 1
        assert w.values[0] == pytest.approx((5.0 - 3.0) / math.sqrt(2))

    def test_impulse_reads_out_coefficients(self):
        for family in FAMILIES:
            for level in range(1, 9):
                f = cascade(base_filter(family), level)
                L = f.length
                x = np.zeros(2 * L - 1)
                x[L - 1] = 1.0
                w = modwt(x, f)
                assert np.allclose(w.values, convolved_cascade_taps(f), atol=1e-15)

    def test_too_short_series(self):
        f = cascade(base_filter("la20"), 3)
        with pytest.raises(DataError, match="shorter than filter"):
            modwt(np.zeros(f.length - 1), f)

    def test_pyramid_equals_direct_cascade_convolution(self):
        # the pyramid against one direct convolution with the whole cascade
        rng = np.random.default_rng(2)
        x = rng.standard_normal(40000)
        for family in FAMILIES:
            for level in range(1, 9):
                f = cascade(base_filter(family), level)
                pyramid = modwt(x, f)
                direct = np.convolve(x, convolved_cascade_taps(f), mode="valid")
                assert len(pyramid.values) == len(direct)
                assert np.max(np.abs(pyramid.values - direct)) < 1e-12

    def test_chained_levels_equal_from_scratch(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(6000)
        for family in FAMILIES:
            base = base_filter(family)
            chained = x
            for level in range(1, 9):
                f = cascade(base, level)
                chained = modwt(chained, f)
                scratch = modwt(aligned(x).returns, f)
                assert np.array_equal(chained.values, scratch.values)
                assert (chained.level, chained.filter_length, chained.n) == (
                    level, f.length, 6000,
                )

    def test_continuation_needs_same_family_previous_level(self):
        x = np.random.default_rng(22).standard_normal(500)
        la8, la20 = base_filter("la8"), base_filter("la20")
        w2 = modwt(x, cascade(la8, 2))
        with pytest.raises(DataError, match="need la20 level 2"):
            modwt(w2, cascade(la20, 3))
        with pytest.raises(DataError, match="need la8 level 3"):
            modwt(w2, cascade(la8, 4))
        with pytest.raises(DataError, match="need la8 level 1"):
            modwt(w2, cascade(la8, 2))
        bare = ll.WaveletCoeffs(level=2, filter_length=22, n=500, values=w2.values)
        with pytest.raises(DataError, match="cannot continue"):
            modwt(bare, cascade(la8, 3))

    def test_continuation_too_short_rejected(self):
        w = modwt(np.zeros(21), cascade(base_filter("la8"), 1))  # level 2 needs 22
        with pytest.raises(DataError, match="shorter than filter"):
            modwt(w, cascade(base_filter("la8"), 2))

    def test_caller_array_is_not_shared(self):
        x = np.random.default_rng(23).standard_normal(200)
        base = base_filter("la8")
        w1 = modwt(x, cascade(base, 1))
        want = modwt(x.copy(), cascade(base, 2)).values
        x[:] = 0.0
        assert np.array_equal(modwt(w1, cascade(base, 2)).values, want)

    def test_read_only_view_of_a_writable_array_is_not_shared(self):
        x = np.random.default_rng(26).standard_normal(200)
        view = x[:]
        view.setflags(write=False)
        base = base_filter("la8")
        w1 = modwt(view, cascade(base, 1))
        want = modwt(x.copy(), cascade(base, 2)).values
        x[:] = 0.0
        assert np.array_equal(modwt(w1, cascade(base, 2)).values, want)

    def test_two_dimensional_series_rejected(self):
        with pytest.raises(DataError, match="one-dimensional"):
            modwt(np.zeros((40, 2)), cascade(base_filter("haar"), 2))

    def test_accepts_aligned_returns(self):
        f = cascade(base_filter("haar"), 1)
        w = modwt(aligned([1.0, 2.0, 4.0]).returns, f)
        assert len(w.values) == 2

    @given(
        family=st.sampled_from(FAMILIES),
        n=st.one_of(
            st.sampled_from((15000, 65536, 65555, 70001, 2**17)), st.integers(2**16 - 64, 2**17)
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(family="haar", n=15000, seed=1)
    @example(family="la8", n=15000, seed=2)
    @example(family="la20", n=15000, seed=3)
    @settings(max_examples=12, deadline=None)
    def test_blocked_steps_equal_single_call_steps(self, family, n, seed):
        # every step above 1 runs in blocks, at mc scale (n = 15000) as at day
        # scale; each coefficient must keep the bits of the one-call step
        x = np.random.default_rng(seed).standard_normal(n)
        base = base_filter(family)
        smooth, chained = x, x
        for level in range(1, 9):
            step = 2 ** (level - 1)
            chained = modwt(chained, cascade(base, level))
            assert chained.values.tobytes() == single_call_step(smooth, base.wavelet, step).tobytes()
            smooth = single_call_step(smooth, base.scaling, step)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("step", [2, 3, 1023, 1024, 1025, 2048, 4096])
    def test_wide_blocked_steps_equal_single_call_steps(self, family, step):
        # steps up to and above the block size, at fewer outputs than one
        # block (1, 1023), whole blocks only (1024, 2^16), and whole blocks
        # and a partial one (1025, 15000, 2^16 - 1, 2^16 + 1, 2^17 + 5)
        base = base_filter(family)
        rng = np.random.default_rng(step)
        for outputs in (1, 1023, 1024, 1025, 15000, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 5):
            x = rng.standard_normal(outputs + (base.length - 1) * step)
            for taps in (base.scaling, base.wavelet):
                want = single_call_step(x, taps, step)
                assert _dilated_valid(x, taps, step).tobytes() == want.tobytes()

    def test_read_only_strided_input_equals_contiguous_copy(self):
        x = np.random.default_rng(24).standard_normal(3000)
        x.setflags(write=False)
        strided = x[::2]
        assert not strided.flags.c_contiguous and not strided.flags.writeable
        for family in FAMILIES:
            f = cascade(base_filter(family), 3)
            want = modwt(strided.copy(), f)
            got = modwt(strided, f)
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.smooth, want.smooth)


class TestCrossCov:
    def test_zero_inputs(self):
        f = cascade(base_filter("haar"), 1)
        w = modwt(np.zeros(10), f)
        assert cross_cov(w, w, 3, tau=1.0) == 0.0

    def test_lag_zero_same_series_nonnegative(self):
        rng = np.random.default_rng(1)
        f = cascade(base_filter("la8"), 1)
        w = modwt(rng.standard_normal(64), f)
        value = cross_cov(w, w, 0, tau=0.5)
        assert value >= 0.0
        assert value == pytest.approx(np.mean(w.values**2) / 0.5)

    def test_hand_built_case_matches_double_loop(self):
        x1 = np.array([0.3, -1.2, 0.7, 0.1, -0.4, 0.9, -0.8, 0.2])
        x2 = np.array([1.0, 0.4, -0.6, 0.8, -0.2, -1.1, 0.5, 0.3])
        f = cascade(base_filter("haar"), 1)
        w1, w2 = modwt(x1, f), modwt(x2, f)
        got = cross_cov(w1, w2, 1, tau=1.0)
        want = eq17_cross_cov(w1.values, w2.values, 1, 1.0, 8, f.length)
        assert got == pytest.approx(want, abs=1e-14)

    def test_empty_range_rejected(self):
        f = cascade(base_filter("haar"), 1)
        w = modwt(np.ones(4), f)
        with pytest.raises(DataError, match="empty summation range"):
            cross_cov(w, w, 3, tau=1.0)

    def test_level_mismatch_rejected(self):
        b = base_filter("haar")
        w1 = modwt(np.ones(10), cascade(b, 1))
        w2 = modwt(np.ones(10), cascade(b, 2))
        with pytest.raises(DataError, match="level mismatch"):
            cross_cov(w1, w2, 0, tau=1.0)

    @pytest.mark.parametrize("n2, family2", [(12, "haar"), (10, "la8")], ids=["length", "filter"])
    def test_different_shapes_rejected(self, n2, family2):
        w1 = modwt(np.ones(10), cascade(base_filter("haar"), 1))
        w2 = modwt(np.ones(n2), cascade(base_filter(family2), 1))
        with pytest.raises(DataError, match="^coefficient series have different shapes$"):
            cross_cov_curve(w1, w2, LagGrid.symmetric(0), 1.0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_brute_force_equivalence(self, data):
        n = data.draw(st.integers(min_value=12, max_value=64))
        lag = data.draw(st.integers(min_value=-8, max_value=8))
        level = data.draw(st.integers(min_value=1, max_value=2))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        f = cascade(base_filter("haar"), level)
        if n - f.length - abs(lag) < 0:
            return
        x1, x2 = rng.standard_normal((2, n))
        w1, w2 = modwt(x1, f), modwt(x2, f)
        got = cross_cov(w1, w2, lag, tau=0.25)
        want = eq17_cross_cov(w1.values, w2.values, lag, 0.25, n, f.length)
        assert got == pytest.approx(want, abs=1e-12)


class TestCrossCovCurve:
    def test_read_only_strided_coefficients_equal_contiguous_copy(self):
        x = np.random.default_rng(25).standard_normal((2, 4000))
        x.setflags(write=False)
        w1, w2 = (
            ll.WaveletCoeffs(level=1, filter_length=2, n=2001, values=row[::2])
            for row in x
        )
        assert not w1.values.flags.c_contiguous and not w1.values.flags.writeable
        c1, c2 = (
            ll.WaveletCoeffs(level=1, filter_length=2, n=2001, values=w.values.copy())
            for w in (w1, w2)
        )
        grid = LagGrid.symmetric(60)
        got = cross_cov_curve(w1, w2, grid, 0.5)
        want = cross_cov_curve(c1, c2, grid, 0.5)
        assert np.array_equal(got.rho, want.rho)
        # einsum sums a strided array's energy in another order, so the
        # normaliser, rho / rho_normalized at lag 0, agrees to rounding
        assert got.rho[60] / got.rho_normalized[60] == pytest.approx(
            want.rho[60] / want.rho_normalized[60], rel=1e-14
        )
        assert np.allclose(got.rho_normalized, want.rho_normalized, rtol=1e-14, atol=0.0)

    def test_identical_inputs_normalize_to_one_at_zero(self):
        rng = np.random.default_rng(3)
        f = cascade(base_filter("la8"), 1)
        w = modwt(rng.standard_normal(256), f)
        curve = cross_cov_curve(w, w, LagGrid.symmetric(5), tau=1.0)
        center = list(curve.lags).index(0)
        assert curve.rho_normalized[center] == pytest.approx(1.0, abs=1e-14)
        # a positive normaliser keeps the sign of every lag's value
        assert np.array_equal(np.sign(curve.rho_normalized), np.sign(curve.rho))

    def test_white_noise_normalized_curve_is_small(self):
        rng = np.random.default_rng(4)
        f = cascade(base_filter("la20"), 1)
        w1 = modwt(rng.standard_normal(15000), f)
        w2 = modwt(rng.standard_normal(15000), f)
        curve = cross_cov_curve(w1, w2, LagGrid.symmetric(60), tau=1.0)
        assert np.max(np.abs(curve.rho_normalized)) < 0.1

    def test_argument_swap_mirrors_lags(self):
        rng = np.random.default_rng(5)
        f = cascade(base_filter("la8"), 2)
        w1 = modwt(rng.standard_normal(300), f)
        w2 = modwt(rng.standard_normal(300), f)
        grid = LagGrid.symmetric(7)
        a = cross_cov_curve(w1, w2, grid, tau=1.0)
        b = cross_cov_curve(w2, w1, grid, tau=1.0)
        assert np.allclose(a.rho, b.rho[::-1], atol=1e-13)

    def test_degenerate_divisor_recorded(self):
        f = cascade(base_filter("haar"), 1)
        w = modwt(np.zeros(16), f)
        curve = cross_cov_curve(w, w, LagGrid.symmetric(2), tau=1.0)
        assert np.all(curve.rho_normalized == 0.0)


class TestLagGrid:
    def test_symmetric_constructor(self):
        grid = LagGrid.symmetric(3)
        assert list(grid.lags) == [-3, -2, -1, 0, 1, 2, 3]
        assert grid.half_width == 3

    def test_compares_and_hashes_by_half_width(self):
        assert LagGrid.symmetric(3) == LagGrid(3)
        assert hash(LagGrid.symmetric(3)) == hash(LagGrid(3))
        assert LagGrid(3) != LagGrid(4)
        assert LagGrid(np.int64(3)) == LagGrid(3)

    def test_lags_are_read_only(self):
        with pytest.raises(ValueError):
            LagGrid(2).lags[0] = 0

    @pytest.mark.parametrize("half_width", [-1, 2.5, True], ids=repr)
    def test_bad_half_width_rejected(self, half_width):
        with pytest.raises(DataError, match=f"half-width .* got {half_width!r}$"):
            LagGrid(half_width)


class TestEstimateLag:
    def make_curve(self, lags, rho):
        lags = np.asarray(lags)
        rho = np.asarray(rho, dtype=float)
        return ll.CrossCovCurve(
            level=1, tau=0.5, lags=lags, rho=rho,
            rho_normalized=rho,
        )

    def test_unique_peak(self):
        lags = np.arange(-5, 6)
        rho = np.exp(-((lags + 3.0) ** 2))
        est = estimate_lag(self.make_curve(lags, rho))
        assert est.lag == -3
        assert est.theta_seconds == pytest.approx(-1.5)
        assert not est.tied and not est.degenerate
        assert est.runner_up_gap > 0.0

    @pytest.mark.parametrize(
        "lags, rho, gap",
        [([0], [-0.75], 0.75), ([-1, 0, 1], [0.25, -0.75, 0.125], 0.5)],
        ids=["one-lag", "three-lags"],
    )
    def test_runner_up_gap(self, lags, rho, gap):
        est = estimate_lag(self.make_curve(lags, rho))
        assert (est.lag, est.peak_value, est.runner_up_gap) == (0, 0.75, gap)

    def test_all_zero_curve_degenerate(self):
        est = estimate_lag(self.make_curve(np.arange(-2, 3), np.zeros(5)))
        assert est.lag == 0
        assert est.degenerate
        assert est.peak_value == 0.0

    def test_tie_prefers_smaller_magnitude(self):
        lags = np.arange(-3, 4)
        rho = np.array([0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0])  # lags -2 and +2
        est = estimate_lag(self.make_curve(lags, rho))
        assert est.lag == -2
        assert est.tied

    def test_tie_prefers_negative_of_two_magnitudes(self):
        lags = np.arange(-3, 4)
        rho = np.array([0.0, 0.0, 0.7, 0.0, 0.7, 0.0, 0.0])  # lags -1 and +1
        est = estimate_lag(self.make_curve(lags, rho))
        assert est.lag == -1

    def test_negative_peaks_count_by_magnitude(self):
        lags = np.arange(-2, 3)
        rho = np.array([0.1, -0.9, 0.2, 0.3, 0.1])
        est = estimate_lag(self.make_curve(lags, rho))
        assert est.lag == -1
        assert est.peak_value == pytest.approx(0.9)

    @given(st.floats(0.1, 1000.0), st.floats(0.1, 1000.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, a, b):
        rng = np.random.default_rng(11)
        f = cascade(base_filter("haar"), 1)
        x1, x2 = rng.standard_normal((2, 128))
        grid = LagGrid.symmetric(6)
        base = estimate_lag(cross_cov_curve(modwt(x1, f), modwt(x2, f), grid, 1.0))
        scaled = estimate_lag(
            cross_cov_curve(modwt(a * x1, f), modwt(b * x2, f), grid, 1.0)
        )
        assert scaled.lag == base.lag

    def test_swapping_series_negates_lag(self):
        rng = np.random.default_rng(12)
        f = cascade(base_filter("la8"), 1)
        x1 = rng.standard_normal(1024)
        x2 = np.roll(x1, 3) + 0.01 * rng.standard_normal(1024)  # x1 leads by 3
        grid = LagGrid.symmetric(8)
        fwd = estimate_lag(cross_cov_curve(modwt(x1, f), modwt(x2, f), grid, 1.0))
        rev = estimate_lag(cross_cov_curve(modwt(x2, f), modwt(x1, f), grid, 1.0))
        assert fwd.lag == 3
        assert rev.lag == -3


class TestHry:
    def test_shifted_series_recovered(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(2000)
        r1 = aligned(x)
        r2 = aligned(np.roll(x, 2))  # series 2 lags series 1 by 2 steps
        est = hry_lag(r1, r2, LagGrid.symmetric(10))
        assert est.lag == 2
        assert est.level == 0

    def test_zero_series_degenerate(self):
        r1 = aligned(np.ones(50))
        r2 = aligned(np.zeros(50))
        est = hry_lag(r1, r2, LagGrid.symmetric(4))
        assert est.degenerate
        assert est.lag == 0

    def test_non_finite_return_is_numeric_error(self):
        r = aligned([0.1, np.nan, -0.2, 0.3, 0.0, 0.4])
        with pytest.raises(NumericError, match="level 0"):
            hry_lag(r, r, LagGrid.symmetric(2))

    def test_lag_exceeding_data_rejected(self):
        r = aligned(np.ones(5))
        with pytest.raises(DataError, match="empty summation range"):
            hry_lag(r, r, LagGrid.symmetric(5))


@pytest.mark.parametrize(
    "estimate",
    [
        lambda r1, r2, grid: hry_lag(r1, r2, grid),
        lambda r1, r2, grid: estimate_levels(r1, r2, "haar", 1, grid),
    ],
    ids=["hry_lag", "estimate_levels"],
)
def test_unequal_grid_spacings_rejected(estimate):
    # a lag in steps of one series' grid means nothing on the other's
    x = np.random.default_rng(17).standard_normal(60)
    with pytest.raises(DataError, match="grid spacings differ: 1.0 vs 2.0"):
        estimate(aligned(x, tau=1.0), aligned(x, tau=2.0), LagGrid.symmetric(2))


class TestEstimateLevels:
    def test_single_level_equals_direct_run(self):
        rng = np.random.default_rng(14)
        r1 = aligned(rng.standard_normal(300))
        r2 = aligned(rng.standard_normal(300))
        grid = LagGrid.symmetric(5)
        results = estimate_levels(r1, r2, "haar", 1, grid)
        assert len(results) == 1
        f = cascade(base_filter("haar"), 1)
        direct = cross_cov_curve(modwt(r1.returns, f), modwt(r2.returns, f), grid, 1.0)
        assert np.array_equal(results[0][0].rho, direct.rho)

    def test_infeasible_level_names_maximum(self):
        r = aligned(np.ones(100))
        with pytest.raises(DataError, match="max feasible level"):
            estimate_levels(r, r, "la20", 8, LagGrid.symmetric(5))

    def test_max_feasible_level(self):
        assert max_feasible_level("haar", 2) == 1
        assert max_feasible_level("la20", 15000) == 9
        assert max_feasible_level("la8", 49) == 2  # level 3 needs 50 samples

    def test_non_finite_return_is_numeric_error(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal(300)
        x[150] = np.nan
        r1, r2 = aligned(x), aligned(rng.standard_normal(300))
        with pytest.raises(NumericError, match="level 1"):
            estimate_levels(r1, r2, "haar", 2, LagGrid.symmetric(5))

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        r1 = aligned(rng.standard_normal(600))
        r2 = aligned(rng.standard_normal(600))
        grid = LagGrid.symmetric(4)
        a = estimate_levels(r1, r2, "la8", 3, grid)
        b = estimate_levels(r1, r2, "la8", 3, grid)
        for (ca, ea), (cb, eb) in zip(a, b):
            assert np.array_equal(ca.rho, cb.rho)
            assert ea == eb

    def test_all_families_wrapper(self):
        rng = np.random.default_rng(16)
        r1 = aligned(rng.standard_normal(400))
        r2 = aligned(rng.standard_normal(400))
        out = estimate_all_levels(r1, r2, ("haar", "la8"), 2, LagGrid.symmetric(3))
        assert set(out) == {"haar", "la8"}
        assert [est.level for _, est in out["haar"]] == [1, 2]

    def test_mismatched_series_rejected(self):
        r1 = aligned(np.ones(60))
        r2 = aligned(np.ones(61))
        with pytest.raises(DataError, match="differ in length"):
            estimate_levels(r1, r2, "haar", 1, LagGrid.symmetric(2))

    def test_no_level_rejected(self):
        r = aligned(np.ones(60))
        with pytest.raises(DataError, match="^need at least one level, got j_max=0$"):
            estimate_levels(r, r, "haar", 0, LagGrid.symmetric(2))


class TestFullDepthRun:
    def test_eight_levels_on_wide_grid(self):
        # field-study shape: 8 levels, grid +-300, 15000 samples
        spec = {
            "J": 13,
            "n": 15000,
            "levels": [
                {"j": j, "R": r, "theta_over_tau": t}
                for j, r, t in [
                    (1, 0.3, -1), (2, 0.5, -1), (3, 0.7, -2), (4, 0.5, -2),
                    (5, 0.5, -3), (6, 0.5, -5), (7, 0.5, -7), (8, 0.5, -10),
                ]
            ],
        }
        model, scheme = ll.load_model(spec)
        sample = ll.circulant_embed_sample(ll.build_embedding(model, scheme), seed=6)
        r1, r2 = ll.returns_from_sample(sample, scheme)
        results = estimate_levels(r1, r2, "la20", 8, LagGrid.symmetric(300))
        assert [est.level for _, est in results] == list(range(1, 9))
        for curve, est in results:
            assert len(curve.rho) == 601
            assert est.lag in curve.lags
            assert abs(est.theta_seconds - est.lag * scheme.tau) < 1e-18
        # fine levels carry strong signal and recover their configured lags
        assert [est.lag for _, est in results[:4]] == [-1, -1, -2, -2]


class TestFiniteFilterExpectation:
    def test_single_scale_estimate_matches_finite_length_prediction(self):
        # With one correlated band, the estimator's expected value at the
        # true lag is corr * (1/2pi) * int over the band of the level gain;
        # at filter length 20 this sits well below the ideal band-pass
        # limit, and the measurement should match the finite-length value.
        level, corr, steps = 3, 0.7, -2
        spec = {"J": 13, "n": 2**17, "levels": [{"j": level, "R": corr, "theta_over_tau": steps}]}
        model, scheme = ll.load_model(spec)
        sample = ll.circulant_embed_sample(ll.build_embedding(model, scheme), seed=2024)
        r1, r2 = ll.returns_from_sample(sample, scheme)
        curve, _ = estimate_levels(r1, r2, "la20", level, LagGrid.symmetric(5))[level - 1]
        measured = curve.rho[list(curve.lags).index(steps)]
        lam = np.linspace(math.pi / 2**level, math.pi / 2 ** (level - 1), 4001)
        from leadlag.filters import level_gain

        predicted = corr * 2.0 * np.trapezoid(level_gain(level, 20, lam), lam) / (2 * math.pi)
        assert measured == pytest.approx(predicted, rel=0.03)


def direct_lagged_sums(x1, x2, lags):
    """sum_k x1[k] * x2[k + l] over the overlapping positions, lag by lag."""
    m = len(x1)
    out = []
    for lag in lags:
        lo, hi = max(0, -lag), min(m, m - lag)
        out.append(sum(float(a) * float(b) for a, b in zip(x1[lo:hi], x2[lo + lag : hi + lag])))
    return np.array(out)


def section_length(half_width):
    """Values per section of the kernel's multi-section path at this grid
    half-width: the transform length less the 2H values the lags reach."""
    return _next_fast_len(max(1024, 16 * half_width)) - 2 * half_width


def grouped_lagged_sums(x1, x2, half):
    """The sectioned kernel with its partial last section transformed as a
    group of its own: the order of sums that ``_lagged_sums`` must keep."""
    m = len(x1)
    size = _next_fast_len(min(m + 2 * half, max(1024, 16 * half)))
    block = size - 2 * half
    full, rest = divmod(m, block)
    sections = full + (rest > 0)
    padded = np.zeros(sections * block + 2 * half)
    padded[half : half + m] = x2
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(sections, size),
        strides=(block * padded.strides[0], padded.strides[0]),
        writeable=False,
    )
    heads = x1[: full * block].reshape(full, block)
    group = max(1, (1 << 16) // size)
    chunks = [(first, heads[first : first + group]) for first in range(0, full, group)]
    if rest:
        chunks.append((full, x1[full * block :][np.newaxis]))
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    for first, rows in chunks:
        cross = np.fft.rfft(rows, size)
        np.conjugate(cross, out=cross)
        cross *= np.fft.rfft(windows[first : first + len(rows)])
        spectrum += cross.sum(axis=0)
    return np.fft.irfft(spectrum, size)[: 2 * half + 1]


class TestLaggedSums:
    def check(self, m, lags, seed=0):
        # reads the given lags, dense or not, from the sums over -H..H
        x1, x2 = np.random.default_rng(seed).standard_normal((2, m))
        half = max(map(abs, lags))
        got = _lagged_sums(x1, x2, half)[np.asarray(lags) + half]
        want = direct_lagged_sums(x1, x2, lags)
        bound = 1e-12 * np.linalg.norm(x1) * np.linalg.norm(x2)
        assert np.max(np.abs(got - want)) <= bound

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_sums(self, data):
        m = data.draw(st.integers(1, 6000), label="m")
        half = data.draw(st.integers(0, min(m - 1, 300)), label="H")
        if data.draw(st.booleans(), label="dense"):
            lags = list(range(-half, half + 1))
        else:
            side = sorted({half} | data.draw(st.sets(st.integers(1, half), max_size=12))) if half else []
            middle = [0] if not side or data.draw(st.booleans(), label="zero") else []
            lags = [-l for l in reversed(side)] + middle + side
        self.check(m, lags, seed=data.draw(st.integers(0, 2**32 - 1)))

    @pytest.mark.parametrize(
        "m, half",
        [
            (500, 60),  # below one section
            (3 * section_length(60), 60),  # an exact multiple of the section length
            (2 * section_length(60) + 1, 60),  # kB + 1: a one-value last section
            (2 * section_length(300), 300),
            (section_length(300) + 1, 300),
            (5000, 0),
            (2 * section_length(0), 0),
            (1, 0),  # H = m - 1
            (2, 1),
            (61, 60),
            (301, 300),
        ],
    )
    def test_section_boundaries(self, m, half):
        self.check(m, list(range(-half, half + 1)))

    def test_sparse_grid_reads_its_own_lags(self):
        self.check(7000, [-300, -7, 0, 7, 300])

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_separate_partial_section_bit_for_bit(self, data):
        # long series reach several groups, so the partial section can join
        # a group that follows others
        m = data.draw(st.one_of(st.integers(1, 6000), st.integers(60000, 140000)), label="m")
        half = data.draw(st.integers(0, min(m - 1, 400)), label="H")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        x1, x2 = np.random.default_rng(seed).standard_normal((2, m))
        assert np.array_equal(_lagged_sums(x1, x2, half), grouped_lagged_sums(x1, x2, half))


class TestLagKernelShape:
    @pytest.mark.parametrize("half_width, limit", [(60, 1024), (300, 4800)])
    def test_transform_length_follows_grid(self, monkeypatch, half_width, limit):
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def record_rfft(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        def record_irfft(a, n=None, *args, **kwargs):
            lengths.append(2 * (np.shape(a)[-1] - 1) if n is None else n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", record_rfft)
        monkeypatch.setattr(np.fft, "irfft", record_irfft)
        f = cascade(base_filter("haar"), 1)
        rng = np.random.default_rng(8)
        w1, w2 = (modwt(x, f) for x in rng.standard_normal((2, 15001)))
        assert len(w1.values) == 15000
        cross_cov_curve(w1, w2, LagGrid.symmetric(half_width), 1.0)
        assert lengths and max(lengths) <= limit

    @pytest.mark.parametrize(
        "m, half_width, transforms",
        [(15000, 60, 2), (131072, 300, 6), (500, 60, 2), (3 * section_length(60), 60, 2)],
        ids=["mc-one-group", "day-three-groups", "one-section", "whole-sections"],
    )
    def test_one_transform_pair_per_group(self, monkeypatch, m, half_width, transforms):
        calls = []
        rfft = np.fft.rfft

        def count_rfft(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", count_rfft)
        x1, x2 = np.random.default_rng(10).standard_normal((2, m))
        _lagged_sums(x1, x2, half_width)
        assert len(calls) == transforms

    def test_peak_memory_at_day_scale(self):
        x1, x2 = np.random.default_rng(9).standard_normal((2, 131072))
        tracemalloc.start()
        try:
            _lagged_sums(x1, x2, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2e6
