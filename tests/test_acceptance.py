"""Acceptance suite: one test per promised behavior, at stated tolerances.

Each test prints one PASS line with its measured numbers; a failing
criterion prints the measurement inside the assertion message instead.
"""

import math
import os
import time

import numpy as np
import pytest

import leadlag as ll
from leadlag.cli import _cascade_taps
from leadlag.estimator import (
    LagGrid,
    cross_cov_curve,
    estimate_levels,
    hry_lag,
    modwt,
)
from leadlag.filters import (
    FAMILIES,
    base_filter,
    cascade,
    empirical_gain,
    level_gain,
    scaling_gain,
    wavelet_gain,
)
from leadlag.montecarlo import MCConfig, run_mc
from scipy import integrate

from conftest import benchmark_spec
from oracles import discretization_kernel, limit_constant

THREADS = min(8, os.cpu_count() or 1)


def report(name, detail):
    print(f"ACCEPTANCE[{name}]: PASS ({detail})")


@pytest.fixture(scope="module")
def summaries():
    """Benchmark experiment at desk scale: 200 replications, both
    missingness scenarios, medians of the per-level lag estimates."""
    start = time.perf_counter()
    out = {}
    for pi in (0.0, 0.5):
        model, scheme = ll.load_model(benchmark_spec(n=15000, pi1=pi, pi2=pi))
        config = MCConfig(
            model=model,
            scheme=scheme,
            families=("haar", "la8", "la20"),
            j_max=8,
            l_max=60,
            replications=200,
            master_seed=1,
            threads=THREADS,
        )
        out[pi] = run_mc(config)
    out["elapsed"] = time.perf_counter() - start
    return out


class TestTable2Reproduction:

    @pytest.mark.parametrize("pi", [0.0, 0.5])
    def test_la20_medians(self, summaries, pi):
        med = summaries[pi].medians["la20"]
        assert med[:6] == (-1, -1, -2, -2, -3, -5), f"pi={pi}: la20 medians {med}"
        assert abs(med[6] - (-6)) <= 2, f"pi={pi}: la20 j=7 median {med[6]}"
        assert abs(med[7] - (-9)) <= 2, f"pi={pi}: la20 j=8 median {med[7]}"
        report(f"table2-la20-pi{pi}", f"medians={med}")

    @pytest.mark.parametrize("pi", [0.0, 0.5])
    def test_la8_medians(self, summaries, pi):
        med = summaries[pi].medians["la8"]
        assert med[:5] == (-1, -1, -2, -2, -3), f"pi={pi}: la8 medians {med}"
        assert abs(med[5] - (-4)) <= 1, f"pi={pi}: la8 j=6 median {med[5]}"
        report(f"table2-la8-pi{pi}", f"medians={med}")

    @pytest.mark.parametrize("pi", [0.0, 0.5])
    def test_haar_medians(self, summaries, pi):
        med = summaries[pi].medians["haar"]
        assert med[0] == -1 and med[1] == -1, f"pi={pi}: haar medians {med}"
        for j in (5, 6, 7, 8):
            assert abs(med[j - 1]) <= 3, f"pi={pi}: haar j={j} median {med[j - 1]}"
        report(f"table2-haar-pi{pi}", f"medians={med}")

    @pytest.mark.parametrize("pi", [0.0, 0.5])
    def test_hry_row(self, summaries, pi):
        med, mad = summaries[pi].medians["hry"], summaries[pi].mads["hry"]
        assert med == (-1,) * 8, f"pi={pi}: hry medians {med}"
        assert mad == (0,) * 8, f"pi={pi}: hry MADs {mad}"
        report(f"table2-hry-pi{pi}", f"median={med[0]} mad={mad[0]}")

    def test_no_failures_and_runtime(self, summaries):
        for pi in (0.0, 0.5):
            assert summaries[pi].failures == 0
            assert summaries[pi].valid
        assert summaries["elapsed"] < 900.0, f"elapsed {summaries['elapsed']:.1f}s"
        report("table2-runtime", f"{summaries['elapsed']:.1f}s on {THREADS} workers")


class TestFilterGainOracle:
    def test_gain_identities(self):
        start = time.perf_counter()
        lams = np.linspace(0.0, math.pi, 1024)
        worst_gain = 0.0
        for family in FAMILIES:
            base = base_filter(family)
            for level in range(1, 7):
                filt = cascade(base, level)
                err = np.max(
                    np.abs(
                        empirical_gain(_cascade_taps(filt), len(lams))
                        - level_gain(level, base.length, lams)
                    )
                )
                worst_gain = max(worst_gain, err)
                assert err < 1e-10, f"{family} level {level}: gain error {err:.3e}"
            for level in range(1, 9):
                filt = cascade(base, level)
                assert filt.length == (2**level - 1) * (base.length - 1) + 1
                energy_err = abs(np.sum(_cascade_taps(filt) ** 2) - 1.0)
                assert energy_err < 1e-12, f"{family} level {level}: {energy_err:.3e}"
            split = wavelet_gain(base.length, lams) + scaling_gain(base.length, lams)
            assert np.max(np.abs(split - 2.0)) < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"gain oracle took {elapsed:.2f}s"
        report("filter-gain-oracle", f"worst gain error {worst_gain:.2e}, {elapsed:.2f}s")


class TestSimulatorFidelity:
    def test_pooled_moments_and_determinism(self, benchmark_model):
        model, _ = benchmark_model
        scheme = ll.ObservationScheme(tau=model.tau, n=4096)
        embedding = ll.build_embedding(model, scheme)
        paths = 100
        r1 = np.empty((paths, scheme.n))
        r2 = np.empty((paths, scheme.n))
        for seed in range(paths):
            s = ll.circulant_embed_sample(embedding, seed)
            r1[seed], r2[seed] = s.returns1, s.returns2

        var_err = max(abs(r1.var() / scheme.tau - 1.0), abs(r2.var() / scheme.tau - 1.0))
        assert var_err < 0.02, f"variance off by {var_err:.4f}"

        worst_z = 0.0
        targets = ll.increment_cross_cov(model, np.arange(-20, 21), tau=scheme.tau)
        for lag, target in zip(range(-20, 21), targets):
            if lag >= 0:
                prods = (r1[:, : scheme.n - lag] * r2[:, lag:]).ravel()
            else:
                prods = (r1[:, -lag:] * r2[:, : scheme.n + lag]).ravel()
            se = prods.std(ddof=1) / math.sqrt(len(prods))
            z = abs(prods.mean() - target) / se
            worst_z = max(worst_z, z)
            assert z < 4.0, f"lag {lag}: {z:.2f} standard errors from target"

        # a second build of the same model and scheme draws the same path
        a = ll.circulant_embed_sample(embedding, 12345)
        b = ll.circulant_embed_sample(ll.build_embedding(model, scheme), 12345)
        assert a.returns1.tobytes() == b.returns1.tobytes()
        assert a.returns2.tobytes() == b.returns2.tobytes()
        assert a.mask1.tobytes() == b.mask1.tobytes()
        report(
            "simulator-fidelity",
            f"variance error {var_err:.4f}, worst cross-cov z {worst_z:.2f}",
        )


class TestTheoryOracleConvergence:
    def test_estimator_approaches_limit_constant(self):
        # Single correlated band at level 3, no missingness, 2^17 increments.
        level, corr, steps, seed = 3, 0.7, -2, 777
        spec = {
            "J": 13,
            "n": 2**17,
            "pi1": 0.0,
            "pi2": 0.0,
            "levels": [{"j": level, "R": corr, "theta_over_tau": steps}],
        }
        model, scheme = ll.load_model(spec)
        sample = ll.circulant_embed_sample(ll.build_embedding(model, scheme), seed=seed)
        ret1, ret2 = ll.returns_from_sample(sample, scheme)
        curve, _ = estimate_levels(ret1, ret2, "la20", level, LagGrid.symmetric(10))[level - 1]
        measured = float(curve.rho[list(curve.lags).index(steps)])

        # Large-sample value at the true lag: corr/(2 pi) times the integral
        # over +-band of (squared filter gain) * (per-step cross spectrum / tau).
        # The integrand is even, so integrate the positive half twice.
        lo, hi = math.pi / 2**level, math.pi / 2 ** (level - 1)

        def band_value(gain, weight):
            half, _ = integrate.quad(lambda lam: gain(lam) * weight(lam), lo, hi)
            return corr * half / math.pi

        # With the ideal gain 2^j on the band and the weight 2 pi D this is
        # limit_constant itself.
        limit = limit_constant(level, 0.0, 0.0, 0.0, corr, 1.0)
        ideal = band_value(
            lambda lam: 2.0**level,
            lambda lam: 2.0 * math.pi * discretization_kernel(lam),
        )
        assert abs(ideal - limit) <= 1e-6 * abs(limit), f"{ideal!r} vs {limit!r}"

        # The target makes two substitutions in it:
        # - the la20 level gain replaces the ideal gain, since a length-20
        #   filter keeps only 82.9% of its level-3 gain mass inside the band;
        # - weight 1 replaces 2 pi D, since increment_cross_cov draws a
        #   per-step cross spectrum that is flat (tau * corr) on the band.
        length = base_filter("la20").length
        target = band_value(lambda lam: level_gain(level, length, lam), lambda lam: 1.0)
        rel_err = abs(measured - target) / abs(target)
        detail = (
            f"estimate {measured:.5f}, la20 finite-filter target {target:.5f}, "
            f"limit_constant {limit:.5f}, seed {seed}"
        )
        assert rel_err <= 0.05, f"{rel_err:.1%} from the target: {detail}"
        report("theory-oracle", f"{rel_err:.1%} from the target: {detail}")

    def test_discretization_kernel_unit_mass(self):
        total = 0.0
        for k in range(200):  # out to 400 pi, tail decays like 1/x^2
            val, _ = integrate.quad(
                discretization_kernel, 2 * math.pi * k, 2 * math.pi * (k + 1)
            )
            total += val
        err = abs(2 * total - 1.0)
        assert err < 1e-3, f"kernel mass off by {err:.2e}"
        report("kernel-unit-mass", f"|mass - 1| = {err:.2e}")


class TestChiOracleEquivalence:
    def test_thousand_random_mask_cases(self):
        rng = np.random.default_rng(99)
        worst = 0.0
        for case in range(1000):
            n = int(rng.integers(1, 65))
            miss = np.zeros(n + 1, dtype=bool)
            miss[1:] = rng.random(n) < rng.uniform(0.1, 0.9)
            inc = rng.standard_normal(n)
            scheme = ll.ObservationScheme(tau=1.0, n=n)
            sample = ll.PathSample(
                returns1=inc,
                returns2=np.zeros(n),
                mask1=miss,
                mask2=np.zeros(n + 1, dtype=bool),
            )
            got, _ = ll.returns_from_sample(sample, scheme)

            delta = miss.astype(int)
            oracle = np.zeros(n)
            for k in range(n):
                if delta[k + 1]:
                    continue
                total = 0.0
                for alpha in range(k + 1):
                    keep = 1
                    for l in range(1, alpha + 1):
                        keep *= delta[k + 1 - l]
                        if not keep:
                            break
                    if keep:
                        total += inc[k - alpha]
                oracle[k] = total
            worst = max(worst, float(np.max(np.abs(got.returns - oracle))))
            assert worst < 1e-12, f"case {case}: deviation {worst:.2e}"
        report("chi-oracle", f"1000 cases, worst deviation {worst:.2e}")


def lagged_sum(a, b, lag):
    """sum_k a[k] * b[k + lag] over the overlapping positions, by double loop."""
    return sum(a[k] * b[k + lag] for k in range(len(a)) if 0 <= k + lag < len(b))


def aligned_returns(returns, tau):
    n = len(returns)
    return ll.AlignedReturns(tau=tau, n=n, returns=returns, observed=np.ones(n + 1, dtype=bool))


class TestBruteForceEstimatorEquivalence:
    def test_two_hundred_random_cases(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        cases = 0
        while cases < 200:
            n = int(rng.integers(16, 65))
            lag = int(rng.integers(-8, 9))
            family = ("haar", "la8")[int(rng.integers(0, 2))]
            level = int(rng.integers(1, 3)) if family == "haar" else 1
            filt = cascade(base_filter(family), level)
            if filt.length + abs(lag) >= n:
                continue
            tau = float(rng.uniform(0.1, 2.0))
            x1, x2 = rng.standard_normal((2, n))
            w1, w2 = modwt(x1, filt), modwt(x2, filt)
            curve = cross_cov_curve(w1, w2, LagGrid.symmetric(abs(lag)), tau)
            got = curve.rho[abs(lag) + lag]

            first = filt.length - 1
            if lag >= 0:
                count = n - lag - filt.length + 1
                total = sum(
                    w1.values[k - first] * w2.values[k + lag - first]
                    for k in range(first, n - lag)
                )
            else:
                count = n + lag - filt.length + 1
                total = sum(
                    w1.values[k - lag - first] * w2.values[k - first]
                    for k in range(first, n + lag)
                )
            want = total / (tau * count)
            dev = abs(got - want)
            worst = max(worst, dev)
            assert dev < 1e-12, f"case {cases}: deviation {dev:.2e}"

            # the whole curve, on the case's grid and on the widest one
            m = len(w1.values)
            for grid in (LagGrid.symmetric(abs(lag)), LagGrid.symmetric(7)):
                curve = cross_cov_curve(w1, w2, grid, tau)
                for l, rho in zip(grid.lags, curve.rho):
                    want = lagged_sum(w1.values, w2.values, l) / (tau * (m - abs(l)))
                    dev = abs(rho - want)
                    worst = max(worst, dev)
                    assert dev < 1e-12, f"case {cases}, lag {l}: deviation {dev:.2e}"

            # the single-scale baseline's peak on the raw returns
            grid = LagGrid.symmetric(abs(lag))
            est = hry_lag(aligned_returns(x1, tau), aligned_returns(x2, tau), grid)
            want = max(abs(lagged_sum(x1, x2, l)) for l in grid.lags)
            dev = abs(est.peak_value - want)
            worst = max(worst, dev)
            assert dev < 1e-12, f"case {cases}, hry: deviation {dev:.2e}"
            cases += 1
        report("brute-force-estimator", f"200 cases, worst deviation {worst:.2e}")
