import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trendfilter.core import KinkSet, extract_kinks
from trendfilter import simulate
from trendfilter.design import second_diff
from trendfilter.simulate import (
    ExperimentConfig,
    NoiseSpec,
    PiecewiseLinearSpec,
    add_noise,
    detection_consistent,
    example1,
    example2,
    gen_trend,
    hausdorff,
    near_kink_small_count,
    relative_error,
    run_experiment,
    run_replication,
    sign_consistency,
)


class TestGenTrend:
    def test_single_segment(self):
        spec = PiecewiseLinearSpec(n=5, r=(), b=(2.0,))
        assert np.allclose(gen_trend(spec), [0.4, 0.8, 1.2, 1.6, 2.0])

    def test_example1_kinks(self):
        spec = example1(n=500)
        mu0 = gen_trend(spec)
        ks = extract_kinks(mu0)
        assert ks.indices == (151, 351)
        assert ks.sign_vector() == [1, 1]
        assert spec.kink_times() == (151, 351)

    def test_example2_kinks(self):
        spec = example2(n=1000)
        mu0 = gen_trend(spec)
        ks = extract_kinks(mu0)
        assert ks.indices == (201, 401, 601, 801)
        assert ks.sign_vector() == [1, -1, 1, -1]

    def test_continuity_exact(self):
        spec = example2(n=200)
        mu0 = gen_trend(spec)
        kt = spec.kink_times()
        scale = spec.n
        # left segment's line evaluated at the kink equals the stored value
        a = [spec.a1]
        for j in range(1, len(spec.b)):
            a.append(a[j - 1] + (spec.b[j - 1] - spec.b[j]) * (kt[j - 1] / scale))
        for j, t in enumerate(kt):
            left = a[j] + spec.b[j] * (t / scale)
            assert abs(mu0[t - 1] - left) <= 1e-12 * (1 + abs(left))

    def test_second_diff_zero_off_kinks(self):
        spec = example1(n=100)
        mu0 = gen_trend(spec)
        b = second_diff(mu0)
        kt = spec.kink_times()
        for t in range(2, 100):  # 1-based kink times; beta index t-2
            v = b[t - 2]
            if t in kt:
                assert abs(v) > 1e-6
                assert np.sign(v) == spec.kink_signs()[kt.index(t)]
            else:
                assert abs(v) <= 1e-12

    def test_min_slope_change(self):
        spec = example1(n=500)
        # slope increments are 30 and 30 on normalized time
        assert spec.min_slope_change() == pytest.approx(30.0 / 500.0)

    def test_raw_time_scale_is_scaled_copy(self):
        norm = gen_trend(example1(n=100))
        raw = gen_trend(example1(n=100, time_scale="raw"))
        assert np.allclose(raw, 100.0 * norm, rtol=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            PiecewiseLinearSpec(n=10, r=(0.5, 0.4), b=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            PiecewiseLinearSpec(n=10, r=(0.5,), b=(1.0,))
        with pytest.raises(ValueError):
            PiecewiseLinearSpec(n=10, r=(1.2,), b=(1.0, 2.0))


class TestAddNoise:
    def test_noiseless_sentinel(self):
        mu0 = gen_trend(example1(n=50))
        y = add_noise(mu0, NoiseSpec(snr=math.inf, seed=3))
        assert np.array_equal(y.y, mu0)

    def test_deterministic_per_seed(self):
        mu0 = gen_trend(example1(n=50))
        a = add_noise(mu0, NoiseSpec(snr=100.0, seed=(7, 1)))
        b = add_noise(mu0, NoiseSpec(snr=100.0, seed=(7, 1)))
        c = add_noise(mu0, NoiseSpec(snr=100.0, seed=(7, 2)))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, c.y)

    def test_sample_sd_tracks_sigma(self):
        mu0 = gen_trend(example1(n=1000))
        noise = NoiseSpec(snr=25.0, seed=11)
        sigma = noise.sigma(mu0)
        y = add_noise(mu0, noise)
        sd = np.std(y.y - mu0, ddof=1)
        assert abs(sd - sigma) / sigma < 0.05

    def test_zero_trend_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(snr=10.0).sigma(np.zeros(20))

    @pytest.mark.parametrize("snr", [float("nan"), 0.0, -1.0, -math.inf])
    def test_bad_snr_rejected(self, snr):
        # NaN passed, and its noise made the series non-finite
        with pytest.raises(ValueError, match="snr must be positive"):
            NoiseSpec(snr=snr)

    def test_signed_mean_convention(self):
        mu0 = np.abs(gen_trend(example1(n=100))) + 1.0
        spec = NoiseSpec(snr=50.0, convention="signed_mean")
        assert spec.sigma(mu0) == pytest.approx(float(np.mean(mu0)) / 50.0)
        with pytest.raises(ValueError):
            NoiseSpec(snr=50.0, convention="signed_mean").sigma(-mu0)


class TestRelativeError:
    def test_exact_recovery(self):
        mu = np.array([1.0, 2.0, 3.0])
        assert relative_error(mu, mu) == 0.0

    def test_direct_value(self):
        assert relative_error([1.0, 1.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_scaling_identity(self, rng):
        mu0 = rng.normal(size=20) + 5
        assert relative_error(2 * mu0, mu0) == pytest.approx(0.25)

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros(5), np.ones(5))

    def test_permutation_invariance(self, rng):
        mu_hat = rng.normal(size=15)
        mu0 = rng.normal(size=15)
        perm = rng.permutation(15)
        assert relative_error(mu_hat[perm], mu0[perm]) == pytest.approx(
            relative_error(mu_hat, mu0))


class TestHausdorff:
    def test_identical_sets(self):
        assert hausdorff({10, 20}, {10, 20}) == (0.0, 0.0, 0.0)

    def test_singletons(self):
        assert hausdorff({1}, {5}) == (4.0, 4.0, 4.0)

    def test_asymmetric_case(self):
        # brute-force over all pairs: E(A||B)=4, E(B||A)=5
        e_ab, e_ba, hd = hausdorff({1, 10}, {5})
        assert e_ab == 4.0 and e_ba == 5.0 and hd == 5.0

    def test_empty_conventions(self):
        assert hausdorff(set(), set()) == (0.0, 0.0, 0.0)
        assert hausdorff(set(), {3}, n=50) == (50.0, 50.0, 50.0)
        with pytest.raises(ValueError):
            hausdorff(set(), {3})

    @given(st.sets(st.integers(1, 100), min_size=1, max_size=8),
           st.sets(st.integers(1, 100), min_size=1, max_size=8))
    def test_symmetry_and_identity(self, a, b):
        _, _, hd_ab = hausdorff(a, b)
        _, _, hd_ba = hausdorff(b, a)
        assert hd_ab == hd_ba
        assert (hd_ab == 0.0) == (a == b)

    @given(st.sets(st.integers(1, 60), min_size=1, max_size=6),
           st.sets(st.integers(1, 60), min_size=1, max_size=6))
    def test_matches_brute_force(self, a, b):
        e_ab, e_ba, hd = hausdorff(a, b)
        brute_ab = max(min(abs(x - y) for x in a) for y in b)
        brute_ba = max(min(abs(x - y) for y in b) for x in a)
        assert e_ab == brute_ab and e_ba == brute_ba and hd == max(brute_ab, brute_ba)


def _ks(indices, signs):
    return KinkSet(indices=tuple(indices), signs=dict(zip(indices, signs)))


class TestSignConsistency:
    def test_identical(self):
        a = _ks([10, 20], [1, -1])
        assert sign_consistency(a, a)
        assert detection_consistent(a, a)

    def test_flipped_sign_fails_strict_only(self):
        a = _ks([10, 20], [1, -1])
        b = _ks([10, 20], [1, 1])
        assert detection_consistent(a, b)
        assert not sign_consistency(a, b)

    def test_spurious_kink_fails_both(self):
        a = _ks([10, 20, 30], [1, -1, 1])
        b = _ks([10, 20], [1, -1])
        assert not detection_consistent(a, b)
        assert not sign_consistency(a, b)


def _near_kink_small_loop(fit, true_kinks, window=5, small_frac=0.1, tol_kink=1e-8):
    """The statistic one time at a time, as first written."""
    beta = fit.beta_tail
    mu = fit.mu_hat
    n = len(beta) + 2
    scale = max(1.0, float(np.max(np.abs(mu))))
    bmax = float(np.max(np.abs(beta))) if len(beta) else 0.0
    if bmax == 0.0:
        return 0
    count = 0
    for i in range(2, n):
        v = abs(beta[i - 2])
        if v <= tol_kink * scale or v > small_frac * bmax:
            continue
        if any(abs(i - t0) <= window for t0 in true_kinks.indices):
            count += 1
    return count


class TestNearKinkStat:
    def test_matches_the_loop(self, rng):
        from trendfilter.core import TrendFit
        n = 80
        tent = np.abs(np.arange(1, n + 1) - 40.0)
        smeared = tent.copy()
        smeared[37:43] += np.array([0.01, 0.03, 0.05, 0.05, 0.03, 0.01])
        fits = [tent, smeared, np.zeros(n), 2.0 + 0.5 * np.arange(n)]
        fits += [np.cumsum(np.where(rng.random(n) < 0.3, rng.normal(size=n), 0.0))
                 for _ in range(20)]
        truths = [_ks([], []), _ks([40], [1]), _ks([10, 40, 70], [1, -1, 1]),
                  _ks([3, 78], [-1, 1])]
        for mu in fits:
            fit = TrendFit.from_mu(np.zeros(n), mu, 1.0)
            for truth in truths:
                for window, small_frac, tol_kink in ((5, 0.1, 1e-8), (0, 0.5, 1e-4),
                                                     (12, 1.0, 0.0)):
                    kw = dict(window=window, small_frac=small_frac, tol_kink=tol_kink)
                    assert (near_kink_small_count(fit, truth, **kw)
                            == _near_kink_small_loop(fit, truth, **kw))

    def test_halo_counted_crisp_spike_not(self):
        from trendfilter.core import TrendFit
        n = 60
        truth = _ks([30], [1])
        y = np.zeros(n)
        # crisp fit: one large slope change at the kink
        mu = np.abs(np.arange(1, n + 1) - 30.0)
        crisp = TrendFit.from_mu(y, mu, 1.0)
        assert near_kink_small_count(crisp, truth) == 0
        # smeared fit: same shape plus small slope changes next to the kink
        mu2 = mu.copy()
        mu2[28:32] += np.array([0.01, 0.02, 0.02, 0.01])
        smeared = TrendFit.from_mu(y, mu2, 1.0)
        assert near_kink_small_count(smeared, truth) > 0


class TestRunExperiment:
    def _tiny_config(self, **kw):
        defaults = dict(
            example="example1",
            spec=example1(n=60),
            snr=math.inf,
            replications=2,
            criterion="mc",
            solver="pathwise",
            grid_size=12,
            grid_min_rel=1e-4,
            base_seed=7,
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_deterministic_rows(self):
        cfg = self._tiny_config(snr=400.0)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.rows == r2.rows
        assert r1.aggregate == r2.aggregate

    def test_noiseless_tiny_benchmark(self):
        cfg = self._tiny_config(replications=1)
        res = run_experiment(cfg)
        row = res.rows[0]
        assert row.re <= 1e-6
        assert 1 <= row.j_count <= 6
        assert row.e_ab <= 0.02 and row.e_ba <= 0.02
        assert res.aggregate["re_sd"] == 0.0  # single replication

    def test_replication_seeding_differs(self):
        cfg = self._tiny_config(snr=100.0, replications=3)
        res = run_experiment(cfg)
        lams = {round(m.re, 14) for m in res.rows}
        assert len(lams) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            self._tiny_config(replications=0)
        with pytest.raises(ValueError):
            self._tiny_config(solver="magic")
        with pytest.raises(ValueError):
            self._tiny_config(criterion="aic")

    @pytest.mark.parametrize("tol_kink", [float("nan"), float("inf"), -1.0])
    def test_bad_tol_kink_rejected(self, tol_kink):
        # NaN counted no kinks, and -1 failed later with a message about signs
        with pytest.raises(ValueError, match="tol_kink"):
            self._tiny_config(tol_kink=tol_kink)

    @pytest.mark.parametrize("snr", [float("nan"), 0.0, -1.0])
    def test_bad_snr_rejected_by_the_config(self, snr):
        # 0 was rejected only inside the first replication
        with pytest.raises(ValueError, match="snr must be positive"):
            self._tiny_config(snr=snr)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_bad_workers_rejected(self, monkeypatch, workers):
        # both ran the replications serially
        def no_replication(*args):
            raise AssertionError("ran a replication")

        monkeypatch.setattr(simulate, "run_replication", no_replication)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(self._tiny_config(), workers=workers)

    def test_replication_run_matches_batch(self):
        cfg = self._tiny_config(snr=200.0, replications=2)
        res = run_experiment(cfg)
        assert run_replication(cfg, 1) == res.rows[1]
