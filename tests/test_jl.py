import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.spatial.distance import pdist

from mdrlab import jl, metric, verify
from mdrlab.errors import NoFeasibleK, ParameterDomain, ZeroDistancePair


class TestHaarSampling:
    def test_one_dimensional_signs(self):
        values = {float(jl.sample_haar_orthogonal(1, s)[0, 0]) for s in range(40)}
        assert values == {1.0, -1.0}
        plus = sum(jl.sample_haar_orthogonal(1, s)[0, 0] > 0 for s in range(400))
        assert abs(plus / 400 - 0.5) <= 3 * math.sqrt(0.25 / 400)

    @pytest.mark.parametrize("m", [2, 5, 16, 48])
    def test_orthogonality(self, m):
        o = jl.sample_haar_orthogonal(m, m)
        assert np.abs(o.T @ o - np.eye(m)).max() <= 1e-12
        assert abs(abs(np.linalg.det(o)) - 1.0) <= 1e-9
        for cols in (1, (m + 1) // 2):
            frame = jl.sample_haar_orthogonal(m, m, cols)
            assert frame.shape == (m, cols)
            assert np.abs(frame.T @ frame - np.eye(cols)).max() <= 1e-12

    def test_thin_frame_is_qr_of_leading_columns_of_one_draw(self):
        # 1500^2 normals exceed 2**20, so the draw spans several row blocks
        m, cols, seed = 1500, 30, 21
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m))[:, :cols])
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        assert np.array_equal(jl.sample_haar_orthogonal(m, seed, cols), q * signs)

    @pytest.mark.parametrize("m, cols", [(11, 8), (999, 100)])
    def test_thin_frame_leads_the_full_matrix(self, m, cols):
        full = jl.sample_haar_orthogonal(m, 3)
        assert np.abs(jl.sample_haar_orthogonal(m, 3, cols) - full[:, :cols]).max() <= 1e-14

    def test_thin_frame_leaves_the_generator_where_the_full_draw_does(self):
        thin, full = np.random.default_rng(8), np.random.default_rng(8)
        jl.sample_haar_orthogonal(700, thin, 5)
        jl.sample_haar_orthogonal(700, full)
        assert thin.standard_normal() == full.standard_normal()

    @pytest.mark.parametrize("cols", [0, 6])
    def test_cols_outside_one_to_m_rejected(self, cols):
        with pytest.raises(ParameterDomain):
            jl.sample_haar_orthogonal(5, 0, cols)

    def test_first_coordinate_beta_law(self):
        # squared first coordinate of a Haar column on O(4) is Beta(1/2, 3/2)
        rng = np.random.default_rng(77)
        xs = np.array([jl.sample_haar_orthogonal(4, rng)[0, 0] ** 2 for _ in range(50_000)])
        ks = stats.kstest(xs, stats.beta(0.5, 1.5).cdf)
        assert ks.statistic <= 1.63 / math.sqrt(len(xs))  # 1% critical value


class TestPsi:
    def test_zero_below_one(self):
        for sigma in (0.0, 0.3, 0.999, 1.0):
            assert jl.psi(12, 3, 2.0, sigma).value == 0.0

    def test_closed_form_n5_k2(self):
        # radial law at (5, 2) is uniform on [0, 1]
        for alpha in (1.5, 2.0, 4.0):
            for sigma in (1.1, 1.7, 2.4, 5.0):
                closed = min(1.0, alpha**2 / sigma**2) - 1.0 / sigma**2
                assert abs(jl.psi(5, 2, alpha, sigma).value - closed) <= 1e-10

    def test_shape(self):
        n, k, alpha = 12, 3, 1.5
        grid = np.linspace(1.0, alpha, 24)
        vals = [jl.psi(n, k, alpha, s).value for s in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        # decays like sigma^-k for large sigma
        assert jl.psi(n, k, alpha, 300.0).value <= 1e-6

    def test_failure_complements_psi(self):
        # the psi integral by quadrature is the independent route
        for n, k, alpha in [(12, 3, 1.5), (20, 5, 2.0), (9, 5, 2.0), (10, 7, 3.0)]:
            sigma = 1.0 + 0.7 * alpha
            p = verify._psi_quadrature(n, k, alpha, sigma)
            assert abs(p - (1.0 - jl.psi_failure(n, k, alpha, sigma))) <= 1e-10
            assert jl.psi(n, k, alpha, sigma).value == 1.0 - jl.psi_failure(n, k, alpha, sigma)

    def test_pinned_value_at_million_points(self):
        # 1 - (two Beta tails) at sigma_max, evaluated with 50-digit mpmath
        n, k, alpha = 10**6, 100, 2.0
        est = jl.psi(n, k, alpha, jl.sigma_max(n, k, alpha))
        assert abs(est.value - 0.99999863759734929) <= 1e-14
        assert est.method == "beta"

    def test_monte_carlo_agreement(self):
        n, k, alpha = 20, 5, 2.0
        sigma = jl.sigma_max(n, k, alpha)
        value = jl.psi(n, k, alpha, sigma).value
        mc = jl.psi_monte_carlo(n, k, alpha, sigma, 200_000, 4)
        assert abs(value - mc.value) <= 3 * mc.std_error

    def test_sampler_consistency(self):
        # explicit Haar matrices against the spherical shortcut
        n, k, alpha = 8, 2, 2.0
        sigma = jl.sigma_max(n, k, alpha)
        sphere = jl.psi_monte_carlo(n, k, alpha, sigma, 50_000, 9, sampler="sphere")
        haar = jl.psi_monte_carlo(n, k, alpha, sigma, 20_000, 10, sampler="haar")
        se = math.hypot(sphere.std_error, haar.std_error)
        assert abs(sphere.value - haar.value) <= 3 * se

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            jl.psi(12, 10, 2.0, 1.5)  # k > n - 3
        with pytest.raises(ParameterDomain):
            jl.psi(12, 0, 2.0, 1.5)
        with pytest.raises(ParameterDomain):
            jl.psi(12, 3, 1.0, 1.5)


class TestSigmaMax:
    def test_closed_form(self):
        assert jl.sigma_max(7, 2, 2.0) == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_grid_maximization(self):
        n, k, alpha = 14, 4, 2.0
        s_star = jl.sigma_max(n, k, alpha)
        best = jl.psi(n, k, alpha, s_star).value
        for s in np.linspace(0.5 * s_star, 2 * s_star, 200):
            assert jl.psi(n, k, alpha, s).value <= best + 1e-12

    def test_stationarity(self):
        n, k, alpha = 14, 4, 2.0
        s_star = jl.sigma_max(n, k, alpha)
        h = 1e-4
        deriv = (jl.psi(n, k, alpha, s_star + h).value - jl.psi(n, k, alpha, s_star - h).value) / (
            2 * h
        )
        assert abs(deriv) <= 1e-6

    def test_large_parameters_log_space(self):
        # would overflow in direct arithmetic; fine in logs
        s = jl.sigma_max(10**9, 329, 2.0)
        assert 1.0 < s < 1e4

    def test_overflow_signalled(self):
        # sigma_max ~ alpha sqrt(n / (2 k log alpha)); extreme alpha at k = 1
        # exceeds double range and must raise, not saturate
        with pytest.raises(OverflowError):
            jl.sigma_max(10**9, 1, 1e308)

    def test_domain_excludes_boundary(self):
        with pytest.raises(ParameterDomain):
            jl.sigma_max(5, 2, 2.0)  # k = n - 3


def _doubling_search(n, alpha):
    """The former jl_min_dim_projection: doubling probes, then bisection."""
    budget = jl.union_threshold(n)

    def feasible(k):
        return jl.psi_failure(n, k, alpha, jl.sigma_max(n, k, alpha)) < budget

    k_max = n - 4
    hi = 1
    while hi < k_max and not feasible(hi):
        hi *= 2
    if hi >= k_max:
        if not feasible(k_max):
            return n - 1
        hi = k_max
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _gaussian_linear_scan(ns, alpha, k_cap=10**6):
    """The former jl_min_dim_gaussian's linear scan of k, for ascending ns at once.

    The right side grows with n, so one scan resolves every n in order.
    None stands for the domain error past the cap.
    """
    a = float(alpha)
    la = math.log(a)
    denom = 2 * a**4 * la + 2 * a**2 - a**4 - 4 * a**2 * la**2 - 2 * la - 1
    assert denom > 0
    rhs = [
        math.log(2.0) + 2 * math.log(n) + 2 * math.log(a**2 - 1) + math.log(la) - math.log(denom)
        for n in ns
    ]
    log_ratio = math.log((a**2 - 1) / la) + 2 * la / (a**2 - 1)
    gammaln = jl._special().gammaln
    found = []
    for k in range(1, k_cap + 1):
        log_lhs = gammaln(k / 2) - (k / 2 - 1) * math.log(k) + (k / 2) * log_ratio
        while len(found) < len(ns) and log_lhs >= rhs[len(found)]:
            found.append(k)
        if len(found) == len(ns):
            break
    return found + [None] * (len(ns) - len(found))


def _certified(n, k, alpha):
    return jl.psi_failure(n, k, alpha, jl.sigma_max(n, k, alpha)) < jl.union_threshold(n)


class TestMinDims:
    def test_projection_at_most_gaussian_small_grid(self):
        for n in (100, 1000):
            for alpha in (1.5, 2.0, 4.0):
                assert jl.jl_min_dim_projection(n, alpha) <= jl.jl_min_dim_gaussian(n, alpha)

    def test_projection_billion(self):
        assert jl.jl_min_dim_projection(10**9, 2.0) <= 329

    def test_projection_non_increasing_in_alpha(self):
        ks = [jl.jl_min_dim_projection(10**4, a) for a in (1.5, 2.0, 3.0, 5.0, 10.0)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_minimality(self):
        n, alpha = 2000, 2.0
        k = jl.jl_min_dim_projection(n, alpha)
        budget = jl.union_threshold(n)
        assert jl.psi_failure(n, k, alpha, jl.sigma_max(n, k, alpha)) < budget
        assert jl.psi_failure(n, k - 1, alpha, jl.sigma_max(n, k - 1, alpha)) >= budget

    def test_no_feasible_k_warns_and_falls_back(self):
        with pytest.warns(NoFeasibleK):
            k = jl.jl_min_dim_projection(5, 1.05)
        assert k == 4

    def test_search_matches_a_scan_of_every_k(self):
        # the search is exact when the certified k form an interval up to n - 4
        for n in range(5, 121):
            budget = jl.union_threshold(n)
            for alpha in (1.01, 1.05, 1.5, 2.0, 10.0, 450.0):
                certified = [
                    k for k in range(1, n - 3)
                    if jl.psi_failure(n, k, alpha, jl.sigma_max(n, k, alpha)) < budget
                ]
                if certified:
                    assert jl.jl_min_dim_projection(n, alpha) == certified[0], (n, alpha)
                else:
                    with pytest.warns(NoFeasibleK):
                        assert jl.jl_min_dim_projection(n, alpha) == n - 1, (n, alpha)

    def test_gaussian_reference_values(self):
        assert jl.jl_min_dim_gaussian(10**9, 2.0) == 329
        assert jl.jl_min_dim_gaussian(10**9, 10.0) == 37
        assert jl.jl_min_dim_gaussian(10**9, 450.0) == 9

    def test_gaussian_alpha_range(self):
        # up to each limit the powers of alpha stay finite and k = 1 is
        # certified; one step past it is a domain error naming alpha, not
        # an OverflowError from alpha**4
        n = 10**9
        top = jl.TAIL_ESTIMATE_ALPHA_MAX
        assert math.isfinite(2 * top**4 * math.log(top)) and math.isfinite(jl.GAUSSIAN_ALPHA_MAX**2)
        assert jl.jl_min_dim_gaussian(n, top) == 1
        assert jl.gaussian_failure(1, top) < jl.union_threshold(n)
        assert math.isfinite(jl.gaussian_sigma(1, jl.GAUSSIAN_ALPHA_MAX))
        assert jl.gaussian_failure(1, jl.GAUSSIAN_ALPHA_MAX) < 1e-150
        past = [
            (jl.jl_min_dim_gaussian, n, math.nextafter(top, math.inf)),
            (jl.jl_min_dim_gaussian, n, 1e78),
            (jl.gaussian_sigma, 3, math.nextafter(jl.GAUSSIAN_ALPHA_MAX, math.inf)),
            (jl.gaussian_failure, 3, 1.4e154),
        ]
        for f, first, alpha in past:
            with pytest.raises(ParameterDomain, match=re.escape(f"alpha={alpha!r} is out of range")):
                f(first, alpha)

    def test_gaussian_search_matches_a_linear_scan(self):
        ns = (2, 10, 10**3, 10**6, 10**9, 10**12)
        alphas = (1.001, 1.005, 1.02, 1.1, 1.5, 2.0, 10.0, 450.0, 1e3, 1e6, 1e12, 1e25, 1e50, 1e76)
        for alpha in alphas:
            for n, k in zip(ns, _gaussian_linear_scan(ns, alpha)):
                if k is None:
                    with pytest.raises(ParameterDomain, match="no feasible k below the cap 1000000"):
                        jl.jl_min_dim_gaussian(n, alpha)
                else:
                    assert jl.jl_min_dim_gaussian(n, alpha) == k, (n, alpha)

    def test_gaussian_cap_costs_a_logarithm(self, monkeypatch):
        gammaln = jl._special().gammaln
        calls = []

        def counting_gammaln(x):
            calls.append(x)
            return gammaln(x)

        monkeypatch.setattr(jl, "_special", lambda: types.SimpleNamespace(gammaln=counting_gammaln))
        with pytest.raises(ParameterDomain, match="no feasible k below the cap"):
            jl.jl_min_dim_gaussian(10**6, 1.01)
        assert 0 < len(calls) <= 25

    def test_certified_window_below_n_minus_4(self):
        # at alpha = 1.0005 the certified k are [1193763, 1197313]; n - 4 is not
        # certified, and the former doubling search returned n - 1 with a warning
        n, alpha = 1197318, 1.0005
        with warnings.catch_warnings():
            warnings.simplefilter("error", NoFeasibleK)
            assert jl.jl_min_dim_projection(n, alpha) == 1193763
        assert not _certified(n, n - 4, alpha)

    @pytest.mark.filterwarnings("ignore::mdrlab.errors.NoFeasibleK")
    def test_projection_search_matches_the_doubling_search(self):
        # agrees on every pair, except where the doubling search gave up at
        # n - 1 although a certified window lies below n - 4
        ns = sorted({*range(5, 21), *(int(x) for x in np.geomspace(21, 1e12, 24)), 1197318, 15796051})
        alphas = [float(a) for a in np.geomspace(1.0005, 1e6, 48)]
        improved = 0
        for n in ns:
            for alpha in alphas:
                old, new = _doubling_search(n, alpha), jl.jl_min_dim_projection(n, alpha)
                if old != new:
                    assert old == n - 1, (n, alpha)
                    assert _certified(n, new, alpha) and not _certified(n, new - 1, alpha), (n, alpha)
                    improved += 1
        assert len(ns) * len(alphas) >= 2000 and improved > 0


class TestGaussianProb:
    def test_probability_range(self):
        for k in (1, 2, 5, 20):
            for alpha in (1.1, 2.0, 10.0):
                v = jl.gaussian_success_prob(k, alpha).value
                assert 0.0 <= v <= 1.0

    def test_k2_elementary_cdf(self):
        # chi-square with 2 dof has cdf 1 - exp(-x/2)
        alpha = 2.0
        lo = 4 * math.log(alpha) / (alpha**2 - 1)
        elementary = math.exp(-lo / 2) - math.exp(-(alpha**2) * lo / 2)
        assert abs(jl.gaussian_success_prob(2, alpha).value - elementary) <= 1e-9

    def test_monte_carlo_agreement(self):
        value = jl.gaussian_success_prob(10, 2.0).value
        mc = jl.gaussian_success_monte_carlo(10, 2.0, 1_000_000, 12)
        assert abs(value - mc.value) <= 3 * mc.std_error

    def test_tail_integral_agreement(self):
        for k in (1, 3, 10, 40):
            for alpha in (1.3, 2.0, 10.0):
                quad = verify._gaussian_failure_quadrature(k, alpha)
                assert abs(jl.gaussian_failure(k, alpha) - quad) <= 1e-9

    def test_pinned_failure_at_k_329(self):
        # the 1e9-point, alpha = 2 certificate, evaluated with 50-digit mpmath
        exact = 1.7675874660809711e-18
        assert abs(jl.gaussian_failure(329, 2.0) - exact) <= 1e-12 * exact
        assert jl.gaussian_success_prob(329, 2.0).method == "chi2"

    def test_haar_beats_gaussian_pointwise(self):
        # the rotation plan's per-pair probability dominates the Gaussian one
        for n, k in [(10, 2), (20, 5), (40, 8)]:
            for alpha in (1.5, 2.0, 4.0):
                haar_p = 1.0 - jl.psi_failure(n, k, alpha, jl.sigma_max(n, k, alpha))
                gauss_p = jl.gaussian_success_prob(k, alpha).value
                assert gauss_p <= haar_p + 1e-9


class TestTailsMatchScipyStats:
    """The scipy.special tails equal the frozen scipy.stats laws they replaced."""

    @staticmethod
    def psi_failure_stats(n, k, alpha, sigma):
        law = stats.beta(k / 2.0, (n - 1 - k) / 2.0)
        r_lo = min(1.0, 1.0 / sigma)
        r_hi = min(1.0, alpha / sigma)
        low = float(law.cdf(r_lo * r_lo))
        high = float(law.sf(r_hi * r_hi)) if r_hi < 1.0 else 0.0
        return min(1.0, low + high)

    @staticmethod
    def gaussian_failure_stats(k, alpha):
        lo = 2.0 * k * math.log(alpha) / (alpha**2 - 1.0)
        return float(stats.chi2.cdf(lo, k) + stats.chi2.sf(alpha**2 * lo, k))

    def test_psi_failure_bit_identical(self):
        rng = np.random.default_rng(61)
        cases = 0
        for n in (10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9):
            for alpha in (1.5, 2.0, 4.0, 10.0, float(rng.uniform(1.01, 500.0))):
                ks = {1, 2, 329, n - 4} | {int(k) for k in rng.integers(1, min(n - 4, 5000), 6)}
                for k in sorted(ks):
                    s_max = jl.sigma_max(n, k, alpha)
                    # sigma <= alpha puts r_hi at 1, where the upper tail is skipped
                    spread = float(rng.uniform(0.5, 2.0))
                    for sigma in (s_max, float(rng.uniform(1.0, alpha)), alpha, s_max * spread):
                        want = self.psi_failure_stats(n, k, alpha, sigma)
                        assert jl.psi_failure(n, k, alpha, sigma) == want, (n, k, alpha, sigma)
                        cases += 1
        assert cases >= 1000

    def test_gaussian_chi2_bit_identical(self):
        rng = np.random.default_rng(62)
        alphas = [1.5, 2.0, 4.0, 10.0, 450.0] + list(rng.uniform(1.001, 1000.0, 20))
        for alpha in alphas:
            for k in list(range(1, 40)) + [int(k) for k in rng.integers(40, 2000, 40)]:
                want = self.gaussian_failure_stats(k, alpha)
                assert jl._gaussian_failure_chi2(k, alpha) == want, (k, alpha)


class TestQuadratureMatchesScipyQuad:
    """The double-exponential oracles of verify equal adaptive quadrature of
    the same integrands, run with tolerances a hundred times tighter."""

    @staticmethod
    def psi_quad(n, k, alpha, sigma):
        lo, hi = max(1.0, sigma / alpha), max(1.0, sigma)
        e = (n - k - 3) / 2
        log_c = verify._psi_log_constant(n, k)

        def integrand(s):
            if s <= 1.0:
                return 0.0
            return math.exp(log_c + e * math.log((s - 1.0) * (s + 1.0)) - (n - 2) * math.log(s))

        peak = math.sqrt((n - 2) / (k + 1))
        value, _ = integrate.quad(
            integrand, lo, hi, points=[peak] if lo < peak < hi else None,
            epsabs=1e-14, epsrel=1e-13, limit=1000,
        )
        return value

    @staticmethod
    def gaussian_quad(k, alpha):
        log_pref = math.log(2.0) + (k / 2) * math.log(k) - math.lgamma(k / 2)

        def integrand(b):
            lem = jl._log_expm1(2.0 * b)
            return math.exp(log_pref + (k / 2) * (math.log(b) - lem) - k * b * math.exp(-lem))

        value, _ = integrate.quad(
            integrand, math.log(alpha), math.inf, epsabs=1e-15, epsrel=1e-13, limit=1000
        )
        return value

    @pytest.mark.parametrize("n", [7, 9, 10, 12, 16, 20, 40, 200, 1000])
    def test_psi(self, n):
        # sigma = alpha puts the lower end at the singular point s = 1, where
        # half-integer exponents make the density non-smooth
        for k in sorted({1, (n - 4) // 2 or 1, n - 4}):
            for alpha in (1.05, 2.0, 10.0):
                for sigma in (jl.sigma_max(n, k, alpha), alpha, 1.0001, 3 * alpha):
                    got = verify._psi_quadrature(n, k, alpha, sigma)
                    assert abs(got - self.psi_quad(n, k, alpha, sigma)) <= 1e-12, (n, k, alpha, sigma)

    def test_gaussian_tail(self):
        for k in (1, 2, 3, 10, 40, 329):
            for alpha in (1.2, 1.3, 2.0, 10.0, 100.0):
                want = self.gaussian_quad(k, alpha)
                assert abs(verify._gaussian_failure_quadrature(k, alpha) - want) <= 1e-12, (k, alpha)


class TestTransform:
    def two_points(self):
        return metric.PointCloud(np.array([[0.0, 0.0], [1.0, 1.0]]), "l2")

    def test_two_point_frequency_matches_psi(self):
        cloud = self.two_points()
        plan = jl.make_plan(2, 2.0, "haar_projection", k=1)
        wins = sum(
            jl.jl_transform(cloud, 2.0, "haar_projection", seed=s, max_retries=1, k=1).success
            for s in range(500)
        )
        p = plan.success_prob
        assert abs(wins / 500 - p) <= 3 * math.sqrt(p * (1 - p) / 500)

    def test_success_postconditions(self):
        rng = np.random.default_rng(3)
        cloud = metric.PointCloud(rng.standard_normal((12, 30)), "l2")
        res = jl.jl_transform(cloud, 4.0, "haar_projection", seed=8, max_retries=200, k=6)
        assert res.success
        assert res.cloud.dim == res.plan.k == 6
        assert res.measured_distortion <= 4.0
        src = cloud.pairwise()
        dst = res.cloud.pairwise()
        off = ~np.eye(12, dtype=bool)
        ratios = dst[off] / src[off]
        assert ratios.min() >= 1.0 and ratios.max() <= 4.0

    def test_gaussian_mode(self):
        rng = np.random.default_rng(4)
        cloud = metric.PointCloud(rng.standard_normal((10, 9)), "l2")
        res = jl.jl_transform(cloud, 3.0, "scaled_gaussian", seed=9, max_retries=200)
        assert res.plan.k == jl.jl_min_dim_gaussian(10, 3.0)
        if res.success:
            assert res.measured_distortion <= 3.0

    def test_retries_exhausted_returns_best(self):
        rng = np.random.default_rng(5)
        cloud = metric.PointCloud(rng.standard_normal((10, 9)), "l2")
        res = jl.jl_transform(cloud, 1.02, "haar_projection", seed=1, max_retries=3, k=1)
        assert not res.success
        assert res.attempts == 3
        assert res.measured_distortion > 1.02

    @pytest.mark.parametrize("retries", [0, -3])
    def test_retries_below_one_rejected(self, retries):
        cloud = metric.PointCloud(np.random.default_rng(6).standard_normal((12, 8)), "l2")
        with pytest.raises(ParameterDomain):
            jl.jl_transform(cloud, 3.0, "haar_projection", seed=0, max_retries=retries)

    def test_zero_distance_pair(self):
        cloud = metric.PointCloud(np.zeros((3, 2)), "l2")
        with pytest.raises(ZeroDistancePair):
            jl.jl_transform(cloud, 2.0, "haar_projection", seed=0, k=1)

    def test_overflowing_distances_rejected(self):
        cloud = metric.PointCloud(1e200 * np.random.default_rng(7).standard_normal((6, 3)), "l2")
        with pytest.raises(ParameterDomain, match="overflow"):
            jl.jl_transform(cloud, 3.0, "haar_projection", seed=0, k=6)

    def test_requires_l2(self):
        cloud = metric.PointCloud(np.eye(3), "l1")
        with pytest.raises(ParameterDomain):
            jl.jl_transform(cloud, 2.0, "haar_projection", seed=0, k=1)

    def test_plan_invariants(self):
        plan = jl.make_plan(64, 2.0, "haar_projection")
        assert plan.union_bound <= plan.success_prob
        assert plan.sigma == pytest.approx(jl.sigma_max(plan.ambient + 1, plan.k, 2.0))
        gplan = jl.make_plan(64, 2.0, "scaled_gaussian")
        assert gplan.sigma == pytest.approx(
            math.sqrt((4.0 - 1.0) / (2 * gplan.k * math.log(2.0)))
        )

    def test_plan_json_roundtrip(self):
        import json

        plan = jl.make_plan(32, 2.0, "scaled_gaussian")
        obj = json.loads(plan.to_json())
        assert obj["k"] == plan.k and obj["mode"] == "scaled_gaussian"
        assert obj["failure_prob"] == plan.failure_prob == jl.gaussian_failure(plan.k, 2.0)

    def test_failure_prob_readable_where_success_rounds_to_one(self):
        plan = jl.make_plan(10**9, 2.0, "scaled_gaussian")
        assert plan.success_prob == 1.0
        assert 0.0 < plan.failure_prob < 1e-17
        assert plan.union_bound == 1.0 - 10**9 * (10**9 - 1) / 2.0 * plan.failure_prob


class TestRankAndPadding:
    """Clouds whose rank differs from the ambient dimension the draw acts on."""

    @staticmethod
    def assert_ratios_within(cloud, res, alpha):
        ratios = pdist(res.cloud.coords) / pdist(cloud.coords)
        assert ratios.min() >= 1.0 and ratios.max() <= alpha

    def test_dim_above_n_minus_one(self):
        # 80 coordinates, but 30 points span at most 29 dimensions
        cloud = metric.PointCloud(np.random.default_rng(6).standard_normal((30, 80)), "l2")
        res = jl.jl_transform(cloud, 4.0, "haar_projection", seed=0, max_retries=200, k=10)
        assert res.success and res.plan.ambient == 29 and res.cloud.dim == 10
        self.assert_ratios_within(cloud, res, 4.0)

    @pytest.mark.parametrize("mode", jl.MODES)
    def test_rank_below_ambient(self, mode):
        # haar mode rotates R^4 (k + 3 > n - 1) and gaussian mode R^2; the cloud has rank 1
        cloud = metric.PointCloud(np.array([[0.0], [1.0], [2.0]]), "l2")
        res = jl.jl_transform(cloud, 4.0, mode, seed=0, max_retries=200, k=1)
        assert res.success and res.cloud.dim == 1
        assert res.plan.ambient == (4 if mode == "haar_projection" else 2)
        self.assert_ratios_within(cloud, res, 4.0)


def _peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    @pytest.mark.parametrize("mode", jl.MODES)
    def test_transform_verifies_pairs_without_pair_by_k_array(self, mode):
        # the n^2/2 x k difference array alone would be 172 MB here
        cloud = metric.PointCloud(np.random.default_rng(12).standard_normal((600, 40)), "l2")
        peak = _peak_bytes(jl.jl_transform, cloud, 2.0, mode, seed=0, max_retries=2, k=120)
        assert peak < 40e6

    def test_thin_haar_frame_holds_one_row_block(self):
        # the full 3000 x 3000 draw alone is 72 MB
        assert _peak_bytes(jl.sample_haar_orthogonal, 3000, 0, 40) <= 16e6

    def test_psi_monte_carlo_holds_one_chunk(self):
        # one 200k x 19 draw plus its squares took 65.6 MB
        n, k, alpha = 20, 5, 2.0
        peak = _peak_bytes(jl.psi_monte_carlo, n, k, alpha, jl.sigma_max(n, k, alpha), 200_000, 4)
        assert peak <= 16e6

    def test_psi_monte_carlo_draws_in_small_chunks(self):
        # a 2**16-normal chunk is 512 KiB; a 2**20-normal one took 10.9 MB here
        n, k, alpha = 20, 5, 2.0
        peak = _peak_bytes(jl.psi_monte_carlo, n, k, alpha, jl.sigma_max(n, k, alpha), 200_000, 4)
        assert peak <= 2e6


class TestMonteCarloChunks:
    """Chunked draws give the estimate of one whole draw, bit for bit."""

    def test_psi_sphere_sampler_over_ragged_chunks(self):
        n, k, alpha, seed = 400, 40, 2.0, 5
        rows = 2**20 // (n - 1)
        samples = 3 * rows + 123
        sigma = jl.sigma_max(n, k, alpha)
        w = np.random.default_rng(seed).standard_normal((samples, n - 1))
        r = np.linalg.norm(w[:, :k], axis=1) / np.linalg.norm(w, axis=1)
        hits = int(((sigma * r >= 1.0) & (sigma * r <= alpha)).sum())
        assert 0 < hits < samples
        assert jl.psi_monte_carlo(n, k, alpha, sigma, samples, seed).value == hits / samples

    def test_gaussian_over_ragged_chunks(self):
        k, alpha, seed = 700, 1.1, 6
        rows = 2**20 // k
        samples = 2 * rows + 17
        s = jl.gaussian_sigma(k, alpha)
        r = s * np.linalg.norm(np.random.default_rng(seed).standard_normal((samples, k)), axis=1)
        hits = int(((r >= 1.0) & (r <= alpha)).sum())
        assert 0 < hits < samples
        assert jl.gaussian_success_monte_carlo(k, alpha, samples, seed).value == hits / samples

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_psi_sphere_sampler_at_the_chunk_boundary(self, extra):
        n, k, alpha, seed = 30, 6, 1.5, 7
        samples = 4 * (2**16 // (n - 1)) + extra
        sigma = jl.sigma_max(n, k, alpha)
        w = np.random.default_rng(seed).standard_normal((samples, n - 1))
        r = np.linalg.norm(w[:, :k], axis=1) / np.linalg.norm(w, axis=1)
        hits = int(((sigma * r >= 1.0) & (sigma * r <= alpha)).sum())
        assert 0 < hits < samples
        assert jl.psi_monte_carlo(n, k, alpha, sigma, samples, seed).value == hits / samples

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_gaussian_at_the_chunk_boundary(self, extra):
        k, alpha, seed = 13, 1.5, 8
        samples = 4 * (2**16 // k) + extra
        s = jl.gaussian_sigma(k, alpha)
        r = s * np.linalg.norm(np.random.default_rng(seed).standard_normal((samples, k)), axis=1)
        hits = int(((r >= 1.0) & (r <= alpha)).sum())
        assert 0 < hits < samples
        assert jl.gaussian_success_monte_carlo(k, alpha, samples, seed).value == hits / samples
