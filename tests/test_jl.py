import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.spatial import distance
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
        m, cols, seed = 1500, 30, 21
        q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, cols)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        assert np.array_equal(jl.sample_haar_orthogonal(m, seed, cols), q * signs)

    def test_thin_frame_leaves_the_generator_where_the_full_draw_does(self):
        # the "full draw" is the one m x cols matrix the frame is factored from
        thin, full = np.random.default_rng(8), np.random.default_rng(8)
        jl.sample_haar_orthogonal(700, thin, 5)
        full.standard_normal((700, 5))
        assert thin.standard_normal() == full.standard_normal()

    @pytest.mark.parametrize("cols", [0, 6])
    def test_cols_outside_one_to_m_rejected(self, cols):
        with pytest.raises(ParameterDomain):
            jl.sample_haar_orthogonal(5, 0, cols)

    def test_first_coordinate_beta_law(self):
        # squared first coordinate of a Haar column on O(4) is Beta(1/2, 3/2),
        # for the full rotation and for a thin frame alike
        rng = np.random.default_rng(77)
        for cols in (4, 2):
            xs = np.array([jl.sample_haar_orthogonal(4, rng, cols)[0, 0] ** 2 for _ in range(50_000)])
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
        # explicit Haar rotations applied to e_1 read the same normals as the
        # spherical shortcut, so they hit on exactly the same draws
        n, k, alpha, samples, seed = 8, 2, 2.0, 500, 10
        sigma = jl.sigma_max(n, k, alpha)
        rng = np.random.default_rng(seed)
        hits = 0
        for _ in range(samples):
            o = jl.sample_haar_orthogonal(n - 1, rng, 1)
            hits += 1.0 <= sigma * np.linalg.norm(o[:k, 0]) <= alpha
        assert 0 < hits < samples
        assert jl.psi_monte_carlo(n, k, alpha, sigma, samples, seed).value == hits / samples

    def test_domain(self):
        with pytest.raises(ParameterDomain):
            jl.psi(12, 10, 2.0, 1.5)  # k > n - 3
        with pytest.raises(ParameterDomain):
            jl.psi(12, 0, 2.0, 1.5)
        with pytest.raises(ParameterDomain):
            jl.psi(12, 3, 1.0, 1.5)


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: jl.jl_min_dim_projection(100, math.nan), ParameterDomain, "alpha must exceed 1"),
        (lambda: jl.psi(20, 5, math.nan, 2.0), ParameterDomain, "alpha must exceed 1"),
        (lambda: jl.psi(20, 5, 2.0, math.nan), ParameterDomain, "sigma must be nonnegative"),
        (lambda: jl.make_plan(100, math.nan, "scaled_gaussian", 5), ParameterDomain, "alpha must exceed 1"),
        (lambda: jl.jl_min_dim_gaussian(10**9, math.nan), ParameterDomain, "alpha must exceed 1"),
        (lambda: metric.doubling_dim_lower_bound(metric.random_metric(6, 0), math.nan), ValueError, "alpha must be >= 1"),
        (lambda: metric.volumetric_lower_bound(10, math.nan), ValueError, "alpha must be >= 1"),
    ],
    ids=["jl_min_dim_projection", "psi-alpha", "psi-sigma", "make_plan", "jl_min_dim_gaussian",
         "doubling_dim_lower_bound", "volumetric_lower_bound"],
)
def test_nan_parameter_is_a_domain_error(call, exc, message):
    # each check compares so that NaN fails it, never slipping past `x < bound`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=message):
            call()


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

    @pytest.mark.parametrize("call", [
        lambda: jl.sigma_max(7, 2, math.inf),
        lambda: jl.make_plan(100, math.inf, "haar_projection", 10),
        lambda: jl.jl_transform(metric.PointCloud(np.eye(6), "l2"), math.inf, "haar_projection", k=3),
    ], ids=["sigma_max", "make_plan", "jl_transform"])
    def test_infinite_alpha_is_a_domain_error(self, call):
        # inf - inf in the log formula gave sigma = nan, which the plan carried
        # and jl_transform reported as image distances overflowing
        with pytest.raises(ParameterDomain, match="alpha"):
            call()

    def test_tails_stay_defined_at_infinite_alpha(self):
        # the upper tail is 0, so the failure is the lower Beta tail alone
        assert jl.psi_failure(12, 3, math.inf, 2.0) == pytest.approx(stats.beta.cdf(0.25, 1.5, 4.0), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1])
def test_union_threshold_needs_two_points(n):
    # 2 / (n (n - 1)) divided by zero
    with pytest.raises(ParameterDomain, match="n >= 2"):
        jl.union_threshold(n)


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
                v = 1.0 - jl.gaussian_failure(k, alpha)
                assert 0.0 <= v <= 1.0

    def test_k2_elementary_cdf(self):
        # chi-square with 2 dof has cdf 1 - exp(-x/2)
        alpha = 2.0
        lo = 4 * math.log(alpha) / (alpha**2 - 1)
        elementary = math.exp(-lo / 2) - math.exp(-(alpha**2) * lo / 2)
        assert abs((1.0 - jl.gaussian_failure(2, alpha)) - elementary) <= 1e-9

    def test_monte_carlo_agreement(self):
        # 10^6 rescaled Gaussian images of a unit vector, drawn in ten chunks
        k, alpha, samples = 10, 2.0, 1_000_000
        rng = np.random.default_rng(12)
        s = jl.gaussian_sigma(k, alpha)
        hits = 0
        for _ in range(10):
            r = s * np.linalg.norm(rng.standard_normal((samples // 10, k)), axis=1)
            hits += int(((r >= 1.0) & (r <= alpha)).sum())
        p = hits / samples
        assert abs((1.0 - jl.gaussian_failure(k, alpha)) - p) <= 3 * math.sqrt(p * (1 - p) / samples)

    def test_tail_integral_agreement(self):
        for k in (1, 3, 10, 40):
            for alpha in (1.3, 2.0, 10.0):
                quad = verify._gaussian_failure_quadrature(k, alpha)
                assert abs(jl.gaussian_failure(k, alpha) - quad) <= 1e-9

    def test_pinned_failure_at_k_329(self):
        # the 1e9-point, alpha = 2 certificate, evaluated with 50-digit mpmath
        exact = 1.7675874660809711e-18
        assert abs(jl.gaussian_failure(329, 2.0) - exact) <= 1e-12 * exact

    def test_haar_beats_gaussian_pointwise(self):
        # the rotation plan's per-pair probability dominates the Gaussian one
        for n, k in [(10, 2), (20, 5), (40, 8)]:
            for alpha in (1.5, 2.0, 4.0):
                haar_p = 1.0 - jl.psi_failure(n, k, alpha, jl.sigma_max(n, k, alpha))
                gauss_p = 1.0 - jl.gaussian_failure(k, alpha)
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
                assert jl.gaussian_failure(k, alpha) == want, (k, alpha)


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

    @staticmethod
    def huge_cloud():
        # finite source distances near 1e154, whose images' squares overflow
        return metric.PointCloud(np.random.default_rng(0).standard_normal((40, 10)) * 1e153, "l2")

    def test_every_attempt_overflowing_is_a_domain_error(self):
        # both draws give hi = inf; there was no best attempt, and PointCloud(None) raised ValueError
        with pytest.raises(ParameterDomain, match="image distances overflow"):
            jl.jl_transform(self.huge_cloud(), 1.5, "scaled_gaussian", seed=0, max_retries=2, k=3)

    def test_a_finite_attempt_is_still_returned(self):
        res = jl.jl_transform(self.huge_cloud(), 1.5, "haar_projection", seed=0, max_retries=2, k=3)
        assert not res.success and math.isfinite(res.measured_distortion)
        assert round(res.measured_distortion, 2) == 20.48

    def test_two_point_frequency_matches_psi(self):
        cloud = self.two_points()
        plan = jl.make_plan(2, 2.0, "haar_projection", k=1)
        wins = sum(
            jl.jl_transform(cloud, 2.0, "haar_projection", seed=s, max_retries=1, k=1).success
            for s in range(500)
        )
        p = 1 - plan.failure_prob
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
        assert plan.union_bound <= 1 - plan.failure_prob
        assert plan.sigma == pytest.approx(jl.sigma_max(plan.ambient + 1, plan.k, 2.0))
        gplan = jl.make_plan(64, 2.0, "scaled_gaussian")
        assert gplan.sigma == pytest.approx(
            math.sqrt((4.0 - 1.0) / (2 * gplan.k * math.log(2.0)))
        )

    def test_plan_json_roundtrip(self):
        plan = jl.make_plan(32, 2.0, "scaled_gaussian")
        assert plan.mode == "scaled_gaussian"
        assert plan.failure_prob == jl.gaussian_failure(plan.k, 2.0)

    def test_failure_prob_readable_where_success_rounds_to_one(self):
        plan = jl.make_plan(10**9, 2.0, "scaled_gaussian")
        assert 1 - plan.failure_prob == 1.0
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
        # the full 3000 x 3000 draw alone is 72 MB; the 3000 x 40 one is 0.96 MB
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


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("estimate", [
    lambda samples: jl.psi_monte_carlo(12, 3, 1.5, 2.0, samples, 0),
], ids=["sphere"])
def test_monte_carlo_needs_a_sample(estimate, samples):
    # 0 divided by zero, and -5 returned a frequency of -0.0
    with pytest.raises(ParameterDomain, match="samples must be >= 1"):
        estimate(samples)


@pytest.mark.parametrize("sigma", [math.nan, -1.0])
@pytest.mark.parametrize("estimate", [
    lambda sigma: jl.psi(12, 3, 2.0, sigma),
    lambda sigma: jl.psi_failure(12, 3, 2.0, sigma),
    lambda sigma: jl.psi_monte_carlo(12, 3, 2.0, sigma, 100, 0),
], ids=["psi", "psi_failure", "psi_monte_carlo"])
def test_sigma_must_be_nonnegative(estimate, sigma):
    # psi_failure returned 1.0 and psi_monte_carlo a frequency of 0.0
    with pytest.raises(ParameterDomain, match="^sigma must be nonnegative$"):
        estimate(sigma)


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

    @staticmethod
    def chunked_norms(samples, k, seed):
        chunks = jl._squared_normal_chunks(np.random.default_rng(seed), samples, k)
        return np.concatenate([np.sqrt(g2.sum(axis=1)) for g2 in chunks])

    def test_gaussian_over_ragged_chunks(self):
        k, seed = 700, 6
        samples = 2 * (2**20 // k) + 17
        whole = np.linalg.norm(np.random.default_rng(seed).standard_normal((samples, k)), axis=1)
        assert np.array_equal(self.chunked_norms(samples, k, seed), whole)

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
        k, seed = 13, 8
        samples = 4 * (2**16 // k) + extra
        whole = np.linalg.norm(np.random.default_rng(seed).standard_normal((samples, k)), axis=1)
        assert np.array_equal(self.chunked_norms(samples, k, seed), whole)


def _whole_array_transform(cloud, alpha, mode, seed, max_retries, k):
    """jl_transform as it verified with whole pdist arrays of the source and the image."""
    src = pdist(cloud.coords)
    assert np.isfinite(src).all() and src.min() > 0.0
    n = cloud.n
    plan = jl.make_plan(n, alpha, mode, k)
    x = cloud.coords - cloud.coords[0]
    if x.shape[1] > n - 1:
        r = np.linalg.qr(x[1:].T, mode="r")
        x = np.vstack([np.zeros((1, r.shape[0])), r.T])
    rng = np.random.default_rng(seed)
    best_y, best_alpha = None, np.inf
    for attempt in range(1, max_retries + 1):
        if mode == "haar_projection":
            m = jl.sample_haar_orthogonal(plan.ambient, rng, x.shape[1])[: plan.k]
        else:
            m = rng.standard_normal((plan.k, plan.ambient))
        y = plan.sigma * (x @ m[:, : x.shape[1]].T)
        ratios = pdist(y) / src
        success = bool(ratios.min() >= 1.0 and ratios.max() <= alpha)
        measured = float(ratios.max() / ratios.min())
        if success or measured < best_alpha:
            best_y, best_alpha = y, measured
        if success:
            break
    return attempt, success, best_alpha, best_y


# the n at which a pair-walk block holds exactly n rows
BLOCK_SIDE = math.isqrt(jl._PAIR_BLOCK)


def _cloud(n, d, seed):
    return metric.PointCloud(np.random.default_rng(seed).standard_normal((n, d)), "l2")


class TestBlockedVerification:
    """The row-block pair walk decides and measures as the whole pair arrays did."""

    @staticmethod
    def assert_matches_reference(cloud, alpha, mode, seed, max_retries, k):
        res = jl.jl_transform(cloud, alpha, mode, seed=seed, max_retries=max_retries, k=k)
        attempts, success, measured, y = _whole_array_transform(cloud, alpha, mode, seed, max_retries, k)
        assert (res.attempts, res.success) == (attempts, success)
        assert res.measured_distortion == measured
        assert res.cloud.coords.tobytes() == y.tobytes()
        return res

    def test_block_side(self):
        assert jl._PAIR_BLOCK // BLOCK_SIDE == BLOCK_SIDE

    @pytest.mark.parametrize("mode", jl.MODES)
    @pytest.mark.parametrize(
        "n, d",
        [(2, 3), (3, 2), (BLOCK_SIDE - 1, 8), (BLOCK_SIDE, 8), (BLOCK_SIDE + 1, 8), (1000, 100), (30, 80)],
    )
    def test_matches_whole_array_reference(self, n, d, mode):
        k = 1 if n < 5 else None
        self.assert_matches_reference(_cloud(n, d, n), 2.0, mode, n + d, 5, k)

    @pytest.mark.parametrize("mode", jl.MODES)
    def test_best_of_failed_attempts_matches_reference(self, mode):
        res = self.assert_matches_reference(_cloud(BLOCK_SIDE + 1, 8, 3), 2.0, mode, 4, 3, 2)
        assert not res.success and res.attempts == 3

    @pytest.mark.parametrize("pair", [(0, -1), (-2, -1)], ids=["first-block", "last-block"])
    def test_coincident_pair_past_the_first_block(self, pair):
        coords = np.random.default_rng(9).standard_normal((BLOCK_SIDE + 88, 4))
        coords[pair[1]] = coords[pair[0]]
        with pytest.raises(ZeroDistancePair):
            jl.jl_transform(metric.PointCloud(coords, "l2"), 2.0, "haar_projection", seed=0, k=20)

    @staticmethod
    def overflowing_last_pair(n):
        # only the pair (n - 2, n - 1) is 2e308 apart; every other pair stays finite
        coords = np.random.default_rng(10).standard_normal((n, 4))
        coords[-2:] = 0.0
        coords[-2, 0], coords[-1, 0] = -1e308, 1e308
        return coords

    @pytest.mark.parametrize("mode", jl.MODES)
    def test_overflow_in_the_last_block(self, mode):
        coords = self.overflowing_last_pair(BLOCK_SIDE + 88)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomain, match="overflow"):
                jl.jl_transform(metric.PointCloud(coords, "l2"), 2.0, mode, seed=0, k=20)

    def test_overflow_outranks_an_earlier_coincident_pair(self):
        coords = self.overflowing_last_pair(BLOCK_SIDE + 88)
        coords[1] = coords[0]
        with pytest.raises(ParameterDomain, match="overflow"):
            jl.jl_transform(metric.PointCloud(coords, "l2"), 2.0, "haar_projection", seed=0, k=20)

    @pytest.mark.parametrize("m, cols", [(300, 300)])
    def test_haar_draw_equals_the_whole_buffer_draw(self, m, cols):
        # a full rotation is the QR of one whole m x m draw
        want = np.random.default_rng(11)
        q, r = np.linalg.qr(want.standard_normal((m, m)))
        rng = np.random.default_rng(11)
        assert jl.sample_haar_orthogonal(m, rng, cols).tobytes() == (q * np.sign(np.diag(r))).tobytes()
        assert rng.standard_normal() == want.standard_normal()

    @pytest.mark.parametrize("mode", jl.MODES)
    def test_one_transform_holds_no_pair_array(self, mode):
        # the three n(n-1)/2 arrays at 2000 points peaked at 37 MB
        jl.jl_transform(_cloud(8, 3, 0), 2.0, mode, seed=0, k=2)  # imports outside the trace
        peak = _peak_bytes(jl.jl_transform, _cloud(2000, 100, 12), 2.0, mode, seed=0, max_retries=1)
        assert peak <= 16e6


def _whole_array_extremes(x, y):
    ratios = pdist(y) / pdist(x)
    return ratios.min(), ratios.max()


class _MeasuredPairs:
    """Spy on scipy's ``pdist`` and ``cdist``, which :func:`jl._ratio_range`
    imports when it is called: count how often each pair of rows of x
    (side 0) and, when given, of y (side 1) is measured, and the ``pdist``
    calls.  Rows are told apart by their bytes."""

    def __init__(self, monkeypatch, x, y=None):
        self.index = [{row.tobytes(): r for r, row in enumerate(t)} for t in (x, y) if t is not None]
        self.counts = np.zeros((len(self.index), len(x), len(x)), np.int32)
        self.pdist_calls = 0
        pdist_, cdist_ = distance.pdist, distance.cdist

        def spy_pdist(xa, *args, **kwargs):
            self.pdist_calls += 1
            side, (rows,) = self.locate(xa)
            if side is not None:
                first, second = np.triu_indices(len(rows), 1)
                self.counts[side, rows[first], rows[second]] += 1
            return pdist_(xa, *args, **kwargs)

        def spy_cdist(xa, xb, *args, **kwargs):
            side, (rows, cols) = self.locate(xa, xb)
            if side is not None:
                self.counts[side][np.ix_(rows, cols)] += 1
            return cdist_(xa, xb, *args, **kwargs)

        monkeypatch.setattr(distance, "pdist", spy_pdist)
        monkeypatch.setattr(distance, "cdist", spy_cdist)

    def locate(self, *arrays):
        """The side all rows of ``arrays`` belong to (None for an unknown y), and their indices."""
        keys = [[row.tobytes() for row in a] for a in arrays]
        for side, index in enumerate(self.index):
            if all(k in index for ks in keys for k in ks):
                return side, [np.array([index[k] for k in ks], int) for ks in keys]
        assert len(self.index) == 1, "a measured row belongs to neither x nor y"
        return None, [None] * len(arrays)

    def pairs(self, side=0):
        """How often each pair was measured, in either order, as a symmetric matrix."""
        return self.counts[side] + self.counts[side].T

    def assert_candidates_only(self, most=64):
        """No block was walked, and only a handful of pairs, the same on both sides, were measured."""
        assert self.pdist_calls == 0
        assert 0 < self.counts[0].sum() <= most
        assert (self.counts == self.counts[0]).all()

    def assert_each_pair_once(self, rows=None):
        """Every pair of ``rows`` (default: all) was measured exactly once on each side."""
        rows = np.arange(self.counts.shape[1]) if rows is None else rows
        for side in range(len(self.counts)):
            assert (self.pairs(side)[np.ix_(rows, rows)] == 1 - np.eye(len(rows), dtype=int)).all()


class TestGramPrefilter:
    """Clouds of more than one pair block: the Gram bounds pick the pairs that
    are measured, and the extremes stay those of the whole ratio array."""

    ROWS_1000 = jl._PAIR_BLOCK // 1000  # rows of a pair block at 1000 points

    @staticmethod
    def assert_extremes(x, y):
        lo, hi = jl._ratio_range(x, y, x - x.mean(axis=0), y - y.mean(axis=0))
        want_lo, want_hi = _whole_array_extremes(x, y)
        assert (lo.tobytes(), hi.tobytes()) == (want_lo.tobytes(), want_hi.tobytes())

    @pytest.mark.parametrize("mode", jl.MODES)
    @pytest.mark.parametrize("n", [725, 1000, 1500])
    def test_matches_whole_array_reference(self, n, mode):
        assert jl._PAIR_BLOCK // n < n
        TestBlockedVerification.assert_matches_reference(_cloud(n, 30, n), 2.0, mode, n, 4, None)

    def test_gaussian_attempt_measures_only_candidates(self, monkeypatch):
        cloud = _cloud(1000, 100, 5)
        want = _whole_array_transform(cloud, 3.0, "scaled_gaussian", 2, 1, None)
        spy = _MeasuredPairs(monkeypatch, cloud.coords, want[3])
        res = jl.jl_transform(cloud, 3.0, "scaled_gaussian", seed=2, max_retries=1)
        assert (res.attempts, res.success, res.measured_distortion) == want[:3]
        assert res.cloud.coords.tobytes() == want[3].tobytes()
        spy.assert_candidates_only()

    @pytest.mark.parametrize("holder", ["other-pair", "near-pair"])
    @pytest.mark.parametrize("near", ["same-block", "earlier-block"])
    @pytest.mark.parametrize("pick", [np.argmin, np.argmax], ids=["min", "max"])
    def test_near_coincident_pair(self, pick, near, holder):
        # a pair 1e-9 apart, relative to the cloud, gets no ratio bound and is
        # measured; the extreme is held by another pair of the same block, by
        # a pair of a later block, or by the near pair itself
        n, rows = 1000, self.ROWS_1000
        rng = np.random.default_rng(13)
        x = rng.standard_normal((n, 20))
        y = x @ rng.standard_normal((20, 12))
        first, second = np.triu_indices(n, 1)  # pdist order
        ratios = pdist(y) / pdist(x)
        p, q = first[pick(ratios)], second[pick(ratios)]
        rest = [r for r in range(n) if r not in (p, q)]
        order = rest[: 2 * rows + 5] + [p, q] + rest[2 * rows + 5 :]
        x, y = x[order], y[order]  # the extreme pair is now rows 2 rows + 5 and 2 rows + 6
        r1 = 2 * rows + 10 if near == "same-block" else 10
        step = rng.standard_normal(20)
        x[r1 + 1] = x[r1] + 1e-9 * np.linalg.norm(x[r1]) * step / np.linalg.norm(step)
        # the near pair's ratio: the median, or past the extreme
        past = ratios[pick(ratios)] * (0.5 if pick is np.argmin else 2.0)
        scale = np.median(ratios) if holder == "other-pair" else past
        turn = rng.standard_normal(12)
        y[r1 + 1] = y[r1] + scale * np.linalg.norm(x[r1 + 1] - x[r1]) * turn / np.linalg.norm(turn)
        new = pdist(y) / pdist(x)
        held = (first[pick(new)], second[pick(new)])
        assert held == ((2 * rows + 5, 2 * rows + 6) if holder == "other-pair" else (r1, r1 + 1))
        self.assert_extremes(x, y)

    @pytest.mark.parametrize("mode", jl.MODES)
    def test_offset_cloud(self, mode):
        # the differences from the first point, not the coordinates, enter the Gram bounds
        cloud = metric.PointCloud(1e8 + np.random.default_rng(14).standard_normal((1000, 10)), "l2")
        TestBlockedVerification.assert_matches_reference(cloud, 2.0, mode, 3, 2, None)

    def test_offset_source_and_image(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((1000, 10))
        self.assert_extremes(1e8 + x, 1e8 + x @ rng.standard_normal((10, 8)))

    @pytest.mark.parametrize("power, walked", [(400, False), (-400, False), (505, True), (-510, True)])
    def test_scale_guard(self, monkeypatch, power, walked):
        # at 2^505 and 2^-510 the largest squared norm is outside [2^-1000, 2^1000]
        cloud = metric.PointCloud(2.0**power * np.random.default_rng(16).standard_normal((800, 12)), "l2")
        want = _whole_array_transform(cloud, 3.0, "haar_projection", 4, 1, None)
        spy = _MeasuredPairs(monkeypatch, cloud.coords, want[3])
        res = jl.jl_transform(cloud, 3.0, "haar_projection", seed=4, max_retries=1)
        assert (res.attempts, res.success, res.measured_distortion) == want[:3]
        assert res.cloud.coords.tobytes() == want[3].tobytes()
        spy.assert_each_pair_once() if walked else spy.assert_candidates_only()

    @pytest.mark.parametrize("power, error", [(600, ParameterDomain), (-600, ZeroDistancePair)])
    def test_scale_past_the_distances(self, monkeypatch, power, error):
        # the squared distances overflow, or underflow to 0, in the exact walk
        cloud = metric.PointCloud(2.0**power * np.random.default_rng(16).standard_normal((800, 12)), "l2")
        spy = _MeasuredPairs(monkeypatch, cloud.coords)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                jl.jl_transform(cloud, 3.0, "haar_projection", seed=4, max_retries=1)
        # the first block is walked; an infinite distance stops the walk there
        rows = jl._PAIR_BLOCK // 800
        spy.assert_each_pair_once(np.arange(rows if error is ParameterDomain else 800))

    def test_isometric_image_walks_every_block(self, monkeypatch):
        # a rotation keeps every ratio at 1 up to rounding, so no block can be thinned
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1000, 16))
        y = x @ np.linalg.qr(rng.standard_normal((16, 16)))[0]
        spy = _MeasuredPairs(monkeypatch, x, y)
        self.assert_extremes(x, y)
        spy.assert_each_pair_once()

    def test_walked_blocks_reuse_the_gram_buffers(self):
        # every ratio is 2, so all 35 blocks of 87 rows are walked, into the two
        # 2.1 MB Gram buffers: 11.9 MiB; the two-phase walk read 15.6 MiB, and
        # one into fresh distance arrays 15.5 MiB
        x = np.random.default_rng(0).standard_normal((10000, 100))[:3000]
        y, xt = 2 * x, x - x[0]
        assert _peak_bytes(jl._ratio_range, x, y, xt, 2 * xt) <= 13 * 2**20

    def test_coincident_pair_in_the_last_block(self, monkeypatch):
        coords = np.random.default_rng(18).standard_normal((1000, 8))
        coords[-1] = coords[-2]
        spy = _MeasuredPairs(monkeypatch, coords[:-1])  # rows 998 and 999 are one key
        with pytest.raises(ZeroDistancePair):
            jl.jl_transform(metric.PointCloud(coords, "l2"), 2.0, "haar_projection", seed=0, k=20)
        spy.assert_candidates_only()
        assert spy.counts[0, 998, 998] == 1  # the coincident pair

    @pytest.mark.parametrize("mode", jl.MODES)
    def test_overflowing_pair(self, mode):
        coords = TestBlockedVerification.overflowing_last_pair(1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterDomain, match="overflow"):
                jl.jl_transform(metric.PointCloud(coords, "l2"), 2.0, mode, seed=0, k=20)

    def test_scales_2_960_apart_are_walked_without_warning(self):
        # both sides pass the 2^+-1000 guard, but their ratio does not fit in a double
        rng = np.random.default_rng(21)
        x = rng.standard_normal((600, 5)) * 2.0**-480
        y = rng.standard_normal((600, 3)) * 2.0**480
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_extremes(x, y)

    def test_image_with_inf_gives_nan(self):
        # inf - inf in one coordinate makes a pair distance, and so the extremes, NaN
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1000, 8))
        y = x @ rng.standard_normal((8, 6))
        y[[3, 700], 2] = np.inf
        with np.errstate(invalid="ignore"):
            lo, hi = jl._ratio_range(x, y, x - x.mean(axis=0), y - y.mean(axis=0))
            assert all(np.isnan(v) for v in _whole_array_extremes(x, y))
        assert np.isnan(lo) and np.isnan(hi)

    def test_walked_block_holds_both_extremes(self, monkeypatch):
        # the last block's own pairs tie at both extremes, so it is walked,
        # after each earlier block measured the few pairs it kept
        n, rows = 1000, self.ROWS_1000
        rng = np.random.default_rng(20)
        x = rng.standard_normal((n, 6))
        y = x @ (np.eye(6) + 0.3 * rng.standard_normal((6, 6)))
        last = np.arange((n - 1) // rows * rows, n)
        half = len(last) // 2
        t = np.arange(len(last), dtype=float)
        x[last] = 1e3
        y[last] = 1e3
        x[last[:half], 0] += t[:half]
        y[last[:half], 0] += 3 * t[:half]
        x[last[half:], 1] += t[half:]
        y[last[half:], 1] += 0.1 * t[half:]
        spy = _MeasuredPairs(monkeypatch, x, y)
        self.assert_extremes(x, y)
        assert spy.pdist_calls == 2  # the last block, on each side
        spy.assert_each_pair_once(last)
        assert (spy.pairs(0).sum() - spy.pairs(0)[np.ix_(last, last)].sum()) // 2 <= 64
