"""Self-contained property suites behind the ``verify`` CLI command.

Each suite re-runs a compact version of the module's invariants and
returns a summary dict; any failed property makes the suite fail.  The
suites intentionally recompute expectations from independent routes
(closed forms, quadrature, Monte Carlo, exhaustive enumeration) so that a silently
altered constant or tolerance shows up as a red property.
"""

from __future__ import annotations

import math

import numpy as np

from . import jl, matousek, metric, moduli, sdp, spectral


def _prop(results: list, name: str, ok: bool, detail: str = ""):
    results.append({"property": name, "passed": bool(ok), "detail": detail})


def verify_metric(seed: int = 0) -> dict:
    results = []
    rng = np.random.default_rng(seed)

    ok = True
    for i in range(20):
        m = metric.random_metric(6, rng.integers(2**32), style="shortest_path")
        x = metric.frechet_embed(m).coords
        # l-infinity distances max_k |x_ik - x_jk|, the doubles of pdist's "chebyshev", without scipy
        img = metric.build_metric(np.abs(x[:, None] - x).max(axis=2))
        rep = metric.distortion(m, img, np.arange(m.n))
        ok &= abs(rep.distortion - 1.0) <= 1e-12
    _prop(results, "frechet_isometric", ok)

    ok = True
    for theta in (0.25, 0.5, 0.75, 1.0):
        for i in range(15):
            m = metric.random_metric(7, rng.integers(2**32), style="box")
            try:
                metric.snowflake(m, theta)
            except Exception:
                ok = False
    # the triangle check's dyadic route against the full scan, from its own
    # stream so that the draws of the other properties stay as they were
    ok &= _dyadic_route_matches_full_scan(np.random.default_rng([seed, 1]))
    _prop(results, "snowflake_triangle", ok)

    ok = True
    for i in range(10):
        m = metric.random_metric(7, rng.integers(2**32), style="shortest_path")
        exact = metric.doubling_constant(m, "exact")
        greedy = metric.doubling_constant(m, "greedy")
        ok &= greedy >= exact
    _prop(results, "doubling_greedy_dominates_exact", ok)

    ok = True
    for n in (2, 10, 100, 10**6):
        for alpha in (1.0, 2.0, 8.0):
            ok &= metric.volumetric_lower_bound(n, alpha) <= n - 1
    _prop(results, "volumetric_below_trivial", ok)

    return _finish("metric", results)


def _dyadic_route_matches_full_scan(rng) -> bool:
    """Cycle metrics of 4-32 points with one pair lengthened by 0-2 hops, at
    scales 2^-1074 to 2^1000: the verdict of :func:`metric._dyadic_triangles`
    is that of every slack d[i,k] - (d[i,j] + d[j,k]) against the tolerance."""
    ok = True
    for _ in range(8):
        n = int(rng.integers(4, 33))
        hops = np.abs(np.arange(n)[:, None] - np.arange(n))
        d = np.minimum(hops, n - hops).astype(float)
        p, q = rng.choice(n, 2, replace=False)
        d[p, q] = d[q, p] = d[p, q] + rng.integers(0, 3)
        d = np.ldexp(d, int(rng.integers(-1074, 1001)))
        near = np.where(np.eye(n, dtype=bool), np.inf, d).min(axis=1)
        slack = d[:, None, :] - (d[:, :, None] + d[None, :, :])  # slack[i, j, k]
        ok &= metric._dyadic_triangles(d, near) == (slack.max() <= metric.TRIANGLE_RTOL * d.max())
    return ok


def _psi_log_constant(n: int, k: int) -> float:
    """log of the normalizing constant C(n,k) of the radial success density."""
    from scipy.special import gammaln

    return math.log(2.0) + gammaln((n - 1) / 2) - gammaln(k / 2) - gammaln((n - 1 - k) / 2)


# Takahasi-Mori double-exponential quadrature on a fixed step of 1/32.  A
# finite interval [a, a + width] is mapped by tanh-sinh,
# x = a + width / (1 + exp(-pi sinh t)), t in [-3.1875, 3.1875]; a half-line
# [a, inf) by exp-sinh, x = a + exp(pi/2 sinh t), t in [-4.5, 2.84375], so the
# offsets x - a run from 2e-31 to 7e5.  The weights decay doubly
# exponentially at both ends, so an endpoint singularity such as the
# (s - 1)^(1/2) of the psi density costs no accuracy.  The offsets are
# returned directly, because a + offset rounds to a near the left end.
_DE_STEP = 1 / 32
_TANH_SINH_T = np.arange(-102, 103) * _DE_STEP
_EXP_SINH_T = np.arange(-144, 92) * _DE_STEP


def _double_exponential(width: float) -> tuple[np.ndarray, np.ndarray]:
    """Offsets from the left end and weights of the double-exponential rule
    on an interval of the given width: tanh-sinh if finite, exp-sinh if inf."""
    if math.isinf(width):
        offset = np.exp(np.pi / 2 * np.sinh(_EXP_SINH_T))
        weight = offset * (np.pi / 2 * np.cosh(_EXP_SINH_T))
    else:
        u = np.pi / 2 * np.sinh(_TANH_SINH_T)
        offset = width / (1.0 + np.exp(-2.0 * u))
        weight = width * (np.pi / 4) * np.cosh(_TANH_SINH_T) / np.cosh(u) ** 2
    return offset, _DE_STEP * weight


def _psi_quadrature(n: int, k: int, alpha: float, sigma: float) -> float:
    """psi as the integral of C(n,k) (s^2-1)^((n-k-3)/2) / s^(n-2) over
    [max(1, sigma/alpha), max(1, sigma)], in log space, by the tanh-sinh rule
    of step 1/32 on each piece of the interval split at the integrand's
    stationary point sqrt((n-2)/(k+1))."""
    lo = max(1.0, sigma / alpha)
    hi = max(1.0, sigma)
    if hi <= lo:
        return 0.0
    e = (n - k - 3) / 2
    log_c = _psi_log_constant(n, k)
    peak = math.sqrt((n - 2) / (k + 1))
    cuts = [lo, peak, hi] if lo < peak < hi else [lo, hi]
    value = 0.0
    for a, b in zip(cuts, cuts[1:]):
        d, w = _double_exponential(b - a)
        s = a + d
        # s^2 - 1 = (s - 1)(s + 1), with s - 1 exact from the offset at s = 1
        value += np.exp(log_c + e * np.log((a - 1.0 + d) * (s + 1.0)) - (n - 2) * np.log(s)) @ w
    return float(value)


def _gaussian_failure_quadrature(k: int, alpha: float) -> float:
    """Failure probability of the rescaled Gaussian as one integral over
    b = log(image length ratio) from log(alpha) to infinity, by the exp-sinh
    rule of step 1/32."""
    from scipy.special import gammaln

    log_pref = math.log(2.0) + (k / 2) * math.log(k) - gammaln(k / 2)
    d, w = _double_exponential(math.inf)
    b = math.log(alpha) + d
    lem = 2.0 * b + np.log(-np.expm1(-2.0 * b))  # log(expm1(2b)) without overflow
    t = b * np.exp(-lem)
    return float(np.exp(log_pref + (k / 2) * (np.log(b) - lem) - k * t) @ w)


def verify_jl(seed: int = 0) -> dict:
    results = []

    o = jl.sample_haar_orthogonal(9, seed)
    _prop(
        results,
        "haar_orthogonality",
        np.abs(o.T @ o - np.eye(9)).max() <= 1e-12
        and abs(abs(np.linalg.det(o)) - 1) <= 1e-9,
    )

    ok = True
    for sig in (1.2, 1.8, 2.5, 4.0):
        closed = min(1.0, 4.0 / sig**2) - 1.0 / sig**2
        ok &= abs(jl.psi(5, 2, 2.0, sig).value - closed) <= 1e-10
    _prop(results, "psi_closed_form_n5_k2", ok)

    grid = [(n, k, alpha, jl.sigma_max(n, k, alpha)) for n, k, alpha in
            [(12, 3, 1.5), (20, 5, 2.0), (16, 4, 3.0)]]
    devs = [abs(jl.psi(n, k, a, sig).value - _psi_quadrature(n, k, a, sig)) for n, k, a, sig in grid]
    _prop(results, "psi_quadrature_agreement", all(d <= 1e-10 for d in devs),
          f"worst deviation {max(devs):.2e}")

    ok = True
    worst = 0.0
    for n, k, alpha, sig in grid:
        value = jl.psi(n, k, alpha, sig).value
        mc = jl.psi_monte_carlo(n, k, alpha, sig, 200_000, seed)
        dev = abs(value - mc.value) / max(mc.std_error, 1e-12)
        worst = max(worst, dev)
        ok &= dev <= 4.0
    _prop(results, "psi_monte_carlo_agreement", ok, f"worst deviation {worst:.2f} se")

    devs = [abs(jl.gaussian_failure(k, a) - _gaussian_failure_quadrature(k, a))
            for k in (1, 2, 5, 10, 25) for a in (1.2, 1.5, 2.0, 4.0, 10.0)]
    _prop(results, "gaussian_quadrature_chi2_agreement", all(d <= 1e-9 for d in devs),
          f"worst deviation {max(devs):.2e}")

    ok = (
        jl.jl_min_dim_gaussian(10**9, 2.0) == 329
        and jl.jl_min_dim_gaussian(10**9, 10.0) == 37
        and jl.jl_min_dim_gaussian(10**9, 450.0) == 9
    )
    _prop(results, "gaussian_reference_dimensions", ok)

    ok = True
    for n, alpha in ((100, 2.0), (1000, 1.5)):
        kp = jl.jl_min_dim_projection(n, alpha)
        kg = jl.jl_min_dim_gaussian(n, alpha)
        ok &= kp <= kg
    _prop(results, "projection_dominates_gaussian", ok)

    return _finish("jl", results)


def verify_sdp(seed: int = 0) -> dict:
    results = []

    m = metric.build_metric(np.ones((6, 6)) - np.eye(6))
    alpha = sdp.c2_bracket(m, tol=1e-6).hi
    _prop(results, "simplex_isometric", abs(alpha - 1.0) <= 2e-6, f"alpha={alpha:.8f}")

    c4 = metric.build_metric(
        np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], float)
    )
    b = sdp.c2_bracket(c4, tol=1e-4)
    alpha, witness = b.hi, b.witness
    _prop(results, "cycle4_root2", abs(alpha - math.sqrt(2)) <= 1e-3, f"alpha={alpha:.6f}")

    cloud = sdp.extract_points(witness)
    rep = metric.distortion(c4, cloud, np.arange(4))
    _prop(results, "witness_realizes_distortion", rep.distortion <= alpha + 2e-4)

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(5):
        pts = rng.standard_normal((3, 2))
        m3 = metric.PointCloud(pts, "l2").to_metric()
        ok &= sdp.c2_bracket(m3, tol=1e-4).hi <= 1 + 2e-4
    _prop(results, "three_points_isometric", ok)

    cert = sdp.find_violating_certificate(c4, 1.3)
    _prop(results, "violating_certificate_found", cert is not None)

    hops = np.abs(np.arange(12)[:, None] - np.arange(12))
    c12 = metric.build_metric(np.minimum(hops, 12 - hops).astype(float))
    b = sdp.c2_bracket(c12, tol=1e-4)
    exact = 6 * math.sin(math.pi / 12)  # the regular 12-gon (Linial and Magen 2000)
    _prop(results, "cycle12_bracket", b.lo <= exact <= b.hi and b.hi - b.lo <= 1e-3,
          f"[{b.lo:.6f}, {b.hi:.6f}]")

    ok = b.certificate is not None and not sdp.check_certificate(c12, b.certificate, b.lo * (1 - 1e-9))[0]
    _prop(results, "gap_certificate_checked", ok, f"lo={b.lo:.6f}")

    m = metric.random_metric(12, seed, style="shortest_path")
    b = sdp.c2_bracket(m, tol=1e-4)
    off = ~np.eye(12, dtype=bool)
    r2 = sdp._dist2_of(b.witness.Q)[off] / m.dist[off] ** 2
    ok = (
        b.status == "converged"
        and b.certificate is not None
        and not sdp.check_certificate(m, b.certificate, b.lo * (1 - 1e-9))[0]
        and abs(math.sqrt(r2.max() / r2.min()) - b.hi) <= 1e-9
    )
    _prop(results, "random12_bracket_checked", ok, f"[{b.lo:.6f}, {b.hi:.6f}] {b.status}")

    return _finish("sdp", results)


def verify_spectral(seed: int = 0) -> dict:
    results = []
    rng = np.random.default_rng(seed)

    ok = True
    for n in (3, 4, 6):
        g = spectral.WeightedGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        ok &= abs(spectral.lambda2(spectral.chain_from_graph(g)) + 1 / (n - 1)) <= 1e-12
    for n in (4, 5, 8):
        g = spectral.WeightedGraph.build(n, [(i, (i + 1) % n) for i in range(n)])
        ok &= abs(spectral.lambda2(spectral.chain_from_graph(g)) - math.cos(2 * math.pi / n)) <= 1e-12
    _prop(results, "closed_form_eigenvalues", ok)

    ok = True
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(3, 7))
        chain_a = spectral.random_reversible_chain(n, rng.integers(2**32))
        b = spectral.ReversibleChain(_reversible_partner(chain_a, rng), chain_a.pi)
        mspace = metric.random_metric(int(rng.integers(2, 5)), rng.integers(2**32), style="box")
        x = spectral.Configuration(mspace, rng.integers(0, mspace.n, size=n))
        if x.is_constant():
            continue
        p = float(rng.choice([1.0, 2.0]))
        delta = float(rng.random())
        ra = spectral.rayleigh(x, chain_a, p)
        rb = spectral.rayleigh(x, b, p)
        mix = spectral.ReversibleChain(delta * chain_a.A + (1 - delta) * b.A, chain_a.pi)
        worst = max(worst, abs(spectral.rayleigh(x, mix, p) - (delta * ra + (1 - delta) * rb)))
        ok &= worst <= 1e-12
        ok &= ra <= 2**p + 1e-12
        rp = spectral.rayleigh_general(x, chain_a.A @ b.A, chain_a.pi, p)
        ok &= rp ** (1 / p) <= ra ** (1 / p) + rb ** (1 / p) + 1e-9
    _prop(results, "rayleigh_algebra", ok, f"worst convexity residual {worst:.2e}")

    ok = True
    for _ in range(60):
        n = int(rng.integers(3, 7))
        chain = spectral.random_reversible_chain(n, rng.integers(2**32))
        coords = rng.standard_normal((n, int(rng.integers(1, 4))))
        x = spectral.Configuration(metric.PointCloud(coords, "l2"))
        lhs, rhs = spectral.hilbert_rayleigh_identity(x, chain)
        ok &= abs(lhs - rhs) <= 1e-10
    _prop(results, "hilbertian_identity", ok)

    ok = True
    for _ in range(60):
        n = int(rng.integers(3, 7))
        mdim = int(rng.integers(1, 6))
        chain = spectral.random_reversible_chain(n, rng.integers(2**32))
        cloud = metric.PointCloud(rng.standard_normal((n, mdim)), "l1")
        x = spectral.Configuration(cloud)
        d = math.sqrt(mdim)
        t, _ = spectral.t_parameter(x, chain, d)
        lam = spectral.lambda2(chain)
        ceil = math.ceil(math.log(2 * d) / math.log(2 / (1 + lam)))
        ok &= t <= ceil
        val, _ = spectral.power_expander_check(x, chain, d)
        ok &= val >= 1 / 16
    _prop(results, "lazy_power_bounds", ok)

    g = spectral.random_regular_graph(64, 4, seed)
    chain = spectral.chain_from_graph(g)
    _prop(results, "regular_graph_spectral_gap", spectral.lambda2(chain) < 0.95)

    try:  # shortest_path_metric itself skips the scan
        metric.build_metric(g.shortest_path_metric().dist)
        ok = True
    except Exception:
        ok = False
    _prop(results, "hop_metric_axioms", ok)

    return _finish("spectral", results)


def _reversible_partner(chain, rng) -> np.ndarray:
    """Second transition matrix reversible w.r.t. the same measure, by the
    Metropolis adjustment of a random positive proposal."""
    n = chain.n
    a = rng.uniform(0.2, 1.0, (n, n))
    a = a / a.sum(axis=1, keepdims=True)
    pi = chain.pi
    accept = np.minimum(1.0, (pi[None, :] * a.T) / (pi[:, None] * a))
    out = a * accept
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, 1.0 - out.sum(axis=1))
    return out


def verify_matousek(seed: int = 0) -> dict:
    results = []
    rng = np.random.default_rng(seed)

    ok_girth = True
    ok_metric = True
    ok_fork = True
    for _ in range(50):
        n = int(rng.integers(8, 20))
        g = int(rng.choice([4, 6]))
        template = matousek.gen_template(n, g, rng.integers(2**32))
        ok_girth &= template.girth >= g
        signs = matousek.random_signs(template, rng.integers(2**32))
        s, t_mult = 0.5, float(g)
        params = matousek.SignedMetricParams(s, s * t_mult)
        try:
            sm = matousek.signed_metric(template, signs, params)
            metric.build_metric(sm.dist)  # signed_metric itself skips the scan
        except Exception:
            ok_metric = False
            continue
        ok_fork &= matousek.min_fork_distance(sm, n) >= min(s * g, params.T) - 1e-12
    _prop(results, "template_girth", ok_girth)
    _prop(results, "signed_metric_axioms", ok_metric)
    _prop(results, "fork_separation", ok_fork)

    pair = moduli.ModulusPair.bi_lipschitz(2.0)
    ok = abs(moduli.beta_modulus(pair) - 0.25) <= 1e-15
    pair2 = moduli.ModulusPair.snowflake(2.0, 0.5)
    ok &= abs(moduli.beta_modulus(pair2) - 0.0625) <= 1e-15
    s_grid = np.linspace(0.01, 50, 1000)
    tab = moduli.ModulusPair(
        moduli.TabulatedModulus(s_grid, pair.omega(s_grid)),
        moduli.TabulatedModulus(s_grid, pair.Omega(s_grid)),
    )
    ok &= abs(moduli.beta_modulus(tab, grid=np.linspace(0.05, 10, 500)) - 0.25) <= 1e-3
    _prop(results, "beta_modulus_values", ok)

    return _finish("matousek", results)


def _finish(suite: str, results: list) -> dict:
    return {
        "suite": suite,
        "properties": results,
        "passed": sum(1 for r in results if r["passed"]),
        "failed": sum(1 for r in results if not r["passed"]),
        "ok": all(r["passed"] for r in results),
    }


_RUNNERS = {
    "metric": verify_metric,
    "jl": verify_jl,
    "sdp": verify_sdp,
    "spectral": verify_spectral,
    "matousek": verify_matousek,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, seed: int = 0) -> dict:
    return _RUNNERS[name](seed)
