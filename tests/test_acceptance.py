"""Acceptance criteria, one test per numbered criterion.

Each test enforces the stated tolerance and prints a single PASS line
(visible under ``pytest -s`` or in the captured output on failure).
Criteria with runtime budgets assert them.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import cycle4, equilateral, graph_complete, graph_cycle, path_metric, star13
from mdrlab import jl, matousek, metric, moduli, sdp, spectral


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_01_paper_number_reproduction():
    budgets = {2.0: 329, 10.0: 37, 450.0: 9}
    for alpha, expected in budgets.items():
        t0 = time.perf_counter()
        got = jl.jl_min_dim_gaussian(10**9, alpha)
        dt = time.perf_counter() - t0
        assert got == expected, (alpha, got)
        assert dt < 1.0, f"runtime {dt:.3f}s exceeds 1s"
    _report(1, "gaussian dimensions 329/37/9 at n=1e9, each under 1 s")


def test_02_projection_optimality_grid():
    t0 = time.perf_counter()
    for n in (10**3, 10**4, 10**5, 10**6, 10**7, 10**8, 10**9):
        for alpha in (1.5, 2.0, 4.0, 10.0):
            kp = jl.jl_min_dim_projection(n, alpha)
            kg = jl.jl_min_dim_gaussian(n, alpha)
            assert kp <= kg, (n, alpha, kp, kg)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"runtime {dt:.1f}s exceeds 1 min"
    _report(2, f"projection <= gaussian on the full 28-cell grid in {dt:.1f}s")


def test_03_psi_correctness():
    t0 = time.perf_counter()
    # closed form at (5, 2): radial law uniform
    for alpha in (1.5, 2.0, 4.0):
        for sigma in (1.1, 1.6, 2.2, 3.0, 6.0):
            closed = min(1.0, alpha**2 / sigma**2) - 1.0 / sigma**2
            assert abs(jl.psi(5, 2, alpha, sigma).value - closed) <= 1e-10
    # Monte Carlo agreement at 1e6 samples on a 6-point grid
    grid = [
        (12, 3, 1.5, 1.3),
        (12, 3, 1.5, None),
        (20, 5, 2.0, None),
        (16, 4, 3.0, None),
        (9, 5, 2.0, None),
        (40, 8, 1.8, None),
    ]
    for i, (n, k, alpha, sigma) in enumerate(grid):
        if sigma is None:
            sigma = jl.sigma_max(n, k, alpha)
        quad = jl.psi(n, k, alpha, sigma).value
        mc = jl.psi_monte_carlo(n, k, alpha, sigma, 10**6, 1000 + i)
        assert abs(quad - mc.value) <= 3 * mc.std_error, (n, k, alpha, sigma)
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"runtime {dt:.1f}s exceeds 2 min"
    _report(3, f"closed form to 1e-10 and 1e6-sample MC within 3 se on 6 grid points in {dt:.1f}s")


def test_04_empirical_jl_simplex():
    t0 = time.perf_counter()
    n, alpha = 64, 2.0
    k = jl.jl_min_dim_projection(n, alpha)
    cloud = metric.PointCloud(np.eye(n) / math.sqrt(2), "l2")
    plan = jl.make_plan(n, alpha, "haar_projection", k)
    trials = 200
    wins = sum(
        jl.jl_transform(cloud, alpha, "haar_projection", seed=s, max_retries=1, k=k).success
        for s in range(trials)
    )
    freq = wins / trials
    bound = plan.union_bound
    slack = 3 * math.sqrt(max(bound * (1 - bound), 1 / trials) / trials)
    assert freq >= bound - slack, (freq, bound)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"runtime {dt:.1f}s exceeds 1 min"
    _report(4, f"simplex-64 success rate {freq:.3f} >= union bound {bound:.3f} - 3se in {dt:.1f}s")


def test_05_sdp_distortion():
    t0 = time.perf_counter()
    alpha, _, _ = sdp.c2_sdp(equilateral(8), tol=1e-6)
    assert abs(alpha - 1.0) <= 1e-6
    targets = [
        (cycle4(), math.sqrt(2.0), "C4"),
        (star13(), 2.0 / math.sqrt(3.0), "K13"),
    ]
    for m, want, name in targets:
        got, _, _ = sdp.c2_sdp(m, tol=1e-4)
        assert abs(got - want) <= 1e-3, (name, got, want)
        oracle = sdp.c2_bruteforce(m, starts=32, seed=0)
        assert abs(oracle - want) <= 1e-3, (name, oracle, want)
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"runtime {dt:.1f}s exceeds 30s"
    _report(5, f"simplex 1+-1e-6; C4 and K13 within 1e-3 of sqrt2 and 2/sqrt3, oracle-confirmed, {dt:.1f}s")


def test_06_spectral_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        chain = spectral.random_reversible_chain(n, rng.integers(2**32))
        partner_a = rng.uniform(0.2, 1.0, (n, n))
        partner_a /= partner_a.sum(axis=1, keepdims=True)
        accept = np.minimum(1.0, (chain.pi[None, :] * partner_a.T) / (chain.pi[:, None] * partner_a))
        b = partner_a * accept
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, 1.0 - b.sum(axis=1))
        other = spectral.ReversibleChain(b, chain.pi)
        space = metric.random_metric(int(rng.integers(2, 5)), rng.integers(2**32), style="box")
        x = spectral.Configuration(space, rng.integers(0, space.n, size=n))
        if x.is_constant():
            continue
        p = float(rng.choice([1.0, 2.0]))
        delta = float(rng.random())
        ra, rb = spectral.rayleigh(x, chain, p), spectral.rayleigh(x, other, p)
        mix = spectral.ReversibleChain(delta * chain.A + (1 - delta) * other.A, chain.pi)
        # (1) mixture linearity
        assert abs(spectral.rayleigh(x, mix, p) - (delta * ra + (1 - delta) * rb)) <= 1e-12
        # (2) lazy rescaling
        lazy = spectral.ReversibleChain((1 - delta) * np.eye(n) + delta * chain.A, chain.pi)
        assert abs(spectral.rayleigh(x, lazy, p) - delta * ra) <= 1e-12
        # (3) a priori bound
        assert ra <= 2**p + 1e-12
        # (4) product subadditivity
        rp = spectral.rayleigh_general(x, chain.A @ other.A, chain.pi, p)
        assert rp ** (1 / p) <= ra ** (1 / p) + rb ** (1 / p) + 1e-9
        # (5) power bound
        for t in (2, 3, 4):
            rpow = spectral.rayleigh_general(x, np.linalg.matrix_power(chain.A, t), chain.pi, p)
            assert rpow <= t**p * ra + 1e-9
        checked += 1
    assert checked >= 90

    for i in range(100):
        n = int(rng.integers(2, 8))
        chain = spectral.random_reversible_chain(n, rng.integers(2**32))
        cloud = metric.PointCloud(rng.standard_normal((n, int(rng.integers(1, 4)))), "l2")
        x = spectral.Configuration(cloud)
        lhs, rhs = spectral.hilbert_rayleigh_identity(x, chain)
        assert abs(lhs - rhs) <= 1e-10

    for i in range(100):
        n = int(rng.integers(2, 9))
        mdim = int(rng.integers(1, 9))
        chain = spectral.random_reversible_chain(n, rng.integers(2**32))
        cloud = metric.PointCloud(rng.standard_normal((n, mdim)), "l1")
        x = spectral.Configuration(cloud)
        d = math.sqrt(mdim)
        t, _ = spectral.t_parameter(x, chain, d)
        lam = spectral.lambda2(chain)
        assert t <= math.ceil(math.log(2 * d) / math.log(2 / (1 + lam)))
        val, _ = spectral.power_expander_check(x, chain, d)
        assert val >= 1.0 / 16.0
    dt = time.perf_counter() - t0
    assert dt < 120.0, f"runtime {dt:.1f}s exceeds 2 min"
    _report(6, f"quotient algebra, Hilbert identity, lazy-power ceiling and 1/16 bound over 100+ instances, {dt:.1f}s")


def test_07_gamma_identities():
    rng = np.random.default_rng(707)
    for _ in range(25):
        chain = spectral.random_reversible_chain(int(rng.integers(2, 10)), rng.integers(2**32))
        lam = spectral.lambda2(chain)
        assert abs(spectral.gamma_hilbert(chain) - 1.0 / (1.0 - lam)) <= 1e-10
    for n in (3, 4, 7):
        got = spectral.lambda2(spectral.chain_from_graph(graph_complete(n)))
        assert abs(got + 1.0 / (n - 1)) <= 1e-12
    for n in (4, 6, 9):
        got = spectral.lambda2(spectral.chain_from_graph(graph_cycle(n)))
        assert abs(got - math.cos(2 * math.pi / n)) <= 1e-12
    k2 = spectral.chain_from_graph(spectral.WeightedGraph.build(2, [(0, 1)]))
    assert spectral.gamma_bruteforce(k2, path_metric([0.0, 1.0]), 2.0) == 0.5
    _report(7, "gamma identities, closed-form eigenvalues, exact K2 brute force")


def test_08_matousek_construction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    n, g = 64, 6
    s = 0.5
    cap = s * g
    params = matousek.SignedMetricParams(s, cap)
    for trial in range(200):
        template = matousek.gen_template(n, g, rng.integers(2**32))
        assert template.girth >= g
        signs = matousek.random_signs(template, rng.integers(2**32))
        sm = matousek.signed_metric(template, signs, params)
        metric.build_metric(sm.dist)  # validates the axioms; signed_metric skips the scan
        assert matousek.min_fork_distance(sm, n) >= min(s * g, cap) - 1e-12
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"runtime {dt:.1f}s exceeds 1 min"
    _report(8, f"200 signed metrics at n=64: axioms, girth >= {g}, fork separation, {dt:.1f}s")


def test_09_beta_modulus():
    for alpha in (1.5, 2.0, 10.0):
        pair = moduli.ModulusPair.bi_lipschitz(alpha)
        assert moduli.beta_modulus(pair) == pytest.approx(1.0 / (2 * alpha), rel=1e-14)
        for theta in (0.25, 0.5, 1.0):
            snow = moduli.ModulusPair.snowflake(alpha, theta)
            assert moduli.beta_modulus(snow) == pytest.approx(
                (2 * alpha) ** (-1.0 / theta), rel=1e-14
            )
    s = np.linspace(0.01, 60.0, 1000)
    pair = moduli.ModulusPair.bi_lipschitz(2.0)
    tab = moduli.ModulusPair(
        moduli.TabulatedModulus(s, pair.omega(s)), moduli.TabulatedModulus(s, pair.Omega(s))
    )
    assert abs(moduli.beta_modulus(tab, grid=np.linspace(0.05, 12.0, 500)) - 0.25) <= 1e-3
    _report(9, "bi-Lipschitz and snowflake beta exact; tabulated within 1e-3")


def test_10_markov_convexity():
    p = np.zeros((5, 5))
    p[0, 1] = p[4, 3] = 1.0
    for i in (1, 2, 3):
        p[i, i - 1] = p[i, i + 1] = 0.5
    start = np.eye(5)[2]
    path = path_metric(np.arange(5.0))
    spec = spectral.MarkovChainSpec(p, start, 8, path, np.arange(5), 2.0)

    const = spectral.MarkovChainSpec(p, start, 8, path, np.zeros(5, dtype=int), 2.0)
    assert spectral.markov_convexity_ratio(const, method="dp").lhs == 0.0
    assert spectral.markov_convexity_ratio(const, samples=5000, seed=1, method="mc").lhs == 0.0

    perm = np.roll(np.eye(5), 1, axis=1)
    determ = spectral.MarkovChainSpec(perm, np.eye(5)[0], 8, path, np.arange(5), 2.0)
    assert spectral.markov_convexity_ratio(determ, method="dp").lhs == 0.0
    assert spectral.markov_convexity_ratio(determ, samples=5000, seed=2, method="mc").lhs == 0.0

    dp = spectral.markov_convexity_ratio(spec, method="dp")
    mc = spectral.markov_convexity_ratio(spec, samples=100_000, seed=3, method="mc")
    assert abs(mc.lhs**2 - dp.lhs**2) <= 3 * mc.lhs_q_se
    assert abs(mc.rhs**2 - dp.rhs**2) <= 3 * max(mc.rhs_q_se, 1e-12)
    _report(10, f"constant/deterministic exact zeros; MC within 3 se of DP (ratio {dp.ratio:.4f})")


def test_11_sweep_determinism(tmp_path):
    spec = {
        "command": "jl-dim",
        "grid": {"n": [1e3, 1e5], "alpha": [2, 10]},
        "args": {"mode": "gaussian"},
        "seed": 424242,
    }
    f = tmp_path / "sweep.json"
    f.write_text(json.dumps(spec))
    outputs = []
    for threads in ("1", "2", "7"):
        proc = subprocess.run(
            [sys.executable, "-m", "mdrlab.cli", "sweep", "--spec", str(f), "--threads", threads],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]
    assert len(outputs[0].strip().splitlines()) == 5
    _report(11, "sweep output byte-identical across thread counts 1/2/7")
