import hashlib
import json
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

from helpers import assert_scan_passes
from mdrlab import matousek, metric, moduli
from mdrlab.errors import Disconnected, IndexMismatch, InverseOutOfRange
from mdrlab.matousek import (
    SignAssignment,
    SignedMetricParams,
    gen_template,
    girth,
    min_fork_distance,
    random_signs,
    signed_metric,
)


class TestGirth:
    def test_k22(self):
        # complete bipartite on 2+2: the 4-cycle
        assert girth(4, [(0, 2), (0, 3), (1, 2), (1, 3)]) == 4

    def test_tree(self):
        assert girth(5, [(0, 1), (0, 2), (1, 3), (1, 4)]) == math.inf

    def test_six_cycle(self):
        assert girth(6, [(i, (i + 1) % 6) for i in range(6)]) == 6

    def test_triangle_plus_path(self):
        assert girth(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]) == 3

    def test_edgeless_and_single_vertex(self):
        assert girth(5, []) == math.inf
        assert girth(1, []) == math.inf

    @pytest.mark.parametrize("length", [3, 5, 7, 9])
    def test_odd_cycles(self, length):
        got = girth(length, [(i, (i + 1) % length) for i in range(length)])
        assert got == length and isinstance(got, int)

    def test_cycle_in_second_component(self):
        # a path on 0..2, then a 5-cycle with a pendant 4-cycle on 3..10
        pairs = [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
        pairs += [(7, 8), (8, 9), (9, 10), (10, 7)]
        assert girth(11, pairs) == 4
        assert girth(8, pairs[:7]) == 5


# sha256 of the output bytes, which are the contract for a fixed seed
TEMPLATE_DIGESTS = [
    ((16, 4, 0), 4, "f7c97f75937404995267a95cee194ac097f3fd0a1a1e5e4b38b4208161fbd205"),
    ((48, 4, 1), 4, "8e5f28ad7f29e5e3cd194fceef66eadb7bc22b2f41975695f958f2a44d64f6b2"),
    ((24, 6, 2), 6, "154102040773d067d42f3acf1ff246d046e5766a83bb895c57fedbf562041be2"),
    ((64, 6, 3), 6, "2dff3f1cccb58806c6c346ef5f438df2348149115af34167ea8cfa662dea9825"),
    ((128, 6, 4), 6, "0fef90d46d4d28ffad5993810411367c66dc5058feb1f1a5f34d28082f64cb9c"),
    ((10, 8, 0), math.inf, "33923f48da0b4322ef2e653934c336e4e536794b495e4946b25e329de19822dd"),
    ((32, 8, 5), 8, "e40eed9099351dbe68ac79f061c47667a11c0e084e612fcd0e82c22866ea508b"),
    ((96, 8, 6), 8, "5ec789fc616b721a814dd518ac054d0e2aaa573c53d66daadd3fcb11df1a2149"),
    ((300, 6, 1), 6, "41556d5d8376474e22b73d9fd282615d808e583946a55a0c1a07c53a5d6b1390"),
    ((600, 8, 7), 8, "73a6d002079a9f926db66feafc0c487917b09169c118424f35d07b568b479320"),
]
SIGNED_DIGESTS = [
    ((32, 4, 1.0, 4.0, 0), "c4749d7cd4d91d90d5319f41e206ad966e0c20f4c43d3c0b5da9443b9b00f03e"),
    ((64, 6, 0.5, 3.0, 1), "ede202b770901a13a56ca46f557b2c4d4f0641f2c1db72a62dce4f56cad142e1"),
    ((40, 8, 0.5, 2.0, 2), "d0bf9e6f218b56d8f28cccf6b93960aa1c242ef18665b4c7e2722225cd1f4113"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGolden:
    @pytest.mark.parametrize("args, g_out, digest", TEMPLATE_DIGESTS)
    def test_gen_template(self, args, g_out, digest):
        t = gen_template(*args)
        assert repr(t.girth) == repr(g_out)  # an int, never 6.0
        assert _sha256(json.dumps(t.to_dict()).encode()) == digest

    @pytest.mark.parametrize("args, digest", SIGNED_DIGESTS)
    def test_signed_metric(self, args, digest):
        n, g, s, cap, seed = args
        t = gen_template(n, g, seed)
        sm = signed_metric(t, random_signs(t, seed + 100), SignedMetricParams(s, cap))
        assert _sha256(sm.dist.tobytes()) == digest


class TestGenTemplate:
    def test_girth_respected_50_runs(self):
        for seed in range(50):
            t = gen_template(64, 6, seed)
            assert t.girth >= 6

    def test_g4_simple_bipartite(self):
        t = gen_template(32, 4, 0)
        assert t.girth >= 4
        assert len(set(t.edges)) == t.edge_count

    def test_density_grows_with_n(self):
        means = []
        for n in (16, 64):
            vals = [gen_template(n, 6, 100 + s).density_ratio for s in range(20)]
            means.append(np.mean(vals))
        assert means[1] > means[0]

    def test_memory_linear_in_n(self):
        # a dense n x n draw alone would take 18 MB at n = 1500
        import tracemalloc

        tracemalloc.start()
        try:
            t = gen_template(1500, 8, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert _sha256(json.dumps(t.to_dict()).encode()) == (
            "0f0b60b87004f1a6ff31e97e7851dfc94c30dc50bd39cedd227b0bb01c839920"
        )

    def test_rejects_odd_girth(self):
        with pytest.raises(ValueError):
            gen_template(8, 5, 0)

    def test_json_roundtrip(self):
        t = gen_template(10, 4, 1)
        assert [tuple(e) for e in json.loads(json.dumps(t.to_dict()))["edges"]] == list(t.edges)

    def test_girth_equals_recomputed(self):
        # gen_template stops its girth search at the first g-cycle; the girth
        # must equal the public girth and, up to 400 edges (the reference is
        # quadratic in the edge count), an edge-removal reference
        girths = set()
        for n in (2, 8, 32, 64, 128):
            for g in (4, 6, 8):
                for seed in range(3):
                    t = gen_template(n, g, seed)
                    pairs = [(i, n + j) for i, j in t.edges]
                    assert repr(t.girth) == repr(girth(2 * n, pairs))
                    if len(pairs) <= 400:
                        assert t.girth == _girth_by_edge_removal(2 * n, pairs)
                    assert [tuple(e) for e in json.loads(json.dumps(t.to_dict()))["edges"]] == list(t.edges)
                    girths.add(t.girth)
        assert math.inf in girths and {4, 6, 8} <= girths


def _girth_by_edge_removal(vertices: int, pairs) -> float:
    """Shortest cycle: min over edges u-v of 1 + hops(u, v) without that edge."""
    best = math.inf
    for k, (u, v) in enumerate(pairs):
        rest = np.array(pairs[:k] + pairs[k + 1:], dtype=int).reshape(-1, 2)
        graph = csr_matrix((np.ones(len(rest)), (rest[:, 0], rest[:, 1])), shape=(vertices, vertices))
        best = min(best, 1 + shortest_path(graph, directed=False, unweighted=True, indices=u)[v])
    return best


def _dijkstra_hops(vertices: int, rows, cols, s: float, T: float) -> np.ndarray:
    """The csgraph reference for ``metric._hop_distances``: a limited
    unweighted search from every vertex, then the kernel's scaling."""
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(vertices, vertices))
    d = dijkstra(graph, directed=False, unweighted=True, limit=T / s)
    d *= s
    np.minimum(d, T, out=d)
    np.fill_diagonal(d, 0.0)
    return d


# (s, T): no limit, an integral limit, T/s = 6, a T/s of 3.33..., T = s, and
# a T/s that overflows to inf
HOP_SCALES = [(1.0, math.inf), (1.0, 8.0), (0.5, 3.0), (0.3, 1.0), (2.0, 2.0), (5e-324, 1e300)]


class TestHopDistances:
    # 0, 1, 7, 8, 9, 63, 64 and 65 vertices sit on the edges of the bit
    # packing (bytes and 64-bit words)
    @pytest.mark.parametrize("vertices", [0, 1, 7, 8, 9, 63, 64, 65, 200])
    @pytest.mark.parametrize("s, T", HOP_SCALES)
    def test_matches_dijkstra(self, vertices, s, T):
        rng = np.random.default_rng(vertices)
        graphs = [np.zeros((0, 2), int)]  # no edges: every vertex isolated
        if vertices > 1:
            path = np.column_stack([np.arange(vertices - 1), np.arange(1, vertices)])
            graphs += [path, path[: vertices // 2]]  # a path; a half path plus isolated vertices
            for m in (vertices // 3, vertices, 3 * vertices):  # several components down to one
                graphs.append(rng.integers(0, vertices, (m, 2)))
        for edges in graphs:
            got = metric._hop_distances(vertices, edges[:, 0], edges[:, 1], s, T)
            want = _dijkstra_hops(vertices, edges[:, 0], edges[:, 1], s, T)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_signed_metrics_match_dijkstra(self):
        rng = np.random.default_rng(41)
        for n, g in ((16, 4), (64, 6), (128, 6)):
            t = gen_template(n, g, rng.integers(2**32))
            signs = random_signs(t, rng.integers(2**32))
            left, right = np.array(t.edges, dtype=int).reshape(-1, 2).T
            rows = np.where(signs.signs > 0, left, n + left)
            cols = 2 * n + right
            for s, T in HOP_SCALES[1:]:
                sm = signed_metric(t, signs, SignedMetricParams(s, T))
                assert sm.dist.tobytes() == _dijkstra_hops(3 * n, rows, cols, s, T).tobytes()


class TestSignedMetric:
    def test_metric_axioms_many(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(6, 16))
            g = int(rng.choice([4, 6]))
            t = gen_template(n, g, rng.integers(2**32))
            signs = random_signs(t, rng.integers(2**32))
            sm = signed_metric(t, signs, SignedMetricParams(0.5, 0.5 * g))
            assert sm.n == 3 * n  # build_metric validated the axioms

    def test_truncation_and_edges(self):
        t = gen_template(12, 4, 3)
        signs = random_signs(t, 4)
        s, cap = 0.7, 2.1
        sm = signed_metric(t, signs, SignedMetricParams(s, cap))
        assert sm.dist.max() <= cap + 1e-12
        for (i, j), sign in zip(t.edges, signs.signs):
            left = i if sign > 0 else 12 + i
            assert sm.dist[left, 24 + j] == pytest.approx(s)

    def test_fork_separation(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(6, 16))
            g = int(rng.choice([4, 6]))
            t = gen_template(n, g, rng.integers(2**32))
            signs = random_signs(t, rng.integers(2**32))
            s = float(rng.uniform(0.2, 1.0))
            cap = s * g * float(rng.uniform(1.0, 2.0))
            sm = signed_metric(t, signs, SignedMetricParams(s, cap))
            assert min_fork_distance(sm, n) >= min(s * g, cap) - 1e-12

    def test_cycle_compress_untruncated(self):
        # a finite plus/minus distance (below the cap) implies a cycle that
        # short in the template, so it is at least the girth
        rng = np.random.default_rng(6)
        found_finite = 0
        for _ in range(40):
            n = int(rng.integers(6, 14))
            t = gen_template(n, 4, rng.integers(2**32))
            if not math.isfinite(t.girth):
                continue
            signs = random_signs(t, rng.integers(2**32))
            cap = 100.0
            sm = signed_metric(t, signs, SignedMetricParams(1.0, cap))
            for i in range(n):
                d = sm.dist[i, n + i]
                if d < cap:
                    found_finite += 1
                    assert d >= t.girth
        assert found_finite > 0

    # awkward (s, T): T = s, T not a multiple of s, tiny, subnormal, huge,
    # and s*h overflowing to inf (truncated to T)
    AWKWARD = [
        (0.1, 0.7), (1 / 3, 2.0), (0.5, 0.5), (0.3, 1.0), (0.7, 2.3), (2.0, 2.0), (2.0, 7.0),
        (1e-300, 1e-300), (1e-300, 3.3e-300), (5e-324, 5e-324), (5e-324, 2e-323),
        (3e-310, 1e-308), (1e300, 3.7e300), (1e308, 1.7e308), (1e308, 1.7976931348623157e308),
    ]

    def test_passes_build_metric(self):
        # signed_metric skips build_metric's scan because it would pass it
        rng = np.random.default_rng(29)
        count = 0
        for s, cap in self.AWKWARD:
            for _ in range(14):
                n = int(rng.integers(4, 24))
                t = gen_template(n, int(rng.choice([4, 6, 8])), rng.integers(2**32))
                sm = signed_metric(t, random_signs(t, rng.integers(2**32)), SignedMetricParams(s, cap))
                assert_scan_passes(sm)
                assert sm.dist.max() == cap
                count += 1
        assert count >= 200

    def test_infinite_cap_is_validated(self):
        # unreachable pairs stay at inf, which the unscanned wrap refuses
        t = gen_template(8, 4, 7)
        with pytest.raises(Disconnected):
            signed_metric(t, random_signs(t, 1), SignedMetricParams(1.0, math.inf))

    @pytest.mark.parametrize("s", [1.0, 0.7, 5e-324])
    def test_infinite_cap_on_a_connected_graph(self, s):
        # this coin-flip graph on 24 vertices is connected, with hop diameter 8
        t = gen_template(8, 4, 20)
        signs = random_signs(t, 16)
        sm = signed_metric(t, signs, SignedMetricParams(s, math.inf))
        left, right = np.array(t.edges, dtype=int).reshape(-1, 2).T
        rows = np.where(signs.signs > 0, left, 8 + left)
        d = metric._hop_distances(24, rows, 16 + right, s, math.inf)
        assert sm.dist.tobytes() == metric.build_metric(d).dist.tobytes()
        assert sm.dist.max() == s * 8

    def test_infinite_cap_overflow_is_not_a_disconnection(self):
        t = gen_template(8, 4, 20)
        signs = random_signs(t, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows at 8 hops"):
                signed_metric(t, signs, SignedMetricParams(1e308, math.inf))

    @pytest.mark.parametrize("k", range(2, 40))
    def test_overflowing_scale_truncates_without_a_warning(self, k):
        # s * h overflows to inf for the larger hop counts h <= 8 and truncates to T
        big = sys.float_info.max
        t = gen_template(8, 4, 20)
        signs = random_signs(t, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = signed_metric(t, signs, SignedMetricParams(big / k, big))
        hops = signed_metric(t, signs, SignedMetricParams(1.0, math.inf)).dist
        with np.errstate(over="ignore"):
            want = np.minimum(hops * (big / k), big)
        assert sm.dist.tobytes() == want.tobytes()
        assert_scan_passes(sm)

    def test_sign_cover_mismatch(self):
        t = gen_template(8, 4, 7)
        bad = SignAssignment(np.ones(t.edge_count - 1), t.edges[:-1])
        with pytest.raises(IndexMismatch):
            signed_metric(t, bad, SignedMetricParams(1.0, 4.0))

    def test_signs_of_another_template_with_as_many_edges(self):
        t1, t2 = gen_template(12, 4, 0), gen_template(12, 4, 15)
        assert t1.edge_count == t2.edge_count == 37 and t1.edges != t2.edges
        signs = random_signs(t2, 0)
        assert signs.edges is t2.edges  # kept shared, not copied
        with pytest.raises(IndexMismatch):
            signed_metric(t1, signs, SignedMetricParams(1.0, 4.0))
        assert signed_metric(t2, signs, SignedMetricParams(1.0, 4.0)).n == 36

    def test_signs_must_match_their_edges(self):
        t = gen_template(8, 4, 7)
        for signs in (np.ones(t.edge_count + 1), np.ones((t.edge_count, 1)), np.zeros(t.edge_count)):
            with pytest.raises(ValueError):
                SignAssignment(signs, t.edges)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            SignedMetricParams(2.0, 1.0)  # T < s
        with pytest.raises(ValueError):
            SignedMetricParams(-1.0, 1.0)
        for bad in ((math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError):
                SignedMetricParams(*bad)
        assert SignedMetricParams(1.0, math.inf).T == math.inf

    def test_infinite_scale_rejected_without_a_warning(self):
        # s = T = inf reached 0 * inf on the diagonal before failing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="s must be positive and finite"):
                SignedMetricParams(math.inf, math.inf)


class TestBetaModulus:
    def test_bi_lipschitz(self):
        for alpha in (1.0, 2.0, 5.0, 80.0):
            pair = moduli.ModulusPair.bi_lipschitz(alpha)
            assert moduli.beta_modulus(pair) == pytest.approx(1.0 / (2 * alpha))

    def test_power_family(self):
        for alpha in (1.5, 2.0, 4.0):
            for theta in (0.25, 0.5, 1.0):
                pair = moduli.ModulusPair.snowflake(alpha, theta)
                assert moduli.beta_modulus(pair) == pytest.approx((2 * alpha) ** (-1.0 / theta))

    def test_tabulated_matches_analytic(self):
        s = np.linspace(0.01, 60.0, 1000)
        pair = moduli.ModulusPair.bi_lipschitz(2.0)
        tab = moduli.ModulusPair(
            moduli.TabulatedModulus(s, pair.omega(s)),
            moduli.TabulatedModulus(s, pair.Omega(s)),
        )
        got = moduli.beta_modulus(tab, grid=np.linspace(0.05, 12.0, 500))
        assert abs(got - 0.25) <= 1e-3

    def test_inverse_out_of_range(self):
        s = np.linspace(0.1, 2.0, 50)
        tab = moduli.ModulusPair(
            moduli.TabulatedModulus(s, s.copy()),
            moduli.TabulatedModulus(s, 3.0 * s),
        )
        with pytest.raises(InverseOutOfRange):
            moduli.beta_modulus(tab, grid=np.array([1.5]))  # 2*Omega(1.5) = 9 > 2

    def test_scaling_invariance(self):
        # beta depends only on the ratio of the power-family coefficients
        a = moduli.ModulusPair(moduli.PowerModulus(3.0, 0.5), moduli.PowerModulus(6.0, 0.5))
        assert moduli.beta_modulus(a) == pytest.approx(0.25**2)


class TestCoarseDimExponent:
    def test_composition(self):
        pair = moduli.ModulusPair.bi_lipschitz(2.0)
        got = moduli.coarse_dim_exponent(30_000, pair)
        assert got == pytest.approx(0.25 * math.log(30_000))

    def test_monotone_in_n(self):
        pair = moduli.ModulusPair.bi_lipschitz(2.0)
        assert moduli.coarse_dim_exponent(10**4, pair) < moduli.coarse_dim_exponent(10**6, pair)

    def test_vanishes_for_large_alpha(self):
        vals = [
            moduli.coarse_dim_exponent(1000, moduli.ModulusPair.bi_lipschitz(a))
            for a in (2.0, 10.0, 100.0, 1e6)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-2


@pytest.mark.parametrize(
    "build",
    [
        lambda: moduli.PowerModulus(math.inf, 1.0),
        lambda: moduli.ModulusPair.bi_lipschitz(math.inf),
        lambda: moduli.ModulusPair.snowflake(math.inf, 0.5),
        lambda: moduli.coarse_dim_exponent(math.inf, moduli.ModulusPair.bi_lipschitz(2.0)),
    ],
    ids=["tau", "bi_lipschitz", "snowflake", "n_points"],
)
def test_infinite_parameter_is_a_domain_error(build):
    # an infinite tau made beta 0 and an infinite n_points an infinite exponent
    with pytest.raises(ValueError):
        build()


class TestHarness:
    def test_rows_and_separation(self):
        rows = matousek.experiment_harness(16, 4, 0.5, 2.0, 12, 99, alpha=2.0)
        assert len(rows) == 12
        for row in rows:
            assert row["min_fork_dist"] >= min(0.5 * 4, 2.0) - 1e-12
            assert row["girth"] >= 4
            assert row["volumetric_lb"] == pytest.approx(math.log(48) / math.log(3.0))
            assert row["doubling_lb"] > 0

    def test_shape_condition(self):
        with pytest.raises(ValueError):
            matousek.experiment_harness(8, 6, 1.0, 4.0, 1, 0)  # g > T/s

    def test_deterministic(self):
        a = matousek.experiment_harness(12, 4, 1.0, 4.0, 3, 5)
        b = matousek.experiment_harness(12, 4, 1.0, 4.0, 3, 5)
        assert a == b

    def test_packing_bound_looked_up_at_call_time(self, monkeypatch):
        # a wrapper installed on mdrlab.metric after import (the benchmark's
        # tracer, say) must see every call the harness makes
        from mdrlab import metric

        calls = []
        inner = metric.doubling_dim_lower_bound

        def counted(m, alpha):
            calls.append((m.n, alpha, inner(m, alpha)))
            return calls[-1][2]

        monkeypatch.setattr(metric, "doubling_dim_lower_bound", counted)
        rows = matousek.experiment_harness(12, 4, 1.0, 4.0, 3, 5, alpha=1.5)
        assert [c[:2] for c in calls] == [(36, 1.5)] * 3
        assert [r["doubling_lb"] for r in rows] == [c[2] for c in calls]
