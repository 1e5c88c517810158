import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from helpers import equilateral, path_metric
from mdrlab import matousek, metric, spectral
from mdrlab.errors import (
    ConfigTooLarge,
    DegenerateSource,
    IndexMismatch,
    NonInjectiveMap,
    NonzeroDiagonal,
    SymmetryViolation,
    ThetaOutOfRange,
    TooLargeForExact,
    TriangleViolation,
)


class TestBuildMetric:
    def test_single_point(self):
        m = metric.build_metric(np.zeros((1, 1)))
        assert m.n == 1
        back = metric.FiniteMetric.from_json(m.to_json())
        assert back.n == 1 and np.array_equal(back.dist, m.dist)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError, match="need at least one point"):
            metric.build_metric(np.zeros((0, 0)))

    def test_line_path(self):
        m = path_metric([0.0, 1.0, 2.0])
        assert m.dist[0, 2] == 2.0

    def test_triangle_violation_reports_triple(self):
        d = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]], dtype=float)
        with pytest.raises(TriangleViolation) as exc:
            metric.build_metric(d)
        i, j, k = exc.value.triple
        assert d[i, k] > d[i, j] + d[j, k]

    def test_triangle_violation_message_has_plain_ints(self):
        d = np.array([[0, 1, 4], [1, 0, 1], [4, 1, 0]], dtype=float)
        with pytest.raises(TriangleViolation) as exc:
            metric.build_metric(d)
        assert [type(v) for v in exc.value.triple] == [int, int, int]
        assert str(exc.value) == "triangle inequality violated on (0, 1, 2) by 2.000e+00"

    def test_symmetry_violation(self):
        d = np.array([[0, 1], [2, 0]], dtype=float)
        with pytest.raises(SymmetryViolation):
            metric.build_metric(d)

    def test_nonzero_diagonal(self):
        d = np.array([[0.5, 1], [1, 0]], dtype=float)
        with pytest.raises(NonzeroDiagonal):
            metric.build_metric(d)

    def test_zero_offdiagonal_rejected(self):
        d = np.array([[0, 0], [0, 0]], dtype=float)
        with pytest.raises(ValueError):
            metric.build_metric(d)

    def test_snowflaked_float_metric_revalidates(self):
        # double-precision powers of a valid metric must pass the tolerance
        m = metric.random_metric(12, 99, style="shortest_path")
        metric.build_metric(m.dist**0.5)

    def test_json_roundtrip(self):
        m = metric.random_metric(5, 3)
        again = metric.FiniteMetric.from_json(m.to_json())
        assert np.array_equal(again.dist, m.dist)


def _scan_oracle(d):
    """Every row at every pivot, as build_metric scanned before it skipped rows."""
    n = d.shape[0]
    tol = metric.TRIANGLE_RTOL * d.max(initial=0.0)
    for j in range(n):
        slack = d - (d[:, j][:, None] + d[j, :][None, :])
        i, k = np.unravel_index(np.argmax(slack), slack.shape)
        if slack[i, k] > tol:
            return TriangleViolation((i, j, k), slack[i, k])
    return None


def _scan_verdict(d):
    try:
        metric.build_metric(d)
    except TriangleViolation as exc:
        return exc
    return None


def _hops(rng, n):
    return spectral.random_regular_graph(2 * max(2, n // 2), 3, rng.integers(2**32)).shortest_path_metric().dist


def _signed(rng, n):
    template = matousek.gen_template(max(2, n // 3), 4, rng.integers(2**32))
    signs = matousek.random_signs(template, rng.integers(2**32))
    s = rng.uniform(0.3, 2.0)
    return matousek.signed_metric(template, signs, matousek.SignedMetricParams(s, s * rng.uniform(1, 5))).dist


def _truncated(rng, n):
    d = metric.random_metric(n, rng.integers(2**32), "shortest_path").dist
    t = np.quantile(d[d > 0], rng.uniform(0.1, 0.9))
    return np.minimum(d, t) * (1 - np.eye(n))


def _cloud(norm):
    def draw(rng, n):
        return metric.PointCloud(rng.standard_normal((n, rng.integers(1, 6))), norm).pairwise()

    return draw


def _snowflake(rng, n):
    return metric.random_metric(n, rng.integers(2**32), "shortest_path").dist ** rng.uniform(0.2, 1.0)


SCAN_FAMILIES = {
    "box": lambda rng, n: metric.random_metric(n, rng.integers(2**32), "box").dist,
    "shortest_path": lambda rng, n: metric.random_metric(n, rng.integers(2**32), "shortest_path").dist,
    "truncated": _truncated,
    "l1": _cloud("l1"),
    "l2": _cloud("l2"),
    "linf": _cloud("linf"),
    "snowflake": _snowflake,
    "signed": _signed,
    "hops": _hops,
}
SCAN_FACTORS = (1 + 1e-13, 1 + 3e-12, 1 + 1e-11, 0.3, 1.5, 3.0)


class TestTriangleScan:
    """build_metric skips rows it can bound; the verdicts, triples and slacks
    must be those of the full per-pivot scan, bit for bit."""

    def check(self, d):
        want, got = _scan_oracle(d), _scan_verdict(d)
        assert (want is None) == (got is None)
        if want is not None:
            assert got.triple == want.triple
            assert got.slack == want.slack
            assert str(got) == str(want)
        return want is not None

    @pytest.mark.parametrize("family", sorted(SCAN_FAMILIES))
    def test_fuzzed_corpus_matches_full_scan(self, family):
        rng = np.random.default_rng(sorted(SCAN_FAMILIES).index(family))
        verdicts = []
        for _ in range(250):
            d = np.array(SCAN_FAMILIES[family](rng, int(rng.integers(3, 25))))
            n = d.shape[0]
            if rng.random() < 0.2:  # ties: distances on a 0.1 grid, smallest 1
                d = np.round(d / d[d > 0].min(), 1)
            if rng.random() < 0.8:  # one symmetric pair moved
                p, q = rng.choice(n, 2, replace=False)
                d[p, q] = d[q, p] = d[p, q] * SCAN_FACTORS[rng.integers(len(SCAN_FACTORS))]
            verdicts.append(self.check(d))
        assert 0 < sum(verdicts) < len(verdicts)

    def test_violation_in_the_only_live_rows_of_its_pivot(self):
        # a violating pair (i, k) has equal slack in rows i and k, so both rows
        # stay live; here they are the only live rows of every pivot but 3, 7
        d = np.ones((8, 8)) - np.eye(8)
        d[3, 7] = d[7, 3] = 2.25
        top = d.max(axis=1)
        near = np.where(np.eye(8, dtype=bool), np.inf, d).min(axis=1)
        live = top[None, :] - (d + near[:, None]) > metric.TRIANGLE_RTOL * d.max()
        assert np.flatnonzero(live[0]).tolist() == [3, 7]
        assert self.check(d)
        assert _scan_verdict(d).triple == (3, 0, 7)
        assert _scan_verdict(d).slack == 0.25

    @pytest.mark.parametrize("excess, fails", [(1.5e-12, False), (3e-12, True)])
    def test_tight_bound_at_the_tolerance(self, excess, fails):
        # the bound of rows 3 and 7 equals their slack, which sits on either
        # side of tol = 1e-12 * (2 + excess)
        d = np.ones((8, 8)) - np.eye(8)
        d[3, 7] = d[7, 3] = 2 + excess
        assert self.check(d) is fails

    def test_tie_for_largest_slack_across_rows(self):
        d = np.ones((8, 8)) - np.eye(8)
        d[2, 5] = d[5, 2] = d[4, 6] = d[6, 4] = 2.5
        assert self.check(d)
        assert _scan_verdict(d).triple == (2, 0, 5)

    def test_tie_in_full_slab(self):
        # every row is live at pivot 2, the first that fails, so the block
        # scanned is every row but the pivot's; rows 1 and 4 tie for the
        # largest slack
        x = np.arange(6.0)
        d = np.abs(x[:, None] - x[None, :])
        d[1, 4] = d[4, 1] = d[2, 5] = d[5, 2] = 3.5
        near = np.where(np.eye(6, dtype=bool), np.inf, d).min(axis=1)
        assert (d.max(axis=1) - (d[2] + near[2]) > metric.TRIANGLE_RTOL * d.max()).all()
        assert self.check(d)
        assert _scan_verdict(d).triple == (1, 2, 4)

    @pytest.mark.parametrize("scale", [1.0, 7e307, 1e-313])
    def test_random_symmetric_matrices_match_full_scan(self, scale):
        # at 7e307 sums of two entries overflow to inf; at 1e-313 every entry
        # is subnormal and the tolerance underflows to 0
        rng = np.random.default_rng(46)
        verdicts = []
        for _ in range(300):
            n = int(rng.integers(2, 20))
            if rng.random() < 0.3:  # ties: small integers
                w = rng.integers(1, 3, (n, n)).astype(float)
            else:
                w = rng.uniform(1.0, 2.5, (n, n))
            d = np.triu(w, 1) * scale
            d += d.T
            assert (metric.TRIANGLE_RTOL * d.max() == 0.0) == (scale < 1e-300)
            with np.errstate(over="ignore"):
                want = _scan_oracle(d)
            got = _scan_verdict(d)
            assert (want is None) == (got is None)
            if want is not None:
                assert (got.args, got.triple, got.slack) == (want.args, want.triple, want.slack)
            verdicts.append(want is not None)
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.filterwarnings("error")
    def test_sums_past_the_float_maximum_are_silent(self):
        # a sum that overflows to inf only lowers its slack: a valid metric
        # near the float maximum passes without a warning, and a violating
        # one reports the triple and slack of the full scan
        t = matousek.gen_template(16, 4, 0)
        params = matousek.SignedMetricParams(1e308, 1.7e308)
        sm = matousek.signed_metric(t, matousek.random_signs(t, 1), params)
        assert metric.build_metric(sm.dist).dist.tobytes() == sm.dist.tobytes()
        d = np.full((4, 4), 1.7e308)
        np.fill_diagonal(d, 0.0)
        d[0, 1] = d[1, 0] = 5e307
        d[1, 2] = d[2, 1] = 6e307
        with np.errstate(over="ignore"):
            want = _scan_oracle(d)
        got = _scan_verdict(d)
        assert got.triple == want.triple == (0, 1, 2)
        assert got.slack == want.slack == 1.7e308 - 1.1e308


def _near(d):
    return np.where(np.eye(len(d), dtype=bool), np.inf, d).min(axis=1)


def _hypercube(k):
    x = np.arange(2**k)
    return np.array([[bin(a ^ b).count("1") for b in x] for a in x], float)


def _offset_line(n, top):
    # 1 + |x_i - x_j| off the diagonal, with x in [0, top - 1]: a metric whose
    # largest entry is top; two points at 0 and one at top - 1 make the
    # product's smallest term the square of the smallest entry of E
    x = np.concatenate([[0, 0, top - 1], np.random.default_rng(n).integers(0, top, n - 3)])
    return np.abs(x[:, None] - x[None, :]).astype(float) + 1 - np.eye(n)


def _plant(rng, d):
    # move one pair by a whole number of units, up or down, keeping it positive
    d = d.copy()
    p, q = rng.choice(len(d), 2, replace=False)
    unit = d[d > 0].min()
    d[p, q] = d[q, p] = d[p, q] + unit * rng.choice([-1, 1, 2]) if d[p, q] > unit else d[p, q] + unit
    return d


class TestDyadicRoute:
    """Matrices of integer multiples of one power of two are decided by one
    exact min-plus product; the verdict, triple, slack and message stay those
    of the full scan, and a valid matrix never reaches the scan."""

    def check(self, d, *, applies=True):
        """build_metric agrees with the full scan, and the route decides every
        valid matrix of its domain (``applies``) and turns away the rest."""
        with np.errstate(over="ignore"):
            want = _scan_oracle(d)
        got = _scan_verdict(d)
        assert (want is None) == (got is None)
        if want is not None:
            assert (got.triple, got.slack, str(got)) == (want.triple, want.slack, str(want))
        assert metric._dyadic_triangles(d, _near(d)) is (applies and want is None)
        return want is not None

    @pytest.fixture
    def scan_calls(self, monkeypatch):
        calls = []
        scan = metric._check_triangles
        monkeypatch.setattr(metric, "_check_triangles", lambda *a: calls.append(a) or scan(*a))
        return calls

    @pytest.mark.parametrize("s", [0.25, 0.5, 2.0])
    def test_signed_metrics_with_planted_violations(self, s):
        rng = np.random.default_rng(int(4 * s))
        verdicts = []
        for n in (4, 8, 16, 32, 64, 128):
            t = matousek.gen_template(n, 4, rng.integers(2**32))
            params = matousek.SignedMetricParams(s, s * int(rng.integers(1, 7)))
            d = matousek.signed_metric(t, matousek.random_signs(t, rng.integers(2**32)), params).dist
            verdicts += [self.check(d), self.check(_plant(rng, d))]
        assert not any(verdicts[::2]) and any(verdicts[1::2])

    def test_hop_metrics_with_planted_violations(self):
        rng = np.random.default_rng(7)
        verdicts = []
        for n, r in ((6, 3), (40, 3), (100, 4), (200, 3), (400, 4)):
            d = spectral.random_regular_graph(n, r, rng.integers(2**32)).shortest_path_metric().dist
            verdicts += [self.check(d), self.check(_plant(rng, d))]
        assert not any(verdicts[::2]) and any(verdicts[1::2])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [-1074, -1070, -1060, -1022, -600, -1, 0, 3, 500, 1000, 1019])
    def test_power_of_two_scales_are_silent(self, k):
        # 2^-1074 is the smallest subnormal; at 2^1019 sums of two entries of
        # the 33-point cycle (diameter 16) overflow to inf
        rng = np.random.default_rng(k + 2000)
        verdicts = []
        for d in (_hypercube(4), spectral.WeightedGraph.build(33, [(i, (i + 1) % 33) for i in range(33)])
                  .shortest_path_metric().dist, _offset_line(20, 9)):
            d = np.ldexp(d, k)
            verdicts += [self.check(d), self.check(_plant(rng, d))]
        assert not any(verdicts[::2]) and any(verdicts[1::2])

    @pytest.mark.parametrize("n", [3, 4, 33, 257, 400])
    def test_edge_of_the_normal_range(self, n):
        # with 2^e >= 2n, the route takes largest entries D <= 511 // e units
        cap = 511 // (2 * n - 1).bit_length()
        at, past = _offset_line(n, cap), _offset_line(n, cap + 1)
        assert self.check(at) is False
        assert self.check(past, applies=False) is False
        planted = at.copy()
        planted[1, 2] = planted[2, 1] = 1  # d[0, 2] = cap > 1 + 1
        assert self.check(planted)
        # the cap bounds the entries in units, whatever the unit
        assert self.check(2.0 * at) is False
        assert self.check(2.0 * past, applies=False) is False

    @pytest.mark.parametrize("k", range(1, 9))
    def test_hypercubes_fill_the_margin(self, k):
        # n = 2^(e-1) points, and every vertex lies on a geodesic between
        # antipodes: their sum has n equal least terms, the most it can have
        d = _hypercube(k)
        assert len(d) == 2 ** ((2 * len(d) - 1).bit_length() - 1)
        assert self.check(d) is False
        if k > 1:
            d = d.copy()  # build_metric froze it
            d[0, -1] = d[-1, 0] = k + 1
            assert self.check(d)

    def test_non_dyadic_matrices_are_turned_away_by_their_row_minima(self):
        rng = np.random.default_rng(3)
        for family in ("l2", "snowflake", "box"):
            d = SCAN_FAMILIES[family](rng, 256)
            near = _near(d)
            tracemalloc.start()
            assert metric._dyadic_triangles(d, near) is False
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < d.nbytes / 8

    def test_valid_dyadic_matrices_never_reach_the_scan(self, scan_calls):
        g = spectral.random_regular_graph(512, 4, 0)
        t = matousek.gen_template(128, 6, 0)
        signed = matousek.signed_metric(t, matousek.random_signs(t, 0), matousek.SignedMetricParams(0.5, 3))
        for d in (g.shortest_path_metric().dist, signed.dist, np.ldexp(_hypercube(5), -1070)):
            assert metric.build_metric(d).dist.tobytes() == d.tobytes()
        assert scan_calls == []
        d = _hypercube(3)
        d[0, 7] = d[7, 0] = 5
        with pytest.raises(TriangleViolation):
            metric.build_metric(d)
        assert len(scan_calls) == 1


class TestDistortion:
    def test_identity_map(self):
        m = metric.random_metric(6, 0)
        rep = metric.distortion(m, m, np.arange(6))
        assert rep.distortion == 1.0
        assert rep.scale == 1.0
        assert rep.avg_ratio == 1.0

    def test_rescaling_changes_scale_not_distortion(self):
        m = metric.random_metric(6, 1)
        doubled = metric.build_metric(2.0 * m.dist)
        rep = metric.distortion(m, doubled, np.arange(6))
        assert abs(rep.distortion - 1.0) <= 1e-12
        assert abs(rep.scale - 2.0) <= 1e-12
        assert abs(rep.avg_ratio - 2.0) <= 1e-12

    def test_frechet_image_isometric(self):
        m = metric.random_metric(6, 2, style="shortest_path")
        rep = metric.distortion(m, metric.frechet_embed(m).to_metric(), np.arange(6))
        assert abs(rep.distortion - 1.0) <= 1e-12

    def test_non_injective(self):
        m = metric.random_metric(4, 3)
        with pytest.raises(NonInjectiveMap):
            metric.distortion(m, m, [0, 1, 2, 2])

    def test_degenerate_source(self):
        m = metric.build_metric(np.zeros((1, 1)))
        with pytest.raises(DegenerateSource):
            metric.distortion(m, m, [0])

    def test_report_consistency(self):
        src = metric.random_metric(7, 4)
        dst = metric.random_metric(7, 5)
        rep = metric.distortion(src, dst, np.arange(7))
        assert rep.distortion == pytest.approx(rep.expansion / rep.contraction)
        assert rep.distortion >= 1.0


class TestFrechet:
    def test_single_point(self):
        cloud = metric.frechet_embed(metric.build_metric(np.zeros((1, 1))))
        assert cloud.dim == 1 and np.all(cloud.coords == 0)

    def test_path_rows(self):
        m = path_metric([0.0, 1.0, 2.0])
        cloud = metric.frechet_embed(m)
        assert cloud.norm == "linf"
        assert np.array_equal(cloud.coords, np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]]))
        assert np.allclose(cloud.pairwise(), m.dist)

    def test_random_8_points(self):
        m = metric.random_metric(8, 11, style="shortest_path")
        rep = metric.distortion(m, metric.frechet_embed(m).to_metric(), np.arange(8))
        assert abs(rep.distortion - 1.0) <= 1e-12


class TestPairwise:
    @pytest.mark.parametrize(
        "norm, name", [("l2", "euclidean"), ("l1", "cityblock"), ("linf", "chebyshev"), ("lp", "minkowski")]
    )
    def test_equals_symmetrized_cdist(self, norm, name):
        rng = np.random.default_rng(31)
        for _ in range(50):
            coords = rng.standard_normal((int(rng.integers(1, 25)), int(rng.integers(1, 9))))
            kwargs = {"p": float(rng.uniform(1, 5))} if norm == "lp" else {}
            ref = cdist(coords, coords, name, **kwargs)
            ref = (ref + ref.T) / 2
            np.fill_diagonal(ref, 0.0)
            got = metric.PointCloud(coords, norm, **kwargs).pairwise()
            assert got.tobytes() == ref.tobytes()


class TestPointCloudValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        coords = np.random.default_rng(0).standard_normal((5, 3))
        coords[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            metric.PointCloud(coords, "l2")
        text = json.dumps({"n": 5, "dim": 3, "norm": "l1", "coords": coords.tolist()})
        with pytest.raises(ValueError, match="non-finite"):
            metric.PointCloud.from_json(text)

    @pytest.mark.parametrize("p", [math.nan, 0.5, -math.inf])
    def test_lp_exponent_below_one_or_nan_rejected(self, p):
        # a NaN exponent built a cloud whose pairwise() was all NaN
        text = json.dumps({"n": 2, "dim": 1, "norm": {"lp": p}, "coords": [[0.0], [1.0]]})
        with pytest.raises(ValueError, match="p >= 1"):
            metric.PointCloud.from_json(text)


class TestBourgain:
    def test_two_points(self):
        m = path_metric([0.0, 3.0])
        cloud = metric.bourgain_embed(m, 7)
        rep = metric.distortion(m, cloud.to_metric(), np.arange(2))
        assert abs(rep.distortion - 1.0) <= 1e-9

    def test_equilateral_16(self):
        m = equilateral(16)
        worst = 0.0
        for seed in range(10):
            rep = metric.distortion(m, metric.bourgain_embed(m, seed).to_metric(), np.arange(16))
            worst = max(worst, rep.distortion)
        assert worst <= 2.0

    def test_random_32_envelope(self):
        envelope = 20 * math.log2(32)
        for trial in range(100):
            style = "shortest_path" if trial % 2 else "box"
            m = metric.random_metric(32, 1000 + trial, style=style)
            rep = metric.distortion(
                m, metric.bourgain_embed(m, 2000 + trial).to_metric(), np.arange(32)
            )
            assert rep.distortion <= envelope

    def test_deterministic_in_seed(self):
        m = metric.random_metric(10, 5)
        a = metric.bourgain_embed(m, 42).coords
        b = metric.bourgain_embed(m, 42).coords
        assert np.array_equal(a, b)

    def test_equals_per_subset_reference(self):
        def reference(m, seed):
            # one rng.random(n) draw and one column gather per subset
            rng = np.random.default_rng(seed)
            n = m.n
            scales = int(math.ceil(math.log2(n)))
            per_scale = max(1, int(math.ceil(24 * math.log2(n))))
            cols = []
            for j in range(1, scales + 1):
                for _ in range(per_scale):
                    mask = rng.random(n) < 2.0 ** (-j)
                    cols.append(m.dist[:, mask].min(axis=1) if mask.any() else np.zeros(n))
            return np.stack(cols, axis=1) / math.sqrt(len(cols)), cols

        hop = spectral.random_regular_graph(96, 3, 4).shortest_path_metric()
        for m, seed in ((hop, 5), (metric.random_metric(40, 6), 7), (metric.random_metric(2, 8, "box"), 9)):
            want, cols = reference(m, seed)
            got = metric.bourgain_embed(m, seed).coords
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
            if m is hop:
                assert any(not c.any() for c in cols)  # empty subsets at the finest scale

    def test_equals_transposed_row_expression(self):
        def rows_then_transpose(m, seed):
            # one row per subset, transposed and scaled into a second array
            rng = np.random.default_rng(seed)
            n = m.n
            scales = int(math.ceil(math.log2(n)))
            per_scale = max(1, int(math.ceil(24 * math.log2(n))))
            masks = np.concatenate([rng.random((per_scale, n)) < 2.0 ** (-j) for j in range(1, scales + 1)])
            rows = np.zeros(masks.shape)
            for row, mask in zip(rows, masks):
                if mask.any():
                    m.dist[mask].min(axis=0, out=row)
            return rows.T / math.sqrt(len(rows))

        hop = spectral.random_regular_graph(128, 4, 2).shortest_path_metric()
        for m, seed in ((hop, 3), (metric.random_metric(50, 4), 5), (metric.random_metric(33, 6, "box"), 7)):
            want = rows_then_transpose(m, seed)
            got = metric.bourgain_embed(m, seed).coords
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_holds_one_copy_of_the_coordinates(self):
        # rows, their scaled transpose and its C-ordered copy were 3.25 copies here
        m = spectral.random_regular_graph(512, 4, 1).shortest_path_metric()
        metric.bourgain_embed(m, 0)
        tracemalloc.start()
        try:
            cloud = metric.bourgain_embed(m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud.coords.flags.c_contiguous
        assert peak <= 1.5 * cloud.coords.nbytes


class TestSnowflake:
    def test_identity_at_one(self):
        m = metric.random_metric(6, 8)
        assert np.array_equal(metric.snowflake(m, 1.0).dist, m.dist)

    def test_line_points_half(self):
        m = path_metric([0.0, 1.0, 4.0])
        s = metric.snowflake(m, 0.5)
        assert s.dist[0, 1] == pytest.approx(1.0)
        assert s.dist[1, 2] == pytest.approx(math.sqrt(3))
        assert s.dist[0, 2] == pytest.approx(2.0)

    def test_triangle_preserved_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            m = metric.random_metric(n, rng.integers(2**32), style="shortest_path")
            theta = float(rng.choice([0.25, 0.5, 0.75, 1.0]))
            metric.snowflake(m, theta)  # raises on any violation

    def test_theta_out_of_range(self):
        m = metric.random_metric(4, 1)
        for theta in (0.0, -1.0, 1.5):
            with pytest.raises(ThetaOutOfRange):
                metric.snowflake(m, theta)


def _bitmask_min_cover(target_mask, ball_masks, n):
    """Exact set cover as the library computed it before: a BFS over unions."""
    useful = [b & target_mask for b in ball_masks]
    useful = [b for b in set(useful) if b]
    useful.sort(key=lambda b: -bin(b).count("1"))
    kept = []
    for b in useful:
        if not any(b & ~c == 0 for c in kept):
            kept.append(b)
    best = {0: 0}
    frontier = {0}
    count = 0
    while frontier:
        count += 1
        nxt = set()
        for mask in frontier:
            for b in kept:
                new = mask | b
                if new == target_mask:
                    return count
                if new not in best:
                    best[new] = count
                    nxt.add(new)
        frontier = nxt
        if count > n:
            break
    return len(kept) if target_mask else 0


def _bitmask_doubling(m, mode):
    """doubling_constant with integer bitmasks and Python sets, as it was
    computed before the half-ball matrices."""
    n = m.n
    d = m.dist
    K = 1
    for x in range(n):
        for r in sorted(set(d[x])):
            if r <= 0:
                continue
            target = np.flatnonzero(d[x] <= r)
            halves = [np.flatnonzero(d[y] <= r / 2) for y in range(n)]
            if mode == "exact":
                tmask = sum(1 << int(i) for i in target)
                masks = [sum(1 << int(i) for i in h) for h in halves]
                K = max(K, _bitmask_min_cover(tmask, masks, n))
            else:
                uncovered = set(target.tolist())
                used = 0
                sets = [set(h.tolist()) for h in halves]
                while uncovered:
                    gain, pick = max(
                        ((len(uncovered & s), idx) for idx, s in enumerate(sets)),
                        key=lambda t: (t[0], -t[1]),
                    )
                    assert gain > 0
                    uncovered -= sets[pick]
                    used += 1
                K = max(K, used)
    return K


def _lattice(rng, n):
    # distinct integer points in the l1 or linf norm: many equal distances
    dim = int(rng.integers(1, 4))
    pts = np.unique(rng.integers(0, 4, size=(3 * n, dim)), axis=0)[:n]
    return metric.PointCloud(pts.astype(float), str(rng.choice(["l1", "linf"]))).pairwise()


DOUBLING_FAMILIES = {
    **{name: SCAN_FAMILIES[name] for name in ("box", "shortest_path", "l1", "l2", "linf", "snowflake")},
    # the ceiling of a metric is a metric; a half-unit grid makes ties
    "grid": lambda rng, n: np.ceil(SCAN_FAMILIES["shortest_path"](rng, n) * rng.uniform(2, 8)) / 2,
    "lattice": _lattice,
}


class TestDoubling:
    def test_single_point(self):
        assert metric.doubling_constant(metric.build_metric(np.zeros((1, 1)))) == 1

    def test_equilateral_five(self):
        # unit ball around any point needs all five half-radius singletons
        assert metric.doubling_constant(equilateral(5), "exact") == 5

    def test_greedy_at_least_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            n = int(rng.integers(4, 11))
            m = metric.random_metric(n, rng.integers(2**32), style="shortest_path")
            assert metric.doubling_constant(m, "greedy") >= metric.doubling_constant(m, "exact")

    def test_exact_size_cap(self):
        with pytest.raises(TooLargeForExact):
            metric.doubling_constant(equilateral(17), "exact")

    def test_mode_checked_before_any_shortcut(self):
        for m in (metric.build_metric(np.zeros((1, 1))), equilateral(17)):
            with pytest.raises(ValueError, match="unknown mode"):
                metric.doubling_constant(m, "bogus")

    def test_matches_bitmask_cover(self):
        rng = np.random.default_rng(2)
        cases = 0
        for family in sorted(DOUBLING_FAMILIES):
            for _ in range(45):
                m = metric.build_metric(DOUBLING_FAMILIES[family](rng, int(rng.integers(2, 13))))
                for mode in ("exact", "greedy"):
                    assert metric.doubling_constant(m, mode) == _bitmask_doubling(m, mode), (family, mode)
                    cases += 1
        for n in (2, 3, 5, 8, 12, 16):
            for mode in ("exact", "greedy"):
                assert metric.doubling_constant(equilateral(n), mode) == _bitmask_doubling(equilateral(n), mode)
                cases += 1
        assert cases == 732


class TestDoublingDimLowerBound:
    def test_two_points(self):
        m = path_metric([0.0, 1.0])
        for alpha in (1.0, 2.0, 5.0):
            expected = math.log(2) / math.log(4 * alpha + 1)
            assert metric.doubling_dim_lower_bound(m, alpha) == pytest.approx(expected)

    def test_equilateral_125(self):
        got = metric.doubling_dim_lower_bound(equilateral(125), 1.0)
        assert got == pytest.approx(3.0, abs=1e-12)

    def test_non_increasing_in_alpha(self):
        m = metric.random_metric(9, 13, style="shortest_path")
        values = [metric.doubling_dim_lower_bound(m, a) for a in (1.0, 1.5, 2.0, 4.0, 10.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))


    def test_equals_packing_loop(self):
        def reference(m, alpha):
            d = m.dist
            radii = sorted({v for v in d.flat if v > 0} | {v / 2 for v in d.flat if v > 0})
            best = 0.0
            for x in range(m.n):
                for r in radii:
                    chosen = []
                    for y in np.flatnonzero(d[x] <= 2 * r):
                        if all(d[y, z] >= r for z in chosen):
                            chosen.append(int(y))
                    if len(chosen) > 1:
                        best = max(best, math.log(len(chosen)) / math.log(4 * alpha + 1))
            return best

        rng = np.random.default_rng(17)
        for style in ("shortest_path", "box"):
            for _ in range(4):
                m = metric.random_metric(int(rng.integers(2, 12)), rng.integers(2**32), style=style)
                assert metric.doubling_dim_lower_bound(m, 1.5) == reference(m, 1.5)
        # truncated hop metrics on 48-96 points: few distinct distances, many
        # ties, and balls whose packings end in different rounds
        for n, g, s, T in ((16, 4, 1.0, 2.0), (24, 4, 0.5, 2.0), (32, 4, 1.0, 4.0), (32, 6, 0.75, 3.0)):
            template = matousek.gen_template(n, g, rng.integers(2**32))
            signs = matousek.random_signs(template, rng.integers(2**32))
            m = matousek.signed_metric(template, signs, matousek.SignedMetricParams(s, T))
            assert m.n == 3 * n and len(np.unique(m.dist)) <= 1 + T / s
            for alpha in (1.0, 2.5):
                assert metric.doubling_dim_lower_bound(m, alpha) == reference(m, alpha)

    def test_radii_from_distinct_entries(self):
        # the radii are built from the distinct positive entries; the float
        # equals the one from every positive entry and its half
        def from_all_entries(m, alpha):
            d = m.dist
            pos = d[d > 0]
            best = 0.0
            for r in np.unique(np.concatenate([pos, pos / 2])):
                far, free, taken = d >= r, d <= 2 * r, 0
                while len(free):
                    free &= far[free.argmax(axis=1)]
                    taken += 1
                    free = free[free.any(axis=1)]
                if taken > 1:
                    best = max(best, math.log(taken) / math.log(4 * alpha + 1))
            return best

        rng = np.random.default_rng(31)
        metrics = [metric.random_metric(int(rng.integers(2, 40)), rng.integers(2**32), style=style)
                   for style in ("shortest_path", "box") for _ in range(3)]
        for n, g, s, T in ((16, 4, 1.0, 4.0), (48, 6, 0.5, 3.0), (64, 6, 0.3, 1.0)):
            template = matousek.gen_template(n, g, rng.integers(2**32))
            signs = matousek.random_signs(template, rng.integers(2**32))
            metrics.append(matousek.signed_metric(template, signs, matousek.SignedMetricParams(s, T)))
        for m in metrics:
            for alpha in (1.0, 2.5):
                assert metric.doubling_dim_lower_bound(m, alpha) == from_all_entries(m, alpha)

    def test_smallest_subnormal_distance(self):
        # half of 5e-324 rounds to 0, a radius whose packing never ended
        for tiny in (5e-324, 1e-323):
            m = metric.build_metric(np.array([[0.0, tiny], [tiny, 0.0]]))
            assert metric.doubling_dim_lower_bound(m, 1.0) == math.log(2) / math.log(5)

    def test_radii_hold_no_pair_sized_float_arrays(self):
        # 768 points: sorting every positive entry and its half peaked at ~44
        # bytes per pair; the distinct entries and the packing need ~12
        template = matousek.gen_template(256, 6, 0)
        m = matousek.signed_metric(template, matousek.random_signs(template, 1), matousek.SignedMetricParams(1.0, 8.0))
        tracemalloc.start()
        try:
            metric.doubling_dim_lower_bound(m, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * m.n ** 2


class TestVolumetric:
    def test_two_points(self):
        assert metric.volumetric_lower_bound(2, 1.0) == pytest.approx(1.0)

    def test_billion_alpha_two(self):
        v = metric.volumetric_lower_bound(10**9, 2.0)
        assert v == pytest.approx(math.log(10**9) / math.log(3.0), rel=1e-12)
        assert math.ceil(v) == 19

    def test_monotonicity(self):
        assert metric.volumetric_lower_bound(100, 2.0) < metric.volumetric_lower_bound(1000, 2.0)
        assert metric.volumetric_lower_bound(100, 4.0) < metric.volumetric_lower_bound(100, 2.0)

    def test_below_trivial_dimension(self):
        for n in (2, 5, 50, 10**6):
            for alpha in (1.0, 2.0, 7.0):
                assert metric.volumetric_lower_bound(n, alpha) <= n - 1


class TestMetricCotype:
    def test_constant_configuration(self):
        m = path_metric([0.0, 1.0])
        a = np.zeros((2, 2), dtype=int)  # n=2 axes, m=1
        lhs, rhs = metric.metric_cotype_ratio(m, a, 2.0, 1, 2)
        assert lhs == 0.0 and rhs == 0.0

    def test_two_point_alternation(self):
        # n = 1, m = 1: x_w alternates between two points at distance 1
        m = path_metric([0.0, 1.0])
        a = np.array([0, 1])
        lhs, rhs = metric.metric_cotype_ratio(m, a, 2.0, 1, 1)
        assert lhs == pytest.approx(2.0)
        # independent enumeration of the right side: eps in {-1,0,1}
        expected_rhs = 0.0
        for eps in (-1, 0, 1):
            for w in (0, 1):
                expected_rhs += (m.dist[a[(w + eps) % 2], a[w]]) ** 2
        expected_rhs *= 1.0 ** (1 - 2 / 2.0) / 3.0
        assert rhs == pytest.approx(expected_rhs)

    def test_homogeneity(self):
        m = path_metric([0.0, 1.0, 3.0])
        doubled = metric.build_metric(2 * m.dist)
        a = np.array([[0, 1, 2, 1], [2, 0, 1, 0], [1, 2, 0, 2], [0, 0, 1, 1]])  # (2m,)^n, m=2, n=2
        l1, r1 = metric.metric_cotype_ratio(m, a, 3.0, 2, 2)
        l2, r2 = metric.metric_cotype_ratio(doubled, a, 3.0, 2, 2)
        assert l2 == pytest.approx(4 * l1)
        assert r2 == pytest.approx(4 * r1)

    def test_size_cap(self):
        m = path_metric([0.0, 1.0])
        with pytest.raises(ConfigTooLarge):
            metric.metric_cotype_ratio(m, np.zeros((8,) * 5, dtype=int), 2.0, 4, 5)

    def test_index_mismatch(self):
        from mdrlab.errors import IndexMismatch

        m = path_metric([0.0, 1.0])
        with pytest.raises(IndexMismatch):
            metric.metric_cotype_ratio(m, np.zeros((2, 2), dtype=int), 2.0, 1, 1)  # wrong shape
        with pytest.raises(IndexMismatch):
            metric.metric_cotype_ratio(m, np.full((2, 2), 5, dtype=int), 2.0, 1, 2)  # bad index


def _c4():
    return metric.build_metric(np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float))


_WALK4 = np.array([[0, 1, 0, 0], [0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0, 0, 1, 0]])

# Each caller of the integer gate with one entry v, where v = 3 is valid: the
# class it raises for a number that is no index in range, and an integer out of range.
GATE_CALLERS = {
    "distortion": (lambda v: metric.distortion(_c4(), _c4(), [0, 1, 2, v]), NonInjectiveMap, 4),
    "metric_cotype_ratio": (
        lambda v: metric.metric_cotype_ratio(_c4(), [[0, 1], [2, v]], 2.0, 1, 2), IndexMismatch, 4
    ),
    "Configuration": (lambda v: spectral.Configuration(_c4(), [0, 1, 2, v]), ValueError, 4),
    "MarkovChainSpec.point_map": (
        lambda v: spectral.MarkovChainSpec(_WALK4, np.full(4, 0.25), 4, _c4(), [0, 1, 2, v]), ValueError, 4
    ),
    "MarkovChainSpec.horizon": (
        lambda v: spectral.MarkovChainSpec(_WALK4, np.full(4, 0.25), v, _c4(), [0, 1, 2, 3]), ValueError, 1
    ),
    "WeightedGraph.build": (lambda v: spectral.WeightedGraph.build(4, [(0, 1), (1, 2), (2, v)]), ValueError, 4),
    "WeightedGraph.from_json": (
        lambda v: spectral.WeightedGraph.from_json(json.dumps({"n": v, "edges": []})), ValueError, -1
    ),
    "TemplateGraph.build": (lambda v: matousek.TemplateGraph.build(4, [(0, 1), (2, v)]), ValueError, 4),
    "TemplateGraph.from_json": (
        lambda v: matousek.TemplateGraph.from_json(json.dumps({"n": v, "edges": []})), ValueError, -1
    ),
}


class TestIndexGate:
    @pytest.mark.parametrize("caller", GATE_CALLERS)
    def test_integral_entries_pass(self, caller):
        call, _, _ = GATE_CALLERS[caller]
        call(3)
        call(3.0)

    @pytest.mark.parametrize("kind", ["fraction", "string", "bool", "nan", "out-of-range"])
    @pytest.mark.parametrize("caller", GATE_CALLERS)
    def test_refused_not_truncated(self, caller, kind):
        call, exc, outside = GATE_CALLERS[caller]
        value, expected = {
            "fraction": (3.5, exc),
            "string": ("3", TypeError),
            "bool": (True, TypeError),
            "nan": (math.nan, exc),
            "out-of-range": (outside, exc),
        }[kind]
        with pytest.raises(expected) as info:
            call(value)
        assert type(info.value) is expected

    def test_counts_are_python_ints(self):
        spec = GATE_CALLERS["MarkovChainSpec.horizon"][0](8.0)
        assert type(spec.horizon) is int and spec.horizon == 8
        assert spectral.markov_convexity_ratio(spec) == spectral.markov_convexity_ratio(
            GATE_CALLERS["MarkovChainSpec.horizon"][0](8)
        )
        g = spectral.WeightedGraph.from_json('{"n": 3.0, "edges": [[0, 1.0], [1, 2]]}')
        assert g.to_json() == '{"n": 3, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}'

    @pytest.mark.parametrize("values", [2**63, 2**64, 10**23, -(2**63) - 1, [1, 10**23], [[0, 2**64], [1, 2]]])
    def test_integers_past_int64_raise_the_callers_exception(self, values):
        with pytest.raises(IndexMismatch, match="^bad$"):
            metric._indices(values, math.inf, IndexMismatch, "bad")

    @pytest.mark.parametrize(
        "values",
        [[[0, 1], [2]], None, {"a": 1}, [0, None], [0, [1]]],
        ids=["ragged", "none", "dict", "none-entry", "nested-entry"],
    )
    def test_non_numeric_is_a_type_error(self, values):
        with pytest.raises(TypeError):
            metric._indices(values, 4, ValueError, "bad")
