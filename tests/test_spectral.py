import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import assert_scan_passes, graph_complete, graph_cycle, path_metric
from mdrlab import metric, moduli, spectral
from mdrlab.errors import (
    CapExceeded,
    DegenerateCloud,
    DegenerateConfiguration,
    Disconnected,
    GenerationFailure,
    HorizonTooLarge,
    NegativeWeight,
    NoGap,
    TooLarge,
)
from mdrlab.spectral import (
    Configuration,
    MarkovChainSpec,
    ReversibleChain,
    WeightedGraph,
    chain_from_graph,
    cheeger_sweep,
    dim_lower_exponent,
    gamma_bruteforce,
    gamma_hilbert,
    hilbert_rayleigh_identity,
    lambda2,
    markov_convexity_ratio,
    power_expander_check,
    random_regular_graph,
    random_reversible_chain,
    rayleigh,
    rayleigh_general,
    t_parameter,
)


def uniform_chain(a: np.ndarray) -> ReversibleChain:
    n = a.shape[0]
    return ReversibleChain(a, np.full(n, 1.0 / n))


def two_point_metric(d: float = 1.0):
    return path_metric([0.0, d])


class TestChainConstruction:
    def test_k2(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        assert np.array_equal(chain.A, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(chain.pi, [0.5, 0.5])

    def test_star_k13(self):
        g = WeightedGraph.build(4, [(0, 1), (0, 2), (0, 3)])
        chain = chain_from_graph(g)
        assert np.allclose(chain.pi, [0.5, 1 / 6, 1 / 6, 1 / 6])

    def test_random_graph_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            edges = [(i, j, float(rng.uniform(0.5, 2))) for i in range(n) for j in range(i + 1, n)]
            chain = chain_from_graph(WeightedGraph.build(n, edges))
            flows = chain.pi[:, None] * chain.A
            assert np.abs(flows - flows.T).max() <= 1e-12
            assert np.abs(chain.pi @ chain.A - chain.pi).max() <= 1e-10

    def test_disconnected(self):
        g = WeightedGraph.build(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            chain_from_graph(g)

    def test_fewer_than_two_states(self):
        with pytest.raises(ValueError):
            ReversibleChain(np.zeros((0, 0)), np.zeros(0))
        with pytest.raises(ValueError):
            ReversibleChain(np.ones((1, 1)), np.ones(1))
        with pytest.raises(ValueError):
            chain_from_graph(WeightedGraph.build(1, []))
        with pytest.raises(Disconnected):
            chain_from_graph(WeightedGraph.build(0, []))

    @pytest.mark.parametrize(
        "edges, exc",
        [
            ([(0, 1, -1.0)], NegativeWeight),
            ([(0, 1, 0.0)], NegativeWeight),
            ([(1, 1)], ValueError),  # self-loop
            ([(0, 3)], ValueError),  # endpoint out of range
            ([(0, 1), (1, 0)], ValueError),  # duplicate
            ([(0,)], ValueError),  # too few entries
            ([(0, 1, 1.0, 7.0), (1, 2)], ValueError),  # too many entries
            ([(0.5, 1), (1, 2)], ValueError),  # non-integer endpoint
        ],
    )
    def test_bad_edges(self, edges, exc):
        with pytest.raises(exc):
            WeightedGraph.build(3, edges)

    @pytest.mark.parametrize("w", [math.nan, math.inf])
    def test_non_finite_weight_names_the_edge(self, w):
        with pytest.raises(NegativeWeight, match=r"edge \(0,1\) has weight"):
            WeightedGraph.build(3, [(0, 1, w), (1, 2)])

    def test_non_array_inputs(self):
        with pytest.raises(ValueError):
            ReversibleChain(5, [1.0])
        with pytest.raises(ValueError):
            MarkovChainSpec(5, [1.0], 2, path_metric([0.0, 1.0]), [0])

    def test_non_finite(self):
        nan_a = np.array([[np.nan, 0.5], [0.5, np.nan]])
        with pytest.raises(ValueError):
            ReversibleChain(nan_a, np.full(2, 0.5))
        with pytest.raises(ValueError):
            ReversibleChain(np.full((2, 2), 0.5), np.array([np.nan, 0.5]))

    def test_read_only_copies(self):
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        pi = np.array([0.5, 0.5])
        chain = ReversibleChain(a, pi)
        assert not chain.A.flags.writeable and not chain.pi.flags.writeable
        with pytest.raises(ValueError):
            chain.A[0, 0] = 1.0
        with pytest.raises(ValueError):
            chain.pi[0] = 1.0
        assert a.flags.writeable and pi.flags.writeable
        a[0, 0] = pi[0] = 0.0  # the caller's arrays stay theirs
        assert chain.A[0, 0] == 0.5 and chain.pi[0] == 0.5

    @staticmethod
    def circulation(chain, states, eps):
        """A and pi of the chain with eps of flow sent round the cycle ``states``:
        rows still sum to 1 and pi stays stationary, but detailed balance fails
        by 2 eps on each edge of the cycle."""
        a = chain.A.copy()
        for u, v in zip(states, states[1:] + states[:1]):
            a[u, v] += eps / chain.pi[u]
            a[v, u] -= eps / chain.pi[v]
        return a, chain.pi

    def test_detailed_balance_in_the_last_row_block(self):
        # 2**16 // 300 = 218 rows per block: the cycle lies in the second block
        chain = random_reversible_chain(300, 3)
        assert ReversibleChain(chain.A, chain.pi).n == 300
        a, pi = self.circulation(chain, [297, 298, 299], 1e-6)
        flows = pi[:, None] * a
        assert (np.flatnonzero((np.abs(flows - flows.T) > 1e-12).any(axis=1)) >= 218).all()
        with pytest.raises(ValueError, match="detailed balance fails at 1e-12"):
            ReversibleChain(a, pi)

    def test_detailed_balance_verdict_is_the_dense_one(self):
        chain = random_reversible_chain(300, 4)
        verdicts = []
        for eps in np.linspace(4e-13, 6e-13, 21):
            a, pi = self.circulation(chain, [5, 240, 299], eps)
            flows = pi[:, None] * a
            fails = np.abs(flows - flows.T).max() > spectral.DETAILED_BALANCE_TOL
            try:
                ReversibleChain(a, pi)
                verdicts.append((fails, False))
            except ValueError as exc:
                assert str(exc) == "detailed balance fails at 1e-12"
                verdicts.append((fails, True))
        assert all(want == got for want, got in verdicts)
        assert {want for want, _ in verdicts} == {False, True}

    def test_json_roundtrip(self):
        chain = random_reversible_chain(5, 1)
        obj = json.loads(json.dumps({"A": chain.A.tolist(), "pi": chain.pi.tolist()}))
        again = ReversibleChain(obj["A"], obj["pi"])
        assert np.allclose(again.A, chain.A)


class TestLambda2:
    def test_complete_graphs(self):
        for n in (3, 4, 6, 9):
            got = lambda2(chain_from_graph(graph_complete(n)))
            assert got == pytest.approx(-1.0 / (n - 1), abs=1e-12)

    def test_cycles(self):
        for n in (4, 5, 8, 12):
            got = lambda2(chain_from_graph(graph_cycle(n)))
            assert got == pytest.approx(math.cos(2 * math.pi / n), abs=1e-12)

    def test_identity_chain(self):
        assert lambda2(uniform_chain(np.eye(3))) == pytest.approx(1.0, abs=1e-12)


class TestRayleigh:
    def test_k2_two_values(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        m = two_point_metric(3.0)
        for p in (1.0, 2.0, 3.0):
            assert rayleigh(Configuration(m), chain, p) == pytest.approx(2.0)

    def test_metric_scale_invariance(self):
        chain = random_reversible_chain(4, 2)
        m = metric.random_metric(4, 3, style="box")
        scaled = metric.build_metric(7.5 * m.dist)
        x1, x2 = Configuration(m), Configuration(scaled)
        assert rayleigh(x1, chain, 2.0) == pytest.approx(rayleigh(x2, chain, 2.0), rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(4)
        chain = random_reversible_chain(5, 5)
        m = metric.random_metric(4, 6, style="box")
        idx = rng.integers(0, 4, size=5)
        x = Configuration(m, idx)
        num = den = 0.0
        for i in range(5):
            for j in range(5):
                d2 = m.dist[idx[i], idx[j]] ** 2
                num += chain.pi[i] * chain.A[i, j] * d2
                den += chain.pi[i] * chain.pi[j] * d2
        assert rayleigh(x, chain, 2.0) == pytest.approx(num / den, abs=1e-12)

    def test_degenerate(self):
        chain = random_reversible_chain(3, 7)
        m = two_point_metric()
        with pytest.raises(DegenerateConfiguration):
            rayleigh(Configuration(m, [0, 0, 0]), chain, 2.0)


@pytest.mark.parametrize("space", ["metric", "l1 cloud"])
def test_configuration_distances_gather_the_assignment(space):
    # one fancy-index gather, entry for entry the two-step full[a][:, a]
    rng = np.random.default_rng(8)
    if space == "metric":
        s = metric.random_metric(7, 9)
        full = s.dist
    else:
        s = metric.PointCloud(rng.standard_normal((7, 3)), "l1")
        full = s.pairwise()
    idx = [4, 0, 4, 6, 2, 2, 5, 4]
    got = Configuration(s, idx).distances()
    want = full[idx][:, idx]
    assert got.shape == (8, 8) and got.tobytes() == want.tobytes()


class TestRayleighAlgebra:
    """The five structural clauses, each over 200 random instances."""

    def _instances(self, seed, count=200):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(2, 7))
            chain = random_reversible_chain(n, rng.integers(2**32))
            m = metric.random_metric(int(rng.integers(2, 5)), rng.integers(2**32), style="box")
            idx = rng.integers(0, m.n, size=n)
            x = Configuration(m, idx)
            if x.is_constant():
                continue
            p = float(rng.choice([1.0, 2.0]))
            yield rng, chain, x, p

    def test_mixture_linearity(self):
        for rng, chain, x, p in self._instances(10):
            other = ReversibleChain(
                _partner(chain, rng), chain.pi
            )
            delta = float(rng.random())
            mix = ReversibleChain(delta * chain.A + (1 - delta) * other.A, chain.pi)
            want = delta * rayleigh(x, chain, p) + (1 - delta) * rayleigh(x, other, p)
            assert rayleigh(x, mix, p) == pytest.approx(want, abs=1e-12)

    def test_lazy_rescaling(self):
        for rng, chain, x, p in self._instances(11):
            delta = float(rng.random())
            lazy = ReversibleChain((1 - delta) * np.eye(chain.n) + delta * chain.A, chain.pi)
            assert rayleigh(x, lazy, p) == pytest.approx(delta * rayleigh(x, chain, p), abs=1e-12)

    def test_a_priori_bound(self):
        for _, chain, x, p in self._instances(12):
            assert rayleigh(x, chain, p) <= 2**p + 1e-12

    def test_product_subadditivity(self):
        for rng, chain, x, p in self._instances(13):
            other = ReversibleChain(_partner(chain, rng), chain.pi)
            lhs = rayleigh_general(x, chain.A @ other.A, chain.pi, p) ** (1 / p)
            rhs = rayleigh(x, chain, p) ** (1 / p) + rayleigh(x, other, p) ** (1 / p)
            assert lhs <= rhs + 1e-9

    def test_power_bound(self):
        for rng, chain, x, p in self._instances(14, count=100):
            base = rayleigh(x, chain, p)
            for t in (2, 3, 4):
                powered = rayleigh_general(x, np.linalg.matrix_power(chain.A, t), chain.pi, p)
                assert powered <= t**p * base + 1e-9


def _partner(chain, rng):
    n = chain.n
    a = rng.uniform(0.2, 1.0, (n, n))
    a = a / a.sum(axis=1, keepdims=True)
    accept = np.minimum(1.0, (chain.pi[None, :] * a.T) / (chain.pi[:, None] * a))
    out = a * accept
    np.fill_diagonal(out, 0.0)
    np.fill_diagonal(out, 1.0 - out.sum(axis=1))
    return out


class TestRayleighGeneralDomain:
    """rayleigh_general takes only a stochastic matrix and a probability vector."""

    x = Configuration(path_metric([0.0, 1.0, 2.0]))
    uniform = np.full(3, 1.0 / 3.0)

    def test_stochastic_matrix_accepted(self):
        a = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        # pi-weighted edge energy 1/2 over the pi x pi variance 4/3
        assert rayleigh_general(self.x, a, self.uniform) == pytest.approx(0.375)

    def test_negative_entry_rejected(self):
        # rows sum to 1, and the quotient would read -0.125
        a = np.array([[1.5, -0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            rayleigh_general(self.x, a, self.uniform)

    @pytest.mark.parametrize("where", ["transition", "pi"])
    def test_non_finite_entry_rejected(self, where):
        a, pi = np.eye(3), self.uniform.copy()
        (a if where == "transition" else pi)[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            rayleigh_general(self.x, a, pi)

    @pytest.mark.parametrize(
        "a, pi",
        [
            (np.ones((3, 2)) / 2, np.full(3, 1.0 / 3.0)),
            (np.eye(2), np.full(2, 0.5)),
            (np.eye(4), np.full(4, 0.25)),
            (np.eye(3), np.full(4, 0.25)),
            (np.eye(3), np.full((3, 1), 1.0 / 3.0)),
        ],
        ids=["non-square", "smaller", "larger", "pi-length", "pi-shape"],
    )
    def test_size_mismatch_rejected(self, a, pi):
        with pytest.raises(ValueError, match="configuration size"):
            rayleigh_general(self.x, a, pi)

    def test_row_sum_off_by_more_than_tolerance_rejected(self):
        a = np.eye(3)
        a[0, 0] += 1e-8
        with pytest.raises(ValueError, match="row-stochastic"):
            rayleigh_general(self.x, a, self.uniform)

    def test_row_sum_within_tolerance_accepted(self):
        a = np.eye(3)
        a[0, 0] += 1e-10
        assert rayleigh_general(self.x, a, self.uniform) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize(
        "pi", [[-0.5, 1.0, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 0.5]], ids=["negative", "zero", "sum"]
    )
    def test_pi_not_a_positive_probability_vector_rejected(self, pi):
        with pytest.raises(ValueError, match="probability vector"):
            rayleigh_general(self.x, np.eye(3), np.array(pi))


class TestGamma:
    def test_hilbert_k4(self):
        assert gamma_hilbert(chain_from_graph(graph_complete(4))) == pytest.approx(0.75)

    def test_hilbert_c4(self):
        assert gamma_hilbert(chain_from_graph(graph_cycle(4))) == pytest.approx(1.0)

    def test_no_gap(self):
        with pytest.raises(NoGap):
            gamma_hilbert(uniform_chain(np.eye(3)))

    def test_bruteforce_k2(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        assert gamma_bruteforce(chain, two_point_metric(), 2.0) == 0.5

    def test_bruteforce_degenerate(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        single = metric.build_metric(np.zeros((1, 1)))
        with pytest.raises(DegenerateConfiguration):
            gamma_bruteforce(chain, single, 2.0)

    def test_bruteforce_label_invariance(self):
        chain = chain_from_graph(graph_cycle(4))
        m = two_point_metric()
        relabeled = metric.build_metric(m.dist[::-1, ::-1])
        assert gamma_bruteforce(chain, m, 2.0) == pytest.approx(
            gamma_bruteforce(chain, relabeled, 2.0), abs=1e-12
        )

    def test_bruteforce_matches_hilbert_on_k2(self):
        # two-point Euclidean configurations realize the spectral bound
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        assert gamma_bruteforce(chain, two_point_metric(), 2.0) == pytest.approx(
            gamma_hilbert(chain)
        )

    def test_bruteforce_size_cap(self):
        chain = random_reversible_chain(8, 0)
        with pytest.raises(TooLarge):
            gamma_bruteforce(chain, metric.random_metric(8, 1), 2.0)

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
    def test_bruteforce_exponent_below_one_rejected(self, p):
        chain = chain_from_graph(graph_cycle(4))
        with pytest.raises(ValueError, match="p must be >= 1"):
            gamma_bruteforce(chain, path_metric([0.0, 1.0, 2.0, 3.0]), p)


def _k2():
    return chain_from_graph(WeightedGraph.build(2, [(0, 1)]))


# each level check, called with NaN where the level belongs
NAN_LEVELS = {
    "rayleigh": lambda v: rayleigh(Configuration(two_point_metric()), _k2(), v),
    "t_parameter": lambda v: t_parameter(Configuration(metric.PointCloud([[0.0], [1.0]])), _k2(), v),
    "power_expander_check": lambda v: power_expander_check(
        Configuration(metric.PointCloud([[0.0], [1.0]])), _k2(), v
    ),
    "gamma_bruteforce": lambda v: gamma_bruteforce(_k2(), two_point_metric(), v),
    "PowerModulus": lambda v: moduli.PowerModulus(v, 1.0),
    "coarse_dim_exponent": lambda v: moduli.coarse_dim_exponent(v, moduli.ModulusPair.bi_lipschitz(2.0)),
}


@pytest.mark.parametrize("entry", NAN_LEVELS)
def test_nan_level_is_a_domain_error(entry):
    with pytest.raises(ValueError):
        NAN_LEVELS[entry](math.nan)


class TestHilbertIdentity:
    def test_identity_chain(self):
        x = Configuration(metric.PointCloud(np.array([[0.0], [1.0], [3.0]]), "l2"))
        lhs, rhs = hilbert_rayleigh_identity(x, uniform_chain(np.eye(3)))
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_k2_antipodal(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        x = Configuration(metric.PointCloud(np.array([[1.0, 2.0], [-1.0, -2.0]]), "l2"))
        lhs, rhs = hilbert_rayleigh_identity(x, chain)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)  # A^2 = I so R = 0

    def test_random_instances(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            chain = random_reversible_chain(n, rng.integers(2**32))
            cloud = metric.PointCloud(rng.standard_normal((n, int(rng.integers(1, 4)))), "l2")
            x = Configuration(cloud)
            lhs, rhs = hilbert_rayleigh_identity(x, chain)
            assert abs(lhs - rhs) <= 1e-10
            a2 = ReversibleChain(chain.A @ chain.A, chain.pi)
            assert rayleigh(x, a2, 2.0) <= 1.0 + 1e-12

    def test_memory_is_quadratic_in_n_only(self):
        # an n x n x dim difference array alone would be 40 MB here
        rng = np.random.default_rng(21)
        chain = random_reversible_chain(500, 3)
        x = Configuration(metric.PointCloud(rng.standard_normal((500, 20)), "l2"))
        tracemalloc.start()
        try:
            hilbert_rayleigh_identity(x, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6


class TestTParameter:
    def test_k2_immediate(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        x = Configuration(metric.PointCloud(np.array([[0.0], [1.0]]), "l2"))
        t, achieved = t_parameter(x, chain, 1.0)
        assert t == 1
        assert achieved >= 1 - 1 / 4

    def test_spectral_ceiling(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            mdim = int(rng.integers(1, 8))
            chain = random_reversible_chain(n, rng.integers(2**32))
            cloud = metric.PointCloud(rng.standard_normal((n, mdim)), "l1")
            x = Configuration(cloud)
            d = math.sqrt(mdim)
            t, _ = t_parameter(x, chain, d)
            lam = lambda2(chain)
            assert t <= math.ceil(math.log(2 * d) / math.log(2 / (1 + lam)))

    def test_monotone_in_d(self):
        rng = np.random.default_rng(22)
        chain = random_reversible_chain(5, 23)
        cloud = metric.PointCloud(rng.standard_normal((5, 3)), "l1")
        x = Configuration(cloud)
        t1, _ = t_parameter(x, chain, math.sqrt(3))
        t2, _ = t_parameter(x, chain, 2 * math.sqrt(3))
        assert t2 >= t1

    def test_cap_exceeded(self):
        chain = random_reversible_chain(4, 24, lazy=0.999)
        cloud = metric.PointCloud(np.random.default_rng(1).standard_normal((4, 2)), "l1")
        with pytest.raises(CapExceeded):
            t_parameter(Configuration(cloud), chain, 50.0, t_cap=1)

    @pytest.mark.parametrize("cap", [0, -5, 2.5, 3.0, True, "8"])
    def test_cap_that_is_no_positive_integer_is_refused_before_any_work(self, cap):
        # before, t_cap < 1 gave t = 1 and "no t <= 0 reaches the threshold": no verdict on the chain
        path = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3)])
        cloud = metric.PointCloud(np.random.default_rng(1).standard_normal((4, 3)), "l1")
        for check in (t_parameter, power_expander_check):
            chain = chain_from_graph(path)
            with pytest.raises(ValueError, match="t_cap must be a positive integer"):
                check(Configuration(cloud), chain, math.sqrt(3), cap)
            assert "_spectrum" not in vars(chain)  # no eigendecomposition was taken

    def test_smallest_cap_is_one(self):
        chain = chain_from_graph(WeightedGraph.build(2, [(0, 1)]))
        x = Configuration(metric.PointCloud(np.array([[0.0], [1.0]]), "l2"))
        assert t_parameter(x, chain, 1.0, np.int64(1))[0] == 1

    def test_closed_form_minimal_against_matrix_powers(self):
        # reference: R(x; L^(2t), H^2) from explicit matrix powers of the lazy chain
        rng = np.random.default_rng(26)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            mdim = int(rng.integers(1, 8))
            lazy = float(rng.choice([0.0, 0.5, 0.9, 0.99]))
            chain = random_reversible_chain(n, rng.integers(2**32), lazy=lazy)
            cloud = metric.PointCloud(rng.standard_normal((n, mdim)), str(rng.choice(["l1", "l2", "linf"])))
            h_coords, d = spectral.hilbert_companion(cloud)
            h = Configuration(metric.PointCloud(h_coords, "l2"))
            step = 0.5 * np.eye(n) + 0.5 * chain.A

            def reference(t):
                return rayleigh_general(h, np.linalg.matrix_power(step, 2 * t), chain.pi)

            t, achieved = t_parameter(Configuration(cloud), chain, d)
            threshold = 1 - 1 / (4 * d * d)
            assert reference(t) >= threshold
            assert t == 1 or reference(t - 1) < threshold
            assert achieved == pytest.approx(reference(t), abs=1e-12)

    def test_reducible_chain_block_constant_cloud(self):
        # two closed classes: a cloud constant on each never mixes, so no t reaches the threshold
        blocks = [random_reversible_chain(3, 27), random_reversible_chain(4, 28)]
        a = np.zeros((7, 7))
        a[:3, :3], a[3:, 3:] = blocks[0].A, blocks[1].A
        pi = np.concatenate([0.4 * blocks[0].pi, 0.6 * blocks[1].pi])
        chain = ReversibleChain(a, pi)
        cloud = metric.PointCloud(np.repeat([[0.0, 0.0], [1.0, 2.0]], [3, 4], axis=0), "l2")
        with pytest.raises(CapExceeded):
            t_parameter(Configuration(cloud), chain, 1.0)

    def test_constant_configuration(self):
        chain = random_reversible_chain(3, 25)
        cloud = metric.PointCloud(np.zeros((3, 2)), "l1")
        with pytest.raises(DegenerateConfiguration):
            t_parameter(Configuration(cloud), chain, 1.0)


class TestPowerExpander:
    def test_sixteenth_bound_and_consequence(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            mdim = int(rng.integers(1, 9))
            chain = random_reversible_chain(n, rng.integers(2**32))
            cloud = metric.PointCloud(rng.standard_normal((n, mdim)), "l1")
            x = Configuration(cloud)
            d = math.sqrt(mdim)
            val, t = power_expander_check(x, chain, d)
            assert val >= 1.0 / 16.0
            # explicit-constant chain: 1/R(x; A, X^2) <= 8 t^2
            r_x = rayleigh(x, chain, 2.0)
            assert 1.0 / r_x <= 8.0 * t**2 + 1e-9

    def test_linf_companion(self):
        rng = np.random.default_rng(31)
        chain = random_reversible_chain(5, 32)
        cloud = metric.PointCloud(rng.standard_normal((5, 4)), "linf")
        x = Configuration(cloud)
        val, t = power_expander_check(x, chain, 2.0)
        assert val >= 1.0 / 16.0

    def test_gamma_chain_bound(self):
        # 1/R of 40 random l1 configurations bounds gamma(A, l1^2) below; none beats 8 * ceiling^2
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            mdim = int(rng.integers(2, 6))
            chain = random_reversible_chain(n, rng.integers(2**32))
            d = math.sqrt(mdim)
            lam = lambda2(chain)
            ceiling = math.ceil(math.log(2 * d) / math.log(2 / (1 + lam)))
            configs = np.random.default_rng(rng.integers(2**32))
            for _ in range(40):
                x = Configuration(metric.PointCloud(configs.standard_normal((n, mdim)), "l1"))
                assert 1.0 / rayleigh(x, chain, 2.0) <= 8.0 * ceiling**2 + 1e-9


def _dense_dim_exponent(f, chain):
    """dim_lower_exponent from the full squared distance matrix: the reference for every norm."""
    dmat = f.pairwise() ** 2
    pi = chain.pi
    edge_avg = float((pi[:, None] * chain.A * dmat).sum())
    pair_avg = float((pi[:, None] * pi[None, :] * dmat).sum())
    alpha_hat = math.sqrt(edge_avg)
    return alpha_hat, (1.0 - lambda2(chain)) / alpha_hat * math.sqrt(pair_avg)


def _exponent_chains(rng):
    """Random reversible chains (full support), lazy ones (diagonal support too) and graph walks."""
    n = int(rng.integers(2, 40))
    yield random_reversible_chain(n, rng.integers(2**32))
    yield random_reversible_chain(n, rng.integers(2**32), lazy=rng.uniform(0.1, 0.9))
    yield chain_from_graph(random_regular_graph(2 * n + 2, 3, rng.integers(2**32)))


class TestDimLowerExponent:
    def test_constant_cloud(self):
        chain = random_reversible_chain(4, 40)
        cloud = metric.PointCloud(np.ones((4, 3)), "l2")
        assert dim_lower_exponent(cloud, chain) == (0.0, 0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        chain = random_reversible_chain(6, 42)
        coords = rng.standard_normal((6, 4))
        _, e1 = dim_lower_exponent(metric.PointCloud(coords, "l2"), chain)
        _, e2 = dim_lower_exponent(metric.PointCloud(5.0 * coords, "l2"), chain)
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_expander_bourgain_cross_check(self):
        g = random_regular_graph(128, 4, 7)
        chain = chain_from_graph(g)
        cloud = metric.bourgain_embed(g.shortest_path_metric(), 8)
        alpha_hat, exponent = dim_lower_exponent(cloud, chain)
        assert exponent > 0
        # recompute both averages with direct double loops
        pi, a = chain.pi, chain.A
        d2 = cloud.pairwise() ** 2
        edge = sum(
            pi[i] * a[i, j] * d2[i, j] for i in range(128) for j in range(128)
        )
        pair = sum(
            pi[i] * pi[j] * d2[i, j] for i in range(128) for j in range(128)
        )
        want = (1 - lambda2(chain)) / math.sqrt(edge) * math.sqrt(pair)
        assert alpha_hat == pytest.approx(math.sqrt(edge), abs=1e-10)
        assert exponent == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("block", [None, 5])
    def test_l2_matches_dense_formula(self, block, monkeypatch):
        # the Hilbert identity and the support sum change only the rounding;
        # a 5-double block makes every sum walk many blocks
        if block is not None:
            monkeypatch.setattr(spectral, "_BLOCK", block)
        rng = np.random.default_rng(43)
        for _ in range(15):
            for chain in _exponent_chains(rng):
                coords = rng.standard_normal((chain.n, int(rng.integers(1, 9)))) * 10.0 ** rng.uniform(-3, 3)
                cloud = metric.PointCloud(coords + rng.uniform(-5, 5), "l2")
                got, want = dim_lower_exponent(cloud, chain), _dense_dim_exponent(cloud, chain)
                assert got == pytest.approx(want, rel=1e-12)

    def test_bourgain_cloud_matches_dense_formula(self):
        g = random_regular_graph(256, 4, 1)
        chain = chain_from_graph(g)
        cloud = metric.bourgain_embed(g.shortest_path_metric(), 2)
        assert cloud.dim > 1000
        assert dim_lower_exponent(cloud, chain) == pytest.approx(_dense_dim_exponent(cloud, chain), rel=1e-12)

    @pytest.mark.parametrize("norm, p", [("l1", None), ("linf", None), ("lp", 3.0)])
    def test_other_norms_keep_the_distance_matrix_bits(self, norm, p):
        rng = np.random.default_rng(44)
        for _ in range(10):
            for chain in _exponent_chains(rng):
                cloud = metric.PointCloud(rng.standard_normal((chain.n, int(rng.integers(1, 6)))), norm, p)
                assert dim_lower_exponent(cloud, chain) == _dense_dim_exponent(cloud, chain)

    @pytest.mark.parametrize("norm", ["l2", "l1"])
    def test_constancy_is_decided_exactly(self, norm):
        # 0.1 has no exact pi-weighted mean, so the rounded pair average of a
        # constant cloud need not be 0; the verdict must not depend on it
        chain = random_reversible_chain(7, 45)
        cloud = metric.PointCloud(np.full((7, 3), 0.1), norm)
        assert dim_lower_exponent(cloud, chain) == (0.0, 0.0)
        # a reducible chain: two blocks, each mapped to its own point
        a = np.zeros((4, 4))
        a[:2, :2] = a[2:, 2:] = 0.5
        two_blocks = ReversibleChain(a, np.full(4, 0.25))
        cloud = metric.PointCloud(np.array([[0.1, 0.0]] * 2 + [[0.1, 1e-300]] * 2), norm)
        with pytest.raises(DegenerateCloud):
            dim_lower_exponent(cloud, two_blocks)

    def test_expander_cloud_in_bounded_memory(self):
        # no n x n or n x dim temporary: the dense formula peaks near 20 MiB here
        g = random_regular_graph(1024, 4, 0)
        chain = chain_from_graph(g)
        cloud = metric.bourgain_embed(g.shortest_path_metric(), 0)
        lambda2(chain)  # the spectrum is cached before the measurement
        tracemalloc.start()
        try:
            dim_lower_exponent(cloud, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCheeger:
    def test_bridged_triangles(self):
        g = WeightedGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
        chain = chain_from_graph(g)
        cut, cond = cheeger_sweep(chain)
        assert set(cut) in ({0, 1, 2}, {3, 4, 5})
        # exhaustive oracle over all 2^6 bipartitions
        best = math.inf
        flows = chain.pi[:, None] * chain.A
        for mask in range(1, 2**6 - 1):
            side = np.array([(mask >> i) & 1 for i in range(6)], dtype=bool)
            vol = chain.pi[side].sum()
            cross = flows[side][:, ~side].sum()
            best = min(best, cross / min(vol, 1 - vol))
        assert cond == pytest.approx(best, abs=1e-12)

    def test_side_independent_of_eigenvector_sign(self, monkeypatch):
        def graphs():
            path = WeightedGraph.build(4, [(0, 1), (1, 2), (2, 3)])
            tri = WeightedGraph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
            return [chain_from_graph(path), chain_from_graph(tri)]

        want = [cheeger_sweep(chain) for chain in graphs()]
        assert [cut for cut, _ in want] == [(0, 1), (0, 1, 2)]
        eigh = np.linalg.eigh

        def negated(m):
            vals, vecs = eigh(m)
            return vals, -vecs

        monkeypatch.setattr(np.linalg, "eigh", negated)
        # fresh chains: each chain caches its spectrum
        assert [cheeger_sweep(chain) for chain in graphs()] == want

    def test_complete_graph_no_sparse_cut(self):
        chain = chain_from_graph(graph_complete(6))
        _, cond = cheeger_sweep(chain)
        assert cond >= 0.5 - 1e-9

    def test_cheeger_inequality_random(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            n = int(rng.integers(4, 12))
            w = rng.uniform(0.0, 1.0, (n, n))
            w = ((w + w.T) / 2 > 0.45).astype(float)
            np.fill_diagonal(w, 0.0)
            w += 1e-3  # keep connected
            np.fill_diagonal(w, 0.0)
            edges = [(i, j, w[i, j]) for i in range(n) for j in range(i + 1, n) if w[i, j] > 0]
            chain = chain_from_graph(WeightedGraph.build(n, edges))
            _, cond = cheeger_sweep(chain)
            assert cond <= math.sqrt(2 * (1 - lambda2(chain))) + 1e-12

    @staticmethod
    def per_prefix_scan(chain):
        """Reference: every prefix's crossing flow and volume summed afresh, O(n^3)."""
        n = chain.n
        v = chain._spectrum[1][:, -2]
        mag = np.abs(v)
        if v[np.argmax(mag > 1e-8 * mag.max())] > 0:
            v = -v
        pi = chain.pi
        order = np.argsort(v / np.sqrt(pi))
        flows = pi[:, None] * chain.A
        best = (None, np.inf)
        side = np.zeros(n, dtype=bool)
        for t in range(n - 1):
            side[order[t]] = True
            vol = pi[side].sum()
            cross = flows[side][:, ~side].sum()
            cond = cross / min(vol, 1 - vol)
            if cond < best[1]:
                best = (tuple(int(i) for i in np.flatnonzero(side)), float(cond))
        return best

    def test_matches_per_prefix_scan(self):
        rng = np.random.default_rng(52)
        chains = []
        for seed in range(80):
            n = int(rng.integers(2, 40))
            chains.append(random_reversible_chain(n, seed, lazy=float(rng.choice([0.0, 0.5, 0.9]))))
        for norm in ("l1", "l2", "linf"):
            for _ in range(20):
                n = int(rng.integers(3, 30))
                d = metric.PointCloud(rng.standard_normal((n, 3)), norm).pairwise()
                edges = [(i, j, math.exp(-d[i, j])) for i in range(n) for j in range(i + 1, n)]
                chains.append(chain_from_graph(WeightedGraph.build(n, edges)))
        for n in range(3, 40, 2):
            path = WeightedGraph.build(n, [(i, i + 1) for i in range(n - 1)])
            chains += [chain_from_graph(path), chain_from_graph(graph_cycle(n))]
            chains.append(chain_from_graph(graph_complete(n)))
        chains += [chain_from_graph(random_regular_graph(256, 4, seed)) for seed in range(6)]
        assert len(chains) >= 200
        for chain in chains:
            cut, cond = cheeger_sweep(chain)
            want_cut, want_cond = self.per_prefix_scan(chain)
            assert cut == want_cut and cond == want_cond

    def test_one_flow_table_at_1024_vertices(self):
        # the reordered flow table is the one n x n temporary: 8 MiB here,
        # where the flows beside their reordered copy took 16 MiB
        chain = chain_from_graph(random_regular_graph(1024, 4, 0))
        lambda2(chain)  # the spectrum is cached before the measurement
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            cheeger_sweep(chain)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20


class TestKernelsMatchDenseExpressions:
    """The kernels against the dense n x n expressions they replace, bit for bit."""

    @pytest.fixture(scope="class")
    def expander(self):
        g = random_regular_graph(600, 4, 7)
        return chain_from_graph(g), g.shortest_path_metric()

    def test_spectrum(self, expander):
        chain, _ = expander
        s = np.sqrt(chain.pi)
        sym = (s[:, None] * chain.A) / s[None, :]
        vals, vecs = np.linalg.eigh((sym + sym.T) / 2)
        assert chain._spectrum[0].tobytes() == vals.tobytes()
        assert chain._spectrum[1].tobytes() == vecs.tobytes()

    def test_cheeger_sweep(self, expander):
        chain, _ = expander
        n, pi = chain.n, chain.pi
        vals, vecs = chain._spectrum
        v = vecs[:, -2]
        mag = np.abs(v)
        if v[np.argmax(mag > 1e-8 * mag.max())] > 0:
            v = -v
        order = np.argsort(v / np.sqrt(pi))
        flows = pi[:, None] * chain.A
        reach = np.cumsum(flows[np.ix_(order, order)], axis=0)
        cross = np.triu(reach, 1).sum(axis=1)[:-1]
        p = pi[order]
        fast = cross / np.minimum(np.cumsum(p)[:-1], np.cumsum(p[::-1])[-2::-1])
        want = (None, np.inf)
        for t in np.flatnonzero(fast <= fast.min() * (1 + 1e-9)):
            side = np.zeros(n, dtype=bool)
            side[order[: t + 1]] = True
            vol = pi[side].sum()
            cond = flows[side][:, ~side].sum() / min(vol, 1 - vol)
            if cond < want[1]:
                want = (tuple(int(i) for i in np.flatnonzero(side)), float(cond))
        cut, cond = cheeger_sweep(chain)
        assert cut == want[0] and cond.hex() == want[1].hex()

    @pytest.mark.parametrize("mapped", [False, True], ids=["identity", "injective"])
    def test_distortion(self, expander, mapped):
        _, pm = expander
        if mapped:  # into a larger hop metric, by an injective map that is no permutation
            target = random_regular_graph(640, 4, 8).shortest_path_metric()
            idx = np.random.default_rng(9).choice(640, 600, replace=False)
        else:
            target, idx = pm, np.arange(600)
        iu = np.triu_indices(600, 1)
        ds = pm.dist[iu]
        dt = target.dist[idx, :][:, idx][iu]
        ratios = dt / ds
        want = metric.EmbeddingReport(
            ratios.max() / ratios.min(), ratios.max(), ratios.min(), dt.sum() / ds.sum()
        )
        got = metric.distortion(pm, target, idx)
        assert [float(x).hex() for x in vars(got).values()] == [float(x).hex() for x in vars(want).values()]


class TestRandomRegular:
    def test_degrees(self):
        g = random_regular_graph(20, 3, 0)
        deg = np.zeros(20)
        for i, j, _ in g.edges:
            deg[i] += 1
            deg[j] += 1
        assert np.all(deg == 3)

    def test_expander_spectral_gap(self):
        for seed in range(20):
            g = random_regular_graph(128, 4, seed)
            assert lambda2(chain_from_graph(g)) < 0.95

    def test_average_distance(self):
        g = random_regular_graph(256, 4, 3)
        d = g.shortest_path_metric().dist
        avg = d.sum() / (256 * 255)
        assert avg >= 0.3 * math.log(256) / math.log(4)

    # sha256 of dist.tobytes(): the hop metric is part of the output contract
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "7a080bd7734ea1ba6c84f197f5d5c39be314756beefcc1272d254defce26e164"),
            (1, "7184fb615e485d1ff2a064fc4375510b5cdc505a021c65e0948c5d94b4f0a15b"),
            (2, "89149d9b75f6872538f9970fe596cea6b9eee35b1e6003fb6c3237fc3c0a2cd1"),
        ],
    )
    def test_shortest_path_metric_golden(self, seed, digest):
        d = random_regular_graph(256, 4, seed).shortest_path_metric().dist
        assert hashlib.sha256(d.tobytes()).hexdigest() == digest

    def test_shortest_path_metric_passes_build_metric(self):
        # the hop metric skips build_metric's scan because it would pass it
        sizes = ((4, 3), (16, 3), (64, 4), (96, 5))
        graphs = [random_regular_graph(n, r, seed) for n, r in sizes for seed in range(3)]
        graphs += [WeightedGraph.build(n, [(i, i + 1) for i in range(n - 1)]) for n in (1, 2, 3, 40)]
        graphs += [graph_cycle(n) for n in (3, 4, 7, 50)]
        rng = np.random.default_rng(17)
        for _ in range(8):  # random trees plus chords, irregular and weighted
            n = int(rng.integers(2, 40))
            edges = {(int(rng.integers(i)), i) for i in range(1, n)}
            edges |= {tuple(sorted(map(int, rng.choice(n, 2, replace=False)))) for _ in range(n // 3)}
            graphs.append(WeightedGraph.build(n, [(i, j, float(rng.uniform(0.5, 2))) for i, j in edges]))
        for g in graphs:
            assert_scan_passes(g.shortest_path_metric())

    def test_shortest_path_metric_disconnected(self):
        with pytest.raises(Disconnected):
            WeightedGraph.build(4, [(0, 1), (2, 3)]).shortest_path_metric()

    @pytest.mark.parametrize(
        "n, edges",
        [(3, []), (5, [(0, 1), (1, 2), (2, 3)]), (70, [(i, i + 1) for i in range(68)])],
        ids=["edgeless", "isolated-vertex", "isolated-past-a-word"],
    )
    def test_shortest_path_metric_isolated_vertex(self, n, edges):
        with pytest.raises(Disconnected):
            WeightedGraph.build(n, edges).shortest_path_metric()

    def test_shortest_path_metric_empty_and_single_vertex(self):
        with pytest.raises(Disconnected):
            WeightedGraph.build(0, []).shortest_path_metric()
        assert WeightedGraph.build(1, []).shortest_path_metric().dist.tolist() == [[0.0]]

    def test_is_connected_matches_components(self):
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        assert not WeightedGraph.build(0, []).is_connected()
        assert WeightedGraph.build(1, []).is_connected()
        rng = np.random.default_rng(23)
        graphs = []
        for _ in range(60):
            n = int(rng.integers(2, 30))
            pairs = {tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(int(rng.integers(0, 2 * n)))}
            graphs.append((n, sorted(pairs)))
        # randomly labelled long paths and cycles take several hook rounds (7 or 8 here);
        # cutting one path edge, two cycle edges or the cycle in two leaves two components
        n = 4096
        for _ in range(3):
            label = rng.permutation(n).tolist()
            path = list(zip(label[:-1], label[1:]))
            cut, cut2 = sorted(rng.choice(np.arange(2, n - 3), 2, replace=False).tolist())  # cycles of >= 3
            cycle = path + [(label[-1], label[0])]
            halves = path[:cut] + [(label[cut], label[0])] + path[cut + 1 :] + [(label[-1], label[cut + 1])]
            graphs += [(n, path), (n, cycle), (n, path[:cut] + path[cut + 1 :])]
            graphs += [(n, cycle[:cut] + cycle[cut + 1 : cut2] + cycle[cut2 + 1 :]), (n, halves)]
        seen = []
        for n, pairs in graphs:
            g = WeightedGraph.build(n, [(i, j, float(rng.uniform(0.5, 2))) for i, j in pairs])
            ij = np.array(pairs, dtype=int).reshape(-1, 2)
            adj = csr_matrix((np.ones(len(ij)), (ij[:, 0], ij[:, 1])), shape=(n, n))
            want = connected_components(adj, directed=False)[0] == 1
            assert g.is_connected() == want
            seen.append(want)
        assert set(seen[:60]) == {True, False}
        assert seen[60:] == [True, True, False, False, False] * 3

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            random_regular_graph(7, 3, 0)

    def test_generation_failure_cap(self, monkeypatch):
        monkeypatch.setattr(spectral, "_PAIRING_TRIES", 0)
        with pytest.raises(GenerationFailure):
            random_regular_graph(20, 4, 0)


class TestMarkovConvexity:
    def _path_spec(self, horizon=8, q=2.0):
        p = np.zeros((5, 5))
        p[0, 1] = p[4, 3] = 1.0
        for i in (1, 2, 3):
            p[i, i - 1] = p[i, i + 1] = 0.5
        start = np.zeros(5)
        start[2] = 1.0
        m = path_metric(np.arange(5.0))
        return MarkovChainSpec(p, start, horizon, m, np.arange(5), q)

    def test_constant_map(self):
        spec = self._path_spec()
        const = MarkovChainSpec(
            spec.transition, spec.initial, spec.horizon, spec.space, np.zeros(5, dtype=int), 2.0
        )
        est = markov_convexity_ratio(const, method="dp")
        assert est.lhs == 0.0
        est_mc = markov_convexity_ratio(const, samples=2000, seed=0, method="mc")
        assert est_mc.lhs == 0.0

    def test_deterministic_chain(self):
        perm = np.roll(np.eye(5), 1, axis=1)  # cyclic permutation
        m = path_metric(np.arange(5.0))
        spec = MarkovChainSpec(perm, np.eye(5)[0], 8, m, np.arange(5), 2.0)
        assert markov_convexity_ratio(spec, method="dp").lhs == 0.0
        assert markov_convexity_ratio(spec, samples=2000, seed=1, method="mc").lhs == 0.0

    def test_monte_carlo_matches_dp(self):
        spec = self._path_spec()
        dp = markov_convexity_ratio(spec, method="dp")
        mc = markov_convexity_ratio(spec, samples=100_000, seed=2, method="mc")
        assert abs(mc.lhs**2 - dp.lhs**2) <= 3 * mc.lhs_q_se
        assert abs(mc.rhs**2 - dp.rhs**2) <= 3 * max(mc.rhs_q_se, 1e-12)

    def test_rhs_exact_on_unit_steps(self):
        # every step moves distance exactly 1, so rhs^q = horizon
        spec = self._path_spec(horizon=8, q=2.0)
        dp = markov_convexity_ratio(spec, method="dp")
        assert dp.rhs == pytest.approx(math.sqrt(8.0), abs=1e-12)

    def test_default_is_exact_on_large_specs(self):
        rng = np.random.default_rng(0)
        p = rng.random((40, 40))
        p /= p.sum(axis=1, keepdims=True)
        spec = MarkovChainSpec(p, np.full(40, 1 / 40), 64, path_metric(np.arange(40.0)), np.arange(40))
        assert markov_convexity_ratio(spec) == markov_convexity_ratio(spec, method="dp")

    @pytest.mark.parametrize("method", ["auto", "bogus"])
    def test_unknown_method_rejected(self, method):
        # "bogus" with samples used to run Monte Carlo and report mc(10)
        with pytest.raises(ValueError, match="method must be 'dp' or 'mc'"):
            markov_convexity_ratio(self._path_spec(), samples=10, method=method)

    @pytest.mark.parametrize("where", ["transition", "initial"])
    def test_nan_entry_rejected(self, where):
        spec = self._path_spec()
        p, start = spec.transition.copy(), spec.initial.copy()
        (p[2] if where == "transition" else start)[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            MarkovChainSpec(p, start, spec.horizon, spec.space, spec.point_map, 2.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    def test_q_outside_positive_reals_rejected(self, q):
        with pytest.raises(ValueError, match="q must be positive and finite"):
            self._path_spec(q=q)

    def test_horizon_cap(self):
        spec = self._path_spec()
        big = MarkovChainSpec(
            spec.transition, spec.initial, 65, spec.space, spec.point_map, 2.0
        )
        with pytest.raises(HorizonTooLarge, match="capped at 64"):
            markov_convexity_ratio(big, method="dp")

    @pytest.mark.parametrize("method", ["dp", "mc"])
    def test_state_cap(self, method):
        # 65 states on a path metric, horizon 2: the state count alone is over the cap
        p = np.roll(np.eye(65), 1, axis=1)
        spec = MarkovChainSpec(p, np.eye(65)[0], 2, path_metric(np.arange(65.0)), np.arange(65), 2.0)
        with pytest.raises(HorizonTooLarge, match="capped at 64"):
            markov_convexity_ratio(spec, samples=10, method=method)
