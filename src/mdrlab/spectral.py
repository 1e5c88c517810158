"""Reversible chains, nonlinear Rayleigh quotients, and spectral gaps.

The central object is a row-stochastic matrix A reversible with respect
to a stationary measure pi.  For a configuration x of points in a metric
space and an exponent p, the nonlinear Rayleigh quotient is

    R(x; A, d^p) = sum_ij pi_i a_ij d(x_i, x_j)^p
                 / sum_ij pi_i pi_j d(x_i, x_j)^p,

and the nonlinear spectral gap gamma(A, d^p) is the supremum of 1/R over
configurations.  For a Hilbert space with p = 2 this collapses to
1/(1 - lambda_2).  The module provides the quotient algebra (convexity,
laziness, powers, products), the Hilbertian contraction identity, the
lazy-power parameter t(x; A) with its spectral-gap ceiling and the 1/16
lower bound it forces on the X-norm quotient, dimension-lower-bound
exponents for average embeddings, Cheeger sweep cuts, regular random
graphs, and a Markov-convexity estimator.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
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
from .metric import FiniteMetric, PointCloud, _exact_metric, _hop_distances

ROW_SUM_TOL = 1e-12
DETAILED_BALANCE_TOL = 1e-12
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph as (n, [(i, j, w), ...])."""

    n: int
    edges: tuple

    @staticmethod
    def build(n: int, edges) -> "WeightedGraph":
        norm = []
        seen = set()
        for e in edges:
            if len(e) == 2:
                i, j, w = int(e[0]), int(e[1]), 1.0
            else:
                i, j, w = int(e[0]), int(e[1]), float(e[2])
            if w <= 0:
                raise NegativeWeight(f"edge ({i},{j}) has weight {w}")
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i},{j}) for n={n}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm.append((key[0], key[1], w))
        return WeightedGraph(n, tuple(sorted(norm)))

    def adjacency(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        for i, j, wt in self.edges:
            w[i, j] = w[j, i] = wt
        return w

    def is_connected(self) -> bool:
        """One component: union-find over the edge list (no vertices: False)."""
        root = list(range(self.n))

        def find(v):
            while root[v] != v:
                root[v] = v = root[root[v]]
            return v

        parts = self.n
        for i, j, _ in self.edges:
            a, b = find(i), find(j)
            if a != b:
                root[a] = b
                parts -= 1
        return parts == 1

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})

    @staticmethod
    def from_json(text: str) -> "WeightedGraph":
        obj = json.loads(text)
        return WeightedGraph.build(int(obj["n"]), obj["edges"])

    def shortest_path_metric(self) -> FiniteMetric:
        """Hop-count metric (edge weights ignored); graph must be connected.

        One traversal: a pair in different components comes back at
        distance inf, which raises :class:`Disconnected`.  The exact integer
        hop counts are a metric by construction, so the triangle scan of
        :func:`~mdrlab.metric.build_metric` is skipped (see
        :func:`mdrlab.metric._hop_distances`).
        """
        ij = np.array([e[:2] for e in self.edges], dtype=int).reshape(-1, 2)
        d = _hop_distances(self.n, ij[:, 0], ij[:, 1])
        if self.n == 0 or np.isinf(d).any():
            raise Disconnected("graph is not connected")
        return _exact_metric(d)


@dataclass(frozen=True)
class ReversibleChain:
    """Row-stochastic A with stationary measure pi and detailed balance (read-only copies)."""

    A: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        a = np.array(self.A, dtype=float)
        p = np.array(self.pi, dtype=float)
        n = a.shape[0]
        if a.shape != (n, n) or p.shape != (n,):
            raise ValueError("shape mismatch between A and pi")
        if n < 2:
            raise ValueError("a chain needs at least 2 states")
        if not (np.isfinite(a).all() and np.isfinite(p).all()):
            raise ValueError("A and pi must be finite")
        if a.min() < 0:
            raise ValueError("transition entries must be nonnegative")
        if np.abs(a.sum(axis=1) - 1).max() > ROW_SUM_TOL:
            raise ValueError("rows must sum to 1 within 1e-12")
        if p.min() <= 0 or abs(p.sum() - 1) > 1e-12:
            raise ValueError("pi must be a strictly positive probability vector")
        flows = p[:, None] * a
        if np.abs(flows - flows.T).max() > DETAILED_BALANCE_TOL:
            raise ValueError("detailed balance fails at 1e-12")
        if np.abs(p @ a - p).max() > STATIONARY_TOL:
            raise ValueError("pi is not stationary within 1e-10")
        a.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "pi", p)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @cached_property
    def _spectrum(self):
        """eigh of A as a self-adjoint operator on L2(pi): sqrt(pi) A / sqrt(pi), symmetrized."""
        s = np.sqrt(self.pi)
        sym = (s[:, None] * self.A) / s[None, :]
        return np.linalg.eigh((sym + sym.T) / 2)

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "A": self.A.tolist(), "pi": self.pi.tolist()})

    @staticmethod
    def from_json(text: str) -> "ReversibleChain":
        obj = json.loads(text)
        return ReversibleChain(np.asarray(obj["A"], float), np.asarray(obj["pi"], float))


def chain_from_graph(g: WeightedGraph) -> ReversibleChain:
    """Weighted random walk: A_ij = w_ij / deg(i), pi_i = deg(i) / (2 total weight)."""
    if not g.is_connected():
        raise Disconnected("graph is not connected")
    w = g.adjacency()
    deg = w.sum(axis=1)
    with np.errstate(invalid="ignore"):  # 0/0 on a single vertex, which ReversibleChain rejects
        a = w / deg[:, None]
        pi = deg / deg.sum()
    return ReversibleChain(a, pi)


def random_reversible_chain(n: int, seed, lazy: float = 0.0) -> ReversibleChain:
    """Random reversible chain from a random symmetric flow matrix.

    With symmetric flows F the walk A = F / rowsum(F) is reversible with
    respect to pi = rowsum(F) / sum(F) exactly (detailed balance reduces to
    the symmetry of F).  A random diagonal scaling varies pi; ``lazy``
    blends in the identity, which preserves reversibility.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.2, 1.0, (n, n))
    w = (w + w.T) / 2
    scale = rng.uniform(0.5, 2.0, n)
    flows = scale[:, None] * w * scale[None, :]
    flows = (flows + flows.T) / 2
    row = flows.sum(axis=1)
    a = flows / row[:, None]
    pi = row / row.sum()
    if lazy > 0:
        a = lazy * np.eye(n) + (1 - lazy) * a
    return ReversibleChain(a, pi)


@dataclass(frozen=True)
class Configuration:
    """An assignment i -> x_i of chain states to points of a metric or cloud."""

    space: object  # FiniteMetric | PointCloud
    assignment: np.ndarray = field(default=None)

    def __post_init__(self):
        if not isinstance(self.space, (FiniteMetric, PointCloud)):
            raise TypeError("space must be a FiniteMetric or PointCloud")
        count = self.space.n
        idx = (
            np.arange(count)
            if self.assignment is None
            else np.asarray(self.assignment, dtype=int)
        )
        if idx.ndim != 1 or len(idx) == 0 or idx.min() < 0 or idx.max() >= count:
            raise ValueError("assignment indexes outside the space")
        object.__setattr__(self, "assignment", idx)

    @property
    def n(self) -> int:
        return len(self.assignment)

    def distances(self) -> np.ndarray:
        if isinstance(self.space, FiniteMetric):
            full = self.space.dist
        else:
            full = self.space.pairwise()
        return full[self.assignment][:, self.assignment]

    def vectors(self) -> np.ndarray:
        if not isinstance(self.space, PointCloud):
            raise TypeError("vectors() requires a PointCloud configuration")
        return self.space.coords[self.assignment]

    def is_constant(self) -> bool:
        return bool((self.distances() == 0).all())


def lambda2(chain: ReversibleChain) -> float:
    """Second-largest eigenvalue of A as a self-adjoint operator on L2(pi)."""
    return float(chain._spectrum[0][-2])


def _rayleigh_from_matrix(dp: np.ndarray, a: np.ndarray, pi: np.ndarray) -> float:
    den = float((pi[:, None] * pi[None, :] * dp).sum())
    if den <= 0:
        raise DegenerateConfiguration("all configuration points coincide")
    num = float((pi[:, None] * a * dp).sum())
    return num / den


def rayleigh(x: Configuration, chain: ReversibleChain, p: float = 2.0) -> float:
    """Nonlinear Rayleigh quotient of the configuration against the chain."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if x.n != chain.n:
        raise ValueError("configuration size must match the chain")
    return _rayleigh_from_matrix(x.distances() ** p, chain.A, chain.pi)


def rayleigh_general(x: Configuration, transition: np.ndarray, pi: np.ndarray, p: float = 2.0) -> float:
    """Rayleigh quotient against an arbitrary row-stochastic matrix.

    Products of two reversible chains are stationary for pi but in general
    not reversible, so the quotient algebra (products, mixtures) needs this
    entry point.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    a = np.asarray(transition, dtype=float)
    if np.abs(a.sum(axis=1) - 1).max() > 1e-9:
        raise ValueError("transition must be row-stochastic")
    return _rayleigh_from_matrix(x.distances() ** p, a, np.asarray(pi, dtype=float))


def gamma_hilbert(chain: ReversibleChain) -> float:
    """Reciprocal spectral gap 1/(1 - lambda_2); the Euclidean p=2 gap."""
    lam = lambda2(chain)
    if lam >= 1 - 1e-12:
        raise NoGap("lambda_2 = 1; the chain has no spectral gap")
    return 1.0 / (1.0 - lam)


def gamma_bruteforce(chain: ReversibleChain, m: FiniteMetric, p: float = 2.0) -> float:
    """sup over all non-constant assignments of 1/R, by full enumeration."""
    if m.n**chain.n > 10**6:
        raise TooLarge("enumeration capped at 1e6 configurations")
    dp = m.dist**p
    best = 0.0
    found = False
    for flat in np.ndindex(*(m.n,) * chain.n):
        idx = np.asarray(flat)
        sub = dp[idx][:, idx]
        if (sub == 0).all():
            continue
        found = True
        r = _rayleigh_from_matrix(sub, chain.A, chain.pi)
        best = max(best, 1.0 / r)
    if not found:
        raise DegenerateConfiguration("no non-constant configuration exists")
    return best


def gamma_sampled_lower_bound(
    chain: ReversibleChain, cloud_dim: int, norm: str, samples: int, seed
) -> float:
    """Certified lower bound on gamma(A, ||.||_X^2) from random configurations.

    The supremum over configurations is not computable for a norm; this
    reports the best 1/R seen over random Gaussian configurations, which is
    a valid lower bound but has no convergence guarantee.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        coords = rng.standard_normal((chain.n, cloud_dim))
        x = Configuration(PointCloud(coords, norm))
        best = max(best, 1.0 / rayleigh(x, chain, 2.0))
    return best


def hilbert_rayleigh_identity(x: Configuration, chain: ReversibleChain):
    """Both sides of ||(A (x) Id) x_c|| / ||x_c|| = sqrt(1 - R(x; A^2, H^2)).

    The configuration is re-centered to pi-mean zero before the left side is
    evaluated; the Rayleigh quotient itself is translation invariant.
    """
    if not isinstance(x.space, PointCloud) or x.space.norm != "l2":
        raise TypeError("the identity requires an l2 point cloud configuration")
    v = x.vectors().astype(float)
    pi = chain.pi
    v = v - (pi[:, None] * v).sum(axis=0)
    norm_x = math.sqrt(float((pi * (v * v).sum(axis=1)).sum()))
    if norm_x <= 0:
        raise DegenerateConfiguration("configuration is a single point")
    av = chain.A @ v
    lhs = math.sqrt(float((pi * (av * av).sum(axis=1)).sum())) / norm_x
    r2 = _rayleigh_from_matrix(x.distances() ** 2, chain.A @ chain.A, pi)
    rhs = math.sqrt(max(0.0, 1.0 - r2))
    return lhs, rhs


def hilbert_companion(cloud: PointCloud):
    """Euclidean companion norm with ||y||_H <= ||y||_X <= d ||y||_H.

    Returns (H-coordinates, d): the l1 cube pairs with plain l2 and
    d = sqrt(dim); l-infinity pairs with l2 scaled down by sqrt(dim); l2 is
    its own companion with d = 1.
    """
    mdim = cloud.dim
    if cloud.norm == "l2":
        return cloud.coords, 1.0
    if cloud.norm == "l1":
        return cloud.coords, math.sqrt(mdim)
    if cloud.norm == "linf":
        return cloud.coords / math.sqrt(mdim), math.sqrt(mdim)
    raise ValueError("no built-in companion for general lp clouds")


def t_parameter(x: Configuration, chain: ReversibleChain, d: float, t_cap: int = 4096):
    """Minimal t with R(x; ((I + A)/2)^(2t), H^2) >= 1 - 1/(4 d^2).

    ``d`` is the Hilbert-isomorphism constant of the companion norm (see
    :func:`hilbert_companion`).  Returns ``(t, achieved)``; raises
    CapExceeded if no t up to ``t_cap`` reaches the threshold (the paper-side
    convention for that case is t = infinity).  In closed form
    R(t) = 1 - sum_k mu_k^(2t) w_k / sum_k w_k, nondecreasing in t, with
    mu_k = (1 + lambda_k)/2 and w_k the squared eigen-coefficients of the
    pi-centred, sqrt(pi)-weighted H-configuration; a bisection on [1, t_cap]
    makes O(log t_cap) O(n) evaluations, so ``t_cap`` bounds the answer, not the work.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if not isinstance(x.space, PointCloud):
        raise TypeError("t_parameter requires a point-cloud configuration")
    if x.n != chain.n:
        raise ValueError("configuration size must match the chain")
    h_coords, _ = hilbert_companion(x.space)
    v = h_coords[x.assignment]
    if (v == v[0]).all():
        raise DegenerateConfiguration("constant configuration")
    vals, vecs = chain._spectrum
    z = np.sqrt(chain.pi)[:, None] * (v - chain.pi @ v)
    w = ((vecs.T @ z) ** 2).sum(axis=1)
    mu = (1.0 + vals) / 2.0

    def quotient(t):
        return 1.0 - float(mu ** (2 * t) @ w) / float(w.sum())

    threshold = 1.0 - 1.0 / (4.0 * d * d)
    t = bisect_left(range(t_cap + 1), True, lo=1, key=lambda s: quotient(s) >= threshold)
    if t > t_cap:
        raise CapExceeded(f"no t <= {t_cap} reaches the Hilbert Rayleigh threshold")
    return t, quotient(t)


def power_expander_check(x: Configuration, chain: ReversibleChain, d: float, t_cap: int = 4096):
    """R(x; ((I + A)/2)^t, X^2) at t = t(x; A); always at least 1/16.

    The Hilbertian contraction forces the lazy power to move the
    configuration by at least half its spread in the X norm, which pins the
    X-norm Rayleigh quotient of that power away from zero.
    """
    t, _ = t_parameter(x, chain, d, t_cap)
    lazy = 0.5 * np.eye(chain.n) + 0.5 * chain.A
    power = np.linalg.matrix_power(lazy, t)
    dx = x.distances() ** 2
    return _rayleigh_from_matrix(dx, power, chain.pi), t


def dim_lower_exponent(f: PointCloud, chain: ReversibleChain):
    """Edge-average alpha_hat and the certified dimension exponent.

    Returns ``(alpha_hat, exponent)`` with alpha_hat the pi-weighted edge
    quadratic mean of ||f(i) - f(j)|| and

        exponent = (1 - lambda_2)/alpha_hat * sqrt(pair average).

    Any normed space admitting such an f has dimension at least
    K^exponent for a universal K > 1 that is never materialized.
    """
    if f.n != chain.n:
        raise DegenerateCloud("cloud size must match the chain")
    dmat = f.pairwise() ** 2
    pi = chain.pi
    edge_avg = float((pi[:, None] * chain.A * dmat).sum())
    pair_avg = float((pi[:, None] * pi[None, :] * dmat).sum())
    if edge_avg == 0.0:
        if pair_avg == 0.0:
            return 0.0, 0.0
        raise DegenerateCloud("edge average vanishes on a non-constant cloud")
    alpha_hat = math.sqrt(edge_avg)
    gap = 1.0 - lambda2(chain)
    return alpha_hat, gap / alpha_hat * math.sqrt(pair_avg)


def cheeger_sweep(chain: ReversibleChain):
    """Minimum-conductance prefix cut of the second-eigenvector sweep.

    Returns ``(cut, conductance)`` where ``cut`` is the tuple of states on
    the prefix side.  The sweep cut always satisfies
    conductance <= sqrt(2 (1 - lambda_2)).  The eigenvector's sign is fixed
    so that its first entry above 1e-8 of its largest magnitude is negative,
    which makes the side returned independent of the LAPACK build.
    """
    n = chain.n
    vals, vecs = chain._spectrum
    if vals[-2] >= 1 - 1e-12:
        raise Disconnected("no spectral gap; chain is reducible")
    v = vecs[:, -2]
    mag = np.abs(v)
    if v[np.argmax(mag > 1e-8 * mag.max())] > 0:
        v = -v
    pi = chain.pi
    order = np.argsort(v / np.sqrt(pi))
    flows = pi[:, None] * chain.A
    # Prefix t holds order[:t+1].  Its crossing flow is the sum over j > t of
    # the column sums of rows <= t, and its smaller side the lesser of a prefix
    # and a suffix sum of pi: sums of nonnegative terms, relatively accurate to
    # ~n eps, in O(n^2) for all prefixes together.
    reach = np.cumsum(flows[np.ix_(order, order)], axis=0)
    cross = np.triu(reach, 1).sum(axis=1)[:-1]
    p = pi[order]
    fast = cross / np.minimum(np.cumsum(p)[:-1], np.cumsum(p[::-1])[-2::-1])
    # Prefixes near the least are recomputed as sums over the prefix, and the
    # first strict minimum among them wins, so ties resolve as a per-prefix
    # scan over every t would resolve them.
    best = (None, np.inf)
    for t in np.flatnonzero(fast <= fast.min() * (1 + 1e-9)):
        side = np.zeros(n, dtype=bool)
        side[order[: t + 1]] = True
        vol = pi[side].sum()
        cond = flows[side][:, ~side].sum() / min(vol, 1 - vol)
        if cond < best[1]:
            best = (tuple(int(i) for i in np.flatnonzero(side)), float(cond))
    return best


def random_regular_graph(n: int, r: int, seed, max_tries: int = 10000) -> WeightedGraph:
    """Simple r-regular graph by the pairing model with rejection.

    Draws a uniformly random perfect matching on n*r stubs and rejects any
    outcome with self-loops or multi-edges.
    """
    if (n * r) % 2 != 0:
        raise ValueError("n * r must be even")
    if r < 3 or n <= r:
        raise ValueError("need r >= 3 and n > r")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), r)
    for _ in range(max_tries):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if (a == b).any():
            continue
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * n + hi
        if len(np.unique(keys)) != len(keys):
            continue
        return WeightedGraph.build(n, [(int(i), int(j)) for i, j in zip(lo, hi)])
    raise GenerationFailure(f"no simple pairing found in {max_tries} tries")


@dataclass(frozen=True)
class MarkovChainSpec:
    """A finite-horizon Markov chain pushed into a metric space.

    ``transition`` is row-stochastic on ``states`` states, ``initial`` a
    distribution, ``horizon`` the number T of time steps, ``point_map`` an
    assignment of states to points of ``space``, and ``q`` the convexity
    exponent.
    """

    transition: np.ndarray
    initial: np.ndarray
    horizon: int
    space: FiniteMetric
    point_map: np.ndarray
    q: float = 2.0

    def __post_init__(self):
        p = np.asarray(self.transition, dtype=float)
        mu = np.asarray(self.initial, dtype=float)
        pm = np.asarray(self.point_map, dtype=int)
        s = p.shape[0]
        if p.shape != (s, s) or p.min() < 0 or np.abs(p.sum(axis=1) - 1).max() > 1e-12:
            raise ValueError("transition must be row-stochastic")
        if mu.shape != (s,) or mu.min() < 0 or abs(mu.sum() - 1) > 1e-12:
            raise ValueError("initial must be a distribution on the states")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if pm.shape != (s,) or pm.min() < 0 or pm.max() >= self.space.n:
            raise ValueError("point_map must send states into the metric")
        object.__setattr__(self, "transition", p)
        object.__setattr__(self, "initial", mu)
        object.__setattr__(self, "point_map", pm)

    @property
    def states(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class MarkovConvexityEstimate:
    lhs: float
    rhs: float
    ratio: float
    lhs_q_se: float
    rhs_q_se: float
    method: str


def _fork_scales(horizon: int):
    k = 1
    while 2**k <= horizon:
        yield k, 2**k
        k += 1


def markov_convexity_ratio(
    spec: MarkovChainSpec, samples: int = 0, seed=0, method: str = "auto"
) -> MarkovConvexityEstimate:
    """Fork-versus-path ratio that witnesses the Markov convexity constant.

    lhs^q sums 2^(-qk) E d(f(fork at t - 2^k evaluated at t), f(chain at t))^q
    over scales k >= 1 and times 2^k <= t <= T; rhs^q sums the expected
    q-th powers of single-step displacements.  The fork copies the
    trajectory up to the branch time and evolves independently afterwards.
    Expectations are exact (``"dp"``, dynamic programming over state
    marginals) or Monte Carlo with the fork construction (``"mc"``, which
    needs ``samples >= 1``); ``"auto"`` means ``"dp"``, which the caps of 64
    states and horizon 64 keep to milliseconds.  The ratio lhs/rhs
    lower-bounds the Markov q-convexity constant of the image space.
    """
    if spec.horizon > 64 or spec.states > 64:
        raise HorizonTooLarge("horizon and state count are capped at 64")
    if method == "auto":
        method = "dp"
    q = spec.q
    dq = spec.space.dist[np.ix_(spec.point_map, spec.point_map)] ** q
    p = spec.transition
    t_max = spec.horizon

    if method == "dp":
        marginals = [spec.initial]
        for _ in range(t_max):
            marginals.append(marginals[-1] @ p)
        lhs_q = 0.0
        for k, span in _fork_scales(t_max):
            pj = np.linalg.matrix_power(p, span)
            cross = pj @ dq @ pj.T
            for t in range(span, t_max + 1):
                mu = marginals[t - span]
                lhs_q += 2.0 ** (-q * k) * float((mu * np.diag(cross)).sum())
        rhs_q = 0.0
        for t in range(1, t_max + 1):
            mu = marginals[t - 1]
            rhs_q += float((mu[:, None] * p * dq).sum())
        lhs_se = rhs_se = 0.0
    else:
        if samples < 1:
            raise ValueError("monte carlo requires samples >= 1")
        rng = np.random.default_rng(seed)
        cum = np.cumsum(p, axis=1)

        def step_states(states):
            u = rng.random(states.shape[0])
            return (u[:, None] > cum[states]).sum(axis=1)

        # base trajectories
        traj = np.empty((t_max + 1, samples), dtype=int)
        traj[0] = (rng.random(samples)[:, None] > np.cumsum(spec.initial)[None, :]).sum(axis=1)
        for t in range(1, t_max + 1):
            traj[t] = step_states(traj[t - 1])
        lhs_per = np.zeros(samples)
        rhs_per = np.zeros(samples)
        for t in range(1, t_max + 1):
            rhs_per += dq[traj[t - 1], traj[t]]
        for k, span in _fork_scales(t_max):
            weight = 2.0 ** (-q * k)
            for branch in range(0, t_max - span + 1):
                fork = traj[branch].copy()
                for _ in range(span):
                    fork = step_states(fork)
                lhs_per += weight * dq[fork, traj[branch + span]]
        lhs_q = float(lhs_per.mean())
        rhs_q = float(rhs_per.mean())
        lhs_se = float(lhs_per.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        rhs_se = float(rhs_per.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
        method = f"mc({samples})"
    lhs = lhs_q ** (1.0 / q)
    rhs = rhs_q ** (1.0 / q)
    ratio = 0.0 if lhs == 0 else (math.inf if rhs == 0 else lhs / rhs)
    return MarkovConvexityEstimate(lhs, rhs, ratio, lhs_se, rhs_se, method)
