"""Shared fixtures-in-plain-python for the test suite."""

import numpy as np

from mdrlab.metric import FiniteMetric, build_metric


def path_metric(points) -> FiniteMetric:
    """Metric of real points on a line."""
    x = np.asarray(points, dtype=float)
    return build_metric(np.abs(x[:, None] - x[None, :]))


def equilateral(n: int, d: float = 1.0) -> FiniteMetric:
    return build_metric(d * (np.ones((n, n)) - np.eye(n)))


def cycle4() -> FiniteMetric:
    return build_metric(
        np.array([[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]], dtype=float)
    )


def star13() -> FiniteMetric:
    """Center at distance 1 from three leaves, leaves pairwise 2."""
    return build_metric(
        np.array([[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]], dtype=float)
    )


def graph_cycle(n: int):
    from mdrlab.spectral import WeightedGraph

    return WeightedGraph.build(n, [(i, (i + 1) % n) for i in range(n)])


def graph_complete(n: int):
    from mdrlab.spectral import WeightedGraph

    return WeightedGraph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def assert_scan_passes(m: FiniteMetric) -> None:
    """``m`` passes the full validation of ``build_metric`` and comes back
    bit for bit; its matrix is read-only and exactly symmetric."""
    assert not m.dist.flags.writeable
    assert np.array_equal(m.dist, m.dist.T)
    again = build_metric(m.dist)
    assert again.dist.tobytes() == m.dist.tobytes()
