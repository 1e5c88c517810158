"""Coarse-embedding moduli pairs and the beta exponent they determine.

A coarse embedding sandwiches image distances between two increasing
moduli omega <= Omega.  The quantity

    beta(omega, Omega) = sup_s  s / omega^{-1}(2 Omega(s))

drives the dimension lower bound for coarse embeddings of the random
metrics produced by :mod:`mdrlab.matousek`: dimension is at least
n^(c * beta) for a universal c that is never materialized here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InverseOutOfRange
from .metric import _owned


@dataclass(frozen=True)
class PowerModulus:
    """s -> tau * s^theta with tau in (0, inf) and theta in (0, 1]."""

    tau: float = 1.0
    theta: float = 1.0

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")

    def __call__(self, s):
        return self.tau * np.asarray(s, dtype=float) ** self.theta

    def inverse(self, y):
        return (np.asarray(y, dtype=float) / self.tau) ** (1.0 / self.theta)


@dataclass(frozen=True)
class TabulatedModulus:
    """Strictly increasing samples, held read-only, with monotone (linear) interpolation."""

    s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        s, v = _owned(self.s), _owned(self.values)
        if s.ndim != 1 or s.shape != v.shape or len(s) < 2:
            raise ValueError("need matching 1-d sample arrays of length >= 2")
        if not (np.diff(s) > 0).all() or not (np.diff(v) > 0).all():
            raise ValueError("samples must be strictly increasing")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", v)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.s[0]) or np.any(x > self.s[-1]):
            raise InverseOutOfRange("evaluation outside the tabulated range")
        return np.interp(x, self.s, self.values)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        if np.any(y < self.values[0]) or np.any(y > self.values[-1]):
            raise InverseOutOfRange("inverse evaluation outside the tabulated range")
        return np.interp(y, self.values, self.s)


@dataclass(frozen=True)
class ModulusPair:
    """Lower/upper moduli omega <= Omega, both increasing on [0, infinity)."""

    omega: PowerModulus | TabulatedModulus
    Omega: PowerModulus | TabulatedModulus

    def __post_init__(self):
        if isinstance(self.omega, PowerModulus) and isinstance(self.Omega, PowerModulus):
            if self.omega.theta == self.Omega.theta and self.omega.tau > self.Omega.tau:
                raise ValueError("omega exceeds Omega")

    @staticmethod
    def bi_lipschitz(alpha: float) -> "ModulusPair":
        return ModulusPair(PowerModulus(1.0, 1.0), PowerModulus(alpha, 1.0))

    @staticmethod
    def snowflake(alpha: float, theta: float) -> "ModulusPair":
        return ModulusPair(PowerModulus(1.0, theta), PowerModulus(alpha, theta))


def beta_modulus(pair: ModulusPair, grid=None) -> float:
    """sup_s s / omega^{-1}(2 Omega(s)), analytically for matching power
    families, otherwise as a maximum over the evaluation grid."""
    om, Om = pair.omega, pair.Omega
    if (
        isinstance(om, PowerModulus)
        and isinstance(Om, PowerModulus)
        and om.theta == Om.theta
    ):
        # s / ((2 Om(s) / tau1))^(1/theta) is constant in s
        return float((om.tau / (2.0 * Om.tau)) ** (1.0 / om.theta))
    if grid is None:
        raise ValueError("an evaluation grid is required for non-power moduli")
    s = np.asarray(grid, dtype=float)
    s = s[s > 0]
    inv = om.inverse(2.0 * Om(s))
    with np.errstate(divide="ignore"):
        ratios = s / inv
    return float(np.max(ratios))


def coarse_dim_exponent(n_points: int, pair: ModulusPair) -> float:
    """beta(omega, Omega) * log(n); the certified exponent up to a universal
    constant that the embedding obstruction leaves implicit."""
    if not 2 <= n_points < math.inf:
        raise ValueError("n_points must be finite and >= 2")
    return beta_modulus(pair) * math.log(n_points)
