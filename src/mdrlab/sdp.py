"""Euclidean distortion of a finite metric by semidefinite feasibility.

A metric embeds into a Hilbert space with distortion alpha iff there is a
Gram matrix Q (psd) whose squared point distances lie entrywise between
d_ij^2 and alpha^2 d_ij^2.  Equivalently, the matrix D of squared image
distances must lie in the negative-type cone

    K = { D symmetric : x'Dx <= 0 whenever x is orthogonal to the ones },

intersected with the entrywise box [d^2, alpha^2 d^2].  The solver runs
alternating orthogonal projections in D-space: the box projection is an
entrywise clip, and the cone projection clips the positive eigenvalues of
the block of D in an orthonormal basis whose last vector is 1/sqrt(n).
Bisection over alpha^2 then pins the distortion.

The same cone shows up as a certificate system: a psd matrix A with zero
row sums witnesses non-embeddability at level alpha whenever

    sum a_ij d_ij^2  >  (alpha^2-1)/(alpha^2+1) * sum |a_ij| d_ij^2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CertificateInvalid, IterationCapExceeded, NotPSD, TooLarge
from .metric import FiniteMetric, PointCloud

MAX_POINTS = 64
STALL_WINDOW = 500


@dataclass(frozen=True)
class GramCandidate:
    """A symmetric matrix of inner products, psd up to 1e-9 of its trace scale."""

    Q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.Q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("Q must be square")
        if np.abs(q - q.T).max(initial=0.0) > 1e-9 * max(1.0, np.abs(q).max()):
            raise ValueError("Q must be symmetric")
        scale = max(np.trace(q) / max(q.shape[0], 1), 1e-30)
        if np.linalg.eigvalsh((q + q.T) / 2).min() < -1e-9 * scale:
            raise NotPSD("Q has an eigenvalue below -1e-9 of its trace scale")
        object.__setattr__(self, "Q", q)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class NegativeTypeCertificate:
    """A psd matrix with zero row sums; the a_ij of the distortion test."""

    A: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise CertificateInvalid("A must be square")
        scale = max(1.0, np.abs(a).max())
        if np.abs(a - a.T).max(initial=0.0) > 1e-9 * scale:
            raise CertificateInvalid("A must be symmetric")
        if np.abs(a.sum(axis=1)).max(initial=0.0) > 1e-9 * scale:
            raise CertificateInvalid("rows of A must sum to zero")
        if np.linalg.eigvalsh((a + a.T) / 2).min() < -1e-9 * scale:
            raise CertificateInvalid("A must be positive semidefinite")
        object.__setattr__(self, "A", a)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _ones_complement_basis(n: int) -> np.ndarray:
    """Orthonormal basis of R^n whose last column is the normalized ones vector."""
    u = np.zeros((n, n))
    u[:, -1] = 1.0 / math.sqrt(n)
    if n > 1:
        b = np.eye(n)[:, : n - 1] - 1.0 / n
        q, _ = np.linalg.qr(b)
        u[:, : n - 1] = q
    return u


def _gram_of(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * j @ d @ j


def _dist2_of(q: np.ndarray) -> np.ndarray:
    g = np.diag(q)
    return g[:, None] + g[None, :] - 2 * q


def _box_feasible(d2: np.ndarray, a2: float, tol: float, max_iter: int):
    """Alternating projections onto the box and the negative-type cone.

    Returns (status, D, iterations) with status in {"feasible", "infeasible",
    "capped"}.  Near the feasibility boundary the gap between the cone and
    the box scales like the square of the distortion margin, so certifying
    alpha to within tol demands a residual threshold of order tol^2: a point
    is accepted when every box constraint holds within max(tol^2/4, 1e-12)
    relative to its own d_ij^2.  Infeasibility is declared when the
    violation has converged (or stalled for STALL_WINDOW iterations) while
    still positive.
    """
    n = d2.shape[0]
    u = _ones_complement_basis(n)
    scale = d2.max()
    residual_tol = max(tol * tol / 4, 1e-12)
    lo = d2.copy()
    hi = a2 * d2
    np.fill_diagonal(lo, 0.0)
    np.fill_diagonal(hi, 0.0)
    d = (lo + hi) / 2  # hollow, box-exact throughout
    history = deque(maxlen=STALL_WINDOW)
    for it in range(1, max_iter + 1):
        # cone violation of the hollow iterate: top of the 1-perp spectrum
        w = u.T @ d @ u
        block = (w[:-1, :-1] + w[:-1, :-1].T) / 2
        vals, vecs = np.linalg.eigh(block)
        viol = max(0.0, float(vals[-1]) / scale)
        if viol <= residual_tol:
            return "feasible", d, it
        w[:-1, :-1] = (vecs * np.minimum(vals, 0.0)) @ vecs.T
        dn = u @ w @ u.T  # the cone projection
        db = np.clip((dn + dn.T) / 2, lo, hi)
        np.fill_diagonal(db, 0.0)
        move = np.abs(db - d).max()
        d = db
        if move <= 1e-15 * scale:
            return "infeasible", d, it
        # less than 1% progress over a full window: converging to a positive
        # gap, or to zero so slowly that the bracket endpoint is the honest
        # answer; either way the level is declared infeasible (the final
        # reported alpha is always positively certified)
        history.append(viol)
        if len(history) == STALL_WINDOW and viol > 0.99 * history[0]:
            return "infeasible", d, it
    return "capped", d, max_iter


def c2_sdp(m: FiniteMetric, tol: float = 1e-4, max_iter: int = 20000):
    """Euclidean distortion by bisection over alpha^2, with a Gram witness.

    Returns ``(alpha, witness, iterations)``: ``alpha`` is a positively
    certified distortion level with bisection resolution ``tol``, and
    ``witness`` is the Gram matrix of the certifying iterate (box-exact
    squared distances, negative-type up to the residual threshold, so the
    extracted points realize alpha up to a vanishing correction).
    """
    if m.n > MAX_POINTS:
        raise TooLarge(f"instances capped at {MAX_POINTS} points")
    if tol < 1e-6:
        raise ValueError("tol below 1e-6 is not supported")
    n = m.n
    if n < 3:
        # one or two points embed isometrically on a line
        q = _gram_of(m.dist**2)
        return 1.0, GramCandidate(q), 0
    d2 = m.dist**2
    total_iters = 0

    status, d_feas, it = _box_feasible(d2, 1.0, tol, max_iter)
    total_iters += it
    if status == "feasible":
        return 1.0, GramCandidate(_round_psd(_gram_of(d_feas))), total_iters
    if status == "capped":
        raise IterationCapExceeded(1.0, math.inf)

    # classical-scaling embedding gives a finite feasible upper bracket
    q0 = _round_psd(_gram_of(d2))
    with np.errstate(invalid="ignore"):
        ratio = np.sqrt(np.maximum(_dist2_of(q0), 0.0) / np.where(d2 > 0, d2, 1.0))
    off = ~np.eye(n, dtype=bool)
    r = ratio[off]
    hi = float(r.max() / max(r.min(), 1e-12)) * 1.01 + tol
    lo = 1.0
    status, d_feas, it = _box_feasible(d2, hi * hi, tol, max_iter)
    total_iters += it
    while status != "feasible":
        if status == "capped" or hi > 1e9:
            raise IterationCapExceeded(lo, hi)
        lo, hi = hi, hi * 2
        status, d_feas, it = _box_feasible(d2, hi * hi, tol, max_iter)
        total_iters += it

    while hi - lo > tol:
        mid = (lo + hi) / 2
        status, d_mid, it = _box_feasible(d2, mid * mid, tol, max_iter)
        total_iters += it
        if status == "feasible":
            hi, d_feas = mid, d_mid
        else:
            # undecided caps count as infeasible: the final alpha is always
            # backed by a positively certified witness, and the bracket
            # absorbs the (rare, tangency-induced) misclassification
            lo = mid
    return hi, GramCandidate(_round_psd(_gram_of(d_feas))), total_iters


def _round_psd(q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((q + q.T) / 2)
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.T


def check_certificate(m: FiniteMetric, cert: NegativeTypeCertificate, alpha: float):
    """Evaluate both sides of the quadratic distance inequality.

    Returns ``(holds, lhs, rhs)`` with lhs = sum a_ij d_ij^2 and
    rhs = (alpha^2-1)/(alpha^2+1) * sum |a_ij| d_ij^2.  ``holds`` is a
    necessary condition for a distortion-alpha Euclidean embedding; a
    violating certificate proves distortion > alpha.
    """
    if cert.n != m.n:
        raise CertificateInvalid(f"certificate size {cert.n} != metric size {m.n}")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    d2 = m.dist**2
    lhs = float((cert.A * d2).sum())
    rhs = float((alpha**2 - 1) / (alpha**2 + 1) * (np.abs(cert.A) * d2).sum())
    return lhs <= rhs + 1e-12 * rhs, lhs, rhs


def find_violating_certificate(
    m: FiniteMetric, alpha: float, seed=0, iters: int = 400, restarts: int = 8
):
    """Projected-supergradient search for a certificate violating level alpha.

    Maximizes lhs - rhs over the unit-norm slice of the psd row-sum-zero
    cone.  Returns a violating NegativeTypeCertificate or None; existence
    for alpha < c2(m) is guaranteed, but the search is heuristic.
    """
    n = m.n
    d2 = m.dist**2
    c = (alpha**2 - 1) / (alpha**2 + 1)
    j = np.eye(n) - np.ones((n, n)) / n
    rng = np.random.default_rng(seed)

    def project(a):
        a = j @ ((a + a.T) / 2) @ j
        vals, vecs = np.linalg.eigh(a)
        a = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        norm = np.linalg.norm(a)
        return a / norm if norm > 0 else a

    best = None
    best_gap = 0.0
    for _ in range(restarts):
        a = project(rng.standard_normal((n, n)))
        step = 1.0
        for _ in range(iters):
            grad = d2 - c * np.sign(a) * d2
            a2 = project(a + step * grad)
            gap2 = float((a2 * d2).sum() - c * (np.abs(a2) * d2).sum())
            gap1 = float((a * d2).sum() - c * (np.abs(a) * d2).sum())
            if gap2 < gap1:
                step *= 0.7
                if step < 1e-8:
                    break
            else:
                a = a2
        gap = float((a * d2).sum() - c * (np.abs(a) * d2).sum())
        if gap > best_gap + 1e-12:
            best_gap = gap
            best = a
    if best is None:
        return None
    # symmetrize/clean tiny numerical dirt before the strict constructor
    best = j @ ((best + best.T) / 2) @ j
    vals, vecs = np.linalg.eigh(best)
    best = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    cert = NegativeTypeCertificate(best)
    holds, _, _ = check_certificate(m, cert, alpha)
    return None if holds else cert


def extract_points(q: GramCandidate) -> PointCloud:
    """Gram factorization Q = V L V' -> coordinates V sqrt(L), negatives clipped."""
    vals, vecs = np.linalg.eigh((q.Q + q.Q.T) / 2)
    coords = vecs * np.sqrt(np.clip(vals, 0.0, None))
    return PointCloud(coords, "l2")


def c2_bruteforce(m: FiniteMetric, starts: int = 64, seed=0) -> float:
    """Multi-start configuration search for the Euclidean distortion.

    An independent oracle for small instances: quasi-random starts, a smooth
    log-stress descent, then direct simplex polishing of the exact max/min
    log-ratio.  Embedding dimension n - 1 (always sufficient).
    """
    from scipy import optimize

    n = m.n
    if n < 2:
        return 1.0
    dim = n - 1
    iu = np.triu_indices(n, 1)
    d = m.dist[iu]

    try:
        from scipy.stats import qmc

        sob = qmc.Sobol(d=n * dim, scramble=True, seed=seed)
        inits = 2.0 * sob.random(starts) - 1.0
    except Exception:
        inits = np.random.default_rng(seed).uniform(-1, 1, (starts, n * dim))

    def ratios(x):
        pts = x.reshape(n, dim)
        dt = np.sqrt(((pts[iu[0]] - pts[iu[1]]) ** 2).sum(axis=1))
        return dt / d

    def logstress(x):
        r = ratios(x)
        if (r <= 1e-12).any():
            return 1e9
        lr = np.log(r)
        return float(((lr - lr.mean()) ** 2).sum())

    def logdistortion(x):
        r = ratios(x)
        if (r <= 1e-12).any():
            return 1e9
        lr = np.log(r)
        return float(lr.max() - lr.min())

    best = np.inf
    for i in range(starts):
        res = optimize.minimize(logstress, inits[i], method="L-BFGS-B")
        res2 = optimize.minimize(
            logdistortion,
            res.x,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        best = min(best, res2.fun)
    return float(np.exp(best))
