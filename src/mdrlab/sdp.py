"""Euclidean distortion of a finite metric as a checked two-sided bracket.

A metric embeds into a Hilbert space with distortion alpha iff there is a
Gram matrix Q (psd) whose squared point distances lie entrywise between
d_ij^2 and alpha^2 d_ij^2.  Equivalently, the matrix D of squared image
distances must lie in the negative-type cone

    K = { D symmetric : x'Dx <= 0 whenever x is orthogonal to the ones },

intersected with the entrywise box [d^2, alpha^2 d^2].  By duality
(Linial, London and Rabinovich 1995) the level alpha is infeasible exactly
when some psd matrix A with zero row sums satisfies

    sum a_ij d_ij^2  >  (alpha^2-1)/(alpha^2+1) * sum |a_ij| d_ij^2,

that is, when alpha^2 < P/N with P the sum of a_ij d_ij^2 over a_ij > 0
and N minus the sum over a_ij < 0.

The solver runs alternating orthogonal projections in D-space: the box
projection is an entrywise clip, and the cone projection P_K clips the
positive eigenvalues of the block of D in an orthonormal basis whose last
vector is 1/sqrt(n).  Every CHECK_EVERY iterations it reads two objects off
the box iterate D and checks each before using it:

* upper side: -P_K(D)/2, read in the ones-complement basis, is a psd Gram
  matrix.  The exact distortion of its points (max ratio over min ratio) is
  an upper bound hi; rescaled so that its smallest ratio is 1, the witness
  lies in the box [d^2, hi^2 d^2];
* lower side: the gap D - P_K(D) is psd with zero row sums, a certificate
  refuting every level below sqrt(P/N).  At a fixed point of the
  projections at an infeasible level it refutes that level.

Bisection over alpha moves lo and hi only on these checked values and
warm-starts each level from the previous iterate.  A level that spends its
iteration budget without either side passing it is undecided, never
infeasible.  The stretches of the bracket between lo, hi and the undecided
levels are probed from the top down, and the run ends "undecided" when
none is left that is wider than both tol and a quarter of the bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateInvalid, NotPSD, TooLarge
from .metric import FiniteMetric, PointCloud

MAX_POINTS = 64
# Iterations one bisection level may spend before it is left undecided.  Sized
# on random 12-point shortest-path metrics, where most levels near c2 end
# undecided: doubling the budget there about halves the final bracket width
# and doubles the time (about 1 s at 2000 iterations).
LEVEL_ITERATIONS = 2000
CHECK_EVERY = 10


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


class _Bracket:
    """Alternating projections level by level; lo and hi move only on checked objects."""

    def __init__(self, m: FiniteMetric):
        n = m.n
        self.m = m
        self.d2 = m.dist**2
        self.u1 = _ones_complement_basis(n)[:, :-1]
        self.off = ~np.eye(n, dtype=bool)
        self.lo, self.certificate = 1.0, None
        self.hi, self.witness = math.inf, None
        self.iterations = 0
        self.d = self.d2.copy()  # the box iterate, warm-started across levels
        # the regular simplex realizes max d / min d, a finite start for hi
        self._offer_gram(np.eye(n) / 2)

    def _offer_gram(self, q: np.ndarray) -> None:
        """Take a psd Gram matrix as the witness if its exact distortion beats hi."""
        r2 = _dist2_of(q)[self.off] / self.d2[self.off]
        if r2.min() <= 0 or math.sqrt(r2.max() / r2.min()) >= self.hi:
            return
        witness = GramCandidate(q / r2.min())
        r2 = _dist2_of(witness.Q)[self.off] / self.d2[self.off]
        self.hi, self.witness = math.sqrt(r2.max() / r2.min()), witness

    def _offer_gap(self, a: np.ndarray) -> None:
        """Take a psd zero-row-sum gap as the certificate if check_certificate confirms it beats lo."""
        w = a * self.d2
        p, neg = w[w > 0].sum(), -w[w < 0].sum()
        if neg <= 0:
            return
        level = math.sqrt(p / neg) * (1 - 1e-9)
        if level <= self.lo:
            return
        cert = NegativeTypeCertificate(a)
        holds, _, _ = check_certificate(self.m, cert, level)
        if not holds:
            self.lo, self.certificate = level, cert

    def level(self, alpha: float, slack: float, budget: int) -> bool:
        """Project at level alpha until hi <= alpha + slack or lo >= alpha - slack.

        Returns False if the budget runs out first.  The slack decides levels
        in finite time: at a feasible level the witness distortion tends to
        alpha itself, often from above, since the limit of the projections
        touches both faces of the box.
        """
        box_hi = alpha * alpha * self.d2
        d = np.clip(self.d, self.d2, box_hi)  # the zero diagonal of d2 keeps d hollow
        try:
            for it in range(budget):
                self.iterations += 1
                vals, vecs = np.linalg.eigh(self.u1.T @ d @ self.u1)
                pos = vals > 0
                g = self.u1 @ vecs[:, pos]
                gap = (g * vals[pos]) @ g.T
                gap = (gap + gap.T) / 2  # d - gap is the cone projection P_K(d)
                if it % CHECK_EVERY == 0 or not pos.any():
                    g = self.u1 @ vecs[:, ~pos]
                    self._offer_gram((g * (-0.5 * vals[~pos])) @ g.T)
                    self._offer_gap(gap)
                    if self.hi <= alpha + slack or self.lo >= alpha - slack:
                        return True
                d = np.clip(d - gap, self.d2, box_hi)
            return False
        finally:
            self.d = d


@dataclass(frozen=True)
class C2Bracket:
    """A checked bracket lo <= c2(m) <= hi.

    ``witness`` is a Gram matrix whose points have distortion hi, scaled so
    that their squared distances lie in [d^2, hi^2 d^2].  ``certificate``
    refutes every level below lo under ``check_certificate``; it is None
    when lo is the trivial bound 1.  ``status`` is "converged" when
    hi - lo <= tol and "undecided" when bisection levels ran out of
    iterations before the bracket got that narrow.
    """

    lo: float
    hi: float
    witness: GramCandidate
    certificate: NegativeTypeCertificate | None
    iterations: int
    status: str


def c2_bracket(m: FiniteMetric, tol: float = 1e-4, max_iter: int = LEVEL_ITERATIONS) -> C2Bracket:
    """Euclidean distortion as a checked bracket of target width ``tol``.

    Bisection over alpha with at most ``max_iter`` projection iterations per
    level; see the module docstring for the two checks that move lo and hi.
    """
    if m.n > MAX_POINTS:
        raise TooLarge(f"instances capped at {MAX_POINTS} points")
    if tol < 1e-6:
        raise ValueError("tol below 1e-6 is not supported")
    if m.n < 3:
        # one or two points embed isometrically on a line
        return C2Bracket(1.0, 1.0, GramCandidate(_gram_of(m.dist**2)), None, 0, "converged")
    b = _Bracket(m)
    undecided = []  # levels that ran out of iterations
    while True:
        # untested stretches: between lo, hi and the undecided levels, wider
        # than tol and than a quarter of the bracket; the highest goes first
        ends = sorted([b.lo, b.hi] + [u for u in undecided if b.lo < u < b.hi])
        wide = max(tol, (b.hi - b.lo) / 4)
        gaps = [(x, y) for x, y in zip(ends, ends[1:]) if y - x > wide]
        if not gaps:
            break
        x, y = gaps[-1]
        # a verdict within (y - x) / 8 of the probe still cuts the stretch
        if not b.level((x + y) / 2, (y - x) / 8, max_iter):
            undecided.append((x + y) / 2)
    status = "converged" if b.hi - b.lo <= tol else "undecided"
    return C2Bracket(b.lo, b.hi, b.witness, b.certificate, b.iterations, status)


def c2_sdp(m: FiniteMetric, tol: float = 1e-4, max_iter: int = LEVEL_ITERATIONS):
    """Upper end of ``c2_bracket``: ``(hi, witness, iterations)``."""
    b = c2_bracket(m, tol, max_iter)
    return b.hi, b.witness, b.iterations


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


def find_violating_certificate(m: FiniteMetric, alpha: float, seed=0):
    """The gap certificate of the projections at level alpha, or None.

    Runs one level of ``c2_bracket`` at alpha from the lower corner of the
    box and returns the first gap certificate that ``check_certificate``
    finds violated at alpha.  Returns None when a witness shows that alpha
    is feasible, so that no violating certificate exists, or when the level
    runs out of iterations.  The search is deterministic: ``seed`` is
    accepted for compatibility and does not affect the result.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    if m.n < 3:
        return None  # one or two points embed isometrically
    b = _Bracket(m)
    b.level(alpha, 0.0, LEVEL_ITERATIONS)
    if b.certificate is None or check_certificate(m, b.certificate, alpha)[0]:
        return None
    return b.certificate


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
    from scipy.stats import qmc

    n = m.n
    if n < 2:
        return 1.0
    dim = n - 1
    iu = np.triu_indices(n, 1)
    d = m.dist[iu]

    sob = qmc.Sobol(d=n * dim, scramble=True, seed=seed)
    inits = 2.0 * sob.random(starts) - 1.0

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
