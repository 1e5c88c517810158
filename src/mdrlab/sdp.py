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

As alpha^2 enters the box linearly, c2^2 is the least t over pairs (X, t)
with X in K and d^2 <= X <= t d^2, one convex problem.  The solver runs ADMM
(Boyd et al. 2011) on the split X = Z, (X, t) in the t-box and Z in K, on
distances scaled to max 1.  Each iteration: the t-step sorts the ratios
(Z - U)/d^2 to solve its piecewise-linear optimality condition and sets X to
the clip of Z - U into [d^2, t d^2]; the Z-step is the cone projection
P_K(X + U), which clips the positive eigenvalues of X + U in an orthonormal
basis of the complement of the ones vector; U becomes the removed gap.
At iterations 1, 11, 21, ... it checks two objects before using them:

* upper side: -P_K(X + U)/2, read in the ones-complement basis, is a psd
  Gram matrix.  The exact distortion of its points (max ratio over min
  ratio) is an upper bound hi; rescaled so that its smallest ratio is 1,
  the witness lies in the box [d^2, hi^2 d^2];
* lower side: the gap U is psd with zero row sums, a certificate refuting
  every level below sqrt(P/N); at the optimum it refutes every level below c2.

At the same iterations rho, which starts at 1, is rebalanced on the
residuals (Boyd et al. 2011, section 3.4.1): doubled, with U halved, when the
primal residual |X - Z| exceeds 10 times the dual residual rho |Z - Z_prev|,
and halved, with U doubled, in the opposite case.  A run ends "converged"
once hi - lo <= tol and "undecided" if it spends its iteration budget first.

The loop computes nothing that stays fixed during a run more than once (the
pair ratios' denominators and weights, the -inf after the last sorted ratio,
d^2 off the diagonal, the squared distances of the certificate sums), and its
outputs are a contract bit for bit.  So it keeps the rounding of each
expression: the ratios v/d^2 in the order of the pairs i < j, the argsort of
their negatives, the cumulative sums of t_k, np.clip for the t-box,
np.linalg.eigh of U'(X + U)U, and the eigenvector columns gathered into a
contiguous array before each product, since BLAS rounds a strided view of
them differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, CertificateInvalid, NotPSD, ParameterDomain, TooLarge
from .metric import FiniteMetric, PointCloud, _frozen, _owned

MAX_POINTS = 128
# ADMM iterations one run may spend before it ends undecided.  Random
# shortest-path metrics with 8 to 128 points converged in at most ~2500.
MAX_ITER = 5000
CHECK_EVERY = 10


def _symmetric(a, name: str, exc) -> tuple[np.ndarray, float]:
    """``a`` taken in by ``_owned``, with its largest |entry|.

    Raises ``exc`` unless the matrix is square, non-empty, finite and
    symmetric to 1e-9 of its largest |entry|, a rule that holds at every scale.
    """
    a = _owned(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise exc(f"{name} must be square")
    if not a.size:
        raise exc(f"{name} must be non-empty")
    if not np.isfinite(a).all():
        raise exc(f"{name} must be finite")
    scale = np.abs(a).max()
    if np.abs(a - a.T).max() > 1e-9 * scale:
        raise exc(f"{name} must be symmetric")
    return a, scale


@dataclass(frozen=True)
class GramCandidate:
    """A symmetric matrix of inner products, psd up to 1e-9 of its trace scale; held read-only.

    Symmetry is checked to 1e-9 of the largest |q_ij| and the least
    eigenvalue to -1e-9 trace/n, so a positive factor changes no verdict.
    """

    Q: np.ndarray

    def __post_init__(self):
        q, _ = _symmetric(self.Q, "Q", ValueError)
        if np.linalg.eigvalsh((q + q.T) / 2).min() < -1e-9 * np.trace(q) / q.shape[0]:
            raise NotPSD("Q has an eigenvalue below -1e-9 of its trace scale")
        object.__setattr__(self, "Q", q)


@dataclass(frozen=True)
class NegativeTypeCertificate:
    """A psd matrix with zero row sums, held read-only; the a_ij of the distortion test.

    Symmetry, row sums and the least eigenvalue are checked to 1e-9 of the
    largest |a_ij|.  A positive factor scales both sides of the test and so
    changes no verdict; the checks scale with it, so a negative definite
    matrix of tiny entries is refused like a large one.
    """

    A: np.ndarray

    def __post_init__(self):
        a, scale = _symmetric(self.A, "A", CertificateInvalid)
        if np.abs(a.sum(axis=1)).max() > 1e-9 * scale:
            raise CertificateInvalid("rows of A must sum to zero")
        if np.linalg.eigvalsh((a + a.T) / 2).min() < -1e-9 * scale:
            raise CertificateInvalid("A must be positive semidefinite")
        object.__setattr__(self, "A", a)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def _ones_complement_basis(n: int) -> np.ndarray:
    """n x (n-1) orthonormal basis of the complement of the ones vector in R^n."""
    q, _ = np.linalg.qr(np.eye(n)[:, : n - 1] - 1.0 / n)
    return q


def _gram_of(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    return -0.5 * j @ d @ j


def _squared_distances(m: FiniteMetric) -> np.ndarray:
    """``m.dist**2``, refusing a metric whose largest distance squares to inf."""
    big = float(m.dist.max())
    if math.isinf(big * big):
        raise ParameterDomain(
            f"squared distances overflow: the largest distance {big:.6g} "
            "exceeds ~1.3e154; rescale the metric"
        )
    return m.dist**2


def _dist2_of(q: np.ndarray) -> np.ndarray:
    g = np.diag(q)
    return g[:, None] + g[None, :] - 2 * q


class _Bracket:
    """One ADMM run on (X, t) = Z; lo and hi move only on checked objects."""

    def __init__(self, m: FiniteMetric):
        n = m.n
        self.m = m
        self.d2 = _squared_distances(m)
        self.u1 = _ones_complement_basis(n)
        self.off = ~np.eye(n, dtype=bool)
        self.d2_off = self.d2[self.off]
        self.lo, self.certificate = 1.0, None
        self.hi, self.witness = math.inf, None
        self.iterations = 0
        # the regular simplex realizes max d / min d, a finite start for hi
        self._offer_gram(np.eye(n) / 2)

    def _offer_gram(self, q: np.ndarray) -> None:
        """Take a psd Gram matrix as the witness if its exact distortion beats hi."""
        r2 = _dist2_of(q)[self.off] / self.d2_off
        least = r2.min()
        if least <= 0 or math.sqrt(r2.max() / least) >= self.hi:
            return
        witness = GramCandidate(q / least)
        r2 = _dist2_of(witness.Q)[self.off] / self.d2_off
        self.hi, self.witness = math.sqrt(r2.max() / r2.min()), witness

    def _offer_gap(self, a: np.ndarray) -> None:
        """Take a psd zero-row-sum gap as the certificate if its sums confirm that it beats lo."""
        w = a * self.d2
        p, neg = w[w > 0].sum(), -w[w < 0].sum()
        if neg <= 0:
            return
        level = math.sqrt(p / neg) * (1 - 1e-9)
        if level <= self.lo:
            return
        cert = NegativeTypeCertificate(a)
        if not _certificate_sums(cert.A, self.d2, level)[0]:
            self.lo, self.certificate = level, cert

    def run(self, done) -> bool:
        """Iterate until ``done()`` holds at a check; False if MAX_ITER iterations run out first."""
        n, u1 = self.m.n, self.u1
        u1t = u1.T
        d2 = self.d2 / self.d2.max()
        pairs = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))  # the pairs i < j, flat
        d2p = d2.take(pairs)
        w = d2p**2  # the weights of t in the t-step
        # the sorted ratios, followed by the -inf that no t_k can stay below
        rs = np.empty(pairs.size + 1)
        rs[-1] = -np.inf
        r, r_next = rs[:-1], rs[1:]
        z, u, rho = d2, np.zeros_like(d2), 1.0
        for it in range(MAX_ITER):
            self.iterations += 1
            v = z - u
            # t minimizes t + rho/2 |clip(v, d2, t d2) - v|^2: over the pairs
            # i < j the derivative 1 - 2 rho sum_{r > t} w (r - t) in the ratios
            # r = v/d2 is zero at t_k = (sum_{i<=k} w r - 1/(2 rho)) / sum_{i<=k} w
            # over the k largest r, for the first k with t_k above the next ratio
            ratio = v.take(pairs) / d2p
            order = (-ratio).argsort()
            r[:] = ratio.take(order)
            wk = w.take(order)
            tk = ((wk * r).cumsum() - 0.5 / rho) / wk.cumsum()
            t = max(1.0, tk[(tk >= r_next).argmax()])
            x = v.clip(d2, t * d2)  # the zero diagonal of d2 keeps x hollow
            xu = x + u
            vals, vecs = np.linalg.eigh(u1t @ xu @ u1)
            pos = vals > 0
            g = u1 @ vecs[:, pos]
            gap = (g * vals[pos]) @ g.T
            gap = (gap + gap.T) / 2  # x + u - gap is the cone projection P_K(x + u)
            z_prev, z, u = z, np.subtract(xu, gap, out=xu), gap
            if it % CHECK_EVERY == 0:
                g = u1 @ vecs[:, ~pos]
                self._offer_gram((g * (-0.5 * vals[~pos])) @ g.T)
                self._offer_gap(gap)
                if done():
                    return True
                primal, dual = np.linalg.norm(x - z), rho * np.linalg.norm(z - z_prev)
                if primal > 10 * dual:
                    rho, u = 2 * rho, u / 2
                elif dual > 10 * primal:
                    rho, u = rho / 2, 2 * u
        return False


@dataclass(frozen=True)
class C2Bracket:
    """A checked bracket lo <= c2(m) <= hi.

    ``witness`` is a Gram matrix whose points have distortion hi, scaled so
    that their squared distances lie in [d^2, hi^2 d^2].  ``certificate``
    refutes every level below lo under ``check_certificate``; it is None
    when lo is the trivial bound 1.  ``status`` is "converged" when
    hi - lo <= tol and "undecided" when the run spent its iteration budget
    before the bracket got that narrow.  ``iterations`` counts ADMM
    iterations.
    """

    lo: float
    hi: float
    witness: GramCandidate
    certificate: NegativeTypeCertificate | None
    iterations: int
    status: str


def _solve(m: FiniteMetric, done) -> C2Bracket:
    """One ADMM run of at most MAX_ITER iterations, until ``done(lo, hi)`` holds at a check."""
    if m.n > MAX_POINTS:
        raise TooLarge(f"instances capped at {MAX_POINTS} points")
    if m.n < 3:
        # one or two points embed isometrically on a line
        return C2Bracket(1.0, 1.0, GramCandidate(_gram_of(_squared_distances(m))), None, 0, "converged")
    b = _Bracket(m)
    status = "converged" if b.run(lambda: done(b.lo, b.hi)) else "undecided"
    return C2Bracket(b.lo, b.hi, b.witness, b.certificate, b.iterations, status)


def c2_bracket(m: FiniteMetric, tol: float = 1e-4) -> C2Bracket:
    """Euclidean distortion as a checked bracket of target width ``tol``.

    One ADMM run of at most MAX_ITER iterations; see the module docstring
    for its steps, the rho rule and the two checks that move lo and hi.
    """
    if not tol >= 1e-6:
        raise ValueError("tol below 1e-6 is not supported")
    return _solve(m, lambda lo, hi: hi - lo <= tol)


def c2_sdp(m: FiniteMetric, tol: float = 1e-4):
    """Upper end of ``c2_bracket``: ``(hi, witness, iterations)``."""
    b = c2_bracket(m, tol)
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
    if not 1 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    return _certificate_sums(cert.A, _squared_distances(m), alpha)


def _certificate_sums(a: np.ndarray, d2: np.ndarray, alpha: float):
    """``check_certificate`` on the squared distances ``d2``."""
    lhs = float((a * d2).sum())
    rhs = float((alpha**2 - 1) / (alpha**2 + 1) * (np.abs(a) * d2).sum())
    return lhs <= rhs + 1e-12 * rhs, lhs, rhs


def find_violating_certificate(m: FiniteMetric, alpha: float, seed=0):
    """A gap certificate of the ADMM run that refutes level alpha, or None.

    Runs the iteration of ``c2_bracket`` until lo > alpha or hi <= alpha
    and returns the run's gap certificate if ``check_certificate`` finds it
    violated at alpha.  None means that a witness shows alpha is feasible,
    so that no violating certificate exists.  A run that spends its
    MAX_ITER iterations first without refuting alpha raises
    :class:`CapExceeded`, and more than MAX_POINTS points raise
    :class:`TooLarge`, as in ``c2_bracket``.  The search is deterministic:
    ``seed`` is accepted for compatibility and does not affect the result.
    """
    if not 1 <= alpha < math.inf:
        raise ValueError("alpha must be >= 1")
    b = _solve(m, lambda lo, hi: lo > alpha or hi <= alpha)
    if b.certificate is not None and not check_certificate(m, b.certificate, alpha)[0]:
        return b.certificate
    if b.status == "undecided":
        raise CapExceeded(
            f"alpha={alpha!r} undecided after {b.iterations} iterations: "
            f"c2 in [{b.lo:.12g}, {b.hi:.12g}]"
        )
    return None


def extract_points(q: GramCandidate) -> PointCloud:
    """Gram factorization Q = V L V' -> coordinates V sqrt(L), negatives clipped."""
    vals, vecs = np.linalg.eigh((q.Q + q.Q.T) / 2)
    return PointCloud(_frozen(vecs * np.sqrt(np.clip(vals, 0.0, None))), "l2")


def c2_bruteforce(m: FiniteMetric, starts: int = 64, seed=0) -> float:
    """Multi-start configuration search for the Euclidean distortion.

    An independent oracle for small instances: quasi-random starts, a smooth
    log-stress descent, then SLSQP on the epigraph form, minimize t subject
    to s <= log r_ij <= s + t over the distance ratios r_ij.  Returns the
    exact max/min ratio of the best final point, so the value is always
    realized by an embedding.  Embedding dimension n - 1 (always sufficient).
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

    def logratios(x):
        pts = x[: n * dim].reshape(n, dim)
        dt = np.sqrt(((pts[iu[0]] - pts[iu[1]]) ** 2).sum(axis=1))
        return np.log(np.maximum(dt / d, 1e-300))

    def logstress(x):
        lr = logratios(x)
        if lr.min() <= math.log(1e-12):
            return 1e9
        return float(((lr - lr.mean()) ** 2).sum())

    def epigraph(y):  # y = (x, s, t): s <= log r_ij <= s + t
        lr = logratios(y)
        return np.concatenate([lr - y[-2], y[-2] + y[-1] - lr])

    best = math.inf
    for i in range(starts):
        x = optimize.minimize(logstress, inits[i], method="L-BFGS-B").x
        lr = logratios(x)
        y = np.concatenate([x, [lr.min(), lr.max() - lr.min()]])
        cons = {"type": "ineq", "fun": epigraph}
        y = optimize.minimize(lambda y: y[-1], y, method="SLSQP", constraints=cons,
                              options={"maxiter": 500, "ftol": 1e-12}).x
        lr = logratios(y)
        if lr.min() > math.log(1e-12):
            best = min(best, float(np.exp(lr.max() - lr.min())))
    return best
