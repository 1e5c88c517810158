"""Johnson-Lindenstrauss engine: exact success probabilities and transforms.

For target distortion alpha > 1 and n points, the per-pair success
probability of the rescaled random-rotation transform is

    psi(sigma) = C(n,k) * integral_{max(1, sigma/alpha)}^{max(1, sigma)}
                 (s^2 - 1)^((n-k-3)/2) / s^(n-2) ds,

    C(n,k) = 2 Gamma((n-1)/2) / (Gamma(k/2) Gamma((n-1-k)/2)),

which equals the probability that a Haar-random rotation followed by
projection to the first k coordinates and scaling by sigma maps a unit
vector to length in [1, alpha].  The global maximizer of psi is

    sigma_max(n,k,alpha)
        = sqrt((alpha^((2n-6)/(n-k-3)) - 1) / (alpha^(2k/(n-k-3)) - 1)).

In the radial variable r = 1/s the integrand is the density of a
Beta(k/2, (n-1-k)/2) law of r^2, so psi is one minus two Beta tails.  The
module evaluates psi and its complement from those tails (relatively
accurate down to the 1e-18 failure rates that a billion-point union bound
requires), the optimally rescaled Gaussian alternative from two chi-square
tails, the minimal dimensions certified by either route, and retrying
transforms for Euclidean point clouds.  The integrals themselves are
recomputed by quadrature only in ``verify``, as an independent check.

Note the normalizing constant C(n,k): the radial density of the projected
point has total mass exactly 1 with it (a Beta integral), and Monte Carlo
agrees.  The commonly printed prefactor 2 pi^(k/2) / Gamma(k/2) is not
normalized, and ``verify jl`` fails with it: see tests/test_cli.py's
``TestVerifyCommand::test_tampered_psi_constant_fails_mc_agreement`` and
``test_tampered_quadrature_constant_fails_quadrature_agreement``.
"""

from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import NoFeasibleK, ParameterDomain, ZeroDistancePair
from .metric import PointCloud, _frozen

MODES = ("haar_projection", "scaled_gaussian")


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A probability with its standard error and provenance."""

    value: float
    std_error: float
    method: str

    def __post_init__(self):
        if not (self.value - 3 * self.std_error <= 1 and self.value + 3 * self.std_error >= 0):
            raise ValueError(f"implausible probability estimate {self.value} +- {self.std_error}")


@dataclass(frozen=True)
class JlPlan:
    """A dimension-reduction instance with its success certificate.

    ``failure_prob`` is the per-pair probability that one unit direction
    lands outside [1, alpha], evaluated directly from the tails so it stays
    readable where its complement rounds to 1; ``union_bound`` = 1 - C(n,2)
    failure_prob lower-bounds the probability that a single draw works for
    all pairs.
    ``ambient`` is the dimension the rotation acts on: n - 1 whenever the
    requested k permits, padded up to k + 3 otherwise (zero-padding is an
    isometry, so the certificate stays exact).
    """

    n: int
    alpha: float
    k: int
    sigma: float
    mode: str
    failure_prob: float
    union_bound: float
    ambient: int


@dataclass(frozen=True)
class JlResult:
    """Outcome of a retrying transform."""

    cloud: PointCloud
    plan: JlPlan
    attempts: int
    success: bool
    measured_distortion: float


def sample_haar_orthogonal(m: int, seed, cols: int | None = None) -> np.ndarray:
    """Leading ``cols`` columns (all m by default) of a Haar-distributed
    orthogonal matrix, via QR with the R-sign correction.

    One m x cols standard normal draw is QR-factored.  Its columns are
    independent standard Gaussians, so with a positive R diagonal the thin Q
    has the law of the first ``cols`` columns of a Haar rotation; the draw
    costs m * cols normals rather than m^2, and ``cols = m`` is the full one.
    """
    if m < 1:
        raise ParameterDomain("dimension must be >= 1")
    cols = m if cols is None else cols
    if not 1 <= cols <= m:
        raise ParameterDomain(f"need 1 <= cols <= {m}, got {cols}")
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, cols)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@functools.cache
def _special():
    """``scipy.special``, imported on first use.

    The Beta and chi-square tails are its ufuncs.  Importing it more than
    doubles the package's import time, which commands that evaluate no tail
    should not pay; the cache makes each later call a dictionary hit rather
    than an import statement.
    """
    import scipy.special

    return scipy.special


def _check_psi_domain(n: int, k: int, alpha: float):
    # psi's integrand stays integrable up to k = n - 3 (exponent 0); only
    # sigma_max needs the stricter k <= n - 4
    if n < 4 or not float(n).is_integer():
        raise ParameterDomain("need integer n >= 4")
    if not 1 <= k <= n - 3:
        raise ParameterDomain(f"need 1 <= k <= n - 3, got k={k}, n={n}")
    if not alpha > 1:
        raise ParameterDomain("alpha must exceed 1")


def psi(n: int, k: int, alpha: float, sigma: float) -> ProbabilityEstimate:
    """Per-pair success probability of the sigma-scaled rotation-projection.

    Vanishes for sigma <= 1, increases on [1, alpha], and decays to zero as
    sigma grows; evaluated as 1 - psi_failure, the two Beta tails of the
    radial law.
    """
    return ProbabilityEstimate(1.0 - psi_failure(n, k, alpha, sigma), 0.0, "beta")


def psi_failure(n: int, k: int, alpha: float, sigma: float) -> float:
    """1 - psi with relative accuracy, as the two tails of the radial law.

    In the radial variable r = 1/s the success event is 1/sigma <= r <=
    alpha/sigma, and r^2 follows a Beta(k/2, (n-1-k)/2) law (the same fact
    that fixes the normalizing constant of psi).  Both tails are therefore
    Beta CDF values, which stay relatively accurate down to the 1e-18 scale
    needed to certify union bounds for a billion points; ``verify`` and the
    tests reconcile this route against the psi integral and Monte Carlo.
    """
    _check_psi_domain(n, k, alpha)
    if not sigma >= 0:
        raise ParameterDomain("sigma must be nonnegative")
    if sigma <= 1.0:
        return 1.0
    a, b = k / 2.0, (n - 1 - k) / 2.0
    r_lo = min(1.0, 1.0 / sigma)
    r_hi = min(1.0, alpha / sigma)
    sp = _special()
    low = float(sp.betainc(a, b, r_lo * r_lo))
    high = float(sp.betaincc(a, b, r_hi * r_hi)) if r_hi < 1.0 else 0.0
    return min(1.0, low + high)


def _squared_normal_chunks(rng: np.random.Generator, samples: int, width: int):
    """Yield ``samples`` rows of squared standard normals, ``width`` per row.

    One buffer of at most 2**16 normals (512 KiB) is refilled and squared in
    place for each chunk.  ``Generator.standard_normal`` fills sequentially,
    so the rows are those of one (samples, width) draw; each row is summed
    within the row, so ``np.sqrt(chunk.sum(axis=1))`` is bit for bit
    ``np.linalg.norm`` of the unsquared rows, whatever the chunk size.
    """
    buf = np.empty((max(1, min(samples, 2**16 // width)), width))
    for start in range(0, samples, len(buf)):
        chunk = rng.standard_normal(out=buf[: samples - start])
        chunk *= chunk
        yield chunk


def psi_monte_carlo(
    n: int, k: int, alpha: float, sigma: float, samples: int, seed
) -> ProbabilityEstimate:
    """Empirical frequency of 1 <= sigma * ||proj_k(O z)|| <= alpha.

    The image O z of a fixed unit vector under a Haar rotation is a uniform
    point on the sphere, drawn here directly as a normalized Gaussian: the
    first column of ``sample_haar_orthogonal(n - 1, rng, 1)`` is that same
    point from the same normals, at the cost of a QR per sample.
    """
    _check_psi_domain(n, k, alpha)
    if not sigma >= 0:
        raise ParameterDomain("sigma must be nonnegative")
    rng = np.random.default_rng(seed)
    hits = 0
    for w2 in _squared_normal_chunks(rng, samples, n - 1):
        r = np.sqrt(w2[:, :k].sum(axis=1)) / np.sqrt(w2.sum(axis=1))
        hits += int(((sigma * r >= 1.0) & (sigma * r <= alpha)).sum())
    return _frequency(hits, samples)


def _frequency(hits: int, samples: int) -> ProbabilityEstimate:
    """hits/samples with its binomial standard error, floored at 1/samples."""
    if samples < 1:
        raise ParameterDomain("samples must be >= 1")
    p = hits / samples
    se = math.sqrt(max(p * (1 - p), 1.0 / samples) / samples)
    return ProbabilityEstimate(p, se, f"monte_carlo({samples})")


def _log_expm1(x: float) -> float:
    if x > 300:
        return x + math.log1p(-math.exp(-x))
    return math.log(math.expm1(x))


def sigma_max(n: int, k: int, alpha: float) -> float:
    """Maximizer of psi over the scaling factor, in log space.

    Equals sqrt((alpha^((2n-6)/(n-k-3)) - 1) / (alpha^(2k/(n-k-3)) - 1)); an
    OverflowError is raised (never a silent saturation) if the value exceeds
    double range.  The maximizer diverges at k = n - 3, so that boundary is
    outside the domain, and so is alpha = inf, where the formula is inf/inf.
    """
    _check_psi_domain(n, k, alpha)
    if k > n - 4:
        raise ParameterDomain(f"sigma_max needs k <= n - 4, got k={k}, n={n}")
    if alpha == math.inf:
        raise ParameterDomain("sigma_max needs a finite alpha")
    la = math.log(alpha)
    a = (2 * n - 6) / (n - k - 3) * la
    b = 2 * k / (n - k - 3) * la
    log_sigma = (_log_expm1(a) - _log_expm1(b)) / 2
    if not log_sigma <= math.log(np.finfo(float).max):
        raise OverflowError(f"sigma_max exponent {log_sigma:.3e} exceeds double range")
    return math.exp(log_sigma)


def union_threshold(n: int) -> float:
    """Per-pair failure budget 2/(n(n-1)) of the pairwise union bound."""
    if not n >= 2:
        raise ParameterDomain("need n >= 2")
    return 2.0 / (n * (n - 1.0))


def jl_min_dim_projection(n: int, alpha: float) -> int:
    """Smallest k whose rotation-projection certificate beats the union bound.

    k is certified when psi_failure at sigma_max(n, k, alpha) is below the
    per-pair budget 2/(n(n-1)); sigma_max needs k <= n - 4.  Bisection of
    [1, n - 4] returns a certified k whose k - 1 is uncertified, or k = 1.
    If it runs past n - 4, which was then probed and uncertified, the
    trivial k = n - 1 is returned under a NoFeasibleK warning that says
    only this: bisection found no certified k, which does not exclude a
    certified window that no probe hit.

    The result is the least certified k* when the certified k below n - 4
    form one interval from k* (or there are none); a scan of every k found
    that on every n from 5 to 4100 with 13 alpha from 1.001 to 1e6.  Tiny
    alpha can certify only a narrow window below n - 4 (at alpha = 1.0005
    and n = 1,197,318 it is [1,193,763, 1,197,313]), which bisection finds
    only when one of its probes lands inside it.
    """
    if n < 5:
        raise ParameterDomain("need n >= 5")
    if not alpha > 1:
        raise ParameterDomain("alpha must exceed 1")
    budget = union_threshold(n)

    def feasible(k: int) -> bool:
        return psi_failure(n, k, alpha, sigma_max(n, k, alpha)) < budget

    k = bisect_left(range(n - 3), True, lo=1, key=feasible)
    if k > n - 4:
        warnings.warn(f"bisection of [1, {n - 4}] found no certified k; returning the trivial n - 1", NoFeasibleK)
        return n - 1
    return k


# Largest alpha whose powers in the Gaussian formulas stay in double range:
# alpha**2 for the scaling and the tails, 2 alpha**4 log(alpha) for the
# closed-form tail estimate behind jl_min_dim_gaussian.
GAUSSIAN_ALPHA_MAX = 1e154
TAIL_ESTIMATE_ALPHA_MAX = 1e76
GAUSSIAN_K_CAP = 10**6  # the largest k that jl_min_dim_gaussian searches


def _check_gaussian_alpha(alpha: float, limit: float):
    if not alpha > 1:
        raise ParameterDomain("alpha must exceed 1")
    if not alpha <= limit:
        raise ParameterDomain(
            f"alpha={float(alpha)!r} is out of range: need 1 < alpha <= {limit:g}, "
            "beyond which the Gaussian formula overflows double precision"
        )


def gaussian_sigma(k: int, alpha: float) -> float:
    """Optimal scaling of an i.i.d. Gaussian matrix: sqrt((alpha^2-1)/(2k log alpha))."""
    if k < 1:
        raise ParameterDomain("k must be >= 1")
    _check_gaussian_alpha(alpha, GAUSSIAN_ALPHA_MAX)
    return math.sqrt((alpha**2 - 1.0) / (2.0 * k * math.log(alpha)))


def gaussian_failure(k: int, alpha: float) -> float:
    """Failure probability of the rescaled Gaussian as two chi-square tails:
    the squared image length is (alpha^2 - 1)/(2k log alpha) times a
    chi-square with k degrees of freedom."""
    if k < 1:
        raise ParameterDomain("k must be >= 1")
    _check_gaussian_alpha(alpha, GAUSSIAN_ALPHA_MAX)
    la = math.log(alpha)
    lo = 2.0 * k * la / (alpha**2 - 1.0)
    sp = _special()
    return float(sp.chdtr(k, lo) + sp.chdtrc(k, alpha**2 * lo))


def jl_min_dim_gaussian(n: int, alpha: float) -> int:
    """Smallest k certified by the closed-form Gaussian tail estimate.

    The condition, entirely in log space so n up to 1e12 is routine, is

        Gamma(k/2)/k^(k/2-1) * ((alpha^2-1)/log(alpha) * alpha^(2/(alpha^2-1)))^(k/2)
            >= 2 n^2 (alpha^2-1)^2 log(alpha) / D(alpha),

    with D(alpha) = 2a^4 log a + 2a^2 - a^4 - 4a^2 (log a)^2 - 2 log a - 1
    evaluated at a = alpha.  D must be positive for the estimate to apply;
    callers hitting the error should fall back to gaussian_failure with the
    union bound.

    The log of the left side is strictly increasing in k, so bisection of
    [1, GAUSSIAN_K_CAP] finds the least k in about 20 evaluations.
    """
    if n < 2:
        raise ParameterDomain("need n >= 2")
    _check_gaussian_alpha(alpha, TAIL_ESTIMATE_ALPHA_MAX)
    a = float(alpha)
    la = math.log(a)
    denom = 2 * a**4 * la + 2 * a**2 - a**4 - 4 * a**2 * la**2 - 2 * la - 1
    if denom <= 0:
        raise ParameterDomain(
            f"tail-estimate denominator nonpositive at alpha={alpha}; "
            "use gaussian_failure with the union bound"
        )
    log_rhs = math.log(2.0) + 2 * math.log(n) + 2 * math.log(a**2 - 1) + math.log(la) - math.log(denom)
    log_ratio = math.log((a**2 - 1) / la) + 2 * la / (a**2 - 1)
    gammaln = _special().gammaln

    def feasible(k: int) -> bool:
        return gammaln(k / 2) - (k / 2 - 1) * math.log(k) + (k / 2) * log_ratio >= log_rhs

    k = bisect_left(range(GAUSSIAN_K_CAP + 1), True, lo=1, key=feasible)
    if k > GAUSSIAN_K_CAP:
        raise ParameterDomain(f"no feasible k below the cap {GAUSSIAN_K_CAP}")
    return k


def make_plan(n: int, alpha: float, mode: str, k: int | None = None) -> JlPlan:
    """Assemble the (k, sigma, certificate) tuple for either transform mode.

    In haar mode the rotation acts on dimension n - 1 when k <= n - 4;
    otherwise the points are zero-padded into dimension k + 3 so the success
    probability stays well-defined (padding is isometric, and enlarging the
    ambient dimension only weakens the certificate, never the verification).
    """
    if mode not in MODES:
        raise ParameterDomain(f"mode must be one of {MODES}")
    if mode == "haar_projection":
        if k is None:
            k = jl_min_dim_projection(n, alpha)
        ambient = max(n - 1, k + 3)
        sig = sigma_max(ambient + 1, k, alpha)
        failure = psi_failure(ambient + 1, k, alpha, sig)
    else:
        if k is None:
            k = jl_min_dim_gaussian(n, alpha)
        ambient = n - 1
        sig = gaussian_sigma(k, alpha)
        failure = gaussian_failure(k, alpha)
    pairs = n * (n - 1) / 2.0
    return JlPlan(
        n=n,
        alpha=float(alpha),
        k=int(k),
        sigma=float(sig),
        mode=mode,
        failure_prob=failure,
        union_bound=1.0 - pairs * failure,
        ambient=int(ambient),
    )


# Pair distances per block array of the pair walk (2 MB of doubles): a row
# block of an n-point cloud is _PAIR_BLOCK // n rows tall.
_PAIR_BLOCK = 2**18
_U = 2.0**-53  # unit roundoff of a double
# _ratio_range's prefilter bounds a pair's ratio uniformly once both of its
# Gram squared distances exceed _WIDE times their error bound
_WIDE = 2.0**20


def _gamma(m: int) -> float:
    """gamma_m = m u / (1 - m u), the relative error of m roundings (Higham 3.1)."""
    return m * _U / (1 - m * _U)


def _gram_sides(xt: np.ndarray, yt: np.ndarray):
    """Squared row norms and error bound E of each translate, as
    ((norms_x, E_x), (norms_y, E_y)), or None outside the scale guard of
    :func:`_ratio_range`."""
    sides = []
    for t in (xt, yt):
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.einsum("ij,ij->i", t, t)
        d = t.shape[1]
        r2 = float(norms.max()) / (1 - _gamma(d))  # a Python float: ry / rx below overflows to inf silently
        if not 2.0**-1000 <= r2 <= 2.0**1000:  # NaN fails too
            return None
        sides.append((norms, (4 * _gamma(d + 3) + 9 * _U) * r2 + d * 2.0**-1071, r2))
    (nx, ex, rx), (ny, ey, ry) = sides
    if not 2.0**-900 <= ry / rx <= 2.0**900:
        return None
    return (nx, ex), (ny, ey)


def _ratio_range(x: np.ndarray, y: np.ndarray, xt: np.ndarray, yt: np.ndarray):
    """Least and greatest ||y_i - y_j|| / ||x_i - x_j|| over all pairs i < j.

    Every ratio taken is one of ``pdist(y) / pdist(x)``, and minimum and
    maximum are exact, so the result is that of the whole ratio array, NaN
    included.  The source distances are checked on the way: an infinite one
    raises ``ParameterDomain`` and, failing that, a zero one
    ``ZeroDistancePair``.

    The pairs i < j are taken in row blocks [i, j) of ``_PAIR_BLOCK // n``
    rows.  A block is either walked, all of its pairs measured (``pdist`` of
    its rows, then ``cdist`` from them to the later rows, which compute each
    distance bit for bit alike), or thinned by a prefilter on translates xt
    and yt of x and y: x minus one fixed row, each entry rounded once
    (``jl_transform`` passes its differences from the first point, and y
    itself).  Per block, one BLAS product per side gives every pair's
    squared distance A = n_i + n_j - 2 t_i.t_j, with n_i the computed
    squared row norms, and B on the image.  With u = 2^-53, gamma_m =
    m u / (1 - m u), d the source's coordinates and R^2 the largest
    n_i / (1 - gamma_d):

    - the Gram formula is within 4 gamma_d R^2 of ||t_i - t_j||^2 in any
      summation order, FMA included, and its two additions add 7 u R^2;
    - rounding the translate moves t_i - t_j by at most u (|t_i| + |t_j|)
      / (1 - u) from x_i - x_j, so the squared distance by 8 u R^2 (1 + O(u));
    - underflow adds at most 3 d 2^-1075 to A, and d 2^-1075 to ``pdist``'s
      sum of squares, which is otherwise within gamma_{d+2} of the exact one.

    So the exact squared distance, moved by twice ``pdist``'s underflow, is
    within E = (4 gamma_{d+3} + 9 u) R^2 + d 2^-1071 of A, and ``pdist``
    returns its root times 1 +- gamma_{d+3}; likewise on the image, with its
    own coordinates.  Pairs with A or B below 2^20 E are "close" (every
    coincident pair is).  Any other pair's ratio r = fl(pdist(y) / pdist(x))
    has r^2 within [c_L, c_U] times rho = fl(B / A), where w = c_U / c_L is
    ((1 + 2^-20) / (1 - 2^-20))^2, times ((1 + gamma_{m+3}) / (1 -
    gamma_{m+3}))^2 for each side's m coordinates, times ((1 + u) / (1 -
    u))^3.  Hence the pair holding the least ratio is close or has rho <= w
    min rho, since c_L rho_p <= r_p^2 <= r_q^2 <= c_U rho_q for the pair q of
    least rho; the greatest likewise has rho >= max rho / w.  w carries a
    relative slack of 2^-40 for the rounding of these margins.  Each block
    keeps its close pairs and those within the margins of the running
    extremes of rho, the block's own pairs included, and measures them at
    once with ``cdist`` row by row, which gives ``pdist``'s bits.  The
    running extremes only move outward as later blocks come in, so the
    filter is conservative: it keeps every pair that the margins of the
    final extremes would.  A block that keeps more pairs than it has rows
    (an isometric image, many tied ratios) is walked instead, its distances
    written into the buffers of its Gram products.

    The prefilter runs only on clouds of more than one block, where both
    R^2 lie in [2^-1000, 2^1000] and their ratio in [2^-900, 2^900]; that
    rejects non-finite input, keeps every distance finite, and makes every
    rho and margin a normal number.  Otherwise every block is walked.
    """
    from scipy.spatial.distance import cdist, pdist

    n = len(x)
    rows = min(n, max(1, _PAIR_BLOCK // n))
    sides = _gram_sides(xt, yt) if rows < n else None
    if sides is not None:
        below = np.tri(rows, dtype=bool)  # block entries (a, b) with b <= a hold no pair
        gx, gy, t = _gamma(x.shape[1] + 3), _gamma(y.shape[1] + 3), 1 / _WIDE
        w = ((1 + t) / (1 - t) * (1 + gx) / (1 - gx) * (1 + gy) / (1 - gy)) ** 2
        w *= ((1 + _U) / (1 - _U)) ** 3 * (1 + 2.0**-40)
    least, most = np.inf, -np.inf
    lo, hi = np.float64(np.inf), np.float64(-np.inf)
    coincident = False
    # two block arrays, allocated once, hold the Gram products or a walked block's distances
    bufs = np.empty((2, rows * n if sides is not None else rows * (2 * n - rows - 1) // 2))
    for i in range(0, n, rows):
        j = min(i + rows, n)
        pieces = None
        if sides is not None:
            a, b = bufs[:, : (j - i) * (n - i)].reshape(2, j - i, n - i)
            close = [np.empty(0, int)]
            for g, z, (norms, e) in zip((a, b), (xt, yt), sides):
                np.matmul(-2.0 * z[i:j], z[i:].T, out=g)
                g += norms[i:j, None]
                g += norms[i:]
                g[:, : j - i][below[: j - i, : j - i]] = np.nan
                if np.fmin.reduce(g, None) < _WIDE * e:  # one boolean temporary at a time
                    close.append(np.flatnonzero(g < _WIDE * e))
            close = np.concatenate(close)
            with np.errstate(divide="ignore", invalid="ignore"):
                b /= a
            rho = b.ravel()
            rho[close] = np.nan
            least = np.fmin(least, np.fmin.reduce(rho))
            most = np.fmax(most, np.fmax.reduce(rho))
            ends = np.concatenate([close, np.flatnonzero(rho <= least * w), np.flatnonzero(rho >= most / w)])
            if len(ends) <= j - i:
                p, q = np.divmod(np.unique(ends), n - i)
                first = np.flatnonzero(np.diff(p, prepend=-1))  # a row's kept pairs are adjacent
                pieces = [
                    (cdist(x[i + p[s], None], x[i + c])[0], cdist(y[i + p[s], None], y[i + c])[0])
                    for s, c in zip(first, np.split(q, first[1:]))
                ]
            del ends  # a walked block holds only the two buffers
        if pieces is None:
            m, c = (j - i) * (j - i - 1) // 2, (j - i) * (n - j)  # empty pieces skip scipy
            own, later = bufs[:, :m], bufs[:, m : m + c].reshape(2, j - i, n - j)
            pieces = [(pdist(x[i:j], out=own[0]), pdist(y[i:j], out=own[1]))] if m else []
            if c:
                pieces.append((cdist(x[i:j], x[j:], out=later[0]), cdist(y[i:j], y[j:], out=later[1])))
        for src, img in pieces:
            if np.isinf(src).any():
                raise ParameterDomain("point distances overflow to infinity; rescale the cloud")
            coincident = coincident or src.min() <= 0.0
            if not coincident:
                img /= src
                lo, hi = np.minimum(lo, img.min()), np.maximum(hi, img.max())
    if coincident:
        raise ZeroDistancePair("coincident points cannot satisfy the lower distortion bound")
    return lo, hi


def jl_transform(
    cloud: PointCloud,
    alpha: float,
    mode: str = "haar_projection",
    seed=0,
    max_retries: int = 64,
    k: int | None = None,
) -> JlResult:
    """Random dimension reduction with verification and redraws.

    Applies y_i = sigma_max * proj_k(O x_i) (haar mode) or the rescaled
    Gaussian matrix, checks 1 <= ||y_i - y_j|| / ||x_i - x_j|| <= alpha for
    all pairs, and redraws on failure.  When retries run out the best
    attempt (smallest max/min ratio) is returned with ``success=False``.

    Each draw is verified by :func:`_ratio_range` one row block at a time,
    without an n(n-1)/2 array: Gram bounds on the differences from the
    first point pick the block's pairs that can hold an extreme ratio, and
    only those are measured with ``cdist`` (a cloud of one pair block, or a
    block the bounds cannot thin, is walked in full).  The walk also
    validates the cloud, so the first attempt rejects it after
    :func:`make_plan` has checked the plan parameters.  When no attempt has
    a finite max/min ratio, because the image distances overflow,
    ``ParameterDomain`` is raised.
    """
    if cloud.norm != "l2":
        raise ParameterDomain("transform requires an l2 point cloud")
    if max_retries < 1:
        raise ParameterDomain(f"need max_retries >= 1, got {max_retries}")
    n = cloud.n
    if n < 2:
        raise ParameterDomain("need at least two points")
    plan = make_plan(n, alpha, mode, k)
    # an overflow in x or y needs no warning: it is an infinite pair distance,
    # which the first walk rejects in the source and reports in the image
    with np.errstate(over="ignore"):
        x = shifted = cloud.coords - cloud.coords[0]  # a translate, for the walk's prefilter
        if x.shape[1] > n - 1:
            # the R factor of the differences from point 0 carries exactly their geometry
            r = np.linalg.qr(x[1:].T, mode="r")
            x = np.vstack([np.zeros((1, r.shape[0])), r.T])
    rng = np.random.default_rng(seed)
    best_y = None
    best_alpha = np.inf
    for attempt in range(1, max_retries + 1):
        # the draw acts on x padded with zeros up to R^ambient, so only its
        # first x.shape[1] columns reach y
        if mode == "haar_projection":
            m = sample_haar_orthogonal(plan.ambient, rng, x.shape[1])[: plan.k]
        else:
            m = rng.standard_normal((plan.k, plan.ambient))
        with np.errstate(over="ignore"):
            y = plan.sigma * (x @ m[:, : x.shape[1]].T)
        del m  # the draw is not held while the image is verified
        lo, hi = _ratio_range(cloud.coords, y, shifted, y)
        success = bool(lo >= 1.0 and hi <= alpha)
        measured = float(hi / lo)
        if success or measured < best_alpha:
            best_y, best_alpha = y, measured
        if success:
            break
    if best_y is None:  # every attempt's max/min ratio was inf or NaN
        raise ParameterDomain("image distances overflow to infinity; rescale the cloud")
    return JlResult(
        cloud=PointCloud(_frozen(best_y), "l2"),
        plan=plan,
        attempts=attempt,
        success=success,
        measured_distortion=best_alpha,
    )
