"""Finite metric spaces, point clouds, distortion, and classical embeddings.

The two carrier types are :class:`FiniteMetric` (a validated distance
matrix) and :class:`PointCloud` (points in a finite-dimensional normed
space).  On top of them sit distortion measurement, the isometric
coordinate embedding into l-infinity, the randomized log-squared
Euclidean embedding, snowflaking, doubling constants, and the packing /
volumetric dimension lower bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSource,
    Disconnected,
    NonInjectiveMap,
    NonzeroDiagonal,
    SymmetryViolation,
    ThetaOutOfRange,
    TooLargeForExact,
    TriangleViolation,
)

# Relative floating-point slack for triangle-inequality validation.  Entrywise
# powers and l-infinity images of valid metrics must re-validate in doubles.
TRIANGLE_RTOL = 1e-12

# build_metric's refusals of a matrix entry, which distortion also gives for a cloud's distances
_NON_FINITE = "distance matrix has non-finite entries"
_NOT_POSITIVE = "off-diagonal distances must be strictly positive"


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _owned(a) -> np.ndarray:
    """How a validated object takes in an array: as a read-only float C array.

    A writable array is copied, so the caller's stays writable and unshared; a
    read-only one, as producers hand over their fresh arrays, is kept unless it
    needs converting; any other input is converted once.  A 0-d input stays 0-d.
    """
    keep = isinstance(a, np.ndarray) and not a.flags.writeable
    a = (np.asarray if keep else np.array)(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


def _indices(values, size, exc, message: str) -> np.ndarray:
    """``values`` as a read-only int array of exact integers in [0, size); a scalar gives a 0-d array.

    A string, a boolean (also one in a list of numbers, which numpy would
    promote), None or a ragged list raises TypeError; a non-finite, fractional
    or out-of-range entry raises ``exc(message)``, also an integer too large
    for int64.  Nothing is truncated, and integral floats such as 1.0 pass.
    """
    cells = np.asarray(values, dtype=object).flat
    if not all(isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool) for v in cells):
        raise TypeError(f"{message}; got an entry that is not an int or a float")
    a = np.asarray(values)
    try:
        with np.errstate(invalid="ignore"):  # NaN, inf and huge floats cast to values that fail idx == a
            idx = a.astype(int)
    except OverflowError:  # an int of 2**64 or more, which numpy holds as a Python object
        raise exc(message) from None
    if not ((idx == a) & (idx >= 0) & (idx < size)).all():
        raise exc(message)
    idx.setflags(write=False)
    return idx


@dataclass(frozen=True)
class FiniteMetric:
    """An n-point metric space given by its distance matrix.

    Instances are produced by :func:`build_metric`, which enforces symmetry,
    a zero diagonal, positive off-diagonal entries, and the triangle
    inequality up to ``TRIANGLE_RTOL`` times the largest entry.  A matrix of
    small integer multiples of one power of two (every hop metric file) is
    decided by one exact BLAS min-plus product; any other matrix, and one
    that product fails, goes to a scan that visits at each pivot j only the
    pairs (i, k) of rows whose bound
    ``max_k d[i,k] - (d[j,i] + min_{k != j} d[j,k])`` exceeds the tolerance.
    Both arguments hold in floating point, not only in real arithmetic, so
    every instance passes the scan of all n^3 triples.

    Two producers are metrics by construction and skip the scan through
    :func:`_exact_metric`: ``WeightedGraph.shortest_path_metric`` (exact
    integer hop counts) and ``matousek.signed_metric`` (``min(s*hops, T)``).
    Both come from :func:`_hop_distances`, one numpy breadth-first search
    from every vertex at once; its docstring shows that both would pass
    :func:`build_metric` unchanged and are exactly symmetric.
    """

    dist: np.ndarray

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def to_dict(self) -> dict:
        """The JSON object of a metric file: ``n`` and the ``dist`` rows."""
        return {"n": self.n, "dist": self.dist.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "FiniteMetric":
        obj = json.loads(text)
        return build_metric(_owned(obj["dist"]))


# the scipy.spatial.distance metric of each norm tag; "lp" also passes p
_PDIST_METRIC = {"l2": "euclidean", "l1": "cityblock", "linf": "chebyshev", "lp": "minkowski"}
NORM_TAGS = tuple(_PDIST_METRIC)


@dataclass(frozen=True)
class PointCloud:
    """n points in a k-dimensional normed space.

    ``norm`` is one of ``"l2"``, ``"l1"``, ``"linf"`` or ``"lp"``; the
    latter requires the exponent ``p >= 1``.  The coordinates are taken in
    by :func:`_owned`: a writable array is copied, a read-only one kept.
    """

    coords: np.ndarray
    norm: str = "l2"
    p: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", np.atleast_2d(_owned(self.coords)))
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("point coordinates have non-finite entries")
        if self.norm not in NORM_TAGS:
            raise ValueError(f"unknown norm tag {self.norm!r}")
        if self.norm == "lp":
            if self.p is None or not self.p >= 1:  # also rejects nan
                raise ValueError("lp norm requires exponent p >= 1")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def pairwise(self) -> np.ndarray:
        """Pairwise distance matrix under the cloud's norm."""
        from scipy.spatial.distance import pdist, squareform

        kwargs = {"p": self.p} if self.norm == "lp" else {}
        return squareform(pdist(self.coords, _PDIST_METRIC[self.norm], **kwargs))

    def to_metric(self) -> FiniteMetric:
        """Induced finite metric; raises if two points coincide.

        The fresh matrix goes in read-only, so the metric keeps it uncopied.
        """
        return build_metric(_frozen(self.pairwise()))

    def to_dict(self) -> dict:
        """The JSON object of a cloud file; the norm of an lp cloud is ``{"lp": p}``."""
        norm = {"lp": self.p} if self.norm == "lp" else self.norm
        return {"n": self.n, "dim": self.dim, "norm": norm, "coords": self.coords.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @staticmethod
    def from_json(text: str) -> "PointCloud":
        obj = json.loads(text)
        norm = obj["norm"]
        if isinstance(norm, dict):
            return PointCloud(_frozen(obj["coords"]), "lp", p=float(norm["lp"]))
        return PointCloud(_frozen(obj["coords"]), norm)


@dataclass(frozen=True)
class EmbeddingReport:
    """Distortion report for an index map from a finite metric to a metric or a cloud.

    ``distortion = expansion / contraction`` is the bi-Lipschitz constant
    after optimal rescaling, by the contraction; ``avg_ratio`` is the ratio
    of summed pairwise distances.
    """

    distortion: float
    expansion: float
    contraction: float
    avg_ratio: float


def build_metric(dist: np.ndarray) -> FiniteMetric:
    """Validate a square distance matrix and wrap it as a FiniteMetric.

    The triangle inequality is checked per pivot j, in order: the first j
    with a slack ``d[i,k] - (d[i,j] + d[j,k])`` above ``tol =
    TRIANGLE_RTOL * d.max()`` raises :class:`TriangleViolation` with the
    largest slack of that pivot and its row-major first (i, j, k).

    A dyadic matrix passes without that scan.  With 2^e >= 2n, when every
    entry is an integer multiple D of one power of two 2^q (the unit) and
    2e * max D <= 1022, :func:`_dyadic_triangles` takes one BLAS product of
    the powers of two 2^(-e D).  Its terms are normal floats, and the
    n <= 2^(e-1) terms of a sum add less than a factor 2^(e-1) to the
    largest, so the sum's binary exponent gives the min-plus product
    exactly.  In units every slack the scan would take is an exact integer,
    and a positive one, at least one unit, exceeds ``tol``, which is under
    3e-10 units; so the verdict is the scan's.  When that route does not
    apply or finds a violation, the scan below runs unchanged and reports
    the triple and slack.

    Pairs that cannot fail are not scanned.  With ``top[i] = max_k d[i,k]``
    and ``near[j] = min_{k != j} d[j,k]``, row i is live at pivot j when
    ``top[i] - (d[j,i] + near[j]) > tol``.  A dead row cannot fail, and
    this is exact in floating point: rounded addition and subtraction are
    monotone in each operand, so ``d[i,k] <= top[i]`` and ``d[j,k] >=
    near[j]`` make the computed slack at every k != j at most the computed
    bound, and the slack at k = j is exactly 0.  Nor can a dead column: the
    matrix is exactly symmetric by then and rounded addition commutes, so
    the computed slack of (i, j, k) is that of (k, j, i) bit for bit, and a
    violation needs both i and k live.  The pivot's own row has slack
    exactly 0 (``d[j,k] - (0 + d[j,k])``), and i = k gives ``-2 d[j,i]``,
    so a pivot with fewer than two other live rows is skipped.  Every
    skipped slack is therefore <= tol, below any violating maximum, and
    the verdict, the triple and the slack are those of the scan of all n^3
    triples, whose row-major order the live block keeps.
    """
    d = np.asarray(dist, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {d.shape}")
    n = d.shape[0]
    if n == 0:
        raise ValueError("need at least one point")
    if not np.all(np.isfinite(d)):
        raise ValueError(_NON_FINITE)
    if not np.array_equal(d, d.T):
        raise SymmetryViolation(f"matrix asymmetric by {np.abs(d - d.T).max():.3e}")
    if np.abs(np.diag(d)).max() != 0.0:
        raise NonzeroDiagonal("diagonal entries must be exactly zero")
    if n > 1:
        near = d[~np.eye(n, dtype=bool)].reshape(n, n - 1).min(axis=1)
        if near.min() <= 0.0:
            raise ValueError(_NOT_POSITIVE)
        if not _dyadic_triangles(d, near):
            _check_triangles(d, near, TRIANGLE_RTOL * d.max())
    return FiniteMetric(_owned(d))  # a writable d is copied after the validation buffers are freed


def _dyadic_triangles(d: np.ndarray, near: np.ndarray) -> bool:
    """True when ``d = D * 2^q`` for small integers D and no triangle fails.

    With e the least integer such that 2^e >= 2n, the route applies when
    every entry is an integer multiple D of one power of two 2^q with
    2e * max D <= 1022; q is the least exponent that keeps max D within
    that cap, so a matrix that fits a coarser unit fits this one too.
    Otherwise, as for clouds, snowflakes and SDP witnesses, it returns
    False, mostly after looking at the n row minima ``near`` alone.

    ``E = 2^(-e D)`` holds powers of two from 2^-511 to 1, and one BLAS
    product ``S = E E`` holds at (i, k) the sum over j of
    2^(-e (D[i,j] + D[j,k])), each term at least 2^-1022, a normal float.
    Let m[i,k] be the min-plus product, the least exponent sum.  A sum of
    positive floats is never below its largest addend, so S >= 2^(-e m);
    the n <= 2^(e-1) terms are each at most that addend, so S is below
    2^(e-1) * 2^(-e m) times a rounding factor under 1 + n 2^-53.  Hence
    ``floor(log2 S)`` gives m exactly, as m = ceil(-floor(log2 S) / e), and
    the comparison ``S < 2^(e - 1/2) E``, with a factor sqrt(2) to spare
    on either side, holds iff m >= D, that is, iff m = D (the term j = i
    gives m <= D): no triangle fails.

    That verdict is the scan's.  In units of 2^q the entries are integers
    up to 255, so every sum and slack the scan takes is exact, or
    overflows to inf where the exact slack is negative as well; a positive
    slack is at least one unit, while ``TRIANGLE_RTOL * max d`` is under
    3e-10 units before rounding and under one unit after it.
    """
    n = d.shape[0]
    e = (2 * n - 1).bit_length()
    cap = 511 // e
    hi = d.max()
    q = math.frexp(hi)[1] - cap.bit_length()
    if math.ldexp(hi, -q) > cap:
        q += 1
    units = np.ldexp(near, -q)
    if units.min() < 1 or (np.floor(units) != units).any():
        return False
    a = np.ldexp(d, -q)  # exact: off the diagonal every entry is at least one unit
    s = np.empty_like(a)
    if np.subtract(a, np.floor(a, out=s), out=s).any():  # a fractional part
        return False
    a *= -e
    np.exp2(a, out=a)
    np.matmul(a, a.T, out=s)  # E E, as E is symmetric; the transpose makes it one syrk
    a *= 2.0 ** (e - 0.5)
    s -= a
    return bool(s.max() < 0)


def _hop_distances(vertices: int, rows, cols, s: float = 1.0, T: float = math.inf) -> np.ndarray:
    """``min(s * hops, T)`` on the undirected graph with edges (rows[i], cols[i]).

    One breadth-first search runs from every vertex at once.  Row v of a bit
    table holds the sources whose search has reached v (bit u, little bit
    order, is source u), packed into 64-bit words.  A level ORs each
    vertex's neighbours' frontier rows over its CSR segment, masks the bits
    already reached and adds one hop to every pair still unreached, so a
    pair reached at level h counts exactly h.  Level L is expanded only when
    L <= fl(T/s) (and L < n, past which no pair is reached); the search also
    stops at an empty frontier.  Pairs not reached, past the limit or in
    other components, are inf, and ``min(s * inf, T) = T``, which is inf
    for T = inf.  The limit loses nothing: a hop count h is an integer, so
    h > fl(T/s) means h > T/s (rounding is monotone and fixes h), hence
    s*h > T and fl(s*h) >= T.  Scaling and truncation are in place, so the
    call holds one n x n float array, beside a uint8 count matrix while
    T/s < 256.

    Two results are metrics by construction, which :func:`_exact_metric`
    wraps without the triangle scan of :func:`build_metric` once it has
    refused an unreached (inf) pair; both would pass the scan unchanged:

    - Hop counts h (s = 1, T = inf; ``WeightedGraph.shortest_path_metric``).
      The entries are exact integers below 2^53: symmetric, zero on the
      diagonal, >= 1 off it, and h_ik <= h_ij + h_jk.  Sums of such
      integers are exact, so every computed slack is <= 0.
    - Truncated multiples ``min(fl(s*h), T)`` with 0 < s < inf and
      s <= T <= inf (``matousek.signed_metric``).  A product fl(s*h) is
      exact when it is subnormal (it is a multiple of 2^-1074 below
      2^-1022) and otherwise within a relative error u = 2^-53; a sum has
      no underflow error; and an overflowing s*h gives min(inf, T) = T for
      a finite T, while for T = inf it raises ``ValueError`` before any
      product is taken.  Since min(x, T) is subadditive (for T = inf it is
      the identity) and rounding is monotone, the real slack
      d_ik - fl(d_ij + d_jk) is at most about 3u times that sum and, when
      positive, below 3u * max d; rounding it keeps it under 4u * max d, far
      below ``TRIANGLE_RTOL * max d``.  Where that tolerance underflows to 0,
      every value involved is subnormal and every operation exact, so the
      slack is <= 0.  Off-diagonal entries are >= fl(s) = s > 0.

    Equal hop counts give equal entries, so both are exactly symmetric,
    which :func:`bourgain_embed`'s row minima rely on.
    """
    n = vertices
    ends = np.concatenate([rows, cols]).astype(np.intp)
    nbr = np.concatenate([cols, rows]).astype(np.intp)[np.argsort(ends)]
    deg = np.bincount(ends, minlength=n)
    has = np.flatnonzero(deg)  # reduceat would give an isolated vertex its successor's row
    starts = (np.cumsum(deg) - deg)[has]
    frontier = np.zeros((n, -(-n // 64)), np.uint64)
    v = np.arange(n)
    frontier.view(np.uint8)[v, v >> 3] = np.left_shift(1, v & 7)
    seen = frontier.copy()

    def unreached() -> np.ndarray:
        return np.unpackbits((~seen).view(np.uint8), axis=1, count=n, bitorder="little")

    levels = int(min(n - 1, T / s))
    hops = np.zeros((n, n), np.min_scalar_type(levels))
    depth = 0  # levels expanded: the largest hop count of a reached pair
    while depth < levels:
        nxt = np.zeros_like(frontier)
        nxt[has] = np.bitwise_or.reduceat(frontier[nbr], starts, axis=0)
        nxt &= ~seen
        if not nxt.any():
            break
        hops += unreached()
        seen |= nxt
        frontier = nxt
        depth += 1
    if T == math.inf and s * depth == math.inf:
        raise ValueError(f"s * hops overflows at {depth} hops; an infinite T needs a smaller s")
    d = hops.astype(float)
    del hops
    np.copyto(d, np.inf, where=unreached().view(bool))
    with np.errstate(over="ignore"):  # an overflowing s*h truncates to T, as shown above
        d *= s
    np.minimum(d, T, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _exact_metric(d: np.ndarray) -> FiniteMetric:
    """Wrap, unscanned, a :func:`_hop_distances` matrix that is a metric by construction.

    An empty matrix or an unreached (inf) pair raises :class:`Disconnected`.
    """
    if d.size == 0 or np.isinf(d).any():
        raise Disconnected("graph is not connected")
    return FiniteMetric(_frozen(d))


@np.errstate(over="ignore")
def _check_triangles(d: np.ndarray, near: np.ndarray, tol: float) -> None:
    """Raise at the first pivot j with some d[i,k] - (d[i,j] + d[j,k]) > tol.

    ``d`` must be exactly symmetric and ``near[j]`` is the smallest
    off-diagonal entry of row j.  At pivot j only the live x live block is
    scanned: rows, and by symmetry columns, other than j with
    top[i] - (d[j,i] + near[j]) > tol, ``top[i]`` the largest entry of row
    i; :func:`build_metric` says why the skipped pairs cannot fail.

    Sums may overflow without a warning.  The entries are finite, so a sum
    that overflows to inf exceeds every entry: its slack, an entry minus
    inf, is -inf and can only pass, as the exact slack would.
    """
    live = np.add(d, near[:, None])
    live = np.subtract(d.max(axis=1), live, out=live) > tol  # live[j, i]: row i at pivot j
    np.fill_diagonal(live, False)
    for j in np.flatnonzero(np.count_nonzero(live, axis=1) > 1):
        rows = np.flatnonzero(live[j])
        c = d[j, rows]
        slack = np.add(c[:, None], c)
        np.subtract(d.take(rows, axis=0).take(rows, axis=1), slack, out=slack)
        a = np.argmax(slack)
        if slack.flat[a] > tol:
            i, k = divmod(a, len(rows))
            raise TriangleViolation((rows[i], j, rows[k]), slack.flat[a])


def random_metric(n: int, seed, style: str = "shortest_path") -> FiniteMetric:
    """Random valid n-point metric for tests and property suites.

    ``style="box"`` draws entries uniformly from [1, 2] (any such matrix is a
    metric); ``style="shortest_path"`` takes the shortest-path closure of
    uniform random weights, which produces much less homogeneous spaces.
    """
    rng = np.random.default_rng(seed)
    if style == "box":
        w = rng.uniform(1.0, 2.0, (n, n))
        d = (w + w.T) / 2
        np.fill_diagonal(d, 0.0)
        return build_metric(d)
    if style == "shortest_path":
        w = rng.uniform(0.1, 1.0, (n, n))
        d = (w + w.T) / 2
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
        return build_metric(d)
    raise ValueError(f"unknown style {style!r}")


def distortion(source: FiniteMetric, target: FiniteMetric | PointCloud, mapping) -> EmbeddingReport:
    """Bi-Lipschitz distortion of the index map i -> mapping[i].

    The report contains the max/min of the distance ratios
    d_target(f i, f j) / d_source(i, j) over pairs, their quotient (the
    distortion), and the average-distance ratio.

    A :class:`PointCloud` target is measured without its distance matrix:
    each row of mapped distances is one ``cdist`` call in the cloud's norm,
    the doubles of ``pdist``, so the report is that of the cloud's induced
    metric bit for bit.  As :func:`build_metric` would, a non-finite mapped
    distance and then a zero one raise its ``ValueError``; the identity map
    reads the coordinates in place.
    """
    if source.n < 2:
        raise DegenerateSource("need at least two source points")
    idx = _indices(mapping, target.n, NonInjectiveMap, f"map entries must be integers in [0, {target.n})")
    if idx.shape != (source.n,):
        raise NonInjectiveMap(f"map must assign all {source.n} source indices")
    if len(np.unique(idx)) != source.n:
        raise NonInjectiveMap("map is not injective")
    # The i < j distances of the source and of the mapped target, row by row
    # in triu order, which the sums' rounding follows; the ratios overwrite
    # the target's.
    n = source.n
    ds, dt = np.empty(n * (n - 1) // 2), np.empty(n * (n - 1) // 2)
    cloud = isinstance(target, PointCloud)
    if cloud:
        from scipy.spatial.distance import cdist

        x = target.coords[:n] if np.array_equal(idx, np.arange(n)) else target.coords[idx]
        kwargs = {"p": target.p} if target.norm == "lp" else {}
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        ds[start:stop] = source.dist[i, i + 1 :]
        if cloud:
            cdist(x[i : i + 1], x[i + 1 :], _PDIST_METRIC[target.norm], out=dt[None, start:stop], **kwargs)
        else:
            np.take(target.dist[idx[i]], idx[i + 1 :], out=dt[start:stop])
        start = stop
    if cloud and not dt.max() < np.inf:  # also NaN, without an n(n-1)/2 mask
        raise ValueError(_NON_FINITE)
    if cloud and dt.min() <= 0.0:
        raise ValueError(_NOT_POSITIVE)
    avg_ratio = float(dt.sum() / ds.sum())
    ratios = np.divide(dt, ds, out=dt)
    contraction = float(ratios.min())
    expansion = float(ratios.max())
    return EmbeddingReport(
        distortion=expansion / contraction,
        expansion=expansion,
        contraction=contraction,
        avg_ratio=avg_ratio,
    )


def frechet_embed(m: FiniteMetric) -> PointCloud:
    """Isometric coordinate embedding x -> (d(x, x_1), ..., d(x, x_n)) into l-infinity."""
    return PointCloud(m.dist, "linf")


def bourgain_embed(m: FiniteMetric, seed) -> PointCloud:
    """Randomized Euclidean embedding from distances to random subsets.

    Coordinates are d(x, S) for subsets S sampled with density 2^-j at scales
    j = 1..ceil(log2 n), ceil(24 log2 n) subsets per scale, normalized by the
    square root of the number of coordinates so the map is 1-Lipschitz.  The
    measured distortion is O(log n) with overwhelming probability.

    Each scale's subsets come from one ``rng.random((per_scale, n))`` draw,
    the same stream as one ``rng.random(n)`` per subset.  The coordinate
    d(., S) is the minimum over the rows of S, ``dist[S].min(axis=0)``: a
    contiguous row gather, equal entry for entry to the column minimum
    because the matrix is exactly symmetric and a minimum has no rounding.
    Every instance is exactly symmetric: :func:`build_metric` enforces it,
    and the two hop metrics that skip it are symmetric by construction (see
    :func:`_hop_distances`).  An empty subset gives the zero coordinate.
    The coordinates are filled column by column into the one C-ordered
    array the cloud keeps, and scaled in place.
    """
    n = m.n
    if n < 2:
        raise DegenerateSource("need at least two points")
    rng = np.random.default_rng(seed)
    scales = int(math.ceil(math.log2(n)))
    per_scale = max(1, int(math.ceil(24 * math.log2(n))))
    masks = np.concatenate([rng.random((per_scale, n)) < 2.0 ** (-j) for j in range(1, scales + 1)])
    coords = np.zeros((n, len(masks)))
    for c, mask in enumerate(masks):
        if mask.any():
            coords[:, c] = m.dist[mask].min(axis=0)
    coords /= math.sqrt(len(masks))
    return PointCloud(_frozen(coords), "l2")


def snowflake(m: FiniteMetric, theta: float) -> FiniteMetric:
    """Entrywise power d^theta; a metric again for every theta in (0, 1]."""
    if not 0.0 < theta <= 1.0:
        raise ThetaOutOfRange(f"theta must lie in (0, 1], got {theta}")
    return build_metric(m.dist ** theta)


def _greedy_cover(cover: np.ndarray) -> int:
    """Rows taken by greedy set cover of the columns of a boolean matrix: the
    row with the most uncovered columns, the first one on ties."""
    used = 0
    while cover.shape[1]:
        cover = cover[:, ~cover[cover.sum(axis=1).argmax()]]
        used += 1
    return used


def _exact_cover(cover: np.ndarray) -> int:
    """Least number of rows of a boolean matrix whose union has every column."""
    rows = np.unique(cover, axis=0)
    # only rows inside no other row are needed; distinct rows contain just themselves
    rows = rows[(rows[:, None, :] <= rows[None, :, :]).all(axis=2).sum(axis=1) == 1]
    # unions[s] is the union of the rows picked by the bits of s, sizes[s] their count
    unions, sizes = np.zeros((1, cover.shape[1]), bool), np.zeros(1, int)
    for row in rows:
        unions, sizes = np.concatenate([unions, unions | row]), np.concatenate([sizes, sizes + 1])
    return int(sizes[unions.all(axis=1)].min())


def doubling_constant(m: FiniteMetric, mode: str = "exact") -> int:
    """Least K such that every ball is covered by K balls of half its radius.

    Only radii equal to pairwise distances matter: within each interval
    between consecutive distances from the center the target ball is constant
    while the half-radius balls only grow, so the left endpoint is the worst
    case.  One half-ball matrix ``d <= r/2`` per radius r serves every center
    that has a point at distance r.  ``mode="exact"`` solves each set cover
    exactly (n <= 16); ``mode="greedy"`` returns the greedy upper bound.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact" and m.n > 16:
        raise TooLargeForExact("exact set cover restricted to n <= 16")
    cover = _exact_cover if mode == "exact" else _greedy_cover
    d = m.dist
    K = 1
    for r in np.unique(d[d > 0]):
        half = d <= r / 2
        for x in np.flatnonzero((d == r).any(axis=1)):
            K = max(K, cover(half[:, d[x] <= r]))
    return K


def doubling_dim_lower_bound(m: FiniteMetric, alpha: float) -> float:
    """Packing-based dimension lower bound for distortion-alpha embeddings.

    Any N points inside a ball of radius 2r at pairwise distances >= r map,
    under a distortion-alpha embedding into a k-dimensional normed space, to
    a configuration that forces N <= (4 alpha + 1)^k.  Inverting gives
    k >= log N / log(4 alpha + 1); the best bound over all centers and radii
    is returned (greedy maximal packings are valid witnesses).

    Per radius r, the greedy packings of all n balls B(x, 2r) run together,
    one numpy round per pick: every ball that still has an eligible point
    takes the first one, in index order, and drops the points closer than r
    to it; a ball with none left leaves the round set.  Each ball holds its
    centre, so all n start, and a ball still in the set after k rounds has
    taken k points: the number of rounds is the largest packing, and
    ``log(rounds) / denom`` is the same float as the largest per-centre
    ``log(taken) / denom``.
    """
    if m.n < 2:
        raise DegenerateSource("need at least two points")
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")
    d = m.dist
    u = np.unique(d)  # one n^2 copy; d[d > 0] would add a second
    radii = np.unique(np.concatenate([u, u / 2]))
    radii = radii[radii > 0]  # 0 (the diagonal, half of 5e-324) is no radius: its packing never ends
    denom = math.log(4 * alpha + 1)
    best = 0.0
    for r in radii:
        far = d >= r
        free = d <= 2 * r  # free[x]: the points centre x may still take
        taken = 0
        while len(free):
            free &= far[free.argmax(axis=1)]
            taken += 1
            free = free[free.any(axis=1)]
        if taken > 1:
            best = max(best, math.log(taken) / denom)
    return best


def volumetric_lower_bound(n: int, alpha: float) -> float:
    """Simplex-packing bound: any distortion-alpha realization of n equidistant
    points in a k-dimensional normed space needs k >= log(n)/log(alpha + 1)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not alpha >= 1:
        raise ValueError("alpha must be >= 1")
    return math.log(n) / math.log(alpha + 1.0)
