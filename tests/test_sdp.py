import math

import numpy as np
import pytest

from helpers import cycle4, equilateral, star13
from mdrlab import metric, sdp
from mdrlab.errors import CapExceeded, CertificateInvalid, NotPSD, ParameterDomain, TooLarge


class TestC2Sdp:
    def test_simplex_isometric(self):
        for n in (4, 7, 10):
            alpha, witness, _ = sdp.c2_sdp(equilateral(n), tol=1e-6)
            assert abs(alpha - 1.0) <= 1e-6
            assert witness.Q.shape == (n, n)

    def test_cycle4(self):
        alpha, _, _ = sdp.c2_sdp(cycle4(), tol=1e-4)
        assert abs(alpha - math.sqrt(2)) <= 1e-3

    def test_star13(self):
        alpha, _, _ = sdp.c2_sdp(star13(), tol=1e-4)
        assert abs(alpha - 2.0 / math.sqrt(3)) <= 1e-3

    def test_three_points_isometric(self):
        # any 3-point metric embeds isometrically in the plane
        rng = np.random.default_rng(0)
        for _ in range(5):
            m = metric.PointCloud(rng.standard_normal((3, 3)), "l2").to_metric()
            alpha, _, _ = sdp.c2_sdp(m, tol=1e-4)
            assert alpha <= 1.0 + 2e-4
        m = metric.random_metric(3, 17, style="shortest_path")
        alpha, _, _ = sdp.c2_sdp(m, tol=1e-4)
        assert alpha <= 1.0 + 2e-4
        assert sdp.c2_bruteforce(m, starts=8, seed=5) <= 1.0 + 1e-6

    def test_euclidean_cloud_isometric(self):
        rng = np.random.default_rng(1)
        m = metric.PointCloud(rng.standard_normal((6, 4)), "l2").to_metric()
        alpha, _, _ = sdp.c2_sdp(m, tol=1e-4)
        assert alpha <= 1.0 + 2e-4

    def test_at_least_one(self):
        rng = np.random.default_rng(2)
        for seed in range(3):
            m = metric.random_metric(6, seed, style="shortest_path")
            alpha, _, _ = sdp.c2_sdp(m, tol=1e-4)
            assert alpha >= 1.0 - 1e-4

    def test_size_cap(self):
        with pytest.raises(TooLarge):
            sdp.c2_sdp(equilateral(129))
        with pytest.raises(TooLarge):
            sdp.find_violating_certificate(equilateral(129), 1.3)

    def test_tol_floor(self):
        with pytest.raises(ValueError):
            sdp.c2_sdp(equilateral(4), tol=1e-8)

    def test_nan_tol_rejected(self):
        # a NaN tol would pass `tol < 1e-6` and spend the whole budget undecided
        with pytest.raises(ValueError, match="tol below 1e-6"):
            sdp.c2_bracket(cycle4(), tol=math.nan)

    def test_witness_box_constraints(self):
        m = cycle4()
        tol = 1e-4
        alpha, witness, _ = sdp.c2_sdp(m, tol=tol)
        d2 = sdp._dist2_of(witness.Q)
        lo = m.dist**2
        off = ~np.eye(4, dtype=bool)
        rel_lo = ((lo - d2)[off] / lo[off]).max()
        rel_hi = ((d2 - alpha**2 * lo)[off] / lo[off]).max()
        assert rel_lo <= tol and rel_hi <= tol * alpha**2 + 1e-12


class TestBruteforceOracle:
    def test_cycle4(self):
        got = sdp.c2_bruteforce(cycle4(), starts=32, seed=0)
        assert abs(got - math.sqrt(2)) <= 1e-6

    def test_star13(self):
        got = sdp.c2_bruteforce(star13(), starts=32, seed=1)
        assert abs(got - 2.0 / math.sqrt(3)) <= 1e-6

    def test_simplex(self):
        assert abs(sdp.c2_bruteforce(equilateral(5), starts=8, seed=2) - 1.0) <= 1e-6

    def test_agrees_with_sdp_on_random_metric(self):
        m = metric.random_metric(5, 42, style="shortest_path")
        alpha_sdp, _, _ = sdp.c2_sdp(m, tol=1e-4)
        alpha_bf = sdp.c2_bruteforce(m, starts=32, seed=3)
        assert abs(alpha_sdp - alpha_bf) <= 2e-3

    def test_inside_checked_bracket_on_random_metric(self):
        m = metric.random_metric(5, 42, style="shortest_path")
        b = sdp.c2_bracket(m, tol=1e-6)
        assert b.status == "converged"
        alpha_bf = sdp.c2_bruteforce(m, starts=32, seed=3)
        assert b.lo - 1e-9 <= alpha_bf <= b.hi + 1e-6


class TestCertificates:
    def test_zero_certificate_always_holds(self):
        m = cycle4()
        cert = sdp.NegativeTypeCertificate(np.zeros((4, 4)))
        for alpha in (1.0, 1.2, 3.0):
            holds, lhs, rhs = sdp.check_certificate(m, cert, alpha)
            assert holds and lhs == 0.0 and rhs == 0.0

    def test_simplex_alpha_one(self):
        # row sums zero force sum a_ij d^2 = -d^2 * trace(A) <= 0 = rhs
        m = equilateral(5)
        rng = np.random.default_rng(3)
        j = np.eye(5) - np.ones((5, 5)) / 5
        for _ in range(10):
            b = rng.standard_normal((5, 5))
            a = j @ (b @ b.T) @ j
            cert = sdp.NegativeTypeCertificate(a)
            holds, lhs, rhs = sdp.check_certificate(m, cert, 1.0)
            assert holds
            assert lhs <= 1e-9 and rhs == 0.0

    def test_violating_certificate_for_cycle4(self):
        cert = sdp.find_violating_certificate(cycle4(), 1.3, seed=0)
        assert cert is not None
        holds, lhs, rhs = sdp.check_certificate(cycle4(), cert, 1.3)
        assert not holds and lhs > rhs

    def test_hand_built_cycle4_certificate(self):
        # rank-one alternating-sign witness: the short-diagonals inequality
        v = np.array([1.0, -1.0, 1.0, -1.0])
        cert = sdp.NegativeTypeCertificate(np.outer(v, v))
        holds_low, _, _ = sdp.check_certificate(cycle4(), cert, 1.3)
        holds_high, _, _ = sdp.check_certificate(cycle4(), cert, math.sqrt(2) + 1e-9)
        assert not holds_low
        assert holds_high

    def test_editing_the_callers_array_changes_no_certificate(self):
        # c2(C4) = sqrt(2), so the certificate holds at 1.5; overwriting the
        # checked array with a zero-row-sum matrix of least eigenvalue -2 once
        # made check_certificate "prove" c2(C4) > 1.5
        v = np.array([1.0, -1.0, 1.0, -1.0])
        a = np.outer(v, v)
        cert = sdp.NegativeTypeCertificate(a)
        a[:] = 0
        a[[0, 2, 0, 2], [0, 2, 2, 0]] = [-1, -1, 1, 1]
        assert np.linalg.eigvalsh(a).min() == pytest.approx(-2) and not a.sum(axis=1).any()
        holds, lhs, rhs = sdp.check_certificate(cycle4(), cert, 1.5)
        assert holds and lhs == 8.0 and rhs == pytest.approx(24 * 1.25 / 3.25)

    def test_duality_consistency(self):
        # a violating certificate at alpha0 forces c2 >= alpha0 - tol
        alpha0 = 1.3
        cert = sdp.find_violating_certificate(cycle4(), alpha0, seed=1)
        assert cert is not None
        alpha, _, _ = sdp.c2_sdp(cycle4(), tol=1e-4)
        assert alpha >= alpha0 - 1e-4

    def test_invalid_certificates(self):
        with pytest.raises(CertificateInvalid):
            sdp.NegativeTypeCertificate(np.array([[1.0, 0.0], [0.0, 1.0]]))  # rows not zero-sum
        with pytest.raises(CertificateInvalid):
            sdp.NegativeTypeCertificate(np.array([[-1.0, 1.0], [1.0, -1.0]]))  # negative definite
        m = cycle4()
        good = sdp.NegativeTypeCertificate(np.zeros((3, 3)))
        with pytest.raises(CertificateInvalid):
            sdp.check_certificate(m, good, 1.5)  # size mismatch

    @pytest.mark.parametrize(
        "make, a, exc, match",
        [
            (sdp.NegativeTypeCertificate, -1e-11 * (np.eye(4) - 0.25), CertificateInvalid, "positive semidefinite"),
            (sdp.NegativeTypeCertificate, 1e-12 * np.array([[-1.0, 1.0], [1.0, -1.0]]), CertificateInvalid,
             "positive semidefinite"),
            (sdp.GramCandidate, -1e-40 * np.eye(3), NotPSD, "eigenvalue below"),
            (sdp.GramCandidate, 1e-12 * np.array([[2.0, 1.0], [-1.0, 2.0]]), ValueError, "Q must be symmetric"),
        ],
        ids=["C4-size", "two-point", "witness-negative-definite", "witness-asymmetric"],
    )
    def test_tiny_negative_definite_matrices_refused(self, make, a, exc, match):
        # accepted under an absolute tolerance, the first "proved" c2(C4) > 100
        # and the second refuted level 1.5 on two points; the witnesses were
        # accepted under floors of 1e-30 (psd) and 1e-9 (symmetry)
        with pytest.raises(exc, match=match):
            make(a)

    @pytest.mark.parametrize("make, exc, name", [(sdp.NegativeTypeCertificate, CertificateInvalid, "A"),
                                                 (sdp.GramCandidate, ValueError, "Q")])
    def test_empty_matrix_refused(self, make, exc, name):
        # the largest |entry| of a 0 x 0 matrix used to raise numpy's bare
        # "zero-size array to reduction operation maximum" ValueError
        with pytest.raises(exc, match=f"^{name} must be non-empty$"):
            make(np.zeros((0, 0)))

    def test_scaled_down_certificate_still_refutes(self):
        for a in (np.outer([1.0, -1.0, 1.0, -1.0], [1.0, -1.0, 1.0, -1.0]),
                  sdp.find_violating_certificate(cycle4(), 1.3).A):
            holds, lhs, rhs = sdp.check_certificate(cycle4(), sdp.NegativeTypeCertificate(1e-12 * a), 1.3)
            assert not holds and lhs > rhs > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_matrices_rejected(self, bad):
        a = np.zeros((4, 4))
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(CertificateInvalid, match="A must be finite"):
            sdp.NegativeTypeCertificate(a)
        with pytest.raises(ValueError, match="Q must be finite"):
            sdp.GramCandidate(np.eye(4) + a)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_level_rejected(self, alpha):
        # an infinite level would claim c2 > inf; a NaN one would fail every comparison
        m = cycle4()
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            sdp.find_violating_certificate(m, alpha)
        with pytest.raises(ValueError, match="alpha must be >= 1"):
            sdp.check_certificate(m, sdp.NegativeTypeCertificate(np.zeros((4, 4))), alpha)


def cycle(n: int) -> metric.FiniteMetric:
    hops = np.abs(np.arange(n)[:, None] - np.arange(n))
    return metric.build_metric(np.minimum(hops, n - hops).astype(float))


def star(n: int) -> metric.FiniteMetric:
    """K_{1,n}: a centre at distance 1 from n leaves that are pairwise 2 apart."""
    d = 2.0 * (np.ones((n + 1, n + 1)) - np.eye(n + 1))
    d[0, 1:] = d[1:, 0] = 1.0
    return metric.build_metric(d)


def assert_checked(m, b):
    """lo carries a violated certificate; the witness realizes hi inside the box [d^2, hi^2 d^2]."""
    holds, lhs, rhs = sdp.check_certificate(m, b.certificate, b.lo * (1 - 1e-9))
    assert not holds and lhs > rhs
    off = ~np.eye(m.n, dtype=bool)
    r2 = sdp._dist2_of(b.witness.Q)[off] / m.dist[off] ** 2
    assert abs(math.sqrt(r2.max() / r2.min()) - b.hi) <= 1e-9
    assert r2.min() >= 1 - 1e-9 and r2.max() <= b.hi**2 * (1 + 1e-9)


class TestC2Bracket:
    # even cycles: the regular polygon, c2(C_2m) = m sin(pi/2m) (Linial and
    # Magen 2000); stars: the centred regular simplex, c2(K_1,n) = sqrt(2 - 2/n)
    @pytest.mark.parametrize(
        "m, exact",
        [
            (cycle(12), 6 * math.sin(math.pi / 12)),
            (cycle(14), 7 * math.sin(math.pi / 14)),
            (star(31), math.sqrt(2 - 2 / 31)),
        ],
        ids=["C12", "C14", "K1,31"],
    )
    def test_hard_instances_bracket_exact(self, m, exact):
        b = sdp.c2_bracket(m, tol=1e-4)
        assert b.status == "converged"
        assert b.lo <= exact <= b.hi and b.hi - b.lo <= 1e-3
        assert_checked(m, b)

    @pytest.mark.parametrize("n, seed", [(12, 0), (24, 1), (32, 2)])
    def test_random_shortest_path_converges(self, n, seed):
        m = metric.random_metric(n, seed, style="shortest_path")
        b = sdp.c2_bracket(m, tol=1e-4)
        assert b.status == "converged" and b.hi - b.lo <= 1e-4
        assert_checked(m, b)

    def test_tiny_budget_is_undecided_and_checked(self, monkeypatch):
        m = cycle(12)
        monkeypatch.setattr(sdp, "MAX_ITER", 3)
        b = sdp.c2_bracket(m, tol=1e-4)
        assert b.status == "undecided"
        assert 1 < b.lo < b.hi and b.hi - b.lo > 1e-4
        assert b.lo <= 6 * math.sin(math.pi / 12) <= b.hi
        assert_checked(m, b)

    def test_scaling_the_metric_changes_no_bracket(self):
        # at scale 1e-20 the witness has entries ~1e-40, which an absolute
        # floor on its checks would wave through
        brackets = []
        for scale in (1e-20, 1.0, 1e20):
            m = metric.build_metric(scale * cycle4().dist)
            b = sdp.c2_bracket(m)
            assert b.status == "converged"
            assert_checked(m, b)
            brackets.append(b)
            cert = sdp.find_violating_certificate(m, 1.3)
            assert not sdp.check_certificate(m, cert, 1.3)[0]
        assert len({b.hi for b in brackets}) == 1
        assert all(b.lo == pytest.approx(brackets[1].lo, rel=1e-15) for b in brackets)

    def test_c2_sdp_is_the_upper_end(self):
        b = sdp.c2_bracket(cycle(8), tol=1e-4)
        alpha, witness, iterations = sdp.c2_sdp(cycle(8), tol=1e-4)
        assert (alpha, iterations) == (b.hi, b.iterations)
        assert np.array_equal(witness.Q, b.witness.Q)

    def test_certificate_search_is_deterministic(self):
        m = cycle4()
        first = sdp.find_violating_certificate(m, 1.3, seed=0)
        for seed in range(300):
            cert = sdp.find_violating_certificate(m, 1.3, seed=seed)
            assert cert is not None and np.array_equal(cert.A, first.A)
            holds, lhs, rhs = sdp.check_certificate(m, cert, 1.3)
            assert not holds and lhs > rhs

    def test_no_certificate_at_a_feasible_level(self):
        assert sdp.find_violating_certificate(cycle4(), 1.5, seed=0) is None

    def test_undecided_search_is_not_a_verdict(self):
        # c2(C4) = sqrt(2) > alpha, but the run's bracket never leaves alpha:
        # it spends its budget without refuting alpha and says so
        with pytest.raises(CapExceeded, match="undecided after 5000 iterations"):
            sdp.find_violating_certificate(cycle4(), 1.41421356237309)
        # the final check still refutes levels a little above lo
        cert = sdp.find_violating_certificate(cycle4(), 1.414213561)
        assert cert is not None and not sdp.check_certificate(cycle4(), cert, 1.414213561)[0]

    def test_overflowing_squares_are_a_domain_error(self):
        m = metric.build_metric(metric.random_metric(12, 5).dist * 1e160)
        pair = metric.build_metric(np.array([[0.0, 1e160], [1e160, 0.0]]))
        centring = sdp.NegativeTypeCertificate(np.eye(12) - 1.0 / 12)
        calls = [
            lambda: sdp.c2_bracket(m),
            lambda: sdp.c2_bracket(pair),
            lambda: sdp.find_violating_certificate(m, 1.1),
            lambda: sdp.check_certificate(m, centring, 1.1),
        ]
        for call in calls:
            with pytest.raises(ParameterDomain, match="squared distances overflow"):
                call()


class _ReferenceBracket(sdp._Bracket):
    """The ADMM loop as first written, every loop-invariant recomputed per iteration."""

    def _offer_gram(self, q):
        r2 = sdp._dist2_of(q)[self.off] / self.d2[self.off]
        if r2.min() <= 0 or math.sqrt(r2.max() / r2.min()) >= self.hi:
            return
        witness = sdp.GramCandidate(q / r2.min())
        r2 = sdp._dist2_of(witness.Q)[self.off] / self.d2[self.off]
        self.hi, self.witness = math.sqrt(r2.max() / r2.min()), witness

    def _offer_gap(self, a):
        w = a * self.d2
        p, neg = w[w > 0].sum(), -w[w < 0].sum()
        if neg <= 0:
            return
        level = math.sqrt(p / neg) * (1 - 1e-9)
        if level <= self.lo:
            return
        cert = sdp.NegativeTypeCertificate(a)
        d2 = self.m.dist**2
        lhs = float((cert.A * d2).sum())
        rhs = float((level**2 - 1) / (level**2 + 1) * (np.abs(cert.A) * d2).sum())
        if not lhs <= rhs + 1e-12 * rhs:
            self.lo, self.certificate = level, cert

    def run(self, done):
        d2 = self.d2 / self.d2.max()
        iu = np.triu_indices(self.m.n, 1)
        w = d2[iu] ** 2
        z, u, rho = d2, np.zeros_like(d2), 1.0
        for it in range(sdp.MAX_ITER):
            self.iterations += 1
            v = z - u
            ratio = v[iu] / d2[iu]
            order = np.argsort(-ratio)
            r, wk = ratio[order], w[order]
            tk = (np.cumsum(wk * r) - 0.5 / rho) / np.cumsum(wk)
            t = max(1.0, tk[np.argmax(tk >= np.append(r[1:], -np.inf))])
            x = np.clip(v, d2, t * d2)
            vals, vecs = np.linalg.eigh(self.u1.T @ (x + u) @ self.u1)
            pos = vals > 0
            g = self.u1 @ vecs[:, pos]
            gap = (g * vals[pos]) @ g.T
            gap = (gap + gap.T) / 2
            z_prev, z, u = z, x + u - gap, gap
            if it % sdp.CHECK_EVERY == 0:
                g = self.u1 @ vecs[:, ~pos]
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


def hamming_cube(k: int) -> metric.FiniteMetric:
    v = np.arange(2**k)
    return metric.build_metric(np.array([[bin(a ^ b).count("1") for b in v] for a in v], dtype=float))


class TestRunMatchesReferenceLoop:
    """The loop against the one that recomputes its invariants, bit for bit.

    The 32-point case guards the gathered eigenvector columns: multiplying
    by a strided view of them keeps the bytes up to 16 points and changes
    them from 32 points on.
    """

    @pytest.mark.parametrize(
        "m",
        [cycle4(), hamming_cube(3), star13(), cycle(12), metric.random_metric(12, 0), metric.random_metric(32, 2)],
        ids=["C4", "Q3", "K1,3", "C12", "random12", "random32"],
    )
    def test_bracket(self, m):
        got = sdp.c2_bracket(m, tol=1e-4)
        ref = _ReferenceBracket(m)
        status = "converged" if ref.run(lambda: ref.hi - ref.lo <= 1e-4) else "undecided"
        assert (got.status, got.iterations) == (status, ref.iterations)
        assert (got.lo.hex(), got.hi.hex()) == (ref.lo.hex(), ref.hi.hex())
        assert got.witness.Q.tobytes() == ref.witness.Q.tobytes()
        assert got.certificate.A.tobytes() == ref.certificate.A.tobytes()

    def test_certificate_search(self):
        ref = _ReferenceBracket(cycle4())
        ref.run(lambda: ref.lo > 1.3 or ref.hi <= 1.3)
        assert sdp.find_violating_certificate(cycle4(), 1.3).A.tobytes() == ref.certificate.A.tobytes()


class TestOnesComplementBasis:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_orthonormal_and_orthogonal_to_ones(self, n):
        u = sdp._ones_complement_basis(n)
        assert u.shape == (n, n - 1)
        assert np.abs(u.T @ u - np.eye(n - 1)).max(initial=0.0) <= 1e-12
        assert np.abs(u.sum(axis=0)).max(initial=0.0) <= 1e-12


class TestExtractPoints:
    def test_identity_gram(self):
        cloud = sdp.extract_points(sdp.GramCandidate(np.eye(3)))
        d = cloud.pairwise()
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(d[off], math.sqrt(2))

    def test_zero_gram(self):
        cloud = sdp.extract_points(sdp.GramCandidate(np.zeros((4, 4))))
        assert np.allclose(cloud.coords, 0.0)

    def test_distance_reproduction(self):
        rng = np.random.default_rng(5)
        b = rng.standard_normal((6, 6))
        q = b @ b.T
        cloud = sdp.extract_points(sdp.GramCandidate(q))
        want = np.sqrt(np.maximum(sdp._dist2_of(q), 0.0))
        assert np.abs(cloud.pairwise() - want).max() <= 1e-6

    def test_witness_realizes_reported_distortion(self):
        tol = 1e-4
        for m in (cycle4(), star13()):
            alpha, witness, _ = sdp.c2_sdp(m, tol=tol)
            cloud = sdp.extract_points(witness)
            rep = metric.distortion(m, cloud.to_metric(), np.arange(m.n))
            assert rep.distortion <= alpha + 2 * tol

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            sdp.GramCandidate(np.array([[1.0, 2.0], [2.0, 1.0]]))
