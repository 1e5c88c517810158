import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import cycle4, path_metric
from mdrlab import cli, jl, metric, verify


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "mdrlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    return proc


class TestJlDim:
    def test_gaussian_billion_329(self):
        proc = run_cli("jl-dim", "--n", "1e9", "--alpha", "2", "--mode", "gaussian")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["k"] == 329

    def test_gaussian_billion_450_gives_9(self):
        proc = run_cli("jl-dim", "--n", "1e9", "--alpha", "450", "--mode", "gaussian")
        assert json.loads(proc.stdout)["k"] == 9

    def test_domain_error_exit_2(self):
        proc = run_cli("jl-dim", "--n", "10", "--alpha", "1")
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert err["error"] == "ParameterDomain"

    def test_haar_mode(self):
        proc = run_cli("jl-dim", "--n", "100", "--alpha", "2", "--mode", "haar")
        obj = json.loads(proc.stdout)
        assert obj["k"] >= 1 and obj["union_bound"] <= obj["success_prob"]

    def test_haar_fallback_prints_no_certificate(self):
        proc = run_cli("jl-dim", "--n", "5", "--alpha", "1.05", "--mode", "haar")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj == {"n": 5, "alpha": 1.05, "mode": "haar", "k": 4}
        assert "jl.py:" not in proc.stderr
        warning = json.loads(proc.stderr)
        assert warning["warning"] == "NoFeasibleK"
        assert "no k <= 1 is certified" in warning["message"]


class TestOutputsAndFormats:
    def test_twelve_significant_digits(self):
        proc = run_cli("sigma-max", "--n", "7", "--k", "2", "--alpha", "2", "--format", "csv")
        line = proc.stdout.strip().splitlines()[1]
        value = line.split(",")[-1]
        assert value == f"{math.sqrt(5):.12g}"

    def test_psi_command(self):
        proc = run_cli("psi", "--n", "5", "--k", "2", "--alpha", "2", "--sigma", "1.8")
        obj = json.loads(proc.stdout)
        assert obj["psi"] == pytest.approx(min(1, 4 / 1.8**2) - 1 / 1.8**2, abs=1e-9)

    def test_psi_billion_points_k329(self):
        proc = run_cli("psi", "--n", "1e9", "--k", "329", "--alpha", "2", "--sigma", "2564.690484")
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        want = 1.0 - jl.psi_failure(10**9, 329, 2.0, 2564.690484)
        assert (obj["psi"], obj["method"]) == (float(f"{want:.12g}"), "beta")

    def test_out_file(self, tmp_path):
        out = tmp_path / "x.json"
        proc = run_cli("jl-dim", "--n", "1000", "--alpha", "2", "--out", str(out))
        assert proc.returncode == 0 and proc.stdout == ""
        assert json.loads(out.read_text())["k"] == 98


class TestMetricCommands:
    def test_frechet_snowflake_doubling(self, tmp_path):
        m = path_metric([0.0, 1.0, 4.0])
        f = tmp_path / "m.json"
        f.write_text(m.to_json())
        proc = run_cli("frechet", "--metric", str(f))
        obj = json.loads(proc.stdout)
        assert obj["norm"] == "linf" and obj["dim"] == 3
        proc = run_cli("snowflake", "--metric", str(f), "--theta", "0.5")
        obj = json.loads(proc.stdout)
        assert obj["dist"][0][2] == pytest.approx(2.0)
        proc = run_cli("doubling", "--metric", str(f), "--mode", "exact", "--alpha", "1")
        obj = json.loads(proc.stdout)
        assert obj["K"] >= 1 and obj["dim_lower_bound"] > 0

    def test_distortion_identity(self, tmp_path):
        m = cycle4()
        f = tmp_path / "m.json"
        f.write_text(m.to_json())
        proc = run_cli("distortion", "--source", str(f), "--target", str(f))
        assert json.loads(proc.stdout)["distortion"] == 1.0

    def test_c2_matches_library(self, tmp_path):
        f = tmp_path / "c4.json"
        f.write_text(cycle4().to_json())
        proc = run_cli("c2-sdp", "--metric", str(f))
        obj = json.loads(proc.stdout)
        assert obj["alpha"] == pytest.approx(math.sqrt(2), abs=1e-3)
        assert len(obj["Q"]) == 4


class TestPipeline:
    def test_two_points(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(path_metric([0.0, 5.0]).to_json())
        proc = run_cli("pipeline", "--metric", str(f), "--alpha-total", "2")
        obj = json.loads(proc.stdout)
        assert obj["dimension"] == 1
        assert obj["end_to_end_distortion"] == pytest.approx(1.0, abs=1e-9)

    def test_budget_infeasible(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(metric.random_metric(16, 0).to_json())
        proc = run_cli("pipeline", "--metric", str(f), "--alpha-total", "1.0001")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] == "BudgetInfeasible"

    def test_random_metric_within_budget(self, tmp_path):
        f = tmp_path / "m.json"
        f.write_text(metric.random_metric(32, 1, style="shortest_path").to_json())
        for seed in ("1", "2", "3"):
            proc = run_cli("pipeline", "--metric", str(f), "--alpha-total", "12", "--seed", seed)
            obj = json.loads(proc.stdout)
            assert obj["within_budget"] is True
            assert obj["end_to_end_distortion"] <= 12.0

    def test_budget_four_times_bourgain_20_seeds(self, tmp_path):
        # in-process for speed: 64 points, alpha_total = 4 x measured stage-1
        f = tmp_path / "m.json"
        f.write_text(metric.random_metric(64, 9, style="shortest_path").to_json())
        for seed in range(20):
            probe = tmp_path / f"probe{seed}.json"
            rc = cli.main(
                ["pipeline", "--metric", str(f), "--alpha-total", "1e9",
                 "--seed", str(seed), "--out", str(probe)]
            )
            assert rc == 0
            alpha1 = json.loads(probe.read_text())["bourgain_distortion"]
            out = tmp_path / f"run{seed}.json"
            rc = cli.main(
                ["pipeline", "--metric", str(f), "--alpha-total", str(4 * alpha1),
                 "--seed", str(seed), "--out", str(out)]
            )
            assert rc == 0
            obj = json.loads(out.read_text())
            assert obj["end_to_end_distortion"] <= 4 * alpha1
            assert obj["dimension"] < 64

    def test_trivial_dimension_reports_the_bourgain_stage(self, tmp_path):
        # 4 points span at most 3 dimensions, so the Bourgain image needs no JL draw
        f = tmp_path / "m.json"
        f.write_text(cycle4().to_json())
        out = tmp_path / "out.json"
        assert cli.main(["pipeline", "--metric", str(f), "--alpha-total", "100", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["dimension"] == 3 and obj["attempts"] == 0
        assert obj["end_to_end_distortion"] == obj["bourgain_distortion"]


class TestSweep:
    def write_spec(self, tmp_path):
        spec = {
            "command": "jl-dim",
            "grid": {"n": [1e3, 1e6], "alpha": [1.5, 2, 4, 10]},
            "args": {"mode": "gaussian"},
        }
        f = tmp_path / "sweep.json"
        f.write_text(json.dumps(spec))
        return f

    def test_grid_rows_and_monotonicity(self, tmp_path):
        f = self.write_spec(tmp_path)
        proc = run_cli("sweep", "--spec", str(f))
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 9  # header + 8 cells
        header = lines[0].split(",")
        rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], []).append((float(row["alpha"]), int(row["k"])))
        for cells in by_n.values():
            cells.sort()
            ks = [k for _, k in cells]
            assert all(a >= b for a, b in zip(ks, ks[1:]))

    def test_byte_identical_across_threads(self, tmp_path):
        f = self.write_spec(tmp_path)
        a = run_cli("sweep", "--spec", str(f), "--seed", "7", "--threads", "1")
        b = run_cli("sweep", "--spec", str(f), "--seed", "7", "--threads", "8")
        c = run_cli("sweep", "--spec", str(f), "--seed", "7", env_extra={"MDRLAB_THREADS": "3"})
        assert a.stdout == b.stdout == c.stdout
        assert a.stdout  # non-empty

    def test_cell_errors_recorded(self, tmp_path):
        spec = {"command": "jl-dim", "grid": {"n": [100], "alpha": [0.5]}}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(spec))
        proc = run_cli("sweep", "--spec", str(f))
        assert proc.returncode == 0
        assert "ParameterDomain" in proc.stdout

    def test_single_cell(self, tmp_path):
        spec = {"command": "volumetric", "grid": {"n": [1000], "alpha": [2]}}
        f = tmp_path / "one.json"
        f.write_text(json.dumps(spec))
        proc = run_cli("sweep", "--spec", str(f))
        lines = proc.stdout.strip().splitlines()
        assert len(lines) == 2


class TestVerifyCommand:
    def test_unknown_suite_exit_2(self):
        proc = run_cli("verify", "nonsense")
        assert proc.returncode == 2

    def test_metric_suite_green(self):
        proc = run_cli("verify", "metric")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    @pytest.mark.parametrize("suite", verify.SUITES)
    def test_every_suite_green_in_process(self, suite):
        summary = verify.run_suite(suite, seed=0)
        assert summary["ok"] is True, [p for p in summary["properties"] if not p["passed"]]

    @staticmethod
    def printed_prefactor(n, k):
        # the commonly printed, unnormalized constant in place of C(n,k)
        from scipy.special import gammaln

        return math.log(2.0) + (k / 2) * math.log(math.pi) - gammaln(k / 2)

    @staticmethod
    def failed_properties(summary):
        return {p["property"] for p in summary["properties"] if not p["passed"]}

    @pytest.mark.filterwarnings("ignore::mdrlab.errors.NoFeasibleK")
    def test_tampered_psi_constant_fails_mc_agreement(self, monkeypatch):
        # scale the Beta route's psi by the printed prefactor's ratio to
        # C(n,k); the Monte Carlo agreement property must go red (the
        # tampered route also starves the dimension search, which warns)
        beta_route = jl.psi_failure

        def tampered(n, k, alpha, sigma):
            ratio = math.exp(self.printed_prefactor(n, k) - verify._psi_log_constant(n, k))
            return max(0.0, 1.0 - ratio * (1.0 - beta_route(n, k, alpha, sigma)))

        monkeypatch.setattr(jl, "psi_failure", tampered)
        summary = verify.verify_jl(seed=0)
        assert "psi_monte_carlo_agreement" in self.failed_properties(summary)
        assert not summary["ok"]

    def test_tampered_quadrature_constant_fails_quadrature_agreement(self, monkeypatch):
        # the same prefactor in the independent route turns its check red
        monkeypatch.setattr(verify, "_psi_log_constant", self.printed_prefactor)
        summary = verify.verify_jl(seed=0)
        assert self.failed_properties(summary) == {"psi_quadrature_agreement"}
        assert not summary["ok"]

    def test_dyadic_route_that_passes_everything_fails_the_triangle_property(self, monkeypatch):
        # the planted cycle metrics are compared with every slack, not with
        # build_metric, so a route that misses violations turns the check red
        monkeypatch.setattr(metric, "_dyadic_triangles", lambda d, near: True)
        summary = verify.verify_metric(seed=0)
        assert self.failed_properties(summary) == {"snowflake_triangle"}
        assert not summary["ok"]


class TestMiscCommands:
    def test_regular_graph_and_gamma(self, tmp_path):
        proc = run_cli("regular-graph", "--n", "16", "--r", "4", "--seed", "3")
        obj = json.loads(proc.stdout)
        assert obj["lambda2"] < 1.0
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": obj["n"], "edges": obj["edges"]}))
        proc = run_cli("gamma", "--chain", str(g))
        obj2 = json.loads(proc.stdout)
        assert obj2["gamma_hilbert"] == pytest.approx(1 / (1 - obj["lambda2"]), rel=1e-9)

    def test_beta_command(self):
        proc = run_cli("beta", "--family", "snowflake", "--alpha", "2", "--theta", "0.5")
        assert json.loads(proc.stdout)["beta"] == pytest.approx(1 / 16)

    def test_matousek_gen_and_signed(self):
        proc = run_cli("matousek-gen", "--n", "16", "--g", "6", "--seed", "2")
        obj = json.loads(proc.stdout)
        assert obj["girth"] == "inf" or obj["girth"] >= 6
        proc = run_cli(
            "signed-metric", "--n", "12", "--g", "4", "--s", "0.5", "--T", "2", "--seed", "4"
        )
        obj = json.loads(proc.stdout)
        assert obj["n"] == 36
        assert obj["min_fork_dist"] >= 2.0 - 1e-9

    def test_certificate_from_file(self, tmp_path):
        m_file = tmp_path / "c4.json"
        m_file.write_text(cycle4().to_json())
        v = np.array([1.0, -1.0, 1.0, -1.0])
        cert_file = tmp_path / "cert.json"
        cert_file.write_text(json.dumps({"A": np.outer(v, v).tolist()}))
        proc = run_cli(
            "certificate", "--metric", str(m_file), "--alpha", "1.3", "--cert", str(cert_file)
        )
        obj = json.loads(proc.stdout)
        assert obj["holds"] is False and obj["lhs"] > obj["rhs"]
        proc = run_cli("certificate", "--metric", str(m_file), "--alpha", "1.3")
        assert proc.returncode == 2  # neither --cert nor --search

    def test_c2_sdp_rejects_distances_whose_squares_overflow(self, tmp_path):
        f = tmp_path / "huge.json"
        f.write_text(metric.build_metric(metric.random_metric(12, 5).dist * 1e160).to_json())
        proc = run_cli("c2-sdp", "--metric", str(f))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        err = json.loads(proc.stderr)
        assert err["error"] == "ParameterDomain"
        assert err["message"].startswith("squared distances overflow")

    def test_gamma_accepts_raw_chain_json(self, tmp_path):
        from mdrlab import spectral

        chain = spectral.random_reversible_chain(5, 77)
        f = tmp_path / "chain.json"
        f.write_text(chain.to_json())
        proc = run_cli("gamma", "--chain", str(f))
        obj = json.loads(proc.stdout)
        assert obj["gamma_hilbert"] == pytest.approx(
            1.0 / (1.0 - spectral.lambda2(chain)), rel=1e-9
        )

    @pytest.mark.parametrize(
        "chain",
        [{"n": 0, "edges": []}, {"n": 1, "edges": []}, {"A": [[1.0]], "pi": [1.0]}],
    )
    def test_gamma_rejects_fewer_than_two_states(self, tmp_path, chain):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(chain))
        proc = run_cli("gamma", "--chain", str(f))
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"] in ("Disconnected", "ValueError")

    def test_jl_project(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = metric.PointCloud(rng.standard_normal((12, 8)), "l2")
        f = tmp_path / "cloud.json"
        f.write_text(cloud.to_json())
        proc = run_cli(
            "jl-project", "--cloud", str(f), "--alpha", "3", "--k", "6", "--seed", "2",
            "--max-retries", "50",
        )
        obj = json.loads(proc.stdout)
        assert len(obj["coords"][0]) == 6
        if obj["success"]:
            assert obj["measured_distortion"] <= 3.0

    def test_t_param_and_rayleigh_commands(self, tmp_path):
        chain_file = tmp_path / "chain.json"
        chain_file.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
        cloud_file = tmp_path / "cloud.json"
        cloud = metric.PointCloud(np.random.default_rng(1).standard_normal((4, 3)), "l1")
        cloud_file.write_text(cloud.to_json())
        proc = run_cli("t-param", "--chain", str(chain_file), "--cloud", str(cloud_file))
        obj = json.loads(proc.stdout)
        assert obj["t"] >= 1 and obj["power_rayleigh_x"] >= 1 / 16
        m_file = tmp_path / "m.json"
        m_file.write_text(path_metric([0.0, 1.0]).to_json())
        proc = run_cli(
            "rayleigh", "--chain", str(chain_file), "--metric", str(m_file),
            "--assignment", "[0,1,0,1]",
        )
        assert json.loads(proc.stdout)["rayleigh"] > 0

    def test_markov_convexity_command(self, tmp_path):
        p = np.zeros((5, 5))
        p[0, 1] = p[4, 3] = 1.0
        for i in (1, 2, 3):
            p[i, i - 1] = p[i, i + 1] = 0.5
        spec = {
            "transition": p.tolist(),
            "initial": [0, 0, 1, 0, 0],
            "horizon": 8,
            "dist": np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0))).tolist(),
            "point_map": [0, 1, 2, 3, 4],
            "q": 2.0,
        }
        f = tmp_path / "mc.json"
        f.write_text(json.dumps(spec))
        proc = run_cli("markov-convexity", "--spec", str(f), "--method", "dp")
        obj = json.loads(proc.stdout)
        assert obj["rhs"] == pytest.approx(math.sqrt(8.0))
        assert 0 < obj["ratio"] < 1.5


# ---------------------------------------------------------------- golden bytes
#
# Exit code and stdout of one invocation per subcommand, pinned byte for byte.
# Outputs that go through an eigensolver are compared as parsed payloads to
# 1e-9 instead, so a different BLAS cannot turn them red.


def _write_inputs(d):
    rng = np.random.default_rng(0)
    p = np.zeros((5, 5))
    p[0, 1] = p[4, 3] = 1.0
    for i in (1, 2, 3):
        p[i, i - 1] = p[i, i + 1] = 0.5
    files = {
        "m": path_metric([0.0, 1.0, 4.0, 6.0]).to_json(),
        "m2": path_metric([0.0, 1.0]).to_json(),
        "c4": cycle4().to_json(),
        "big": metric.random_metric(16, 1, style="shortest_path").to_json(),
        "cloud": metric.PointCloud(rng.standard_normal((12, 8)), "l2").to_json(),
        "cloud4": metric.PointCloud(
            np.random.default_rng(1).standard_normal((4, 3)), "l1"
        ).to_json(),
        "graph": json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}),
        "cert": json.dumps({"A": np.outer([1.0, -1, 1, -1], [1.0, -1, 1, -1]).tolist()}),
        "mc": json.dumps(
            {
                "transition": p.tolist(),
                "initial": [0, 0, 1, 0, 0],
                "horizon": 6,
                "dist": np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0))).tolist(),
                "point_map": [0, 1, 2, 3, 4],
            }
        ),
        "sweep_haar": json.dumps(
            {
                "command": "jl-dim",
                "grid": {"n": [10**k for k in range(3, 10)], "alpha": [1.5, 2.0, 4.0, 10.0]},
                "args": {"mode": "haar"},
            }
        ),
        "sweep_vol": json.dumps({"command": "volumetric", "grid": {"n": [1e3, 1e12], "alpha": [2, 3.5]}}),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = str(d / f"{name}.json")
        (d / f"{name}.json").write_text(text)
    return paths


GOLDEN_ARGV = {
    "jl-dim": "jl-dim --n 1e9 --alpha 2 --mode gaussian",
    "jl-dim-haar-csv": "jl-dim --n 1e6 --alpha 2 --mode haar --format csv",
    "jl-dim-domain": "jl-dim --n 10 --alpha 1",
    "jl-project": "jl-project --cloud {cloud} --alpha 3 --k 6 --seed 2 --max-retries 50",
    "psi": "psi --n 20 --k 5 --alpha 2 --sigma 2.8",
    "psi-csv": "psi --n 20 --k 5 --alpha 2 --sigma 2.8 --format csv",
    "sigma-max": "sigma-max --n 7 --k 2 --alpha 2",
    "distortion": "distortion --source {m} --target {m} --map [3,2,1,0]",
    "frechet": "frechet --metric {m}",
    "bourgain": "bourgain --metric {big} --seed 3",
    "snowflake": "snowflake --metric {m} --theta 0.5",
    "doubling": "doubling --metric {m} --mode exact --alpha 2",
    "doubling-big-exact": "doubling --metric {big} --mode exact --alpha 2",
    "doubling-big-greedy": "doubling --metric {big} --mode greedy --alpha 2",
    "c2-sdp": "c2-sdp --metric {c4}",
    "certificate": "certificate --metric {c4} --alpha 1.3 --cert {cert}",
    "gamma": "gamma --chain {graph} --metric {m}",
    "rayleigh": "rayleigh --chain {graph} --metric {m2} --assignment [0,1,0,1]",
    "t-param": "t-param --chain {graph} --cloud {cloud4}",
    "dim-exponent": "dim-exponent --n 16 --r 3 --trials 2",
    "dim-exponent-csv": "dim-exponent --n 16 --r 3 --trials 2 --format csv",
    "cheeger": "cheeger --chain {graph}",
    "regular-graph": "regular-graph --n 8 --r 3 --seed 5",
    "markov-convexity": "markov-convexity --spec {mc} --method dp",
    "matousek-gen": "matousek-gen --n 16 --g 6 --seed 2",
    "signed-metric": "signed-metric --n 12 --g 4 --s 0.5 --T 2 --seed 4",
    "matousek-harness": "matousek-harness --n 8 --g 4 --s 1 --T 4 --trials 3",
    "matousek-harness-csv": "matousek-harness --n 8 --g 4 --s 1 --T 4 --trials 3 --format csv",
    "beta": "beta --family snowflake --alpha 2 --theta 0.5 --n-points 30000",
    "pipeline": "pipeline --metric {big} --alpha-total 12 --seed 1",
    "pipeline-infeasible": "pipeline --metric {big} --alpha-total 1.0001",
    "sweep-haar": "sweep --spec {sweep_haar}",
    "sweep-volumetric": "sweep --spec {sweep_vol} --format json",
    "verify": "verify metric --seed 3",
    "verify-unknown": "verify nonsense",
}

GOLDEN_SHA256 = {
    "beta": (0, "8107ff9ab5f33d5ccbc0750127fd2fbd617a1a659a869276ebfdb458e1c0a31b"),
    "bourgain": (0, "da6896ad379d2d5e9d5871eb67c70cdf5b84ca97e2eee050d9156071fe772823"),
    "certificate": (0, "650d4cb220013766209b09bf775995b9667e6c20e15a8af1c42e96571bcf3735"),
    "dim-exponent": (0, "55b9bd0e7ac57875831552314adaccc7b164776ac725cf0d00d3927b14039c61"),
    "dim-exponent-csv": (0, "81f522c8f5cca770b91f5a53a2288d2be542c9ddd7779e3acd8b2bf0d04dc82e"),
    "distortion": (0, "bdfbd8886bc02a0127c32eb1527de90d85bf0669ccf59ac5f39f8f145dda52cf"),
    "doubling": (0, "5556200f492deacfdc75dbb11f0d8bd875a83aeb2f849806f91e7940abb5d34f"),
    "doubling-big-exact": (0, "7672c36a361c9c304ece47fdc41778a5b500019a587cae658c4d22f2399609fd"),
    "doubling-big-greedy": (0, "742c91ad832a0e21ab1512cb9070fe02c398445fbd763ccf00b09978960e8241"),
    "frechet": (0, "e6d4df6d5177ac559076b8407b33a2d77dd05497211fd622a311bb5f2947021b"),
    "jl-dim": (0, "b8bf644e17f449f047f2b0f637abd697792af345e9a28b27629a0d410faa820e"),
    "jl-dim-domain": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "jl-dim-haar-csv": (0, "f48380a70783922fcb69f2e63c2c49a6ad9e62994c7d0aeac3692d6eef41cd9f"),
    "jl-project": (0, "de57a0c5653eca4b9aa8ae5d7f51cc04f20dc5133156f1e4e06082c96ab5177f"),
    "markov-convexity": (0, "bf4ff56a44fee32106fcc065ee86ca0ba4b4e05bd9da82c5095eb6130d139624"),
    "matousek-gen": (0, "ad090a62f0f3f4aec86028e574c98e27f8d22ce7cff04a706a5bb54d8d951553"),
    "matousek-harness": (0, "f7ad4a02218a18bc6a5ac58a51d1ff39796982a0eb3ec91290cbd18e12546619"),
    "matousek-harness-csv": (0, "12ea86778930f0fadd4b1137871ab8bfaa5d57d84ff5ab6f066d66ae71ac7576"),
    "pipeline": (0, "527c9032e5e715885e44dbf9c72b565fb92392c80ee1183dc1e1ee8579ae8ffc"),
    "pipeline-infeasible": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "psi": (0, "49ab16d89a7995ac5bbefee815070cdcb359f89f8c69819c191d211c16060eae"),
    "psi-csv": (0, "0d856374e36e47e7a250ed2c2c7f8f3834d9018e9f0d8e84fd1d4651babfd10a"),
    "rayleigh": (0, "21cd77c9b28ae8bad23383c7ee11f2e4fe80bc652065f471ce06f46e3a5db6c2"),
    "sigma-max": (0, "d0ec78e8fe5a572633d3a8a6b8e9e58d575b678d04e3a1eb00d3ca45685a3c66"),
    "signed-metric": (0, "4324978f90c3460efd47f7a60f96285eca0aab496a4e8ff4695fd1756809ac89"),
    "snowflake": (0, "139a7315656cf7a1ed1dcafd9ca002b40df887a9e029b8e60457ebb5935bf7e4"),
    "sweep-haar": (0, "04070dbf5206249add32ba473b06f584767e4eda36490a7a52653deeaafc8326"),
    "sweep-volumetric": (0, "873fa457091892394b5c6ab0dd14b245dca949902e5700b6fdad61c3cb389029"),
    "verify": (0, "86ccec84e16656311851422fa9e0cbef825fd5bfe906db9c6a9a866a2d446859"),
    "verify-unknown": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

GOLDEN_PAYLOAD = {
    "c2-sdp": {
        "alpha": 1.41421356237,
        "lo": 1.41421356096,
        "hi": 1.41421356237,
        "status": "converged",
        "iterations": 1,
        "Q": [
            [1.0, -3.04391365064e-16, -1.0, 2.83295076752e-16],
            [-3.04391365064e-16, 1.0, 3.59902516295e-16, -1.0],
            [-1.0, 3.59902516295e-16, 1.0, -3.38806227983e-16],
            [2.83295076752e-16, -1.0, -3.38806227983e-16, 1.0],
        ],
    },
    "cheeger": {"cut": [0, 1], "conductance": 0.333333333333, "lambda2": 0.5, "cheeger_bound": 1.0},
    "gamma": {"lambda2": 0.5, "gamma_hilbert": 2.0, "gamma_bruteforce": 1.95238095238, "p": 2.0},
    "regular-graph": {
        "n": 8,
        "edges": [
            [0, 4, 1.0], [0, 5, 1.0], [0, 6, 1.0], [1, 3, 1.0], [1, 6, 1.0], [1, 7, 1.0],
            [2, 3, 1.0], [2, 4, 1.0], [2, 5, 1.0], [3, 5, 1.0], [4, 7, 1.0], [6, 7, 1.0],
        ],
        "lambda2": 0.57735026919,
    },
    "t-param": {
        "d": 1.73205080757,
        "t": 2,
        "hilbert_rayleigh": 0.939208406656,
        "power_rayleigh_x": 0.807834375688,
    },
}


def _invoke(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _close(a, b):
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


@pytest.mark.parametrize("case", sorted(GOLDEN_ARGV))
def test_golden_stdout(case, tmp_path, capsys):
    paths = _write_inputs(tmp_path)
    argv = [arg.format(**paths) for arg in GOLDEN_ARGV[case].split()]
    code, out, _ = _invoke(argv, capsys)
    if case in GOLDEN_PAYLOAD:
        payload = json.loads(out)
        if case == "cheeger":  # the eigenvector's sign picks the side; name the side of state 0
            payload["cut"] = [i for i in range(4) if (i in payload["cut"]) == (0 in payload["cut"])]
        assert code == 0
        assert _close(payload, GOLDEN_PAYLOAD[case])
    else:
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_SHA256[case]


# ---------------------------------------------------------------- sweep cells


def _sweep(tmp_path, capsys, spec, *extra):
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    return _invoke(["sweep", "--spec", str(f), *extra], capsys)


REGULAR_GRAPH_CSV = ["regular-graph", "--n", "8", "--r", "3", "--seed", "5", "--format", "csv"]


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestSweepDispatch:
    def test_cell_equals_direct_command(self, tmp_path, capsys):
        spec = {"command": "regular-graph", "grid": {"n": [8], "r": [3]}, "seed": 5}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        assert code == 0
        (row,) = _csv_rows(out)
        assert (row.pop("error"), row.pop("r")) == ("", "3")  # r is a grid column only
        code, direct, _ = _invoke(REGULAR_GRAPH_CSV, capsys)
        assert code == 0
        assert row == _csv_rows(direct)[0]

    def test_grid_seed_overrides_spec_seed(self, tmp_path, capsys):
        spec = {"command": "regular-graph", "grid": {"seed": [5]}, "args": {"n": 8, "r": 3},
                "seed": 9}
        _, out, _ = _sweep(tmp_path, capsys, spec)
        _, direct, _ = _invoke(REGULAR_GRAPH_CSV, capsys)
        assert _csv_rows(out)[0]["edges"] == _csv_rows(direct)[0]["edges"]

    def test_psi_row_carries_method_and_args(self, tmp_path, capsys):
        spec = {"command": "psi", "grid": {"n": [20]}, "args": {"k": 5, "alpha": 2, "sigma": 2.8}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        (row,) = _csv_rows(out)
        assert code == 0 and row["method"] == "beta" and row["sigma"] == "2.8"

    def test_list_payload_gives_one_row_each(self, tmp_path, capsys):
        spec = {"command": "matousek-harness", "grid": {"trials": [2, 3]},
                "args": {"n": 8, "g": 4, "s": 1, "T": 4}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        rows = _csv_rows(out)
        assert code == 0 and [r["trials"] for r in rows] == ["2", "2", "3", "3", "3"]
        assert all(r["error"] == "" for r in rows)

    def test_flags_and_list_options(self, tmp_path, capsys):
        paths = _write_inputs(tmp_path)
        spec = {"command": "rayleigh", "grid": {"p": [2.0]},
                "args": {"chain": paths["graph"], "metric": paths["m2"],
                         "assignment": [0, 1, 0, 1]}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        assert code == 0 and float(_csv_rows(out)[0]["rayleigh"]) > 0
        spec = {"command": "certificate", "grid": {"alpha": [1.3]},
                "args": {"metric": paths["c4"], "cert": paths["cert"], "search": False}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        assert code == 0 and _csv_rows(out)[0]["holds"] == "False"

    def test_parser_rejection_recorded_and_sweep_goes_on(self, tmp_path, capsys):
        spec = {"command": "jl-dim", "grid": {"n": [0, 1000], "alpha": [2]}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        bad, good = _csv_rows(out)
        assert code == 0
        assert "expected a positive integer, got 0" in bad["error"] and bad["k"] == ""
        assert good["error"] == "" and good["k"] == "98"

    def test_non_finite_cell_recorded_and_sweep_goes_on(self, tmp_path, capsys):
        spec = {"command": "volumetric", "grid": {"alpha": ["nan", 2]}, "args": {"n": 10}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        bad, good = _csv_rows(out)
        assert code == 0
        assert "argument --alpha: expected a finite number, got nan" in bad["error"]
        assert bad["k_min"] == ""
        assert good["error"] == "" and float(good["k_min"]) == pytest.approx(math.log(10) / math.log(3))

    def test_negative_seed_cell_recorded_and_sweep_goes_on(self, tmp_path, capsys):
        message = "argument --seed: expected a non-negative integer, got -1"
        spec = {"command": "regular-graph", "grid": {"seed": [-1, 5]}, "args": {"n": 8, "r": 3}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        bad, good = _csv_rows(out)
        assert code == 0
        assert message in bad["error"] and bad["edges"] == ""
        assert good["error"] == "" and good["edges"] != ""

    @pytest.mark.parametrize("seed", [1.5, 1.9, -1, "x", True, None, [1], 2.0**63])
    def test_bad_spec_seed_exits_2_before_any_cell(self, tmp_path, capsys, seed):
        # the spec's seed is refused, not truncated to a cell seed or turned into cell errors
        spec = {"command": "regular-graph", "grid": {"n": [8]}, "args": {"r": 3}, "seed": seed}
        code, out, err = _sweep(tmp_path, capsys, spec)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert "a sweep seed must be a non-negative integer" in json.loads(line)["message"]

    def test_integral_float_seed_is_that_integer(self, tmp_path, capsys):
        spec = {"command": "regular-graph", "grid": {"n": [8]}, "args": {"r": 3}, "seed": 5.0}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        assert code == 0
        (row,) = _csv_rows(out)
        _, direct, _ = _invoke(REGULAR_GRAPH_CSV, capsys)
        assert row["edges"] == _csv_rows(direct)[0]["edges"]

    @pytest.mark.parametrize("seed", [2**63, 2**64, 10**23])
    def test_huge_spec_seed_is_taken_as_seed_takes_it(self, tmp_path, capsys, seed):
        # --seed accepts any non-negative integer, and so does a spec's seed
        spec = {"command": "regular-graph", "grid": {"n": [8]}, "args": {"r": 3}, "seed": seed}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        assert code == 0
        (row,) = _csv_rows(out)
        argv = ["regular-graph", "--n", "8", "--r", "3", "--seed", str(seed), "--format", "csv"]
        _, direct, _ = _invoke(argv, capsys)
        assert row["error"] == "" and row["edges"] == _csv_rows(direct)[0]["edges"]

    def test_help_key_is_a_cell_error(self, tmp_path, capsys):
        spec = {"command": "jl-dim", "grid": {"help": [True, False]},
                "args": {"n": 1000, "alpha": 2}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        with_help, plain = _csv_rows(out)
        assert code == 0 and "unrecognized arguments: --help" in with_help["error"]
        assert plain["error"] == "" and plain["k"] == "98"

    def test_snowflake_beta_defaults_theta(self, tmp_path, capsys):
        spec = {"command": "beta", "grid": {"alpha": [2]}, "args": {"family": "snowflake"}}
        _, out, _ = _sweep(tmp_path, capsys, spec)
        _, direct, _ = _invoke(["beta", "--family", "snowflake", "--alpha", "2"], capsys)
        assert float(_csv_rows(out)[0]["beta"]) == pytest.approx(json.loads(direct)["beta"])

    def test_list_cell_is_json_to_12_digits(self, tmp_path, capsys):
        paths = _write_inputs(tmp_path)
        spec = {"command": "c2-sdp", "grid": {"metric": [paths["c4"]]}}
        code, out, _ = _sweep(tmp_path, capsys, spec)
        (row,) = _csv_rows(out)
        assert code == 0 and row["error"] == ""
        entries = [x for q_row in json.loads(row["Q"]) for x in q_row]
        assert entries and all(isinstance(x, float) for x in entries)
        assert all(x == float(f"{x:.12g}") for x in entries)

    def test_sweep_of_sweep_rejected(self, tmp_path, capsys):
        code, out, err = _sweep(tmp_path, capsys, {"command": "sweep", "grid": {"n": [1]}})
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("axis", [[], 1000])
    def test_empty_or_scalar_axis_is_a_json_error(self, tmp_path, capsys, axis):
        spec = {"command": "jl-dim", "grid": {"n": axis, "alpha": [2]}}
        code, out, err = _sweep(tmp_path, capsys, spec)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_volumetric_matches_sweep_row(self, tmp_path, capsys):
        code, out, _ = _invoke(["volumetric", "--n", "1000", "--alpha", "2"], capsys)
        assert code == 0
        k_min = json.loads(out)["k_min"]
        spec = {"command": "volumetric", "grid": {"n": [1000], "alpha": [2]}}
        _, out, _ = _sweep(tmp_path, capsys, spec)
        assert _csv_rows(out)[0]["k_min"] == f"{k_min:.12g}"


class TestMainExits:
    def test_malformed_threads_env_is_a_domain_error(self, capsys, monkeypatch):
        b = _invoke(["jl-dim", "--n", "1e3", "--alpha", "2", "--threads", "0"], capsys)
        monkeypatch.setenv("MDRLAB_THREADS", "abc")
        a = _invoke(["jl-dim", "--n", "1e3", "--alpha", "2"], capsys)
        assert a == b and a[:2] == (2, "")
        assert json.loads(a[2])["error"] == "DomainError"

    def test_tol_belongs_to_c2_sdp(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["jl-dim", "--n", "1e3", "--alpha", "2", "--tol", "1e-3"])
        assert exc.value.code == 2
        f = tmp_path / "c4.json"
        f.write_text(cycle4().to_json())
        code, out, _ = _invoke(["c2-sdp", "--metric", str(f), "--tol", "1e-3"], capsys)
        assert code == 0 and json.loads(out)["alpha"] == pytest.approx(math.sqrt(2), abs=2e-3)

    def test_failed_verify_payload_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "run_suite", lambda name, seed: {"suite": name, "ok": False})
        code, out, _ = _invoke(["verify", "metric"], capsys)
        assert code == 1 and json.loads(out)["ok"] is False

    @pytest.mark.parametrize("retries", ["0", "-3"])
    def test_max_retries_below_one_is_a_usage_error(self, retries, tmp_path, capsys):
        cloud = tmp_path / "cloud.json"
        cloud.write_text(metric.PointCloud(np.random.default_rng(0).standard_normal((12, 8)), "l2").to_json())
        m = tmp_path / "m.json"
        m.write_text(cycle4().to_json())
        for argv in (["jl-project", "--cloud", str(cloud), "--alpha", "3"],
                     ["pipeline", "--metric", str(m), "--alpha-total", "8"]):
            code, out, err = _invoke([*argv, "--max-retries", retries], capsys)
            assert code == 2 and out == ""
            assert "--max-retries" in err

    @pytest.mark.parametrize("argv", [
        "regular-graph --n 8 --r 3",
        "matousek-gen --n 16 --g 6",
        "verify metric",
    ])
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        code, out, err = _invoke([*argv.split(), "--seed", "-1"], capsys)
        assert code == 2 and out == ""
        assert "argument --seed: expected a non-negative integer, got -1" in err

    def test_certificate_cert_and_search_together_are_refused(self, tmp_path, capsys):
        # --search used to run and ignore --cert; neither file exists, so the
        # refusal comes before any file is read
        argv = ["certificate", "--metric", str(tmp_path / "m.json"), "--alpha", "1.3",
                "--cert", str(tmp_path / "cert.json"), "--search"]
        code, out, err = _invoke(argv, capsys)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == "ValueError"

    def test_markov_method_auto_is_a_usage_error(self, tmp_path, capsys):
        code, out, err = _invoke(["markov-convexity", "--spec", str(tmp_path / "s.json"),
                                  "--method", "auto"], capsys)
        assert code == 2 and out == ""
        assert "argument --method: invalid choice: 'auto'" in err

    def test_gaussian_alpha_past_double_range_is_a_domain_error(self, capsys):
        code, out, err = _invoke(["jl-dim", "--n", "1e9", "--alpha", "1e78", "--mode", "gaussian"], capsys)
        assert code == 2 and out == ""
        obj = json.loads(err)
        assert obj["error"] == "ParameterDomain"
        assert obj["message"].startswith("alpha=1e+78 is out of range: need 1 < alpha <= 1e+76")

    @pytest.mark.parametrize("argv", [
        "psi --n 20 --k 5 --alpha 2 --sigma nan",
        "sigma-max --n 7 --k 2 --alpha nan",
        "volumetric --n 10 --alpha nan",
        "beta --alpha nan",
        "jl-dim --n 1000 --alpha nan --mode haar",
        "jl-dim --n inf --alpha 2",
        "volumetric --n 10 --alpha=-inf",
    ])
    def test_non_finite_option_is_a_usage_error(self, argv, capsys):
        code, out, err = _invoke(argv.split(), capsys)
        assert code == 2 and out == ""
        assert "expected a finite number" in err

    def test_non_finite_payload_is_a_json_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cmd_volumetric", lambda args: {"k_min": math.inf})
        out = tmp_path / "out.json"
        code, stdout, err = _invoke(["volumetric", "--n", "10", "--alpha", "2", "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert json.loads(err)["error"] == "ValueError"

    def test_pipeline_retries_exhausted(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(metric.random_metric(64, 9, style="shortest_path").to_json())
        argv = ["pipeline", "--metric", str(f), "--alpha-total", "5", "--seed", "2",
                "--max-retries", "1"]
        code, out, err = _invoke(argv, capsys)
        assert code == 2 and out == ""
        assert err == (
            '{"error": "RetriesExhausted", "message": "no successful draw in 1 attempts"}\n'
        )

    def test_triangle_violation_names_plain_indices(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"n": 3, "dist": [[0, 1, 4], [1, 0, 1], [4, 1, 0]]}))
        code, out, err = _invoke(["frechet", "--metric", str(f)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "TriangleViolation",
            "message": "triangle inequality violated on (0, 1, 2) by 2.000e+00",
        }

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cloud_is_a_json_error(self, bad, tmp_path, capsys):
        coords = np.random.default_rng(0).standard_normal((6, 3)).tolist()
        coords[2][1] = bad
        f = tmp_path / "cloud.json"
        f.write_text(json.dumps({"n": 6, "dim": 3, "norm": "l2", "coords": coords}))
        code, out, err = _invoke(["jl-project", "--cloud", str(f), "--alpha", "3"], capsys)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": "point coordinates have non-finite entries"
        }

    def test_overflowing_cloud_is_a_json_error(self, tmp_path):
        coords = 1e200 * np.random.default_rng(0).standard_normal((6, 3))
        f = tmp_path / "cloud.json"
        f.write_text(metric.PointCloud(coords, "l2").to_json())
        proc = run_cli("jl-project", "--cloud", str(f), "--alpha", "3", "--k", "6")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stderr) == {
            "error": "ParameterDomain",
            "message": "point distances overflow to infinity; rescale the cloud",
        }

    def test_overflowing_image_is_a_json_error(self, tmp_path):
        # the source distances are finite; every draw's image distances overflow
        coords = 1e153 * np.random.default_rng(0).standard_normal((40, 10))
        f = tmp_path / "cloud.json"
        f.write_text(metric.PointCloud(coords, "l2").to_json())
        proc = run_cli("jl-project", "--cloud", str(f), "--alpha", "1.5", "--mode", "gaussian",
                       "--k", "3", "--max-retries", "2", "--seed", "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "ParameterDomain",
            "message": "image distances overflow to infinity; rescale the cloud",
        }

    def test_malformed_map_is_a_json_error(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(cycle4().to_json())
        argv = ["distortion", "--source", str(f), "--target", str(f), "--map", '{"a":1}']
        code, out, err = _invoke(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "TypeError"

    def test_null_horizon_is_a_json_error(self, tmp_path, capsys):
        p = np.zeros((3, 3))
        p[0, 1] = p[2, 1] = 1.0
        p[1, 0] = p[1, 2] = 0.5
        spec = {"transition": p.tolist(), "initial": [0, 1, 0], "horizon": None,
                "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "point_map": [0, 1, 2]}
        f = tmp_path / "mc.json"
        f.write_text(json.dumps(spec))
        code, out, err = _invoke(["markov-convexity", "--spec", str(f)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "TypeError"

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"q": 0}, "q must be positive and finite"),
            ({"q": -1.0}, "q must be positive and finite"),
            ({"q": math.inf}, "q must be positive and finite"),
            ({"q": math.nan}, "q must be positive and finite"),
            ({"transition": [[0, 1, 0], [0.5, math.nan, 0.5], [0, 1, 0]]},
             "transition entries must be finite and nonnegative"),
            ({"initial": [0, math.nan, 1]},
             "the distribution must be a finite, nonnegative probability vector on the 3 states"),
        ],
        ids=["q-zero", "q-negative", "q-inf", "q-nan", "transition-nan", "initial-nan"],
    )
    def test_bad_markov_spec_is_one_json_line(self, change, message, tmp_path):
        spec = {"transition": [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]], "initial": [0, 1, 0],
                "horizon": 4, "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "point_map": [0, 1, 2]}
        f = tmp_path / "mc.json"
        f.write_text(json.dumps({**spec, **change}))
        proc = run_cli("markov-convexity", "--spec", str(f))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_certificate_file_is_one_json_line(self, bad, tmp_path):
        m = tmp_path / "c4.json"
        m.write_text(cycle4().to_json())
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = bad
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"A": a.tolist()}))
        proc = run_cli("certificate", "--metric", str(m), "--alpha", "5", "--cert", str(cert))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr) == {"error": "CertificateInvalid", "message": "A must be finite"}

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["cheeger", "--chain", "{f}"], {"n": 3, "edges": [[0]]}),
            (["cheeger", "--chain", "{f}"], {"n": 3, "edges": [[0.5, 1], [1, 2]]}),
            (["cheeger", "--chain", "{f}"], {"n": 3, "edges": [[0, 1, 1, 7], [1, 2]]}),
            (["gamma", "--chain", "{f}"], {"A": 5, "pi": [1]}),
            (["markov-convexity", "--spec", "{f}"],
             {"transition": 5, "initial": [1], "horizon": 2, "dist": [[0]], "point_map": [0]}),
        ],
        ids=["short-edge", "fractional-endpoint", "long-edge", "scalar-chain", "scalar-transition"],
    )
    def test_malformed_input_is_a_json_error(self, argv, text, tmp_path, capsys):
        f = tmp_path / "in.json"
        f.write_text(json.dumps(text))
        code, out, err = _invoke([a.format(f=f) for a in argv], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_forest_template_harness_prints_inf_girth(self, fmt, capsys):
        # at this seed two of the three sampled templates are forests
        argv = ["matousek-harness", "--n", "2", "--g", "4", "--s", "1", "--T", "4",
                "--trials", "3", "--seed", "1", "--format", fmt]
        code, out, err = _invoke(argv, capsys)
        assert code == 0 and err == ""
        rows = json.loads(out) if fmt == "json" else _csv_rows(out)
        assert [str(r["girth"]) for r in rows] == ["inf", "inf", "4"]

    def test_undecided_certificate_search_exits_2(self, tmp_path, capsys):
        f = tmp_path / "c4.json"
        f.write_text(cycle4().to_json())
        argv = ["certificate", "--metric", str(f), "--alpha", "1.41421356237309", "--search"]
        code, out, err = _invoke(argv, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "CapExceeded"

    def test_null_edge_weight_is_a_json_error(self, tmp_path, capsys):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 2, "edges": [[0, 1, None]]}))
        m = tmp_path / "m.json"
        m.write_text(path_metric([0.0, 1.0]).to_json())
        code, out, err = _invoke(["gamma", "--chain", str(g), "--metric", str(m)], capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "TypeError"

    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["rayleigh", "--chain", "{g}", "--metric", "{m}", "--assignment", "[0.9, 1.5, 2.2, 3.1]"], {}),
            (["distortion", "--source", "{m}", "--target", "{m}", "--map", "[0.2, 1.9, 2.5, 3]"], {}),
            (["markov-convexity", "--spec", "{s}"], {"horizon": 4.9}),
            (["markov-convexity", "--spec", "{s}"], {"point_map": [0.7, 1.2]}),
            (["markov-convexity", "--spec", "{s}"], {"horizon": "4"}),
        ],
        ids=["rayleigh-assignment", "distortion-map", "markov-horizon", "markov-point-map",
             "markov-string-horizon"],
    )
    def test_non_integer_index_is_refused(self, argv, spec, tmp_path, capsys):
        # truncated to [0, 1, 2, 3], horizon 4 or point map [0, 1], these used to print a result
        files = {"g": tmp_path / "g.json", "m": tmp_path / "m.json", "s": tmp_path / "s.json"}
        files["g"].write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}))
        files["m"].write_text(cycle4().to_json())
        base = {"transition": [[0, 1], [1, 0]], "initial": [1, 0], "horizon": 4,
                "dist": [[0, 1], [1, 0]], "point_map": [0, 1]}
        files["s"].write_text(json.dumps({**base, **spec}))
        code, out, err = _invoke([a.format(**files) for a in argv], capsys)
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] in ("ValueError", "NonInjectiveMap", "TypeError")
