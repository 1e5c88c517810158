import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import cycle4, path_metric
from mdrlab import cli, metric, verify


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

    def test_tampered_psi_constant_fails_mc_agreement(self, monkeypatch):
        # swap in the printed-but-unnormalized prefactor; the Monte Carlo
        # agreement property must go red
        from scipy.special import gammaln

        def printed_prefactor(n, k):
            return math.log(2.0) + (k / 2) * math.log(math.pi) - gammaln(k / 2)

        from mdrlab import jl

        monkeypatch.setattr(jl, "_psi_log_constant", printed_prefactor)
        summary = verify.verify_jl(seed=0, mc_samples=50_000)
        failed = {p["property"] for p in summary["properties"] if not p["passed"]}
        assert "psi_monte_carlo_agreement" in failed
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
