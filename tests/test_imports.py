"""Import budget: ``import mdrlab`` loads numpy and no scipy module, and each
scipy subpackage loads only in the commands that compute with it, so a
top-level import cannot silently bring back the cold-start cost of
``import mdrlab.cli``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cycle4, graph_cycle

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.spatial", "scipy.sparse.csgraph")


def modules_after(code: str) -> set:
    """Names in sys.modules after running ``code`` in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", ["import mdrlab.cli", "import mdrlab"])
def test_import_loads_no_heavy_scipy(code):
    loaded = modules_after(code)
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["jl-dim", "--n", "1e9", "--alpha", "2", "--mode", "gaussian"],
        ["psi", "--n", "20", "--k", "5", "--alpha", "2", "--sigma", "2.8"],
    ],
    ids=["jl-dim-gaussian", "psi"],
)
def test_tail_commands_load_no_heavy_scipy(argv):
    # psi and the Gaussian certificate are scipy.special tails; the
    # quadratures that cross-check them live in verify
    loaded = modules_after(f"from mdrlab.cli import main\nassert main({argv!r}) == 0")
    assert sorted(loaded.intersection(HEAVY)) == []


def test_verify_jl_loads_no_heavy_scipy():
    # its quadrature oracles are numpy double-exponential rules, so the
    # suite needs scipy.special and nothing that scipy.integrate pulls in
    loaded = modules_after(
        "from mdrlab.cli import main\n"
        "assert main(['verify', 'jl', '--seed', '1']) == 0"
    )
    assert sorted(loaded.intersection(HEAVY)) == []


def test_closed_form_command_loads_no_heavy_scipy():
    loaded = modules_after(
        "from mdrlab.cli import main\n"
        "assert main(['sigma-max', '--n', '7', '--k', '2', '--alpha', '2']) == 0"
    )
    assert sorted(loaded.intersection(HEAVY)) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["regular-graph", "--n", "128", "--r", "4", "--seed", "1"],
        ["cheeger", "--chain", "{graph}"],
        ["gamma", "--chain", "{graph}"],
        ["rayleigh", "--chain", "{graph}", "--metric", "{c4}", "--assignment", "[0, 1, 2, 3]"],
    ],
    ids=["regular-graph", "cheeger", "gamma", "rayleigh"],
)
def test_graph_commands_load_no_scipy(argv, tmp_path):
    # connectivity is a union-find over the edge list and the spectra are
    # numpy eigh, so these commands never import scipy.sparse.csgraph
    graph, c4 = tmp_path / "graph.json", tmp_path / "c4.json"
    graph.write_text(graph_cycle(4).to_json())
    c4.write_text(cycle4().to_json())
    argv = [a.format(graph=graph, c4=c4) for a in argv]
    loaded = modules_after(f"from mdrlab.cli import main\nassert main({argv!r}) == 0")
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


@pytest.mark.parametrize(
    "argv, tails",
    [
        (["sigma-max", "--n", "7", "--k", "2", "--alpha", "2"], False),
        (["beta", "--alpha", "2", "--n-points", "30000"], False),
        (["matousek-gen", "--n", "64", "--g", "6"], False),
        (["c2-sdp", "--metric", "{c4}"], False),
        (["jl-dim", "--n", "1e9", "--alpha", "2", "--mode", "gaussian"], True),
        (["jl-dim", "--n", "1e6", "--alpha", "2", "--mode", "haar"], True),
        (["psi", "--n", "20", "--k", "5", "--alpha", "2", "--sigma", "2.8"], True),
    ],
    ids=["sigma-max", "beta", "matousek-gen", "c2-sdp", "jl-dim-gaussian", "jl-dim-haar", "psi"],
)
def test_scipy_special_loads_only_for_tails(argv, tails, tmp_path):
    # the Beta and chi-square tails are scipy.special ufuncs, imported on
    # first use; commands that evaluate no tail never import it
    c4 = tmp_path / "c4.json"
    c4.write_text(cycle4().to_json())
    argv = [a.format(c4=c4) for a in argv]
    loaded = modules_after(f"from mdrlab.cli import main\nassert main({argv!r}) == 0")
    assert ("scipy.special" in loaded) == tails
