"""Import budget: ``import mdrlab`` and ``import mdrlab.cli`` load no submodule
and no numpy until first use, each command loads only the submodules it
computes with, and each scipy subpackage loads only in the commands that
compute with it, so a top-level import cannot silently bring back the
cold-start cost of ``import mdrlab.cli``."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import cycle4, graph_cycle

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"
HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.spatial", "scipy.sparse")


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
    "code, submodules",
    [("import mdrlab", []), ("import mdrlab.cli", ["mdrlab.cli", "mdrlab.errors"])],
)
def test_import_loads_no_numpy_and_no_library_submodule(code, submodules):
    loaded = modules_after(code)
    assert "numpy" not in loaded
    assert sorted(m for m in loaded if m.startswith("mdrlab.")) == submodules


@pytest.mark.parametrize(
    "argv, submodules",
    [
        (["matousek-gen", "--n", "64", "--g", "6"], ["matousek", "metric"]),
        (["sigma-max", "--n", "7", "--k", "2", "--alpha", "2"], ["jl", "metric"]),
        (["c2-sdp", "--metric", "{c4}"], ["metric", "sdp"]),
    ],
    ids=["matousek-gen", "sigma-max", "c2-sdp"],
)
def test_commands_load_only_the_submodules_they_compute_with(argv, submodules, tmp_path):
    # jl and sdp build on metric's point clouds; errors and the CLI itself are always there
    c4 = tmp_path / "c4.json"
    c4.write_text(cycle4().to_json())
    argv = [a.format(c4=c4) for a in argv]
    loaded = modules_after(f"from mdrlab.cli import main\nassert main({argv!r}) == 0")
    want = sorted(["mdrlab.cli", "mdrlab.errors", *(f"mdrlab.{name}" for name in submodules)])
    assert sorted(m for m in loaded if m.startswith("mdrlab.")) == want


def test_package_exposes_its_submodules_only():
    # public names live in their submodules; bench/run.py reaches them
    # through these attributes of a fresh ``import mdrlab``
    loaded = modules_after(
        "import mdrlab\n"
        "assert mdrlab.__version__\n"
        "for name in ('errors', 'jl', 'matousek', 'metric', 'moduli', 'sdp', 'spectral'):\n"
        "    assert getattr(mdrlab, name).__name__ == 'mdrlab.' + name\n"
        "assert not hasattr(mdrlab, 'psi') and not hasattr(mdrlab, 'c2_bracket')"
    )
    assert "mdrlab.cli" not in loaded


def test_readme_layout_names_exist():
    # every name in README's "Library layout" table is an attribute of its
    # module, so the table cannot keep a deleted name
    section = README.read_text(encoding="utf-8").split("## Library layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(mdrlab\.\w+)` \| (`\w+`(?:, `\w+`)*) \|$", section, re.M)
    libraries = ("jl", "matousek", "metric", "moduli", "sdp", "spectral")
    assert sorted(module for module, _ in rows) == [f"mdrlab.{name}" for name in libraries]
    for module, cell in rows:
        names = re.findall(r"`(\w+)`", cell)
        assert [n for n in names if not hasattr(importlib.import_module(module), n)] == [], module


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
        ["signed-metric", "--n", "16", "--g", "4", "--s", "1", "--T", "4"],
        ["matousek-harness", "--n", "8", "--g", "4", "--s", "1", "--T", "4", "--trials", "3"],
        ["dim-exponent", "--n", "16", "--r", "3", "--trials", "2"],
        ["verify", "matousek"],
        ["verify", "metric"],
    ],
    ids=["signed-metric", "matousek-harness", "dim-exponent", "verify-matousek", "verify-metric"],
)
def test_hop_metric_commands_load_no_scipy(argv):
    # hop metrics come from a numpy breadth-first search, and the exponent of
    # the l2 Bourgain cloud needs no distance matrix
    loaded = modules_after(f"from mdrlab.cli import main\nassert main({argv!r}) == 0")
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


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
    graph.write_text(json.dumps(graph_cycle(4).to_dict()))
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
