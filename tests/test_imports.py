"""Import budget: scipy subpackages other than ``special`` load only in the
commands that compute with them, so a top-level import cannot silently bring
back the cold-start cost of ``import mdrlab.cli``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    assert "scipy.special" in loaded
    assert sorted(loaded.intersection(HEAVY)) == []


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


def test_closed_form_command_loads_no_heavy_scipy():
    loaded = modules_after(
        "from mdrlab.cli import main\n"
        "assert main(['sigma-max', '--n', '7', '--k', '2', '--alpha', '2']) == 0"
    )
    assert sorted(loaded.intersection(HEAVY)) == []
