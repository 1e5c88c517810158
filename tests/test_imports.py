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


def test_gaussian_jl_dim_loads_integrate_not_stats():
    # scipy.integrate imports scipy.optimize (and scipy.spatial) itself, so
    # those come with the quadrature and are not part of this budget
    loaded = modules_after(
        "from mdrlab.cli import main\n"
        "assert main(['jl-dim', '--n', '1e9', '--alpha', '2', '--mode', 'gaussian']) == 0"
    )
    assert "scipy.integrate" in loaded
    assert "scipy.stats" not in loaded and "scipy.sparse.csgraph" not in loaded


def test_closed_form_command_loads_no_heavy_scipy():
    loaded = modules_after(
        "from mdrlab.cli import main\n"
        "assert main(['sigma-max', '--n', '7', '--k', '2', '--alpha', '2']) == 0"
    )
    assert sorted(loaded.intersection(HEAVY)) == []
