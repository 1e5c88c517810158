"""Child processes for the benchmark: one at a time, timed, with their own peak RSS."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS and OpenMP pools pinned to one thread in the benchmark process and every child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CLI_MAIN = "import sys; from mdrlab.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class ChildResult:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(args, workdir: Path, tag: str, timeout: float = 120.0) -> ChildResult:
    """Run ``python3 <args>`` from the checkout root and wait for it to end.

    Output goes to files under ``workdir`` (no pipes to drain), and the
    child's own peak RSS comes from ``wait4``.  Wall time runs from just
    before the fork until the child has been reaped.
    """
    argv = (sys.executable, *args)
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def run_cli(cli_args, workdir: Path, tag: str) -> ChildResult:
    """One ``mdrlab`` invocation, exactly as the installed console script runs it."""
    return run_child(("-c", CLI_MAIN, *cli_args), workdir, tag)
