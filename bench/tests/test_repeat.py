"""For a fixed seed, the benchmark's counters and output digests repeat exactly.

Each workload runs three times through ``bench/run.py`` with ``--seconds 0``
(one pass): twice untraced and once traced.  A traced run also makes one
untraced pass first and fails if the two passes differ, so together these
compare two untraced runs, and traced against untraced, in fresh processes.

Run from the root of the checkout: ``python3 -m pytest bench/tests -q``
(several minutes; every run is a full benchmark run).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SEED = 7
COUNTERS = {
    "jl-transform": ("jl.jl_transform.large.attempts", "jl.jl_transform.simplex.attempts"),
    "coarse-metrics": ("matousek.gen_template.edges", "spectral.t_parameter.t_sum"),
    "c2-sdp": ("sdp.c2_sdp.structured.iterations", "sdp.c2_sdp.random.iterations"),
    "cli-cold": (),
}


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    report = next(line.split(" ", 1)[1] for line in lines if line.startswith("report "))
    return json.loads((ROOT / report).read_text())


@pytest.mark.parametrize("workload", sorted(COUNTERS))
def test_counters_and_digests_repeat(workload):
    first, second, traced = bench(workload, 0), bench(workload, 0), bench(workload, 1)
    for key in COUNTERS[workload]:
        assert first["counts"][key] > 0, key
    assert first["counts"] == second["counts"] == traced["counts"]
    assert first["digest"] == second["digest"] == traced["digest"]
