"""mdrlab benchmark: time each layer's public functions and the CLI from outside.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-cold, jl-transform, coarse-metrics and c2-sdp, described in
bench/workloads.py and, with the reason for each, in BENCHMARK.json.  Every
process runs with OpenBLAS and OpenMP pinned to one thread.  An untraced
run (``--trace 0``) reports the end-to-end metrics; a traced run
(``--trace 1``) records a span around every library call the benchmark makes
and reports the per-layer metrics, with the tracing overhead (one traced pass
minus one untraced pass).  Metric names and units come from BENCHMARK.json.
A human-readable report precedes the result; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
report (environment, counters, output digest) and the spans, as JSON lines,
are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from proc import ROOT, SRC, THREAD_ENV, run_child, run_cli

os.environ.update(THREAD_ENV)  # before numpy loads OpenBLAS

# Cold-start samples per run: an import-only interpreter (setup_s) and, on the
# in-process workloads, one run of the workload's CLI command (cmd_p50_s).  The
# machine's speed drifts over tens of seconds to minutes, so the rounds are split
# between before and after the measured passes.
ROUNDS_BEFORE, ROUNDS_AFTER = 2, 2
IMPORT_MODULES = ("mdrlab", "scipy.stats", "scipy.integrate", "scipy.special", "numpy")
OUT_DIR = ROOT / ".bench_out"


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")


def import_library():
    """Import mdrlab from this checkout's sources, never from an installed copy."""
    if not (SRC / "mdrlab" / "__init__.py").is_file():
        fail(f"no mdrlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mdrlab

    if Path(mdrlab.__file__).resolve().parent != (SRC / "mdrlab").resolve():
        fail(f"mdrlab resolved to {mdrlab.__file__}, not this checkout")
    return mdrlab


def environment(mdrlab) -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = out.stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "mdrlab": mdrlab.__version__,
        "git_commit": commit,
        "thread_env": dict(THREAD_ENV),
    }


def wall_of(res, tag: str) -> float:
    """Wall time of a child that must succeed; a failing set-up child ends the run."""
    if res.code != 0:
        fail(f"{tag} child exited {res.code}: {res.stderr.decode(errors='replace')[-400:]}")
    return res.wall_s


def cold_samples(rounds: int, entry, command, workdir: Path, tag: str, setup: list, cmd: list) -> None:
    """Alternate import-only interpreters of ``entry`` (setup_s) with runs of the CLI ``command``.

    Either may be None, and is then skipped.
    """
    for i in range(rounds):
        if entry:
            setup.append(wall_of(run_child(("-c", f"import {entry}"), workdir, f"{tag}-setup{i}"), "setup"))
        if command:
            cmd.append(wall_of(run_cli(command[1], workdir, f"{tag}-cmd{i}"), command[0]))


def import_times(workdir: Path, entry: str) -> dict:
    """Cumulative ``-X importtime`` seconds of the watched modules in one fresh child.

    scipy loads some subpackages lazily, and then ``-X importtime`` prints no
    line for the package itself; its time is the sum over its outermost
    submodule lines instead.
    """
    res = run_child(("-X", "importtime", "-c", f"import {entry}"), workdir, "importtime")
    if res.code != 0:
        fail("importtime child failed")
    lines = []  # (depth, module, cumulative seconds)
    for line in res.stderr.decode().splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$", line)
        if m:
            lines.append((len(m.group(2)), m.group(3), int(m.group(1)) / 1e6))
    out = {}
    for name in IMPORT_MODULES:
        exact = [cum for _, mod, cum in lines if mod == name]
        subs = [(depth, cum) for depth, mod, cum in lines if mod.startswith(name + ".")]
        top = min((depth for depth, _ in subs), default=None)
        out[f"import.{name}_cum_s"] = exact[0] if exact else sum(c for d, c in subs if d == top)
    return out


class Traced:
    """Spans around public functions that other public functions call.

    ``experiment_harness`` looks up ``doubling_dim_lower_bound`` on the metric
    module at call time, so wrapping the module attribute records it as a
    child span of the harness without touching library code.
    """

    NESTED = (("metric", "doubling_dim_lower_bound"),)

    def __init__(self, mdrlab, tracer):
        self.targets = [(getattr(mdrlab, mod), mod, fn) for mod, fn in self.NESTED]
        self.tracer = tracer

    def __enter__(self):
        self.saved = []
        for module, mod, fn in self.targets:
            orig = getattr(module, fn)
            self.saved.append((module, fn, orig))

            def wrapped(*args, _orig=orig, _name=f"{mod}.{fn}", **kwargs):
                with self.tracer.span(_name):
                    return _orig(*args, **kwargs)

            setattr(module, fn, wrapped)
        return self

    def __exit__(self, *exc):
        for module, fn, orig in self.saved:
            setattr(module, fn, orig)


def run_passes(workload, inputs, tracer, seconds: float, workloads):
    """Repeat the task list until ``seconds`` have passed (at least once)."""
    passes = []
    t_start = time.perf_counter()
    while not passes or time.perf_counter() - t_start < seconds:
        p = workloads.Pass(tracer)
        t0 = time.perf_counter()
        with tracer.span("pass"):
            workload.run(inputs, p)
        p.wall_s = time.perf_counter() - t0
        passes.append(p)
    return passes


def layer_metrics(spans: dict, passes, children: dict, importtimes: dict, floor_s: float,
                  names: list, workloads) -> dict:
    """Per-layer values for one traced pass; layers the workload never calls read 0."""

    def busy(name):
        return spans.get(name, {}).get("busy_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    p = passes[-1]
    counts = p.counts
    out = dict(importtimes)
    out["cli.import_floor_s"] = floor_s
    for label, walls in children.items():
        out[f"cli.{label}.p50_s"] = statistics.median(walls)
    large_att = counts.get("jl.jl_transform.large.attempts", 0)
    simplex_att = counts.get("jl.jl_transform.simplex.attempts", 0)
    iters = {k: counts.get(f"sdp.c2_sdp.{k}.iterations", 0) for k in ("structured", "random")}
    out.update({
        "jl.jl_transform.large.busy_s": busy("jl.jl_transform.large"),
        "jl.jl_transform.large.calls": calls("jl.jl_transform.large"),
        "jl.jl_transform.large.attempts": large_att,
        "jl.jl_transform.large.s_per_attempt": busy("jl.jl_transform.large") / large_att if large_att else 0.0,
        "jl.jl_transform.large.bytes_computed": counts.get("jl.jl_transform.large.bytes_computed", 0),
        "jl.jl_transform.simplex.busy_s": busy("jl.jl_transform.simplex"),
        "jl.jl_transform.simplex.attempts": simplex_att,
        "jl.jl_transform.simplex.success_per_attempt":
            counts.get("jl.jl_transform.simplex.successes", 0) / simplex_att if simplex_att else 0.0,
        "matousek.gen_template.edges": counts.get("matousek.gen_template.edges", 0),
        "spectral.t_parameter.t_sum": counts.get("spectral.t_parameter.t_sum", 0),
        "sdp.c2_sdp.structured.iterations": iters["structured"],
        "sdp.c2_sdp.random.iterations": iters["random"],
        "sdp.c2_sdp.s_per_iteration":
            (busy("sdp.c2_sdp.structured") + busy("sdp.c2_sdp.random")) / sum(iters.values())
            if sum(iters.values()) else 0.0,
        "bench.pass.self_s": spans.get("pass", {}).get("self_s", 0.0),
        "trace.spans": sum(s["calls"] for s in spans.values()),
    })
    for layer in workloads.LAYERS:
        out[f"{layer}.errors"] = p.errors.get(layer, 0)
        in_layer = [s for n, s in spans.items() if n.startswith(layer + ".")]
        out[f"{layer}.busy_s"] = sum((s["busy_s"] for s in in_layer), 0.0)
        out[f"{layer}.self_s"] = sum((s["self_s"] for s in in_layer), 0.0)
        out[f"{layer}.calls"] = sum(s["calls"] for s in in_layer)
    for name in names:
        if name not in out and name.endswith(".busy_s"):
            out[name] = busy(name[: -len(".busy_s")])
        elif name not in out and name.startswith("cli.") and name.endswith(".p50_s"):
            out[name] = 0.0  # a command this workload does not run
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    mdrlab = import_library()
    # Cold starts below should read cached bytecode, as an installed package does.
    compileall.compile_dir(str(SRC / "mdrlab"), quiet=1)

    import spans as spans_mod
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(mdrlab)}
    try:
        inputs = workload.prepare(args.seed, workdir)
        metrics = {}
        if args.trace:
            tracer = spans_mod.Tracer(run_id, enabled=True)
            untraced = run_passes(workload, inputs, spans_mod.Tracer(run_id, False), 0, workloads)
            with Traced(mdrlab, tracer):
                passes = run_passes(workload, inputs, tracer, 0, workloads)
            passes = untraced + passes
            children = {}
            for p in passes:
                for label, res in p.children:
                    children.setdefault(label, []).append(res.wall_s)
            if inputs["command"]:
                cold_samples(ROUNDS_BEFORE + ROUNDS_AFTER, None, inputs["command"], workdir, "cold",
                             [], children.setdefault(inputs["command"][0], []))
            floor = wall_of(run_child(("-c", "import numpy, scipy.special"), workdir, "floor"), "floor")
            values = layer_metrics(tracer.summary(), passes, children, import_times(workdir, workload.entry),
                                   floor, [m["name"] for m in wanted], workloads)
            values["trace.wall_s"] = passes[-1].wall_s
            values["trace.untraced_wall_s"] = passes[0].wall_s
            values["trace.overhead_s"] = passes[-1].wall_s - passes[0].wall_s
            spans_path = OUT_DIR / f"spans-{run_id}.jsonl"
            tracer.write_jsonl(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            setup_walls, cmd_walls = [], []
            cold_samples(ROUNDS_BEFORE, workload.entry, inputs["command"], workdir, "before", setup_walls, cmd_walls)
            passes = run_passes(workload, inputs, spans_mod.Tracer(run_id, False), args.seconds, workloads)
            cold_samples(ROUNDS_AFTER, workload.entry, inputs["command"], workdir, "after", setup_walls, cmd_walls)
            if inputs["command"]:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                cmd_walls = [res.wall_s for p in passes for _, res in p.children]
                peak_rss = max(res.peak_rss_mb for p in passes for _, res in p.children)
            values = {
                "setup_s": statistics.median(setup_walls),
                "wall_s": statistics.median(p.wall_s for p in passes),
                "cmd_p50_s": statistics.median(cmd_walls),
                "peak_rss_mb": peak_rss,
            }
            report["samples"] = {"setup_s": setup_walls, "wall_s": [p.wall_s for p in passes],
                                 "cmd_p50_s": cmd_walls}
        for m in wanted:
            if m["name"] not in values:
                fail(f"metric {m['name']} was not measured")
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = passes[0]
    failures = [f for p in passes for f in p.failures]
    for p in passes[1:]:
        if p.digest != first.digest or p.counts != first.counts:
            failures.append("outputs or counters differ between passes of one run")
    attempted = sum(p.attempted for p in passes)
    report.update(
        passes=len(passes), attempted=attempted, failures=failures, counts=first.counts,
        digest=first.digest, metrics=metrics,
    )
    report_path = OUT_DIR / f"report-{run_id}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    _print_report(report, report_path)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


def _print_report(report: dict, path: Path) -> None:
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"passes {report['passes']}  operations {report['attempted']}  failed {len(report['failures'])}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for f in report["failures"]:
        print(f"FAILED {f}")
    if "samples" in report:
        s = report["samples"]
        print(f"samples: setup_s n={len(s['setup_s'])}, wall_s n={len(s['wall_s'])}, cmd_p50_s n={len(s['cmd_p50_s'])}")
    for name, m in report["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    if "trace.overhead_s" in report["metrics"]:
        print(f"tracing overhead: {report['metrics']['trace.overhead_s']['value']:+.4f} s "
              "(traced wall_s minus untraced wall_s, one pass each)")
    print(f"output digest {report['digest']}")
    print(f"report {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
