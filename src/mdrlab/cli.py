"""Command-line laboratory over the library modules.

Every command is deterministic given ``--seed`` (which defaults to a fixed
constant).  ``--threads`` (default: the ``MDRLAB_THREADS`` variable, else 1)
is reserved: it is accepted and must be a positive integer, but it has no
effect on anything.  Each subcommand maps its parsed options to a payload, a
dict or a list of row dicts; ``main`` emits that payload once, and ``sweep``
runs any subcommand over a grid through the same parser.  Numeric output is
printed with 12 significant digits.  Domain errors exit with code 2 and a
machine-readable JSON object on stderr; ``verify`` exits 1 when a property
suite fails.  A dimension search that certifies no k (``NoFeasibleK``) does
not change the exit code; each such warning is one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import jl, matousek, metric, moduli, sdp, spectral, verify
from .errors import BudgetInfeasible, MdrlabError, NoFeasibleK, RetriesExhausted, UnknownSuite

DEFAULT_SEED = 123456789


def _fmt(x) -> str:
    """One CSV cell: floats to 12 significant digits, lists and dicts as JSON."""
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, (list, dict)):
        return json.dumps(_round_floats(x))
    return str(x)


def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _rows(payload) -> list:
    """A list payload is its own rows; a dict is one row."""
    return payload if isinstance(payload, list) else [payload]


def _emit(payload, fmt: str, out: str | None):
    """Write the payload as JSON, or as CSV rows."""
    if fmt == "csv":
        rows = _rows(payload)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header])
        text = buf.getvalue()
    else:
        text = json.dumps(_round_floats(payload), indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": code, "message": message}) + "\n")
    return 2


def _run(args):
    """Run the subcommand; each NoFeasibleK it warns is one JSON object on stderr."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NoFeasibleK)
            return args.func(args)
    finally:
        for w in caught:
            if issubclass(w.category, NoFeasibleK):
                sys.stderr.write(json.dumps({"warning": "NoFeasibleK", "message": str(w.message)}) + "\n")
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, line=w.line)


def _parse_real(text: str) -> float:
    """Float parser that rejects nan and the infinities."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return v


def _parse_count(text: str) -> int:
    """Integer parser accepting scientific notation (1e9)."""
    v = _parse_real(text)
    if v <= 0 or v != int(v):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(v)


def _parse_seed(text: str) -> int:
    """Integer parser for ``--seed``: numpy accepts only non-negative seeds."""
    try:
        if (v := int(text)) >= 0:
            return v
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")


def _load_metric(path: str) -> metric.FiniteMetric:
    with open(path, encoding="utf-8") as fh:
        return metric.FiniteMetric.from_json(fh.read())


def _load_cloud(path: str) -> metric.PointCloud:
    with open(path, encoding="utf-8") as fh:
        return metric.PointCloud.from_json(fh.read())


def _load_chain(path: str) -> spectral.ReversibleChain:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    obj = json.loads(text)
    if "edges" in obj:
        return spectral.chain_from_graph(spectral.WeightedGraph.from_json(text))
    return spectral.ReversibleChain.from_json(text)


def _mode(arg: str) -> str:
    return {"haar": "haar_projection", "gaussian": "scaled_gaussian"}.get(arg, arg)


# ---------------------------------------------------------------- commands


def cmd_jl_dim(args):
    plan = jl.make_plan(args.n, args.alpha, _mode(args.mode))
    payload = {"n": args.n, "alpha": args.alpha, "mode": args.mode, "k": plan.k}
    if plan.mode == "scaled_gaussian" or plan.k <= args.n - 4:
        # the trivial k = n - 1 fallback has no haar certificate
        payload.update(
            sigma=plan.sigma,
            success_prob=plan.success_prob,
            failure_prob=plan.failure_prob,
            union_bound=plan.union_bound,
        )
    return payload


def cmd_jl_project(args):
    cloud = _load_cloud(args.cloud)
    res = jl.jl_transform(
        cloud, args.alpha, _mode(args.mode), seed=args.seed, max_retries=args.max_retries, k=args.k
    )
    payload = {
        "k": res.plan.k,
        "sigma": res.plan.sigma,
        "mode": args.mode,
        "attempts": res.attempts,
        "success": res.success,
        "measured_distortion": res.measured_distortion,
        "failure_prob": res.plan.failure_prob,
        "union_bound": res.plan.union_bound,
        "coords": res.cloud.coords.tolist(),
    }
    return payload


def cmd_psi(args):
    est = jl.psi(args.n, args.k, args.alpha, args.sigma)
    payload = {
        "n": args.n,
        "k": args.k,
        "alpha": args.alpha,
        "sigma": args.sigma,
        "psi": est.value,
        "method": est.method,
    }
    return payload


def cmd_sigma_max(args):
    payload = {
        "n": args.n,
        "k": args.k,
        "alpha": args.alpha,
        "sigma_max": jl.sigma_max(args.n, args.k, args.alpha),
    }
    return payload


def cmd_distortion(args):
    src = _load_metric(args.source)
    dst = _load_metric(args.target)
    mapping = json.loads(args.map) if args.map else list(range(src.n))
    return dataclasses.asdict(metric.distortion(src, dst, mapping))


def cmd_frechet(args):
    m = _load_metric(args.metric)
    cloud = metric.frechet_embed(m)
    return json.loads(cloud.to_json())


def cmd_bourgain(args):
    m = _load_metric(args.metric)
    cloud = metric.bourgain_embed(m, args.seed)
    rep = metric.distortion(m, cloud.to_metric(), list(range(m.n)))
    payload = json.loads(cloud.to_json())
    payload["measured_distortion"] = rep.distortion
    return payload


def cmd_snowflake(args):
    m = _load_metric(args.metric)
    return json.loads(metric.snowflake(m, args.theta).to_json())


def cmd_doubling(args):
    m = _load_metric(args.metric)
    payload = {"n": m.n, "mode": args.mode, "K": metric.doubling_constant(m, args.mode)}
    if args.alpha is not None:
        payload["dim_lower_bound"] = metric.doubling_dim_lower_bound(m, args.alpha)
        payload["alpha"] = args.alpha
    return payload


def cmd_c2_sdp(args):
    m = _load_metric(args.metric)
    b = sdp.c2_bracket(m, tol=args.tol)
    return {
        "alpha": b.hi,
        "lo": b.lo,
        "hi": b.hi,
        "status": b.status,
        "iterations": b.iterations,
        "Q": b.witness.Q.tolist(),
    }


def cmd_certificate(args):
    m = _load_metric(args.metric)
    if not args.search and args.cert is None:
        raise ValueError("provide --cert FILE or --search")
    if args.search:
        cert = sdp.find_violating_certificate(m, args.alpha, seed=args.seed)
        if cert is None:
            return {"found": False, "alpha": args.alpha}
    else:
        with open(args.cert, encoding="utf-8") as fh:
            cert = sdp.NegativeTypeCertificate(np.asarray(json.loads(fh.read())["A"], dtype=float))
    holds, lhs, rhs = sdp.check_certificate(m, cert, args.alpha)
    payload = {"alpha": args.alpha, "holds": holds, "lhs": lhs, "rhs": rhs}
    if args.search:
        payload = {"found": True, **payload, "A": cert.A.tolist()}
    return payload


def cmd_gamma(args):
    chain = _load_chain(args.chain)
    payload = {"lambda2": spectral.lambda2(chain), "gamma_hilbert": spectral.gamma_hilbert(chain)}
    if args.metric:
        m = _load_metric(args.metric)
        payload["gamma_bruteforce"] = spectral.gamma_bruteforce(chain, m, args.p)
        payload["p"] = args.p
    return payload


def cmd_rayleigh(args):
    chain = _load_chain(args.chain)
    m = _load_metric(args.metric)
    assignment = json.loads(args.assignment)
    x = spectral.Configuration(m, assignment)
    payload = {"p": args.p, "rayleigh": spectral.rayleigh(x, chain, args.p)}
    return payload


def cmd_t_param(args):
    chain = _load_chain(args.chain)
    cloud = _load_cloud(args.cloud)
    x = spectral.Configuration(cloud)
    _, d = spectral.hilbert_companion(cloud)
    t, achieved = spectral.t_parameter(x, chain, d, args.cap)
    val, _ = spectral.power_expander_check(x, chain, d, args.cap)
    payload = {
        "d": d,
        "t": t,
        "hilbert_rayleigh": achieved,
        "power_rayleigh_x": val,
    }
    return payload


def cmd_dim_exponent(args):
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.trials):
        gseed, bseed = rng.integers(0, 2**63 - 1, size=2)
        g = spectral.random_regular_graph(args.n, args.r, gseed)
        chain = spectral.chain_from_graph(g)
        path_metric = g.shortest_path_metric()
        cloud = metric.bourgain_embed(path_metric, bseed)
        alpha_hat, exponent = spectral.dim_lower_exponent(cloud, chain)
        rows.append(
            {
                "n": args.n,
                "r": args.r,
                "seed": int(gseed),
                "lambda2": spectral.lambda2(chain),
                "alpha_hat": alpha_hat,
                "exponent": exponent,
            }
        )
    return rows


def cmd_cheeger(args):
    chain = _load_chain(args.chain)
    cut, cond = spectral.cheeger_sweep(chain)
    lam = spectral.lambda2(chain)
    payload = {
        "cut": list(cut),
        "conductance": cond,
        "lambda2": lam,
        "cheeger_bound": math.sqrt(2 * (1 - lam)),
    }
    return payload


def cmd_regular_graph(args):
    g = spectral.random_regular_graph(args.n, args.r, args.seed)
    payload = json.loads(g.to_json())
    payload["lambda2"] = spectral.lambda2(spectral.chain_from_graph(g))
    return payload


def cmd_markov_convexity(args):
    with open(args.spec, encoding="utf-8") as fh:
        obj = json.load(fh)
    m = metric.build_metric(np.asarray(obj["dist"], dtype=float))
    spec = spectral.MarkovChainSpec(
        np.asarray(obj["transition"], float),
        np.asarray(obj["initial"], float),
        int(obj["horizon"]),
        m,
        np.asarray(obj["point_map"], int),
        float(obj.get("q", 2.0)),
    )
    est = spectral.markov_convexity_ratio(spec, samples=args.samples, seed=args.seed, method=args.method)
    return dataclasses.asdict(est)


def cmd_matousek_gen(args):
    t = matousek.gen_template(args.n, args.g, args.seed)
    payload = json.loads(t.to_json())
    payload.update(girth=t.girth if math.isfinite(t.girth) else "inf",
                   edges_count=t.edge_count, density_ratio=t.density_ratio)
    return payload


def cmd_signed_metric(args):
    rng = np.random.default_rng(args.seed)
    template = matousek.gen_template(args.n, args.g, rng.integers(2**63 - 1))
    signs = matousek.random_signs(template, rng.integers(2**63 - 1))
    sm = matousek.signed_metric(template, signs, matousek.SignedMetricParams(args.s, args.T))
    payload = json.loads(sm.to_json())
    payload["min_fork_dist"] = matousek.min_fork_distance(sm, args.n)
    return payload


def cmd_matousek_harness(args):
    return matousek.experiment_harness(
        args.n, args.g, args.s, args.T, args.trials, args.seed, alpha=args.alpha
    )


def cmd_beta(args):
    if args.family == "bilipschitz":
        pair = moduli.ModulusPair.bi_lipschitz(args.alpha)
    else:
        pair = moduli.ModulusPair.snowflake(args.alpha, args.theta)
    beta = moduli.beta_modulus(pair)
    payload = {"family": args.family, "alpha": args.alpha, "theta": args.theta, "beta": beta}
    if args.n_points:
        payload["dim_exponent"] = moduli.coarse_dim_exponent(args.n_points, pair)
        payload["n_points"] = args.n_points
    return payload


def cmd_pipeline(args):
    m = _load_metric(args.metric)
    rng = np.random.default_rng(args.seed)
    cloud = metric.bourgain_embed(m, rng.integers(2**63 - 1))
    rep = metric.distortion(m, cloud.to_metric(), list(range(m.n)))
    alpha1 = rep.distortion
    if args.alpha_total <= alpha1:
        raise BudgetInfeasible(
            f"total budget {args.alpha_total} does not exceed the Euclidean stage distortion {alpha1:.6g}"
        )
    budget = args.alpha_total / alpha1
    n = m.n
    k = jl.jl_min_dim_projection(n, budget) if n >= 5 else n - 1
    if k >= n - 1:
        # reduction cannot beat the trivial dimension: n points span at most
        # n - 1 dimensions, so the Bourgain image has an isometric copy there
        dimension, attempts, end_to_end = n - 1, 0, alpha1
    else:
        res = jl.jl_transform(
            cloud, budget, "haar_projection", seed=rng.integers(2**63 - 1), max_retries=args.max_retries, k=k
        )
        if not res.success:
            raise RetriesExhausted(f"no successful draw in {res.attempts} attempts")
        dimension, attempts = res.plan.k, res.attempts
        end_to_end = metric.distortion(m, res.cloud.to_metric(), list(range(n))).distortion
    payload = {
        "n": n,
        "bourgain_distortion": alpha1,
        "jl_budget": budget,
        "dimension": dimension,
        "attempts": attempts,
        "end_to_end_distortion": end_to_end,
        "alpha_total": args.alpha_total,
        "within_budget": end_to_end <= args.alpha_total,
    }
    return payload


def cmd_volumetric(args):
    k_min = metric.volumetric_lower_bound(args.n, args.alpha)
    return {"n": args.n, "alpha": args.alpha, "k_min": k_min}


def _option_argv(options: dict) -> list:
    """Sweep options as argv: ``n_points`` -> ``--n-points``, true -> bare flag, false omitted."""
    argv = []
    for key, value in options.items():
        if value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append(json.dumps(value) if isinstance(value, list) else str(value))
    return argv


class _CellParser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so one bad cell does not end a sweep.

    It has no ``--help``, which would print to stdout and exit mid-sweep.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **{**kwargs, "add_help": False})

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def cmd_sweep(args):
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    if spec["command"] == "sweep":
        raise ValueError("a sweep cannot run sweep")
    grid = spec.get("grid", {})
    keys = sorted(grid.keys())
    if bad := [k for k in keys if not isinstance(grid[k], list) or not grid[k]]:
        raise ValueError(f"grid axis {bad[0]!r} must be a non-empty list")
    head = [spec["command"], "--seed", str(int(spec.get("seed", args.seed)))]
    parser = build_parser(_CellParser)
    rows = []
    for combo in itertools.product(*(grid[k] for k in keys)):
        cell = dict(zip(keys, combo))
        try:
            cell_args = parser.parse_args(head + _option_argv({**spec.get("args", {}), **cell}))
            payload = cell_args.func(cell_args)
            rows += [{**row, **cell, "error": ""} for row in _rows(payload)]
        except Exception as exc:  # per-cell failures recorded, run continues
            rows.append({**cell, "error": f"{type(exc).__name__}: {exc}"})
    header = sorted({k for r in rows for k in r})
    return [{k: r.get(k, "") for k in header} for r in rows]


def cmd_verify(args):
    if args.suite not in verify.SUITES:
        raise UnknownSuite(f"suite must be one of {verify.SUITES}")
    return verify.run_suite(args.suite, seed=args.seed)


# ---------------------------------------------------------------- parser


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    ap = parser_class(prog="mdrlab", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_parse_seed, default=None, help="global RNG seed (fixed default)")
    common.add_argument(
        "--threads", type=int, default=None,
        help="reserved: must be >= 1 (default $MDRLAB_THREADS, else 1); has no effect",
    )
    common.add_argument("--out", default=None, help="write output to this path instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, func, summary):
        p = sub.add_parser(name, parents=[common], help=summary)
        p.set_defaults(func=func)
        return p

    p = add("jl-dim", cmd_jl_dim, "minimal certified JL dimension")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--alpha", type=_parse_real, required=True)
    p.add_argument("--mode", choices=("haar", "gaussian"), default="gaussian")

    p = add("jl-project", cmd_jl_project, "apply a JL transform to a point cloud")
    p.add_argument("--cloud", required=True)
    p.add_argument("--alpha", type=_parse_real, required=True)
    p.add_argument("--mode", choices=("haar", "gaussian"), default="haar")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max-retries", type=_parse_count, default=64)

    p = add("psi", cmd_psi, "success probability of the rotation transform")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--k", type=_parse_count, required=True)
    p.add_argument("--alpha", type=_parse_real, required=True)
    p.add_argument("--sigma", type=_parse_real, required=True)

    p = add("sigma-max", cmd_sigma_max, "optimal scaling factor")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--k", type=_parse_count, required=True)
    p.add_argument("--alpha", type=_parse_real, required=True)

    p = add("distortion", cmd_distortion, "distortion of an index map between metrics")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", default=None, help="JSON list; identity by default")

    p = add("frechet", cmd_frechet, "isometric l-infinity embedding")
    p.add_argument("--metric", required=True)

    p = add("bourgain", cmd_bourgain, "randomized Euclidean embedding")
    p.add_argument("--metric", required=True)

    p = add("snowflake", cmd_snowflake, "entrywise power of a metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--theta", type=_parse_real, required=True)

    p = add("doubling", cmd_doubling, "doubling constant and dimension bound")
    p.add_argument("--metric", required=True)
    p.add_argument("--mode", choices=("exact", "greedy"), default="greedy")
    p.add_argument("--alpha", type=_parse_real, default=None)

    p = add("c2-sdp", cmd_c2_sdp, "Euclidean distortion as a checked bracket [lo, hi]")
    p.add_argument("--metric", required=True)
    p.add_argument("--tol", type=_parse_real, default=1e-4, help="target width hi - lo of the bracket")

    p = add("certificate", cmd_certificate, "check or search negative-type certificates")
    p.add_argument("--metric", required=True)
    p.add_argument("--alpha", type=_parse_real, required=True)
    p.add_argument("--cert", default=None, help='JSON file {"A": [[...]]}')
    p.add_argument("--search", action="store_true", help="search for a violating certificate (deterministic)")

    p = add("gamma", cmd_gamma, "spectral gap reciprocals")
    p.add_argument("--chain", required=True, help="chain or graph JSON")
    p.add_argument("--metric", default=None, help="enables brute-force nonlinear gamma")
    p.add_argument("--p", type=_parse_real, default=2.0)

    p = add("rayleigh", cmd_rayleigh, "nonlinear Rayleigh quotient")
    p.add_argument("--chain", required=True)
    p.add_argument("--metric", required=True)
    p.add_argument("--assignment", required=True, help="JSON list of point indices")
    p.add_argument("--p", type=_parse_real, default=2.0)

    p = add("t-param", cmd_t_param, "lazy-power Hilbert threshold parameter")
    p.add_argument("--chain", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--cap", type=int, default=4096)

    p = add("dim-exponent", cmd_dim_exponent, "expander dimension exponent survey")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--r", type=_parse_count, required=True)
    p.add_argument("--trials", type=_parse_count, default=1)

    p = add("cheeger", cmd_cheeger, "sweep cut and conductance")
    p.add_argument("--chain", required=True)

    p = add("regular-graph", cmd_regular_graph, "random regular graph by the pairing model")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--r", type=_parse_count, required=True)

    p = add("markov-convexity", cmd_markov_convexity, "fork-vs-path convexity ratio")
    p.add_argument("--spec", required=True, help="JSON chain/metric spec file")
    p.add_argument("--samples", type=_parse_count, default=10000)
    p.add_argument("--method", choices=("auto", "dp", "mc"), default="auto")

    p = add("matousek-gen", cmd_matousek_gen, "girth-constrained bipartite template")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--g", type=_parse_count, required=True)

    p = add("signed-metric", cmd_signed_metric, "coin-flip truncated shortest-path metric")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--g", type=_parse_count, required=True)
    p.add_argument("--s", type=_parse_real, required=True)
    p.add_argument("--T", type=_parse_real, required=True)

    p = add("matousek-harness", cmd_matousek_harness, "sampled-metric survey rows")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--g", type=_parse_count, required=True)
    p.add_argument("--s", type=_parse_real, required=True)
    p.add_argument("--T", type=_parse_real, required=True)
    p.add_argument("--trials", type=_parse_count, default=10)
    p.add_argument("--alpha", type=_parse_real, default=1.0)

    p = add("beta", cmd_beta, "coarse modulus exponent")
    p.add_argument("--family", choices=("bilipschitz", "snowflake"), default="bilipschitz")
    p.add_argument("--alpha", type=_parse_real, required=True)
    p.add_argument("--theta", type=_parse_real, default=1.0)
    p.add_argument("--n-points", type=_parse_count, default=None)

    p = add("volumetric", cmd_volumetric, "simplex-packing dimension lower bound")
    p.add_argument("--n", type=_parse_count, required=True)
    p.add_argument("--alpha", type=_parse_real, required=True)

    p = add("pipeline", cmd_pipeline, "Bourgain-embed then JL-reduce")
    p.add_argument("--metric", required=True)
    p.add_argument("--alpha-total", type=_parse_real, required=True)
    p.add_argument("--max-retries", type=_parse_count, default=64)

    p = add("sweep", cmd_sweep, "cross-product runner over a parameter grid")
    p.add_argument("--spec", required=True, help="JSON sweep spec")

    p = add("verify", cmd_verify, "run a module property suite")
    p.add_argument("suite")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEED
    try:
        threads = int(os.environ.get("MDRLAB_THREADS", "1")) if args.threads is None else args.threads
    except ValueError:
        threads = 0
    if threads < 1:
        return _fail("DomainError", "thread count must be >= 1")
    try:
        payload = _run(args)
        _emit(payload, "csv" if args.func is cmd_sweep else args.format, args.out)
    except (MdrlabError, OverflowError, ValueError, TypeError, KeyError, OSError) as exc:
        return _fail(type(exc).__name__, str(exc))
    return 1 if args.func is cmd_verify and not payload["ok"] else 0


if __name__ == "__main__":
    sys.exit(main())
