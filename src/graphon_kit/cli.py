"""Command-line entry point: sample, estimate, distance, experiment, oracle.

Conventions
-----------
- results go to stdout (or --out) as JSON/CSV; diagnostics to stderr
- every run prints the resolved seed to stderr
- exit codes: 0 success, 2 usage error, 3 infeasible size, 4 numeric or
  integrability error
- GRAPHON_KIT_THREADS caps worker pools (0 or unset = auto)
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .common import (ConstructionError, DegenerateError, DomainError,
                     GraphonKitError, IntegrabilityError, ParameterError,
                     SizeError)
from .estimators import (degree_sorting, least_cut_exact, least_cut_search,
                         least_squares_exact, least_squares_search)
from .experiments import ExperimentConfig, run_experiment
from .graphon import (BlockModel, graphon_from_json, holder_rates,
                      oracle_error_step, power_law_rates, round_to_grid,
                      tail_rho)
from .metrics import (CUT_EXACT_MAX_N, cut_norm_exact, cut_norm_lower,
                      degree_cdf_of_degrees, delta_p_step, hat_delta_cut, hat_delta_p,
                      hat_delta_p_vs_graphon, levy_prokhorov, matrix_lp)
from .sampling import (as_matrix, generate_sample, read_edges, read_matrix,
                       write_latent, write_ssm)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_NUMERIC = 4


def _load_graphon(path: str):
    with open(path, encoding="utf-8") as fh:
        return graphon_from_json(json.load(fh))


def _load_step_model(path: str) -> BlockModel:
    W = _load_graphon(path)
    model = getattr(W, "model", None)
    if not isinstance(model, BlockModel):
        raise ParameterError(f"{path}: expected a step (block model) graphon")
    return model


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_seed(seed: int) -> None:
    print(f"seed: {seed}", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> int:
    W = _load_graphon(args.graphon)
    _print_seed(args.seed)
    sample = generate_sample(W, args.n, args.rho, args.seed,
                             with_q=args.emit_q is not None)
    write_ssm(args.out, sample.G)
    if args.emit_q:
        write_ssm(args.emit_q, sample.Q)
    if args.emit_latent:
        write_latent(args.emit_latent, np.asarray(sample.latent))
    print(f"wrote {args.out} (n={args.n}, rho={args.rho})", file=sys.stderr)
    return EXIT_OK


_ALGOS = {
    ("ls", "exact"): lambda A, a: least_squares_exact(A, a.kappa),
    ("ls", "search"): lambda A, a: least_squares_search(A, a.kappa,
                                                        a.restarts, a.seed),
    ("cut", "exact"): lambda A, a: least_cut_exact(A, a.kappa),
    ("cut", "search"): lambda A, a: least_cut_search(A, a.kappa,
                                                     a.restarts, a.seed),
    "degsort": lambda A, a: degree_sorting(A, a.k),   # the same in both modes
}


def _cmd_estimate(args) -> int:
    if args.algo in ("ls", "cut") and args.kappa is None:
        raise ParameterError("--kappa is required for --algo ls|cut")
    if args.algo == "degsort" and args.k is None:
        raise ParameterError("--k is required for --algo degsort")
    _print_seed(args.seed)
    if args.algo == "degsort":
        A = read_edges(args.infile).csr()
    else:
        A = as_matrix(read_matrix(args.infile))
    res = (_ALGOS.get(args.algo) or _ALGOS[(args.algo, args.mode)])(A, args)
    B = res.what.B
    doc = {
        "p": res.what.p.tolist(),
        "b_upper": B[np.triu_indices(B.shape[0])].tolist(),
        "assignment": res.partition.assign.tolist(),
        "objective": res.objective,
        "mode": res.mode,
        "diagnostics": res.diagnostics,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _path_b(args) -> str:
    if not args.b:
        raise ParameterError(f"--kind {args.kind} requires --b")
    return args.b


def _distance_record(args):
    kind, mode, p, seed = args.kind, args.mode, args.p, args.seed
    caveat = None
    certificate = None
    if kind == "delta-step":
        m1, m2 = _load_step_model(args.a), _load_step_model(args.b)
        value, coupling = delta_p_step(m1, m2, p, seed=seed)
        certificate = {"coupling": coupling.nu.tolist()}
        caveat = "upper bound (best coupling found)"
        return value, certificate, "search", caveat
    if kind == "lp-levy":
        mine = degree_cdf_of_degrees(read_edges(args.a).degrees())
        if args.graphon:
            from .experiments import analytic_degree_cdf
            other = analytic_degree_cdf(_load_graphon(args.graphon))
        else:
            other = degree_cdf_of_degrees(read_edges(_path_b(args)).degrees())
        return levy_prokhorov(mine, other), None, "exact", None
    A = as_matrix(read_matrix(args.a))
    if kind == "lp-vs-graphon":
        if not args.graphon:
            raise ParameterError("--kind lp-vs-graphon requires --graphon")
        W = _load_graphon(args.graphon)
        value, sigma = hat_delta_p_vs_graphon(A, W, p, mode=mode, seed=seed)
        if mode == "heuristic":
            caveat = "upper bound (heuristic vertex alignment)"
        return value, {"permutation": np.asarray(sigma).tolist()}, mode, caveat
    B = as_matrix(read_matrix(_path_b(args)))
    if A.shape != B.shape:
        raise ParameterError("matrices must have the same size")
    if kind == "lp":
        return matrix_lp(A - B, p), None, "exact", None
    if kind == "cut":
        if mode == "exact":
            value, S, T = cut_norm_exact(A - B)
        else:
            value, S, T = cut_norm_lower(A - B, seed=seed)
            caveat = "lower bound (heuristic subset search)"
        certificate = {"S": np.asarray(S).tolist(), "T": np.asarray(T).tolist()}
        return value, certificate, mode, caveat
    if kind == "hat-lp":
        value, sigma = hat_delta_p(A, B, p, mode=mode, seed=seed)
        if mode == "heuristic":
            caveat = "upper bound (heuristic vertex alignment)"
    elif kind == "hat-cut":
        value, sigma = hat_delta_cut(A, B, mode=mode, seed=seed)
        if mode == "heuristic" and A.shape[0] <= CUT_EXACT_MAX_N:
            caveat = "upper bound (heuristic vertex alignment, exact cut norms)"
        elif mode == "heuristic":
            caveat = ("upper bound on the alignment minimum of a heuristic "
                      "cut-norm lower bound")
    else:
        raise ParameterError(f"unknown distance kind {kind!r}")
    return value, {"permutation": np.asarray(sigma).tolist()}, mode, caveat


def _cmd_distance(args) -> int:
    _print_seed(args.seed)
    value, certificate, mode, caveat = _distance_record(args)
    _emit({"value": float(value), "certificate": certificate, "mode": mode,
           "bounds_caveat": caveat}, args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    cfg = ExperimentConfig.from_json(doc)
    kind = doc.get("kind")
    if not kind:
        raise ParameterError("experiment config needs a 'kind' field")
    _print_seed(cfg.seeds[0])
    records = run_experiment(kind, cfg, args.out)
    print(f"wrote {len(records)} trials under {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    _print_seed(args.seed)
    op = args.op
    if op == "oracle-error":
        model = _load_step_model(args.graphon)
        value, cert = oracle_error_step(model, args.kappa, args.p)
        doc = {"value": float(value),
               "certificate": {"p": cert.p.tolist(), "b": cert.B.tolist()},
               "bounds_caveat": None if model.k <= 8
               else "upper bound (merge-pattern search)"}
    elif op == "tail-rho":
        W = _load_graphon(args.graphon)
        est = tail_rho(W, args.rho, args.p)
        doc = {"value": est.value, "error": est.error}
    elif op == "holder-rates":
        a_prime, b_prime = holder_rates(args.d, args.alpha, args.beta, args.p,
                                        args.compact, args.uniform)
        doc = {"alpha_prime": a_prime, "beta_prime": b_prime}
    elif op == "power-law-rates":
        a_prime, b_prime, log_factor = power_law_rates(args.alpha, args.p,
                                                       args.variant)
        doc = {"alpha_prime": a_prime, "beta_prime": b_prime,
               "log_factor": log_factor}
    elif op == "round-to-grid":
        model = _load_step_model(args.graphon)
        rounded = round_to_grid(model, args.n, args.kappa)
        doc = {"p": rounded.p.tolist(), "b": rounded.B.tolist()}
    else:
        raise ParameterError(f"unknown oracle op {op!r}")
    _emit(doc, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphon-kit",
        description="Graphon sampling, block-model estimation, and matrix/"
                    "graphon distances.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="draw a W-random graph")
    sp.add_argument("--graphon", required=True, help="graphon spec JSON file")
    sp.add_argument("--n", type=int, required=True, help="number of vertices")
    sp.add_argument("--rho", type=float, required=True, help="target density")
    sp.add_argument("--seed", type=int, default=0, help="master seed")
    sp.add_argument("--out", required=True, help="adjacency output (.ssm)")
    sp.add_argument("--emit-q", help="also write the edge-probability matrix")
    sp.add_argument("--emit-latent", help="also write latent positions")
    sp.set_defaults(fn=_cmd_sample)

    ep = sub.add_parser("estimate", help="fit a block model to a graph")
    ep.add_argument("--algo", choices=("ls", "cut", "degsort"), required=True,
                    help="least squares, least cut norm, or degree sorting")
    ep.add_argument("--in", dest="infile", required=True,
                    help="adjacency input (.ssm or dense text)")
    group = ep.add_mutually_exclusive_group(required=True)
    group.add_argument("--kappa", type=float, help="minimum class mass (ls|cut)")
    group.add_argument("--k", type=int, help="class count (degsort)")
    ep.add_argument("--mode", choices=("exact", "search"), default="search",
                    help="global enumeration (small n) or local search")
    ep.add_argument("--restarts", type=int, default=50,
                    help="search restarts")
    ep.add_argument("--seed", type=int, default=0, help="master seed")
    ep.add_argument("--out", help="model JSON output (default stdout)")
    ep.set_defaults(fn=_cmd_estimate)

    dp = sub.add_parser("distance", help="matrix and graphon distances")
    dp.add_argument("--kind", required=True,
                    choices=("lp", "cut", "hat-lp", "hat-cut",
                             "lp-vs-graphon", "delta-step", "lp-levy"),
                    help="which distance to compute")
    dp.add_argument("--p", type=float, default=2.0, help="L^p exponent")
    dp.add_argument("--mode", choices=("exact", "heuristic"), default="exact",
                    help="exact (size-gated) or heuristic search")
    dp.add_argument("--a", required=True,
                    help="first input (.ssm, or step-model JSON for delta-step)")
    dp.add_argument("--b", help="second input")
    dp.add_argument("--graphon", help="graphon spec JSON (lp-vs-graphon, lp-levy)")
    dp.add_argument("--seed", type=int, default=0, help="master seed")
    dp.add_argument("--out", help="result JSON output (default stdout)")
    dp.set_defaults(fn=_cmd_distance)

    xp = sub.add_parser("experiment", help="run an experiment harness")
    xp.add_argument("--config", required=True,
                    help="JSON config with 'kind' plus experiment fields")
    xp.add_argument("--out", required=True, help="output directory")
    xp.set_defaults(fn=_cmd_experiment)

    op = sub.add_parser("oracle", help="closed-form quantities and rates")
    op.add_argument("--op", required=True,
                    choices=("oracle-error", "tail-rho", "holder-rates",
                             "power-law-rates", "round-to-grid"),
                    help="which oracle quantity to compute")
    op.add_argument("--graphon", help="graphon or step-model spec JSON")
    op.add_argument("--kappa", type=float, help="minimum block mass")
    op.add_argument("--p", type=float, default=1.0, help="L^p exponent")
    op.add_argument("--rho", type=float, help="target density (tail-rho)")
    op.add_argument("--n", type=int, help="grid size (round-to-grid)")
    op.add_argument("--d", type=int, default=1, help="latent dimension")
    op.add_argument("--alpha", type=float, help="smoothness / tail exponent")
    op.add_argument("--beta", type=float, help="tail decay exponent")
    op.add_argument("--compact", action="store_true",
                    help="compact latent space (holder-rates)")
    op.add_argument("--uniform", action="store_true",
                    help="uniform smoothness bound (holder-rates, compact)")
    op.add_argument("--variant", choices=("sum", "product"), default="sum",
                    help="power-law family variant")
    op.add_argument("--seed", type=int, default=0, help="master seed")
    op.add_argument("--out", help="result JSON output (default stdout)")
    op.set_defaults(fn=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (IntegrabilityError, DomainError, DegenerateError,
            ConstructionError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ParameterError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphonKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
