"""Print one `name sha256` line per seeded output of graphon-kit: the five
estimators, cut norms, relabeling distances (exact and heuristic),
delta_p_step, oracle_error_step at k = 5 and 10, the quadrature helpers, the
CLI sample/estimate/distance files and the four experiment kinds. Two trees
have the same seeded outputs when a plain diff of the two outputs is empty:

    PYTHONPATH=/path/to/old/src python3 tools/seeded_outputs.py > before.txt
    PYTHONPATH=src python3 tools/seeded_outputs.py > after.txt && diff before.txt after.txt
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

import graphon_kit as gk
from graphon_kit import cli, experiments

QUAD = {"kind": "named", "name": "quadratic_xy"}
TWO_BLOCK = {"kind": "step", "p": [0.4, 0.6], "b_upper": [0.9, 0.2, 0.7]}


def encode(obj, out: list) -> None:
    """Append a byte-exact encoding of obj (floats by hex, arrays by bytes)."""
    if isinstance(obj, np.ndarray):
        out += [f"{obj.dtype}{obj.shape}".encode(), np.ascontiguousarray(obj).tobytes()]
    elif isinstance(obj, (float, np.floating)):
        out.append(float(obj).hex().encode())
    elif isinstance(obj, dict) or hasattr(obj, "__dict__"):   # dataclass results
        d = obj if isinstance(obj, dict) else vars(obj)
        for key in sorted(d):
            encode((str(key), d[key]), out)
    elif isinstance(obj, (list, tuple)):
        out.append(b"[%d" % len(obj))
        for item in obj:
            encode(item, out)
    else:
        out.append(repr(obj).encode())


def emit(name: str, obj) -> None:
    parts: list = []
    encode(obj, parts)
    print(name, hashlib.sha256(b"|".join(parts)).hexdigest(), flush=True)


def graph(W, n: int, rho: float, seed: int) -> np.ndarray:
    return gk.sampling.as_matrix(gk.generate_sample(W, n, rho, seed, with_q=False).G)


def library() -> None:
    quad, planted = gk.graphon_from_json(QUAD), gk.graphon_from_json(TWO_BLOCK)
    for seed in (1, 2):
        a9, b9 = graph(quad, 9, 0.5, seed), graph(quad, 9, 0.5, seed + 10)
        a12, b12 = graph(planted, 12, 0.6, seed), graph(planted, 12, 0.6, seed + 10)
        a64 = graph(quad, 64, 0.3, seed)
        emit(f"estimators/{seed}", [
            gk.least_squares_exact(a9, 0.3), gk.least_cut_exact(a9[:8, :8], 0.3),
            *(gk.least_squares_search(graph(planted, n, 0.5, seed), 0.2, 6, seed)
              for n in (24, 40)),
            gk.least_cut_search(a12, 0.25, 3, seed), gk.degree_sorting(a64, 4)])
        emit(f"cut_norms/{seed}", [gk.cut_norm_exact(a12 - b12),
                                   gk.cut_norm_lower(a64 - graph(quad, 64, 0.3, 9), seed=seed)])
        for p in (1.0, 2.0):
            emit(f"hat_delta_p/{p}/{seed}", [
                gk.hat_delta_p(a9[:7, :7], b9[:7, :7], p),
                gk.hat_delta_p(a12, b12, p, "heuristic", seed=seed),
                *(gk.hat_delta_p_vs_graphon(a9[:6, :6], W, p) for W in (quad, planted)),
                *(gk.hat_delta_p_vs_graphon(a12, W, p, "heuristic", seed=seed)
                  for W in (quad, planted))])
        emit(f"hat_delta_cut/{seed}", [
            gk.hat_delta_cut(a9[:6, :6], b9[:6, :6]),
            gk.hat_delta_cut(a9[:8, :8], b9[:8, :8], "heuristic", gk.SearchBudget(4, 20), seed)])
        rng = gk.substream(seed, "seeded_outputs")
        models = [gk.BlockModel(rng.dirichlet(np.ones(k)),
                                (lambda b: b + b.T)(rng.random((k, k)))) for k in (3, 4, 5, 10)]
        equal = gk.BlockModel(np.full(4, 0.25), models[1].B)
        for p in (1.0, 2.0):
            emit(f"delta_p_step/{p}/{seed}",
                 [gk.delta_p_step(models[0], models[1], p, seed=seed),
                  gk.delta_p_step(equal, equal.scaled(0.5), p, seed=seed)])
            for m in models[2:]:
                emit(f"oracle_error_step/k{m.k}/{p}/{seed}",
                     [gk.oracle_error_step(m, kappa, p) for kappa in (0.15, 0.3)])
    norm = (lambda d: d / d.mean())(gk.sample_degrees(gk.PowerLawProduct(0.5), 4000, 0.02, 1))
    emit("tail_slope", experiments.tail_slope(norm))
    for W in (gk.PowerLawSum(0.5), quad):
        cdf = experiments.analytic_degree_cdf(W)
        emit("quadrature", [cdf.points, cdf.values,
                            gk.levy_prokhorov(gk.Cdf.from_samples(norm), cdf),
                            gk.lp_norm(W, 1.0), gk.lp_norm(W, 1.5), gk.tail_rho(W, 0.2, 1.0),
                            gk.step_average(W, gk.IntervalPartition.uniform(3))])
    mixed = gk.MixedMembership([0.5, 1.0], [[1.0, 0.2], [0.2, 0.8]])
    emit("lp_norm/mixed", gk.lp_norm(mixed, 2.0))
    emit("step_matrix_vs_graphon_lp",
         [experiments.step_matrix_vs_graphon_lp(a64 / 0.3, quad, p) for p in (1.0, 2.0)])


def run_cli(*argv) -> None:
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(x) for x in argv])
    if code != 0:
        raise SystemExit(f"graphon-kit {' '.join(map(str, argv))} exited {code}")


def write_json(path: str, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def emit_files(prefix: str, d: str) -> None:
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            emit(f"{prefix}/{name}", fh.read())


def command_line(d: str) -> None:
    step, quad = write_json(f"{d}/step.json", TWO_BLOCK), write_json(f"{d}/quad.json", QUAD)
    out = os.path.join(d, "cli")
    os.mkdir(out)
    g, s, h = f"{out}/g.ssm", f"{out}/s.ssm", f"{out}/h.ssm"
    for spec, n, rho, seed, path, *extra in (
            (step, 40, 0.5, 3, g, "--emit-q", f"{out}/q.ssm", "--emit-latent", f"{out}/x.txt"),
            (step, 10, 0.6, 4, s), (quad, 10, 0.6, 5, h)):
        run_cli("sample", "--graphon", spec, "--n", n, "--rho", rho, "--seed", seed,
                "--out", path, *extra)
    for name, args in (("ls", ("ls", "--kappa", 0.2, "--in", g, "--restarts", 4, "--seed", 1)),
                       ("lsx", ("ls", "--kappa", 0.3, "--mode", "exact", "--in", s)),
                       ("cut", ("cut", "--kappa", 0.3, "--in", s, "--restarts", 2)),
                       ("deg", ("degsort", "--k", 3, "--in", g))):
        run_cli("estimate", "--algo", *args, "--out", f"{out}/{name}.json")
    for name, args in (("lp", ("lp", "--b", h)), ("cut", ("cut", "--b", h)),
                       ("cut-h", ("cut", "--mode", "heuristic", "--b", h)),
                       ("hat-lp", ("hat-lp", "--mode", "heuristic", "--b", h)),
                       ("hat-cut", ("hat-cut", "--mode", "heuristic", "--b", h)),
                       ("lpw", ("lp-vs-graphon", "--mode", "heuristic", "--graphon", step)),
                       ("levy", ("lp-levy", "--graphon", quad))):
        run_cli("distance", "--kind", *args, "--a", g if name == "levy" else s, "--seed", 2,
                "--out", f"{out}/d-{name}.json")
    run_cli("distance", "--kind", "delta-step", "--a", step, "--b", step,
            "--out", f"{out}/d-step.json")
    emit_files("cli", out)


EXPERIMENTS = [  # (kind, graphon, ns, other fields); seeds and density are shared
    ("consistency", TWO_BLOCK, [16, 24], dict(algorithm="least_squares", kappa=0.25, restarts=3)),
    ("consistency", TWO_BLOCK, [8, 12], dict(algorithm="least_cut", kappa=0.3, restarts=2)),
    ("consistency", QUAD, [64, 128], dict(k_rule="ceil_n_quarter")),
    ("concentration", TWO_BLOCK, [12, 32], dict(k=3, n_random_partitions=20)),
    ("degree_distribution", {"kind": "power_law_sum", "alpha": 0.5}, [500], {}),
    ("norm_convergence", {"kind": "named", "name": "min_xy"}, [50, 100], dict(p=2.0)),
]


if __name__ == "__main__":
    os.environ.setdefault("GRAPHON_KIT_THREADS", "2")
    library()
    with tempfile.TemporaryDirectory() as tmp:
        command_line(tmp)
        for i, (kind, graphon, ns, extra) in enumerate(EXPERIMENTS):
            doc = dict(extra, kind=kind, graphon=graphon, ns=ns, seeds=[1, 2],
                       density={"kind": "constant", "c": 0.5})
            out = f"{tmp}/{i}-{kind}"
            run_cli("experiment", "--config", write_json(f"{out}.json", doc), "--out", out)
            emit_files(f"experiment/{i}-{kind}", out)
