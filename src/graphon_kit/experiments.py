"""Experiment harnesses: consistency curves, concentration checks, degree
distributions, and sampled-norm convergence, with deterministic CSV output.

Every run is a pure function of its ExperimentConfig (graphon, n grid,
density rule, seeds). Trials execute in parallel (GRAPHON_KIT_THREADS caps
the pool; 0 or unset means auto) and are aggregated in (n, seed) order, so
output never depends on thread count. Wall times are recorded per trial but
kept out of the CSV columns to keep re-runs byte-identical.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .common import (DegenerateError, GraphonKitError, ParameterError,
                     SearchBudget, substream)
from .estimators import (block_average, degree_sorting, least_cut_search,
                         least_squares_search)
from .graphon import (Graphon, PowerLawProduct, PowerLawSum, degree_cdf,
                      graphon_from_json, graphon_to_json, lp_norm)
from .metrics import (Cdf, CUT_EXACT_MAX_N, PERM_EXACT_MAX_N, cut_norm_exact,
                      cut_norm_lower, hat_delta_p, levy_prokhorov, matrix_lp)
from .sampling import (as_matrix, build_h, build_q, density, generate_sample,
                       sample_degrees, sample_latent)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityRule:
    """rho(n): constant c, power c*n^-gamma, or log c*log(n)/n."""

    kind: str = "power"
    c: float = 1.0
    gamma: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "power", "log"):
            raise ParameterError(f"unknown density rule {self.kind!r}")

    def __call__(self, n: int) -> float:
        if self.kind == "constant":
            rho = self.c
        elif self.kind == "power":
            rho = self.c * n ** (-self.gamma)
        else:
            rho = self.c * math.log(n) / n
        if not 0.0 < rho <= 1.0:
            raise ParameterError(f"density rule gives rho={rho} at n={n}, need (0,1]")
        return rho


@dataclass(frozen=True)
class ExperimentConfig:
    graphon: Graphon
    ns: tuple
    density: DensityRule
    seeds: tuple
    algorithm: str = "degree_sorting"   # least_squares | least_cut | degree_sorting
    mode: str = "search"
    restarts: int = 20
    kappa: float | None = None
    k_rule: object = None               # int, or "ceil_n_quarter" for ceil(n^(1/4))
    p: float = 1.0
    n_random_partitions: int = 1000
    k: int = 8                          # class count for concentration candidates

    def __post_init__(self) -> None:
        if not self.ns or any(int(n) <= 0 for n in self.ns):
            raise ParameterError("n grid must be nonempty and positive")
        if len(self.seeds) == 0:
            raise ParameterError("seed list must be nonempty")
        object.__setattr__(self, "ns", tuple(int(n) for n in self.ns))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        for n in self.ns:
            self.density(n)  # validates rho(n) in (0,1]

    def classes_for(self, n: int) -> int:
        if self.k_rule == "ceil_n_quarter":
            return math.ceil(n ** 0.25)
        if self.k_rule is None:
            return self.k
        return int(self.k_rule)

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; a "kind" key (the CLI's
        experiment kind) is allowed and ignored."""
        missing = [key for key in ("graphon", "ns", "seeds") if key not in doc]
        if missing:
            raise ParameterError(f"experiment config lacks required key(s) {missing}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)} - {"kind"})
        if unknown:
            raise ParameterError(f"experiment config has unknown key(s) {unknown}")
        d = doc.get("density", {})
        unknown = sorted(set(d) - {f.name for f in fields(DensityRule)})
        if unknown:
            raise ParameterError(f"experiment config density has unknown key(s) {unknown}")
        return cls(
            graphon=graphon_from_json(doc["graphon"]),
            ns=tuple(doc["ns"]),
            density=DensityRule(**d),
            seeds=tuple(doc["seeds"]),
            algorithm=doc.get("algorithm", "degree_sorting"),
            mode=doc.get("mode", "search"),
            restarts=int(doc.get("restarts", 20)),
            kappa=doc.get("kappa"),
            k_rule=doc.get("k_rule"),
            p=float(doc.get("p", 1.0)),
            n_random_partitions=int(doc.get("n_random_partitions", 1000)),
            k=int(doc.get("k", 8)),
        )

    def to_json(self) -> dict:
        return {
            "graphon": graphon_to_json(self.graphon),
            "ns": list(self.ns),
            "density": {"kind": self.density.kind, "c": self.density.c,
                        "gamma": self.density.gamma},
            "seeds": list(self.seeds),
            "algorithm": self.algorithm, "mode": self.mode,
            "restarts": self.restarts, "kappa": self.kappa,
            "k_rule": self.k_rule, "p": self.p,
            "n_random_partitions": self.n_random_partitions, "k": self.k,
        }


@dataclass(frozen=True)
class TrialRecord:
    experiment: str
    n: int
    rho_target: float
    rho_observed: float
    kappa_or_k: float
    algorithm: str
    seed: int
    values: dict = field(default_factory=dict)
    wall_time: float = 0.0
    note: str = ""


# ---------------------------------------------------------------------------
# parallel trial runner
# ---------------------------------------------------------------------------


def max_workers() -> int:
    raw = os.environ.get("GRAPHON_KIT_THREADS", "0")
    try:
        v = int(raw)
    except ValueError:
        raise ParameterError(f"GRAPHON_KIT_THREADS={raw!r} is not an integer")
    return v if v > 0 else (os.cpu_count() or 1)


def _run_trials(trial, keys) -> list:
    """Run trial(key) for each (n, seed) key in a pool; aggregate in key order."""
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        results = list(pool.map(trial, keys))
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return [results[i] for i in order]


def _keys(cfg: ExperimentConfig) -> list:
    return [(n, s) for n in cfg.ns for s in cfg.seeds]


# ---------------------------------------------------------------------------
# step-matrix vs graphon L^p error on the uniform n-grid
# ---------------------------------------------------------------------------


def step_matrix_vs_graphon_lp(C, W: Graphon, p: float, nodes: int = 2,
                              row_block: int = 256) -> float:
    """||C - W||_p where matrix C is read as a step kernel on the uniform
    partition of [0,1] into n cells (cell i = [i/n,(i+1)/n)).

    Per-cell Gauss-Legendre with `nodes` points per axis, evaluated in row
    blocks to bound memory at large n. Each block's |W - C|^p is formed in one
    reused (rows, nodes, n, nodes) buffer, with C broadcast over the nodes.
    """
    c = np.asarray(C, dtype=float)
    n = c.shape[0]
    x, w = np.polynomial.legendre.leggauss(nodes)
    offs = (x + 1.0) / (2.0 * n)          # node offsets within a width-1/n cell
    wts = w / 2.0                          # weights sum to 1 per cell
    pts = (np.arange(n)[:, None] / n + offs[None, :]).ravel()
    w_all = np.tile(wts, n)
    buf = np.empty((min(row_block, n), nodes, n, nodes))
    total = 0.0
    for s in range(0, n, row_block):
        e = min(s + row_block, n)
        wv = W.pair_eval(pts[s * nodes:e * nodes], pts)
        d = buf[:e - s]
        np.subtract(wv.reshape(d.shape), c[s:e, None, :, None], out=d)
        np.abs(d, out=d)
        if p != 1:                          # x ** 1.0 == x, so p = 1 skips the power
            np.power(d, p, out=d)
        d = d.reshape((e - s) * nodes, n * nodes)
        total += float(np.einsum("a,ab,b->", np.tile(wts, e - s), d, w_all))
    return (total / (n * n)) ** (1.0 / p)


def _estimate(cfg: ExperimentConfig, A, n: int, seed: int):
    if cfg.algorithm == "degree_sorting":
        return degree_sorting(A, cfg.classes_for(n))
    if cfg.kappa is None:
        raise ParameterError(f"algorithm {cfg.algorithm!r} needs kappa")
    if cfg.algorithm == "least_squares":
        return least_squares_search(A, cfg.kappa, cfg.restarts, seed)
    if cfg.algorithm == "least_cut":
        return least_cut_search(A, cfg.kappa, cfg.restarts, seed)
    raise ParameterError(f"unknown algorithm {cfg.algorithm!r}")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

CONSISTENCY_VALUES = ("error_truth_lp", "error_hat2_q", "objective")
CONCENTRATION_VALUES = ("eps_tilde", "bound_a", "holds_a",
                        "cut_residual", "bound_b", "holds_b", "cut_exact")
DEGREE_VALUES = ("d_lp", "tail_slope")
NORM_VALUES = ("h_norm", "w_norm", "q_step_error")


def run_consistency(cfg: ExperimentConfig) -> list:
    """Per (n, seed): sample, estimate, and score against the ground truth.

    Degree sorting reports ||rho(G)^-1 * A_pi - W||_p with vertices in latent
    order on the uniform grid (latent positions are evaluation-only inputs).
    Least squares / least cut additionally report hat-delta_2 between the
    fitted step matrix and Q/rho when n is small enough for the metric.
    """
    def trial(key):
        n, seed = key
        t0 = time.perf_counter()
        rho = cfg.density(n)
        kk = cfg.classes_for(n) if cfg.algorithm == "degree_sorting" else cfg.kappa
        note = ""
        values = {v: float("nan") for v in CONSISTENCY_VALUES}
        try:
            small = n <= 64 and cfg.algorithm != "degree_sorting"
            sample = generate_sample(cfg.graphon, n, rho, seed, with_q=small)
            A = as_matrix(sample.G)
            rho_obs = density(A)
            res = _estimate(cfg, A, n, seed)
            values["objective"] = res.objective
            if rho_obs > 0:
                _, lifted = block_average(A, res.partition)
                values["error_truth_lp"] = step_matrix_vs_graphon_lp(
                    lifted / rho_obs, cfg.graphon, cfg.p)
            else:
                note = "empty graph; truth error skipped"
            if small and rho_obs > 0:
                mode = "exact" if n <= PERM_EXACT_MAX_N else "heuristic"
                q = as_matrix(sample.Q)
                values["error_hat2_q"] = hat_delta_p(lifted / rho, q / rho, 2,
                                                     mode=mode, seed=seed)[0]
        except GraphonKitError as exc:
            note = f"skipped: {exc}"
            rho_obs = float("nan")
        return TrialRecord("consistency", n, rho, rho_obs, kk or 0.0,
                           cfg.algorithm, seed, values,
                           time.perf_counter() - t0, note)

    return _run_trials(trial, _keys(cfg))


def _eps_tilde(diff: np.ndarray, assigns, k: int) -> float:
    """max over candidate partitions of ||A_pi - Q_pi||_1 via block sums."""
    n = diff.shape[0]
    best = 0.0
    for assign in assigns:
        Z = np.zeros((n, k))
        Z[np.arange(n), assign] = 1.0
        best = max(best, float(np.abs(Z.T @ diff @ Z).sum()) / (n * n))
    return best


def run_concentration(cfg: ExperimentConfig) -> list:
    """Necessary-condition tests for the two sampling concentration bounds.

    (a) compares eps-tilde = max over a documented candidate partition set
    (n_random_partitions seeded random k-partitions plus the three
    estimators' outputs on the same A) of ||A_pi - Q_pi||_1 against
    8*sqrt(rho(Q)*((1+log k)/n + k^2/n^2)). The candidate max
    under-approximates the max over all partitions, so this is a
    necessary-condition test, not a verification.
    (b) compares ||A - Q||_cut (exact at small n, else the heuristic lower
    bound) against 15*sqrt(rho(Q)/n).
    """
    k = cfg.k

    def trial(key):
        n, seed = key
        t0 = time.perf_counter()
        rho = cfg.density(n)
        values = {v: float("nan") for v in CONCENTRATION_VALUES}
        latent = sample_latent(cfg.graphon, n, seed)
        Q = as_matrix(build_q(cfg.graphon, latent, rho))
        sample = generate_sample(cfg.graphon, n, rho, seed, with_q=False)
        A = as_matrix(sample.G)
        rho_q = density(Q)
        diff = A - Q

        rng = substream(seed, "candidates")
        assigns = [rng.integers(k, size=n) for _ in range(cfg.n_random_partitions)]
        kappa = min(0.9, 1.0 / k) if n >= k else 1.0
        tiny = SearchBudget(restarts=1, iterations=1)
        for est in (degree_sorting(A, k) if A.sum() > 0 else None,
                    least_squares_search(A, kappa, restarts=2, seed=seed),
                    least_cut_search(A, kappa, restarts=1, seed=seed,
                                     budget=tiny)):
            if est is not None:
                full = np.zeros(n, dtype=int)
                full[:] = est.partition.assign
                assigns.append(full)
        kmax = max(k, max(int(a.max()) + 1 for a in assigns))
        values["eps_tilde"] = _eps_tilde(diff, assigns, kmax)
        values["bound_a"] = 8.0 * math.sqrt(
            rho_q * ((1.0 + math.log(k)) / n + k * k / (n * n)))
        values["holds_a"] = float(values["eps_tilde"] <= values["bound_a"])

        exact = n <= CUT_EXACT_MAX_N
        values["cut_exact"] = float(exact)
        values["cut_residual"] = (cut_norm_exact(diff)[0] if exact
                                  else cut_norm_lower(diff, seed=seed)[0])
        values["bound_b"] = 15.0 * math.sqrt(rho_q / n)
        values["holds_b"] = float(values["cut_residual"] <= values["bound_b"])
        return TrialRecord("concentration", n, rho, density(A), float(k),
                           "candidate_set", seed, values,
                           time.perf_counter() - t0)

    return _run_trials(trial, _keys(cfg))


def tail_slope(norm_degrees: np.ndarray, top: int = 20) -> float:
    """Least-squares slope of log10(1 - D(lam)) vs log10(lam) over the top
    decade of the normalized degree range, where the decade's upper edge is
    the (1 - top/n) quantile (keeps `top` points above the fit window)."""
    d = np.sort(np.asarray(norm_degrees, dtype=float))
    n = d.size
    hi = float(np.quantile(d, 1.0 - top / n))
    lo = hi / 10.0
    sel = (d > lo) & (d <= hi) & (d > 0)
    lam = np.unique(d[sel])
    if lam.size < 3:
        raise DegenerateError("not enough degree spread for a tail fit")
    surv = np.searchsorted(d, lam, side="right")
    surv = 1.0 - surv / n
    keep = surv > 0
    coef = np.polyfit(np.log10(lam[keep]), np.log10(surv[keep]), 1)
    return float(coef[0])


def analytic_degree_cdf(W: Graphon, tol: float = 1e-6, m: int = 4000) -> Cdf:
    """Discretized D_W(lam) = P(W_x <= lam), upper range chosen so the
    neglected tail mass is below tol."""
    if degree_cdf(W, 1.0).error > 0.0:
        # no closed form: one Monte Carlo batch of latent draws with degrees
        # computed in bulk, then the empirical CDF (re-solving the inversion
        # per grid point would repeat the whole batch thousands of times)
        rng = substream(0, "analytic_degree_cdf")
        xs = W.sample_latent(100_000, rng)
        if W.latent_space == "simplex":
            degs = xs @ (W.B @ W.mean)
        else:
            nodes, wts = np.polynomial.legendre.leggauss(256)
            ynodes = 0.5 * (nodes + 1.0)
            grid = np.linspace(0.0, 1.0, 4097)
            grid_degs = 0.5 * (W.pair_eval(grid, ynodes) @ wts)
            degs = np.interp(xs, grid, grid_degs)
        return Cdf.from_samples(degs, provenance="analytic")
    hi = 1.0
    while float(degree_cdf(W, hi)) < 1.0 - tol and hi < 1e9:
        hi *= 2.0
    return Cdf.from_function(lambda lam: float(degree_cdf(W, lam)), 0.0, hi,
                             m=m, provenance="analytic")


def run_degree_distribution(cfg: ExperimentConfig) -> list:
    """Per trial: Levy-Prokhorov distance between the empirical normalized
    degree CDF and the analytic one; for power-law families also the fitted
    log-log tail slope (expected -1/alpha)."""
    target = analytic_degree_cdf(cfg.graphon)
    power_law = isinstance(cfg.graphon, (PowerLawSum, PowerLawProduct))

    def trial(key):
        n, seed = key
        t0 = time.perf_counter()
        rho = cfg.density(n)
        values = {v: float("nan") for v in DEGREE_VALUES}
        note = ""
        deg = sample_degrees(cfg.graphon, n, rho, seed)
        rho_obs = float(deg.sum()) / (n * n)
        if deg.sum() <= 0:
            return TrialRecord("degree_distribution", n, rho, 0.0, 0.0,
                               "none", seed, values,
                               time.perf_counter() - t0, "skipped: empty graph")
        norm = deg / deg.mean()
        values["d_lp"] = levy_prokhorov(Cdf.from_samples(norm), target)
        if power_law:
            try:
                values["tail_slope"] = tail_slope(norm)
            except DegenerateError as exc:
                note = f"tail fit skipped: {exc}"
        return TrialRecord("degree_distribution", n, rho, rho_obs, 0.0,
                           "none", seed, values,
                           time.perf_counter() - t0, note)

    return _run_trials(trial, _keys(cfg))


def run_norm_convergence(cfg: ExperimentConfig) -> list:
    """Per (n, seed): ||H_n||_p against ||W||_p, and the step error
    ||rho^-1 * W[Q_n] - W||_p with vertices in latent order."""
    w_norm = float(lp_norm(cfg.graphon, cfg.p))

    def trial(key):
        n, seed = key
        t0 = time.perf_counter()
        rho = cfg.density(n)
        values = {v: float("nan") for v in NORM_VALUES}
        values["w_norm"] = w_norm
        latent = sample_latent(cfg.graphon, n, seed)
        H = as_matrix(build_h(cfg.graphon, latent))
        values["h_norm"] = matrix_lp(H, cfg.p)
        Q = as_matrix(build_q(cfg.graphon, latent, rho))
        values["q_step_error"] = step_matrix_vs_graphon_lp(Q / rho, cfg.graphon,
                                                           cfg.p)
        return TrialRecord("norm_convergence", n, rho, density(Q), 0.0,
                           "none", seed, values, time.perf_counter() - t0)

    return _run_trials(trial, _keys(cfg))


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

_VALUE_COLUMNS = {
    "consistency": CONSISTENCY_VALUES,
    "concentration": CONCENTRATION_VALUES,
    "degree_distribution": DEGREE_VALUES,
    "norm_convergence": NORM_VALUES,
}
_BASE_COLUMNS = ("experiment", "n", "rho_target", "rho_observed",
                 "kappa_or_k", "algorithm", "seed")


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def csv_columns(records) -> list:
    exp = records[0].experiment if records else "consistency"
    return list(_BASE_COLUMNS) + list(_VALUE_COLUMNS[exp]) + ["note"]


def emit_csv(records, path: str) -> None:
    """Trial table as CSV with a fixed column order; byte-stable for a given
    table (wall times are deliberately not columns)."""
    cols = csv_columns(records)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for r in records:
                row = [_fmt(getattr(r, c)) for c in _BASE_COLUMNS]
                row += [_fmt(r.values.get(c, float("nan")))
                        for c in _VALUE_COLUMNS[r.experiment]]
                row.append('"' + r.note.replace('"', "'") + '"')
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def summarize(records) -> list:
    """Per-n median / q10 / q90 of every value column, rows ordered by
    (n, column)."""
    exp = records[0].experiment if records else "consistency"
    out = []
    for n in sorted({r.n for r in records}):
        sub = [r for r in records if r.n == n]
        for col in _VALUE_COLUMNS[exp]:
            vals = np.array([r.values.get(col, float("nan")) for r in sub])
            vals = vals[~np.isnan(vals)]
            if vals.size == 0:
                med = q10 = q90 = float("nan")
            else:
                med = float(np.median(vals))
                q10 = float(np.quantile(vals, 0.1))
                q90 = float(np.quantile(vals, 0.9))
            out.append({"n": n, "metric": col, "count": int(vals.size),
                        "median": med, "q10": q10, "q90": q90})
    return out


def emit_summary(records, csv_path: str, txt_path: str) -> None:
    rows = summarize(records)
    try:
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("n,metric,count,median,q10,q90\n")
            for r in rows:
                fh.write(",".join(_fmt(r[c])
                                  for c in ("n", "metric", "count",
                                            "median", "q10", "q90")) + "\n")
        with open(txt_path, "w", encoding="utf-8", newline="\n") as fh:
            for r in rows:
                fh.write(f"n={r['n']:<8d} {r['metric']:<18s} "
                         f"count={r['count']:<4d} median={_fmt(r['median'])} "
                         f"q10={_fmt(r['q10'])} q90={_fmt(r['q90'])}\n")
    except OSError as exc:
        raise OSError(f"cannot write summary near {csv_path}: {exc}") from exc


_RUNNERS = {
    "consistency": run_consistency,
    "concentration": run_concentration,
    "degree_distribution": run_degree_distribution,
    "norm_convergence": run_norm_convergence,
}


def run_experiment(kind: str, cfg: ExperimentConfig, out_dir: str) -> list:
    """Run one experiment kind and write trials.csv / summary.csv /
    summary.txt under out_dir."""
    if kind not in _RUNNERS:
        raise ParameterError(f"unknown experiment kind {kind!r}; "
                             f"choose from {sorted(_RUNNERS)}")
    records = _RUNNERS[kind](cfg)
    os.makedirs(out_dir, exist_ok=True)
    emit_csv(records, os.path.join(out_dir, "trials.csv"))
    emit_summary(records, os.path.join(out_dir, "summary.csv"),
                 os.path.join(out_dir, "summary.txt"))
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        json.dump({"kind": kind, "config": cfg.to_json()}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    return records
