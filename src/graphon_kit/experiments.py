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
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .common import (DegenerateError, GraphonKitError, ParameterError,
                     SearchBudget, substream)
from .estimators import (block_average, degree_sorting, least_cut_search,
                         least_squares_search)
from .graphon import (Graphon, PowerLawProduct, PowerLawSum, degree_cdf,
                      graphon_from_json, graphon_to_json, lp_norm)
from .metrics import (Cdf, CUT_EXACT_MAX_N, PERM_EXACT_MAX_N, cut_norm, hat_delta_p,
                      levy_prokhorov, matrix_lp)
from .sampling import (as_matrix, build_h, build_q, density, generate_sample,
                       sample_degrees, sample_latent)

_LP_NODES = 2              # Gauss-Legendre nodes per cell axis in step_matrix_vs_graphon_lp
_LP_ROW_BLOCK = 256
_TAIL_TOP = 20             # degrees kept above tail_slope's fit window
_DEGREE_TAIL_MASS = 1e-6   # tail mass analytic_degree_cdf may neglect


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


_ALGORITHMS = ("least_squares", "least_cut", "degree_sorting")
_CONVERSIONS = {"ns": lambda v: tuple(int(n) for n in v),
                "seeds": lambda v: tuple(int(s) for s in v),
                "restarts": int, "p": float, "n_random_partitions": int, "k": int}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's inputs. The fields and their defaults are also the
    JSON schema (from_json and to_json are derived from them), and
    __post_init__ checks every field, so a bad config fails when it is built."""

    graphon: Graphon
    ns: tuple
    seeds: tuple
    density: DensityRule = DensityRule()
    algorithm: str = "degree_sorting"   # least_squares | least_cut | degree_sorting
    restarts: int = 20
    kappa: float | None = None
    k_rule: object = None               # int, or "ceil_n_quarter" for ceil(n^(1/4))
    p: float = 1.0
    n_random_partitions: int = 1000
    k: int = 8                          # class count for concentration candidates

    def __post_init__(self) -> None:
        for name, convert in _CONVERSIONS.items():
            try:
                object.__setattr__(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError):
                raise ParameterError(f"experiment config {name!r} has a bad value "
                                     f"{getattr(self, name)!r}") from None
        if not self.ns or any(n <= 0 for n in self.ns):
            raise ParameterError("n grid must be nonempty and positive")
        if len(self.seeds) == 0:
            raise ParameterError("seed list must be nonempty")
        if self.algorithm not in _ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}; "
                                 f"choose from {list(_ALGORITHMS)}")
        if self.kappa is None and self.algorithm != "degree_sorting":
            raise ParameterError(f"algorithm {self.algorithm!r} needs kappa")
        if self.kappa is not None and not (isinstance(self.kappa, (int, float))
                                           and 0.0 < self.kappa <= 1.0):
            raise ParameterError(f"kappa must lie in (0,1], got {self.kappa!r}")
        if self.restarts < 1 or self.k < 1 or self.p < 1:
            raise ParameterError("restarts, k and p must be >= 1")
        if not (self.k_rule in (None, "ceil_n_quarter")
                or (type(self.k_rule) is int and self.k_rule >= 1)):
            raise ParameterError(f"k_rule must be an integer >= 1 or 'ceil_n_quarter', "
                                 f"got {self.k_rule!r}")
        for n in self.ns:
            self.density(n)  # validates rho(n) in (0,1]

    def classes_for(self, n: int) -> int:
        if self.k_rule == "ceil_n_quarter":
            return math.ceil(n ** 0.25)
        if self.k_rule is None:
            return self.k
        return self.k_rule

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from its JSON form; a "kind" key (the CLI's
        experiment kind) is allowed and ignored."""
        if not isinstance(doc, dict):
            raise ParameterError("experiment config must be a JSON object")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in doc]
        if missing:
            raise ParameterError(f"experiment config lacks required key(s) {missing}")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)} - {"kind"})
        if unknown:
            raise ParameterError(f"experiment config has unknown key(s) {unknown}")
        d = doc.get("density", {})
        unknown = sorted(set(d) - {f.name for f in fields(DensityRule)})
        if unknown:
            raise ParameterError(f"experiment config density has unknown key(s) {unknown}")
        kwargs = {key: value for key, value in doc.items() if key != "kind"}
        return cls(**dict(kwargs, graphon=graphon_from_json(doc["graphon"]),
                          density=DensityRule(**d)))

    def to_json(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return dict(doc, graphon=graphon_to_json(self.graphon), ns=list(self.ns),
                    seeds=list(self.seeds), density=asdict(self.density))


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


_VALUE_COLUMNS = {
    "consistency": ("error_truth_lp", "error_hat2_q", "objective"),
    "concentration": ("eps_tilde", "bound_a", "holds_a",
                      "cut_residual", "bound_b", "holds_b", "cut_exact"),
    "degree_distribution": ("d_lp", "tail_slope"),
    "norm_convergence": ("h_norm", "w_norm", "q_step_error"),
}


def _run_trials(cfg: ExperimentConfig, experiment: str, trial) -> list:
    """One timed TrialRecord per (n, seed) of cfg, run in a pool, in (n, seed)
    order. trial(n, seed, rho, values) gets rho = cfg.density(n) and the value
    columns NaN-filled, fills values in and returns (rho_observed,
    kappa_or_k, algorithm, note)."""
    def run(key):
        n, seed = key
        t0 = time.perf_counter()
        rho = cfg.density(n)
        values = {v: float("nan") for v in _VALUE_COLUMNS[experiment]}
        rho_obs, kappa_or_k, algorithm, note = trial(n, seed, rho, values)
        return TrialRecord(experiment, n, rho, rho_obs, kappa_or_k, algorithm, seed,
                           values, time.perf_counter() - t0, note)

    keys = sorted((n, s) for n in cfg.ns for s in cfg.seeds)
    with ThreadPoolExecutor(max_workers=max_workers()) as pool:
        return list(pool.map(run, keys))


# ---------------------------------------------------------------------------
# step-matrix vs graphon L^p error on the uniform n-grid
# ---------------------------------------------------------------------------


def step_matrix_vs_graphon_lp(C, W: Graphon, p: float) -> float:
    """||C - W||_p where matrix C is read as a step kernel on the uniform
    partition of [0,1] into n cells (cell i = [i/n,(i+1)/n)).

    Per-cell Gauss-Legendre with 2 points per axis, evaluated in blocks of 256
    rows to bound memory at large n. Each block's |W - C|^p is formed in one
    reused (rows, nodes, n, nodes) buffer, with C broadcast over the nodes.
    """
    c = np.asarray(C, dtype=float)
    n = c.shape[0]
    x, w = np.polynomial.legendre.leggauss(_LP_NODES)
    offs = (x + 1.0) / (2.0 * n)          # node offsets within a width-1/n cell
    wts = w / 2.0                          # weights sum to 1 per cell
    pts = (np.arange(n)[:, None] / n + offs[None, :]).ravel()
    w_all = np.tile(wts, n)
    buf = np.empty((min(_LP_ROW_BLOCK, n), _LP_NODES, n, _LP_NODES))
    total = 0.0
    for s in range(0, n, _LP_ROW_BLOCK):
        e = min(s + _LP_ROW_BLOCK, n)
        wv = W.pair_eval(pts[s * _LP_NODES:e * _LP_NODES], pts)
        d = buf[:e - s]
        np.subtract(wv.reshape(d.shape), c[s:e, None, :, None], out=d)
        np.abs(d, out=d)
        if p != 1:                          # x ** 1.0 == x, so p = 1 skips the power
            np.power(d, p, out=d)
        d = d.reshape((e - s) * _LP_NODES, n * _LP_NODES)
        total += float(np.einsum("a,ab,b->", np.tile(wts, e - s), d, w_all))
    return (total / (n * n)) ** (1.0 / p)


def _estimate(cfg: ExperimentConfig, A, n: int, seed: int):
    if cfg.algorithm == "degree_sorting":
        return degree_sorting(A, cfg.classes_for(n))
    if cfg.algorithm == "least_squares":
        return least_squares_search(A, cfg.kappa, cfg.restarts, seed)
    return least_cut_search(A, cfg.kappa, cfg.restarts, seed)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def run_consistency(cfg: ExperimentConfig) -> list:
    """Per (n, seed): sample, estimate, and score against the ground truth.

    Degree sorting reports ||rho(G)^-1 * A_pi - W||_p with vertices in latent
    order on the uniform grid (latent positions are evaluation-only inputs).
    Least squares / least cut additionally report hat-delta_2 between the
    fitted step matrix and Q/rho when n is small enough for the metric.
    """
    def trial(n, seed, rho, values):
        kk = cfg.classes_for(n) if cfg.algorithm == "degree_sorting" else cfg.kappa
        note = ""
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
        return rho_obs, kk, cfg.algorithm, note

    return _run_trials(cfg, "consistency", trial)


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

    def trial(n, seed, rho, values):
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

        values["cut_exact"] = float(n <= CUT_EXACT_MAX_N)
        values["cut_residual"] = cut_norm(diff, seed=seed)   # exact up to CUT_EXACT_MAX_N
        values["bound_b"] = 15.0 * math.sqrt(rho_q / n)
        values["holds_b"] = float(values["cut_residual"] <= values["bound_b"])
        return density(A), float(k), "candidate_set", ""

    return _run_trials(cfg, "concentration", trial)


def tail_slope(norm_degrees: np.ndarray) -> float:
    """Least-squares slope of log10(1 - D(lam)) vs log10(lam) over the top
    decade of the normalized degree range, where the decade's upper edge is
    the (1 - 20/n) quantile (keeps 20 points above the fit window)."""
    d = np.sort(np.asarray(norm_degrees, dtype=float))
    n = d.size
    hi = float(np.quantile(d, 1.0 - _TAIL_TOP / n))
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


def analytic_degree_cdf(W: Graphon) -> Cdf:
    """Discretized D_W(lam) = P(W_x <= lam), upper range chosen so the
    neglected tail mass is below 1e-6."""
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
    while float(degree_cdf(W, hi)) < 1.0 - _DEGREE_TAIL_MASS and hi < 1e9:
        hi *= 2.0
    return Cdf.from_function(lambda lam: float(degree_cdf(W, lam)), 0.0, hi,
                             provenance="analytic")


def run_degree_distribution(cfg: ExperimentConfig) -> list:
    """Per trial: Levy-Prokhorov distance between the empirical normalized
    degree CDF and the analytic one; for power-law families also the fitted
    log-log tail slope (expected -1/alpha)."""
    target = analytic_degree_cdf(cfg.graphon)
    power_law = isinstance(cfg.graphon, (PowerLawSum, PowerLawProduct))

    def trial(n, seed, rho, values):
        note = ""
        deg = sample_degrees(cfg.graphon, n, rho, seed)
        if deg.sum() <= 0:
            return 0.0, 0.0, "none", "skipped: empty graph"
        norm = deg / deg.mean()
        values["d_lp"] = levy_prokhorov(Cdf.from_samples(norm), target)
        if power_law:
            try:
                values["tail_slope"] = tail_slope(norm)
            except DegenerateError as exc:
                note = f"tail fit skipped: {exc}"
        return float(deg.sum()) / (n * n), 0.0, "none", note

    return _run_trials(cfg, "degree_distribution", trial)


def run_norm_convergence(cfg: ExperimentConfig) -> list:
    """Per (n, seed): ||H_n||_p against ||W||_p, and the step error
    ||rho^-1 * W[Q_n] - W||_p with vertices in latent order."""
    w_norm = float(lp_norm(cfg.graphon, cfg.p))

    def trial(n, seed, rho, values):
        values["w_norm"] = w_norm
        latent = sample_latent(cfg.graphon, n, seed)
        H = as_matrix(build_h(cfg.graphon, latent))
        values["h_norm"] = matrix_lp(H, cfg.p)
        Q = as_matrix(build_q(cfg.graphon, latent, rho))
        values["q_step_error"] = step_matrix_vs_graphon_lp(Q / rho, cfg.graphon,
                                                           cfg.p)
        return density(Q), 0.0, "none", ""

    return _run_trials(cfg, "norm_convergence", trial)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

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
