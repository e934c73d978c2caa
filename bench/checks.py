"""Output checks for the benchmark workloads.

Every check here rests on a computation made apart from graphon-kit (plain
numpy on the program's emitted files and returned objects) or on a property
the method must have. None compares a value with a stored copy of an earlier
output, and none imports graphon_kit.

Each ``check_*`` function returns a list of failure messages; an empty list
means the operation passed.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

# Seeding contract of the sampler (documented in graphon_kit.sampling): edge
# uniforms for rows [b*EDGE_BLOCK, (b+1)*EDGE_BLOCK) come from the Philox
# substream (seed, "edges", b), drawn row-major over all n columns; latent
# positions on [0, 1] come from (seed, "latent") and are sorted ascending.
EDGE_BLOCK = 2048
_ROW_CHUNK = 256          # rows per reconstruction chunk (bounds check memory)
_TIE = 1e-12              # |U - Q| below this may round either way


def substream(seed: int, *tags) -> np.random.Generator:
    key = tuple(zlib.crc32(t.encode()) if isinstance(t, str) else int(t) for t in tags)
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def latent_positions(seed: int, n: int) -> np.ndarray:
    return np.sort(substream(seed, "latent").uniform(0.0, 1.0, size=n))


# ---------------------------------------------------------------------------
# kernels in closed form
# ---------------------------------------------------------------------------


def power_law_sum(alpha: float):
    def kernel(x, y):
        return 0.5 * ((1.0 - alpha) * (1.0 - x) ** (-alpha)
                      + (1.0 - alpha) * (1.0 - y) ** (-alpha))
    return kernel


def two_block(B):
    B = np.asarray(B, dtype=float)

    def kernel(x, y):
        return B[(x >= 0.5).astype(int), (y >= 0.5).astype(int)]
    return kernel


def power_law_sum_l1_to_one(alpha: float, panels: int = 400, order: int = 8) -> float:
    """||W - 1||_1 for the power-law sum kernel: the truth error of the
    one-block fit, whose density-normalized block value is exactly 1.

    With u = 1 - x = t^(1/(1-a)) the marginal g(x) = (1-a) u^(-a) becomes
    (1-a) t^(-a/(1-a)) and dx = t^(a/(1-a)) dt / (1-a), so the integrand is
    bounded on [0, 1]^2; composite Gauss-Legendre does the rest.
    """
    e = alpha / (1.0 - alpha)
    nodes, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    h = np.diff(edges)
    t = (edges[:-1, None] + (nodes[None, :] + 1.0) * h[:, None] / 2.0).ravel()
    w = (wts[None, :] * h[:, None] / 2.0).ravel()
    g = (1.0 - alpha) * t ** (-e)
    jac = t ** e / (1.0 - alpha)
    wj = w * jac
    vals = np.abs(0.5 * (g[:, None] + g[None, :]) - 1.0)
    return float(wj @ vals @ wj)


# ---------------------------------------------------------------------------
# sampled graphs, rebuilt from the seeding contract
# ---------------------------------------------------------------------------


def rebuild_graph(latent, rho: float, seed: int, kernel):
    """Expected edges (linear indices i*n + j, i < j), the pairs whose uniform
    lies within _TIE of its probability, and the sums of p and p(1-p) over
    all pairs i < j, with p = min(1, rho * W(x_i, x_j))."""
    x = np.asarray(latent, dtype=float)
    n = x.size
    edges, ties = [], []
    mean = var = 0.0
    cols = np.arange(n)
    for b, r0 in enumerate(range(0, n, EDGE_BLOCK)):
        r1 = min(r0 + EDGE_BLOCK, n)
        rng = substream(seed, "edges", b)
        for c0 in range(r0, r1, _ROW_CHUNK):
            c1 = min(c0 + _ROW_CHUNK, r1)
            U = rng.random((c1 - c0, n))
            Q = np.minimum(1.0, rho * kernel(x[c0:c1, None], x[None, :]))
            upper = cols[None, :] > np.arange(c0, c1)[:, None]
            base = np.arange(c0, c1)[:, None] * n + cols[None, :]
            edges.append(base[(U < Q) & upper])
            ties.append(base[(np.abs(U - Q) <= _TIE) & upper])
            Qu = Q[upper]
            mean += float(Qu.sum())
            var += float((Qu * (1.0 - Qu)).sum())
    return np.concatenate(edges), np.concatenate(ties), mean, var


def edges_match(found: np.ndarray, expected: np.ndarray, ties: np.ndarray) -> bool:
    """Edge sets agree except, at most, on pairs that are exact ties."""
    diff = np.setxor1d(found, expected)
    return bool(np.isin(diff, ties).all())


def dense_from_edges(edges: np.ndarray, n: int) -> np.ndarray:
    a = np.zeros(n * n)
    a[edges] = 1.0
    a = a.reshape(n, n)
    return a + a.T


# ---------------------------------------------------------------------------
# text files written by the CLI
# ---------------------------------------------------------------------------


def parse_ssm(path: str):
    """(n, linear edge indices i*n + j with i < j, number of edge lines)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        body = fh.read().split()
    if len(header) != 2 or header[0] != "n":
        raise ValueError(f"{path}: bad header {header}")
    n = int(header[1])
    ij = np.array(body, dtype=np.int64).reshape(-1, 2) - 1
    lo, hi = ij.min(axis=1), ij.max(axis=1)
    return n, np.sort(lo * n + hi), ij.shape[0]


def parse_latent(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return np.array(fh.read().split(), dtype=float)


def upper_to_full(b_upper, k: int) -> np.ndarray:
    B = np.zeros((k, k))
    B[np.triu_indices(k)] = b_upper
    return B + np.triu(B, 1).T


# ---------------------------------------------------------------------------
# block models and norms
# ---------------------------------------------------------------------------


def block_means(a: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Block averages over full blocks, diagonal included."""
    k = int(assign.max()) + 1
    sizes = np.bincount(assign, minlength=k).astype(float)
    S = np.zeros((k, k))
    np.add.at(S, (assign[:, None], assign[None, :]), a)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(sizes[:, None] * sizes[None, :] > 0,
                        S / np.outer(sizes, sizes), 0.0)


def block_residual(a: np.ndarray, assign: np.ndarray) -> np.ndarray:
    B = block_means(a, assign)
    return a - B[np.ix_(assign, assign)]


def lp(m: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(m) ** p) ** (1.0 / p))


def close(x: float, y: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(x - y) <= abs_ + rel * max(abs(x), abs(y))


def subset_sum(m: np.ndarray, S, T) -> float:
    S = np.asarray(S, dtype=int)
    T = np.asarray(T, dtype=int)
    return float(m[np.ix_(S, T)].sum()) if S.size and T.size else 0.0


def cut_norm_brute(m: np.ndarray) -> float:
    """max over all (S, T) of n^-2 |sum_{S x T} m| by full enumeration (n <= 12)."""
    n = m.shape[0]
    masks = np.arange(1 << n, dtype=np.uint64)
    z = ((masks[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & 1).astype(float)
    return float(np.abs(z @ m @ z.T).max()) / n**2


def degree_sorted_alignment(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sigma mapping the degree ranks of B onto those of A (ties by index)."""
    n = a.shape[0]
    order_a = np.lexsort((np.arange(n), a.sum(axis=1)))
    order_b = np.lexsort((np.arange(n), b.sum(axis=1)))
    s = np.empty(n, dtype=int)
    s[order_b] = order_a
    return s


def tail_fit(degrees, top: int = 20) -> float:
    """Slope of log10 P(D > lam) against log10 lam over the decade below the
    (1 - top/n) quantile of the normalized degrees."""
    d = np.sort(np.asarray(degrees, dtype=float))
    d = d / d.mean()
    n = d.size
    hi = float(np.quantile(d, 1.0 - top / n))
    lam = np.unique(d[(d > hi / 10.0) & (d <= hi)])
    surv = 1.0 - np.searchsorted(d, lam, side="right") / n
    keep = surv > 0
    return float(np.polyfit(np.log10(lam[keep]), np.log10(surv[keep]), 1)[0])


def is_permutation(s, n: int) -> bool:
    s = np.asarray(s)
    return s.shape == (n,) and np.array_equal(np.sort(s), np.arange(n))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def check_sparse(out: dict, cfg: dict) -> list:
    """sparse_pipeline: sample -> degsort -> Levy distance -> truth error -> tail.

    ``out`` holds the op's outputs: ``ssm`` (n, edges, lines), ``latent``,
    ``model`` (the estimate JSON), ``levy`` (the distance JSON), ``truth_err``
    and ``tail_degrees``. ``cfg`` holds the op's inputs and the fixed
    one-block truth error."""
    fails = []
    n, edges, lines = out["ssm"]
    x = out["latent"]
    if n != cfg["n"] or x.shape != (n,):
        return [f"sizes: ssm n={n}, {x.size} latent positions, expected {cfg['n']}"]
    expected, ties, mean, var = rebuild_graph(x, cfg["rho"], cfg["seed"], cfg["kernel"])
    if not edges_match(edges, expected, ties):
        fails.append("ssm edges differ from the graph rebuilt from the seed")
    if lines != expected.size:
        fails.append(f"ssm has {lines} edge lines, the sampled graph {expected.size} edges")
    if abs(edges.size - mean) > 5.0 * math.sqrt(var):
        fails.append(f"edge count {edges.size} is more than 5 sd from {mean:.1f}")

    deg = np.bincount(edges // n, minlength=n) + np.bincount(edges % n, minlength=n)
    model = out["model"]
    assign = np.asarray(model["assignment"], dtype=int)
    k = cfg["k"]
    if assign.shape != (n,) or assign.min() < 0 or assign.max() != k - 1:
        return fails + [f"assignment is not a {k}-class labelling of {n} vertices"]
    sizes = np.bincount(assign, minlength=k)
    if sizes.max() - sizes.min() > 1:
        fails.append(f"degree-sort class sizes {sizes.tolist()} differ by more than 1")
    used = np.flatnonzero(sizes)
    lo = np.array([deg[assign == c].min() for c in used])
    hi = np.array([deg[assign == c].max() for c in used])
    order = np.lexsort((-lo, -hi))
    if np.any(lo[order][:-1] < hi[order][1:]):
        fails.append("degree-sort classes are not contiguous in degree order")

    S = np.zeros((k, k))
    np.add.at(S, (assign[edges // n], assign[edges % n]), 1.0)
    S = S + S.T
    with np.errstate(invalid="ignore", divide="ignore"):
        B_own = S / np.outer(sizes, sizes)
    B_prog = upper_to_full(model["b_upper"], len(model["p"]))
    if B_prog.shape != B_own.shape or not np.allclose(B_prog, B_own, rtol=1e-9, atol=0):
        fails.append("block averages differ from block sums over class sizes")
    if len(model["p"]) != k or not np.allclose(model["p"], sizes / n, rtol=1e-12, atol=0):
        fails.append("class masses differ from class sizes over n")

    levy = out["levy"]["value"]
    if not 0.0 <= levy <= 1.0:
        fails.append(f"Levy-Prokhorov distance {levy} outside [0, 1]")
    if not out["truth_err"] < cfg["one_block_err"]:
        fails.append(f"truth error {out['truth_err']:.4f} is not below the one-block "
                     f"error {cfg['one_block_err']:.4f}")
    slope = tail_fit(out["tail_degrees"])
    if abs(slope + 1.0 / cfg["tail_alpha"]) > cfg["tail_tol"]:
        fails.append(f"tail slope {slope:.3f} not within {cfg['tail_tol']} of "
                     f"{-1.0 / cfg['tail_alpha']:.3f}")
    return fails


def check_planted(out: dict, cfg: dict) -> list:
    """planted_search: least squares inside the experiment, then least cut.

    ``out["trials"]`` holds, per experiment seed, the CSV row and the graph
    and partition the estimator returned; ``out["cut"]`` the least-cut input
    graph and result."""
    fails = []
    n, kappa = cfg["n"], cfg["kappa"]
    floor = math.floor(kappa * n)
    for seed, (row, graph, assign) in sorted(out["trials"].items()):
        x = latent_positions(seed, n)
        expected, ties, _, _ = rebuild_graph(x, cfg["rho"], seed, cfg["kernel"])
        found = np.flatnonzero(np.triu(graph, 1).ravel())
        if graph.shape != (n, n) or not edges_match(found, expected, ties):
            fails.append(f"seed {seed}: estimator input differs from the rebuilt graph")
            continue
        a = dense_from_edges(expected, n)
        own = lp(block_residual(a, assign), 2)
        reported = float(row["objective"])
        if not close(reported, own):
            fails.append(f"seed {seed}: objective {reported!r} != ||A - A_pi||_2 {own!r}")
        sizes = np.bincount(assign)
        if np.any((sizes > 0) & (sizes < floor)):
            fails.append(f"seed {seed}: class sizes {sizes.tolist()} below {floor}")
    if sorted(out["trials"]) != sorted(cfg["seeds"]):
        fails.append(f"trials for seeds {sorted(out['trials'])}, expected {sorted(cfg['seeds'])}")

    a, assign, obj = out["cut"]
    floor = math.floor(cfg["cut_kappa"] * a.shape[0])
    sizes = np.bincount(assign)
    if np.any((sizes > 0) & (sizes < floor)):
        fails.append(f"least cut class sizes {sizes.tolist()} below {floor}")
    l1 = lp(block_residual(a, assign), 1)
    if not -1e-15 <= obj <= l1 + 1e-12:
        fails.append(f"least cut objective {obj!r} outside [0, ||A - A_pi||_1 = {l1!r}]")
    return fails


def above_planted(out: dict, cfg: dict) -> list:
    """Experiment seeds whose least-squares objective is above that of the
    planted two-block partition, which is feasible for the kappa rule.

    A least-squares estimate should fit no worse than the planted partition,
    but least_squares_search misses it on some seeds (it keeps k nonempty
    classes, so it cannot refine the two planted blocks when they are not
    each at least 2 floor(kappa n), and can miss a refinement that exists).
    The result is reported, not counted as a failed op, because which seeds
    it happens on depends on the seed."""
    worse = []
    for seed, (row, graph, assign) in sorted(out["trials"].items()):
        x = latent_positions(seed, cfg["n"])
        planted = lp(block_residual(graph, (x >= 0.5).astype(int)), 2)
        if float(row["objective"]) > planted + 1e-12:
            worse.append(seed)
    return worse


def check_cut_align(out: dict, cfg: dict) -> list:
    """cut_and_align: cut norms, relabeling distances, coupling, Levy-Prokhorov."""
    fails = []
    D, (v, S, T), lower = out["exact"]
    n = D.shape[0]
    if not close(abs(subset_sum(D, S, T)) / n**2, v):
        fails.append(f"exact cut certificate gives {abs(subset_sum(D, S, T)) / n**2!r}, value {v!r}")
    if v < lower[0] - 1e-12:
        fails.append(f"exact cut {v!r} below the heuristic lower bound {lower[0]!r}")
    if v > lp(D, 1) + 1e-12:
        fails.append(f"exact cut {v!r} above ||A||_1 {lp(D, 1)!r}")

    Ds, vs = out["exact_small"]
    brute = cut_norm_brute(Ds)
    if not close(vs, brute):
        fails.append(f"exact cut {vs!r} != brute force over S and T {brute!r}")

    Dl, (vl, Sl, Tl) = out["lower"]
    nl = Dl.shape[0]
    if not close(abs(subset_sum(Dl, Sl, Tl)) / nl**2, vl):
        fails.append("cut_norm_lower certificate does not reproduce its value")
    if vl > lp(Dl, 1) + 1e-12:
        fails.append(f"cut_norm_lower {vl!r} above ||A||_1")

    a, b, p, (val, sigma) = out["hat_p"]
    if not is_permutation(sigma, a.shape[0]):
        fails.append("hat_delta_p certificate is not a permutation")
    else:
        own = lp(a[np.ix_(sigma, sigma)] - b, p)
        if not close(val, own):
            fails.append(f"hat_delta_p {val!r} != ||A^sigma - B||_p {own!r}")
        s0 = degree_sorted_alignment(a, b)
        start = lp(a[np.ix_(s0, s0)] - b, p)
        if val > start + 1e-12:
            fails.append(f"hat_delta_p {val!r} above the degree-sorted alignment {start!r}")

    a, b, (val, sigma) = out["hat_cut"]
    if not is_permutation(sigma, a.shape[0]):
        fails.append("hat_delta_cut certificate is not a permutation")
    else:
        own = cut_norm_brute(a[np.ix_(sigma, sigma)] - b)
        if not close(val, own):
            fails.append(f"hat_delta_cut {val!r} != brute cut norm of A^sigma - B {own!r}")
        s0 = degree_sorted_alignment(a, b)
        start = cut_norm_brute(a[np.ix_(s0, s0)] - b)
        if val > start + 1e-12:
            fails.append(f"hat_delta_cut {val!r} above the degree-sorted alignment {start!r}")

    (p1, B1), (p2, B2), p, (val, nu) = out["step"]
    diff = np.abs(B1[:, None, :, None] - B2[None, :, None, :]) ** p
    product = float(np.einsum("ik,jl,ikjl->", np.outer(p1, p2), np.outer(p1, p2), diff)) ** (1 / p)
    if val > product + 1e-12:
        fails.append(f"delta_p_step {val!r} above the product coupling {product!r}")
    nu = np.asarray(nu)
    if (nu.shape != (p1.size, p2.size) or np.any(nu < 0)
            or not np.allclose(nu.sum(axis=1), p1, atol=1e-9)
            or not np.allclose(nu.sum(axis=0), p2, atol=1e-9)):
        fails.append("delta_p_step coupling does not have the block masses as marginals")
    else:
        own = float(np.einsum("ik,jl,ikjl->", nu, nu, diff)) ** (1 / p)
        if not close(val, own):
            fails.append(f"delta_p_step {val!r} != value of its coupling {own!r}")

    d_ab, d_ba, d_aa = out["levy"]
    if not close(d_ab, d_ba, rel=0, abs_=1e-9):
        fails.append(f"levy_prokhorov is not symmetric: {d_ab!r} vs {d_ba!r}")
    if d_aa != 0.0:
        fails.append(f"levy_prokhorov of a CDF with itself is {d_aa!r}")
    if not 0.0 <= d_ab <= 1.0:
        fails.append(f"levy_prokhorov {d_ab!r} outside [0, 1]")
    return fails
