"""Distances between matrices, block models, and degree distributions.

Exact modes enumerate (subsets for the cut norm, permutations for the
relabeling distances) under hard size gates; above the gates the heuristics
return explicitly one-sided bounds, and every public result says which side
it is on.

The exact cut norm enumerates the 2^n row subsets by meet in the middle
(Horowitz-Sahni): a subset's column sums are one entry of a subset-sum table
over the low n//2 rows plus one over the high rows, so it costs O(2^n n)
time and O(2^(n/2) n) memory. On one core of a 2-core x86-64 machine it
takes about 0.05 s at n = 20 and 0.4 s at n = 24.

The heuristic relabeling p-distances are swap local searches over an
objective that sums a cost per cell. Row and column placement tables, built
in O(n^3) per sweep and updated in O(n^2) per accepted swap, give the change
of every transposition in O(n) per position, as in local search for the
quadratic assignment problem (Taillard 1991). Only the transpositions these
changes cannot rule out reach the full O(n^2) objective, so the search takes
the same path as a full scan with a tenth or less of its objective calls
(n = 32 to 64).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .common import (
    DegenerateError,
    ParameterError,
    SearchBudget,
    SizeError,
    first_min,
    substream,
)
from .graphon import BlockModel, Graphon, StepGraphon
from .sampling import as_matrix

CUT_EXACT_MAX_N = 24
PERM_EXACT_MAX_N = 9
_CHUNK = 1 << 16
_SCREEN_MARGIN = 1e-9    # relative to the swap tables' largest entries
_CELL_GAUSS_ORDER = 8      # Gauss-Legendre nodes per cell axis
_CELL_TABLES_MAX_BYTES = 1 << 28   # one n x n float64 table per distinct matrix value
_IPF_ITERS = 500
_STEP_RANDOM_STARTS = 20   # seeded random transport-polytope vertices in delta_p_step
_STEP_SLSQP_ITERS = 200
_LEVY_DEPTH = 40           # bisection steps of levy_prokhorov


def matrix_lp(A, p: float) -> float:
    """Normalized matrix L^p norm: (n^-2 sum |a_ij|^p)^(1/p)."""
    if p < 1:
        raise ParameterError("p must be >= 1")
    m = as_matrix(A)
    return float((np.abs(m) ** p).mean() ** (1.0 / p))


# ---------------------------------------------------------------------------
# cut norm
# ---------------------------------------------------------------------------


def _best_t_for_colsums(c: np.ndarray) -> tuple[float, np.ndarray]:
    """Greedy inner maximization: best |sum over S x T| for fixed column sums c."""
    pos = c[c > 0].sum()
    neg = -c[c < 0].sum()
    if pos >= neg:
        return float(pos), np.flatnonzero(c > 0)
    return float(neg), np.flatnonzero(c < 0)


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """t[:, mask] = sum of the rows whose bits are set in mask, by doubling."""
    t = np.zeros((rows.shape[1], 1 << rows.shape[0]))
    for b, r in enumerate(rows):
        w = 1 << b
        np.add(t[:, :w], r[:, None], out=t[:, w:2 * w])
    return t


def cut_norm_exact(A):
    """Exact cut norm max_{S,T} n^-2 |sum_{S x T} A_ij| with a maximizing pair.

    For fixed S with column sums c the best T is read off the signs of c and
    is worth max(pos, neg) = (sum_j |c_j| + |sum_j c_j|) / 2. All 2^n row
    subsets S are enumerated by meet in the middle: c, and sum_j c_j carried
    as one more column, is a subset-sum table entry for the low n//2 rows plus
    one for the high rows, so the enumeration costs O(2^n n).
    """
    m = as_matrix(A)
    n = m.shape[0]
    if n > CUT_EXACT_MAX_N:
        raise SizeError(
            f"exact cut norm is gated at n <= {CUT_EXACT_MAX_N} (got {n}); "
            "use cut_norm_lower")
    h = n // 2
    m_tot = np.hstack([m, m.sum(axis=1)[:, None]])
    lo_t, hi_t = _subset_sums(m_tot[:h]), _subset_sums(m_tot[h:])
    n_lo = 1 << h
    best = 0.0
    best_mask = 0
    # masks run low | high << h in increasing order, one chunk at a time
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        hi = slice(start >> h, ((stop - 1) >> h) + 1)
        lo0 = start & (n_lo - 1)
        lo = slice(lo0, lo0 + min(n_lo, stop - start))
        his, los = hi_t[:, hi, None], lo_t[:, None, lo]
        if (n + 1) * (stop - start) <= _CHUNK:   # small n: all columns in one pass
            vals = np.abs(his + los).sum(axis=0)
        else:
            # one column at a time keeps the temporaries chunk-sized
            vals = np.zeros((his.shape[1], los.shape[2]))
            buf = np.empty_like(vals)
            for hj, lj in zip(his, los):
                vals += np.abs(np.add(hj, lj, out=buf), out=buf)
        vals = vals.ravel()
        i = int(np.argmax(vals))
        if 0.5 * vals[i] > best + 1e-15:
            best = 0.5 * float(vals[i])
            best_mask = start + i
    lo_mask, hi_mask = best_mask & (n_lo - 1), best_mask >> h
    _, best_t = _best_t_for_colsums(hi_t[:n, hi_mask] + lo_t[:n, lo_mask])
    best_s = np.flatnonzero((best_mask >> np.arange(n)) & 1)
    return best / n**2, best_s, best_t


def cut_norm_lower(A, budget: SearchBudget = SearchBudget(), seed: int = 0):
    """Heuristic feasible lower bound on the cut norm via alternating greedy ascent."""
    m = as_matrix(A)
    n = m.shape[0]
    rng = substream(seed, "cut_lower")
    best = 0.0
    best_s = np.array([], dtype=int)
    best_t = np.array([], dtype=int)

    def ascend(s: np.ndarray):
        nonlocal best, best_s, best_t
        s = s.astype(bool)
        val = -1.0
        for _ in range(budget.iterations):
            c = s @ m
            new_val, t_idx = _best_t_for_colsums(c)
            t = np.zeros(n, dtype=bool)
            t[t_idx] = True
            r = m @ t
            sign = 1.0 if (c[t] if t.any() else c).sum() >= 0 else -1.0
            s_new = (sign * r) > 0
            cand = abs(float(s_new @ m @ t))
            if cand <= val + 1e-15:
                break
            s, val = s_new, cand
        if val > best + 1e-15:
            best = val
            best_s = np.flatnonzero(s)
            c = s @ m
            _, best_t = _best_t_for_colsums(c)

    ascend(np.ones(n, dtype=bool))
    rowsum = m.sum(axis=1)
    ascend(rowsum > 0)
    ascend(rowsum < 0)
    for _ in range(budget.restarts):
        ascend(rng.random(n) < 0.5)
    return best / n**2, best_s, best_t


def cut_norm(A, budget: SearchBudget = SearchBudget(), seed: int = 0) -> float:
    """Exact cut norm when the size gate allows it, heuristic lower bound otherwise."""
    m = as_matrix(A)
    if m.shape[0] <= CUT_EXACT_MAX_N:
        return cut_norm_exact(A)[0]
    return cut_norm_lower(A, budget, seed)[0]


# ---------------------------------------------------------------------------
# permutation-invariant distances between matrices
# ---------------------------------------------------------------------------


def _apply_perm(m: np.ndarray, s: np.ndarray) -> np.ndarray:
    return m[np.ix_(s, s)]


def _degree_sorted_alignment(deg_a: np.ndarray, deg_b: np.ndarray) -> np.ndarray:
    """Permutation mapping degree-ranked vertices of A onto those of B."""
    n = deg_a.size
    order_a = np.lexsort((np.arange(n), deg_a))
    order_b = np.lexsort((np.arange(n), deg_b))
    s = np.empty(n, dtype=int)
    s[order_b] = order_a
    return s


def _twin_classes(a: np.ndarray) -> np.ndarray:
    """Class id per vertex; twins share identical rows and identical columns."""
    return np.unique(np.hstack([a, a.T]), axis=0, return_inverse=True)[1].ravel()


def _placement_table(cost, m: np.ndarray) -> np.ndarray:
    """t[x, r] = sum_y cost(x, y, m[r, y]): the cost of row r of m put at row x.

    Built in blocks of rows of t, so no n x n x n array is allocated.
    """
    n = m.shape[0]
    t = np.empty((n, n))
    y = np.arange(n)
    step = max(1, _CHUNK // (n * n))
    for x0 in range(0, n, step):
        xs = np.arange(x0, min(x0 + step, n))
        t[xs] = cost(xs[:, None, None], y, m[None]).sum(axis=2)
    return t


def _update_placement(t: np.ndarray, cost, m: np.ndarray, i: int, j: int,
                      perm: np.ndarray) -> None:
    """Bring t up to date after rows and columns i, j of m were swapped (m is new)."""
    x = np.arange(m.shape[0])[:, None]
    c = cost(x, np.array([i, j, i, j])[:, None, None], m[:, [i, j, j, i]].T[:, None, :])
    t[:] = t[:, perm]
    t += c[0] + c[1] - c[2] - c[3]


class _SwapScreen:
    """Change of sum_{x,y} cost(x, y, M[x, y]), M = a[s][:, s], for swaps of s.

    F[x, r] prices row r of M at row x and G does the same for columns.
    Swapping positions i and j changes only rows and columns i and j, so its
    delta is F and G read at (i, j), with the four cells where those rows and
    columns cross recounted: O(n) for all swaps of one position. The tables
    cost O(n^3) to build and O(n^2) to update after an accepted swap.
    """

    # corners (i,i), (i,j), (j,i), (j,j) of swap (i, j): is the row index i?
    # is the column index i?
    _X_IS_I = np.array([True, True, False, False])[:, None]
    _Y_IS_I = np.array([True, False, True, False])[:, None]

    def __init__(self, a: np.ndarray, cost, twins: np.ndarray, s: np.ndarray):
        self.n = s.size
        self.cost = cost
        self.cost_t = lambda x, y, v: cost(y, x, v)
        self.m = a[np.ix_(s, s)]
        self.twins = twins[s]
        self.f = _placement_table(cost, self.m)
        self.g = _placement_table(self.cost_t, self.m.T)
        self._tables_changed()

    def _tables_changed(self) -> None:
        # the tables carry rounding of a few n ulps of their largest entries
        self.margin = _SCREEN_MARGIN * (self.f.max() + self.g.max())
        self.fg = self.f + self.g
        self.fg_diag = np.diag(self.fg)
        self.row = -1

    def row_delta(self, i: int) -> np.ndarray:
        """Change of the total cost when positions i and j are swapped, for each j."""
        fg, k = self.fg, np.arange(self.n)
        x, y = np.where(self._X_IS_I, i, k), np.where(self._Y_IS_I, i, k)
        x_sw, y_sw = np.where(self._X_IS_I, k, i), np.where(self._Y_IS_I, k, i)
        # the corners' values as is, after the row swap alone, after the
        # column swap alone and after both
        v = self.m[np.stack([x, x_sw, x, x_sw]), np.stack([y, y, y_sw, y_sw])]
        c = self.cost(x, y, v).sum(axis=1)
        return fg[i] + fg[:, i] - fg[i, i] - self.fg_diag + c[0] - c[1] - c[2] + c[3]

    def next_candidate(self, i: int, j: int) -> int:
        """First j' >= j whose swap with i may pass the acceptance test, else n."""
        if self.row != i:
            self.skip = (self.row_delta(i) > self.margin) | (self.twins == self.twins[i])
            self.row = i
        hits = np.flatnonzero(~self.skip[j:])
        return j + int(hits[0]) if hits.size else self.n

    def swap(self, i: int, j: int) -> None:
        perm = np.arange(self.n)
        perm[[i, j]] = j, i
        self.m = self.m[np.ix_(perm, perm)]
        self.twins = self.twins[perm]
        _update_placement(self.f, self.cost, self.m, i, j, perm)
        _update_placement(self.g, self.cost_t, self.m.T, i, j, perm)
        self._tables_changed()


def _perm_search(objective, n: int, mode: str, budget: SearchBudget, seed: int,
                 init: np.ndarray, cell=None):
    """Minimize objective(sigma) over permutations: exhaustive or swap local search.

    ``cell = (a, cost)`` declares that objective(sigma) increases with
    sum_{x,y} cost(x, y, a[sigma[x], sigma[y]]), cost vectorized over
    broadcast index arrays x, y and values v. The swap search then calls
    objective only on transpositions that _SwapScreen cannot rule out: those
    whose cost delta is not above a rounding margin and that do not swap two
    twins of a. Every skipped transposition would have failed the acceptance
    test, so the path, value and sigma are the same as with a full scan.
    """
    if mode == "exact":
        if n > PERM_EXACT_MAX_N:
            raise SizeError(
                f"exact permutation search is gated at n <= {PERM_EXACT_MAX_N} (got {n})")
        perms = (np.asarray(perm) for perm in itertools.permutations(range(n)))
        return first_min((objective(s), s) for s in perms)
    if mode != "heuristic":
        raise ParameterError("mode must be 'exact' or 'heuristic'")
    rng = substream(seed, "perm_search")
    twins = _twin_classes(cell[0]) if cell else None

    def local_search(s: np.ndarray):
        s = s.copy()
        v = objective(s)
        for _ in range(budget.iterations):
            improved = False
            screen = _SwapScreen(*cell, twins, s) if cell else None
            for i in range(n - 1):
                j = i + 1
                while True:
                    if screen is not None:
                        j = screen.next_candidate(i, j)
                    if j >= n:
                        break
                    s[i], s[j] = s[j], s[i]
                    v2 = objective(s)
                    if v2 < v - 1e-15:
                        v = v2
                        improved = True
                        if screen is not None:
                            screen.swap(i, j)
                    else:
                        s[i], s[j] = s[j], s[i]
                    j += 1
            if not improved:
                break
        return v, s

    starts = itertools.chain([init], (rng.permutation(n) for _ in range(budget.restarts - 1)))
    return first_min(local_search(s) for s in starts)


def hat_delta_p(A, B, p: float, mode: str = "exact",
                budget: SearchBudget = SearchBudget(), seed: int = 0):
    """Relabeling distance min_sigma ||A^sigma - B||_p.

    Exact mode enumerates permutations (n <= 9); heuristic mode is an upper
    bound from degree-sorted alignment plus pairwise-swap local search.
    """
    a, b = as_matrix(A), as_matrix(B)
    if a.shape != b.shape:
        raise ParameterError("matrices must have the same size")
    n = a.shape[0]

    def objective(s):
        return matrix_lp(_apply_perm(a, s) - b, p)

    def cost(x, y, v):
        return np.abs(v - b[x, y]) ** p

    return _perm_search(objective, n, mode, budget, seed,
                        init=_degree_sorted_alignment(a.sum(axis=1), b.sum(axis=1)),
                        cell=(a, cost))


def hat_delta_cut(A, B, mode: str = "exact",
                  budget: SearchBudget = SearchBudget(), seed: int = 0):
    """Relabeling cut distance min_sigma ||A^sigma - B||_cut.

    Heuristic mode is a swap local search over sigma. For n <= CUT_EXACT_MAX_N
    its inner cut norms are exact, so the result is an upper bound on the
    relabeling cut distance. Above that gate each inner cut norm is a
    heuristic lower bound, and the result is an upper bound on the permutation
    minimum of that lower bound: it bounds the distance on neither side.
    """
    a, b = as_matrix(A), as_matrix(B)
    if a.shape != b.shape:
        raise ParameterError("matrices must have the same size")
    n = a.shape[0]
    inner_budget = SearchBudget(restarts=max(2, budget.restarts // 4),
                                iterations=budget.iterations)
    # exact mode is gated at n <= PERM_EXACT_MAX_N, where cut_norm is exact
    objective = lambda s: cut_norm(_apply_perm(a, s) - b, inner_budget, seed)
    return _perm_search(objective, n, mode, budget, seed,
                        init=_degree_sorted_alignment(a.sum(axis=1), b.sum(axis=1)))


def _cell_integral_tables(W: Graphon, n: int, p: float, values: np.ndarray) -> np.ndarray:
    """tables[i] is the n x n table of cell integrals of |values[i] - W|^p
    over the 1/n-grid cells (already carrying the 1/n^2 weight)."""
    tables = np.zeros((values.size, n, n))
    if isinstance(W, StepGraphon):
        cuts = np.unique(np.concatenate([np.linspace(0, 1, n + 1), W._t]))
        seg_len = np.diff(cuts)
        mids = (cuts[:-1] + cuts[1:]) / 2
        cell = np.minimum((mids * n).astype(int), n - 1)
        wvals = W.pair_eval(mids, mids)
        area = np.outer(seg_len, seg_len)
        ci = cell[:, None].repeat(mids.size, 1)
        cj = cell[None, :].repeat(mids.size, 0)
        for tab, v in zip(tables, values):
            np.add.at(tab, (ci, cj), np.abs(v - wvals) ** p * area)
        return tables
    g = _CELL_GAUSS_ORDER
    nodes, wts = np.polynomial.legendre.leggauss(g)
    # per-cell Gauss nodes on the whole grid at once
    offs = (nodes + 1) / (2 * n)
    xs = (np.arange(n)[:, None] / n + offs[None, :]).ravel()  # n*g points
    wv = W.pair_eval(xs, xs)
    for i, v in enumerate(values):
        cellvals = np.abs(v - wv).reshape(n, g, n, g) ** p
        tables[i] = np.einsum("agbh,g,h->ab", cellvals, wts / 2, wts / 2) / n**2
    return tables


def hat_delta_p_vs_graphon(A, W: Graphon, p: float, mode: str = "exact",
                           budget: SearchBudget = SearchBudget(), seed: int = 0):
    """min_sigma || step-embedding of A^sigma - W ||_p for a graphon over [0,1]."""
    if W.latent_space != "unit_interval":
        raise ParameterError("needs a graphon over [0,1]")
    a = as_matrix(A)
    n = a.shape[0]
    values, a_idx = np.unique(a, return_inverse=True)
    a_idx = a_idx.reshape(a.shape)
    need = values.size * n * n * 8
    if need > _CELL_TABLES_MAX_BYTES:
        raise SizeError(
            f"lp-vs-graphon needs one {n}x{n} table per distinct matrix value "
            f"({values.size} values, {need / 2**20:.0f} MiB); gated at "
            f"{_CELL_TABLES_MAX_BYTES / 2**20:.0f} MiB")
    stacked = _cell_integral_tables(W, n, p, values)

    def objective(s):
        sel = a_idx[np.ix_(s, s)]
        total = stacked[sel, np.arange(n)[:, None], np.arange(n)[None, :]].sum()
        return float(total) ** (1.0 / p)

    # degree-sorted init: align A's degree order with the graphon's degree order
    dW = np.array([float(W.pair_eval([x], np.linspace(0, 1, 129)).mean())
                   for x in (np.arange(n) + 0.5) / n])
    return _perm_search(objective, n, mode, budget, seed,
                        init=_degree_sorted_alignment(a.sum(axis=1), dW),
                        cell=(a_idx, lambda x, y, v: stacked[v, x, y]))


# ---------------------------------------------------------------------------
# coupling distance between block models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Coupling:
    """Joint mass matrix with prescribed marginals (a transport plan)."""

    nu: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray

    def __post_init__(self) -> None:
        nu = np.asarray(self.nu, dtype=float)
        p = np.asarray(self.row_masses, dtype=float)
        q = np.asarray(self.col_masses, dtype=float)
        if np.any(nu < -1e-12):
            raise ParameterError("coupling entries must be nonnegative")
        if np.max(np.abs(nu.sum(axis=1) - p)) > 1e-10:
            raise ParameterError("row marginals violated")
        if np.max(np.abs(nu.sum(axis=0) - q)) > 1e-10:
            raise ParameterError("column marginals violated")
        object.__setattr__(self, "nu", np.maximum(nu, 0.0))
        object.__setattr__(self, "row_masses", p)
        object.__setattr__(self, "col_masses", q)


def _greedy_plan(p: np.ndarray, q: np.ndarray, order_p, order_q) -> np.ndarray:
    """Northwest-corner transport plan along the given block orders; exactly feasible."""
    nu = np.zeros((p.size, q.size))
    rem_p = p.copy()
    rem_q = q.copy()
    i = j = 0
    op, oq = list(order_p), list(order_q)
    while i < len(op) and j < len(oq):
        a, b = op[i], oq[j]
        m = min(rem_p[a], rem_q[b])
        nu[a, b] += m
        rem_p[a] -= m
        rem_q[b] -= m
        if rem_p[a] <= rem_q[b]:
            rem_p[a] = 0.0
            i += 1
        else:
            rem_q[b] = 0.0
            j += 1
    return nu


def _repair_marginals(nu: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray | None:
    """Clip to the orthant and IPF-scale back to the prescribed marginals."""
    x = np.maximum(nu, 0.0) + 1e-12 * np.outer(p, q)
    for _ in range(_IPF_ITERS):
        x *= (p / np.maximum(x.sum(axis=1), 1e-300))[:, None]
        x *= (q / np.maximum(x.sum(axis=0), 1e-300))[None, :]
    if np.max(np.abs(x.sum(axis=1) - p)) > 1e-10 or np.max(np.abs(x.sum(axis=0) - q)) > 1e-10:
        return None
    return x


def delta_p_step(W1: BlockModel, W2: BlockModel, p: float, seed: int = 0):
    """Upper bound on the coupling distance between two step graphons.

    Minimizes E|B - B'|^p over transport plans of the block masses. The
    candidate plans are, in this order: the product plan, two greedy matchings
    by degree, every permutation plan when both models have k <= 6 equal
    masses, and 20 seeded random transport-polytope vertices. Only the first
    28 candidates get an SLSQP descent; the rest are only scored. The k!
    permutation plans can fill that slice: at k = 4, 1 of the 20 random
    vertices is polished, and at k >= 5 none is. Nonconvex, so the result is
    an upper bound; the achieving coupling is returned as the certificate.
    """
    p1, B1 = W1.p, W1.B
    p2, B2 = W2.p, W2.B
    k1, k2 = p1.size, p2.size
    candidates: list[np.ndarray] = [np.outer(p1, p2)]

    d1 = B1 @ p1
    d2 = B2 @ p2
    for key1, key2 in ((d1, d2), (-d1, -d2)):
        candidates.append(_greedy_plan(p1, p2, np.argsort(key1, kind="stable"),
                                       np.argsort(key2, kind="stable")))
    if k1 == k2 and np.allclose(p1, 1.0 / k1) and np.allclose(p2, 1.0 / k2) and k1 <= 6:
        for perm in itertools.permutations(range(k1)):
            nu = np.zeros((k1, k1))
            nu[np.arange(k1), list(perm)] = 1.0 / k1
            candidates.append(nu)

    rng = substream(seed, "delta_p_step")
    for _ in range(_STEP_RANDOM_STARTS):
        order_p = rng.permutation(k1)
        order_q = rng.permutation(k2)
        candidates.append(_greedy_plan(p1, p2, order_p, order_q))

    diff = np.abs(B1[:, None, :, None] - B2[None, :, None, :]) ** p
    M = diff.reshape(k1 * k2, k1 * k2)

    def f(x):
        return float(x @ M @ x)

    def grad(x):
        return 2.0 * (M @ x)

    # row sums of nu give p1, all but the last column sum give p2 (the last
    # one is implied)
    A_eq = np.vstack([np.kron(np.eye(k1), np.ones(k2)),
                      np.kron(np.ones(k1), np.eye(k2))[:-1]])
    b_eq = np.concatenate([p1, p2[:-1]])

    polished: list[np.ndarray] = []
    for start in candidates[: _STEP_RANDOM_STARTS + 8]:
        res = optimize.minimize(
            f, start.ravel(), jac=grad, method="SLSQP",
            bounds=[(0.0, 1.0)] * (k1 * k2),
            constraints={"type": "eq", "fun": lambda x: A_eq @ x - b_eq,
                         "jac": lambda x: A_eq},
            options={"maxiter": _STEP_SLSQP_ITERS, "ftol": 1e-14})
        fixed = _repair_marginals(res.x.reshape(k1, k2), p1, p2)
        if fixed is not None:
            polished.append(fixed)

    best_val, best_nu = first_min((float(np.einsum("ik,jl,ikjl->", nu, nu, diff)), nu)
                                  for nu in candidates + polished)
    return best_val ** (1.0 / p), Coupling(best_nu, p1, p2)


# ---------------------------------------------------------------------------
# degree distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cdf:
    """Right-continuous step CDF: value values[i] on [points[i], points[i+1])."""

    points: np.ndarray
    values: np.ndarray
    provenance: str = "empirical"

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if pts.size != vals.size or pts.size == 0:
            raise ParameterError("points and values must be nonempty and matched")
        if np.any(np.diff(pts) <= 0):
            raise ParameterError("support points must be strictly increasing")
        if np.any(np.diff(vals) < 0) or abs(vals[-1] - 1.0) > 1e-12:
            raise ParameterError("values must be nondecreasing with final value 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)

    def __call__(self, lam) -> np.ndarray | float:
        idx = np.searchsorted(self.points, lam, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(lam) else out

    @classmethod
    def from_samples(cls, xs, provenance: str = "empirical") -> "Cdf":
        xs = np.sort(np.asarray(xs, dtype=float))
        pts, counts = np.unique(xs, return_counts=True)
        vals = np.cumsum(counts) / xs.size
        vals[-1] = 1.0
        return cls(pts, vals, provenance)

    @classmethod
    def from_function(cls, D, lo: float, hi: float, m: int = 4000,
                      provenance: str = "analytic") -> "Cdf":
        """Step discretization of an analytic CDF, accurate to ~1/m in value.

        Starts from a uniform grid and bisects every interval across which D
        moves by more than 1/m, so steep regions get dense support points;
        genuine jumps stop refining once the interval width is negligible.
        """
        pts = np.linspace(lo, hi, m)
        vals = np.clip(np.asarray([float(D(t)) for t in pts]), 0.0, 1.0)
        tol = 1.0 / m
        for _ in range(60):
            gaps = np.diff(vals)
            widths = np.diff(pts)
            idx = np.flatnonzero((gaps > tol) & (widths > 1e-12 * max(1.0, hi)))
            if idx.size == 0:
                break
            mids = (pts[idx] + pts[idx + 1]) / 2.0
            mv = np.clip(np.asarray([float(D(t)) for t in mids]), 0.0, 1.0)
            pts = np.concatenate([pts, mids])
            vals = np.concatenate([vals, mv])
            order = np.argsort(pts)
            pts, vals = pts[order], vals[order]
        vals = np.maximum.accumulate(vals)
        vals[-1] = 1.0
        keep = np.concatenate(([True], np.diff(vals) > 0))
        return cls(pts[keep], vals[keep], provenance)


def degree_cdf_of_matrix(A) -> Cdf:
    """Empirical CDF of normalized degrees d_i / dbar of a matrix's row sums."""
    return degree_cdf_of_degrees(as_matrix(A).sum(axis=1))


def degree_cdf_of_degrees(deg) -> Cdf:
    """Empirical CDF of normalized degrees d_i / dbar."""
    deg = np.asarray(deg, dtype=float)
    dbar = deg.mean()
    if dbar <= 0:
        raise DegenerateError("empty graph has no normalized degree distribution")
    return Cdf.from_samples(deg / dbar, provenance="empirical")


def levy_prokhorov(D: Cdf, Dp: Cdf) -> float:
    """Levy-Prokhorov distance between step CDFs, exact via bisection.

    Feasibility of a candidate eps is checked at the finite set of breakpoints
    where either side of the two-sided inequality can jump.
    """

    def left_limit(cdf: Cdf, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(cdf.points, x, side="left") - 1
        return np.where(idx >= 0, cdf.values[np.maximum(idx, 0)], 0.0)

    def slack(eps: float) -> float:
        """max over lambda of the worse inequality violation at this eps.

        Both sides of the two-sided inequality are piecewise constant in
        lambda, so the supremum is attained either at a breakpoint (the
        left-hand CDF has just jumped) or as a left limit approaching one
        (the shifted right-hand CDF is about to jump). Checking both kinds
        of point makes the sup exact.
        """
        # sup_lam D(lam) - Dp(lam + eps): up-jumps at D.points, down-jumps
        # at Dp.points - eps (approached from the left)
        a1 = np.max(D(D.points) - Dp(D.points + eps))
        a2 = np.max(left_limit(D, Dp.points - eps) - left_limit(Dp, Dp.points))
        # sup_lam Dp(lam - eps) - D(lam): up-jumps at Dp.points + eps,
        # down-jumps at D.points (approached from the left)
        b1 = np.max(Dp(Dp.points) - D(Dp.points + eps))
        b2 = np.max(left_limit(Dp, D.points - eps) - left_limit(D, D.points))
        return float(max(a1, a2, b1, b2))

    lo, hi = 0.0, 1.0
    if slack(0.0) <= 0.0:
        return 0.0
    for _ in range(_LEVY_DEPTH):
        mid = (lo + hi) / 2
        if slack(mid) <= mid + 1e-15:
            hi = mid
        else:
            lo = mid
    return hi
