"""The three block-model estimators: least squares, least cut norm, degree sorting.

Least squares and least cut take the block-floor parameter kappa (classes of
size at least floor(kappa*n), at most ceil(n / floor(kappa*n)) of them);
degree sorting takes the class count k directly. Exact modes enumerate
partitions under hard size gates; search modes are seeded local searches that
can only overshoot the optimum.

Degree sorting also accepts a scipy sparse matrix and then runs in
O(nnz + n + k^2) memory; the other estimators work on dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .common import (DegenerateError, ParameterError, SearchBudget, SizeError,
                     canonical_labels, feasible_partitions, substream)
from .graphon import BlockModel
from .metrics import cut_norm, cut_norm_exact, matrix_lp
from .sampling import as_matrix, density

LS_EXACT_MAX_N = 13
CUT_EXACT_MAX_N = 10
_FULL_SWAP_MAX_N = 32
_SWAP_SAMPLE = 24          # swap candidates per vertex above _FULL_SWAP_MAX_N
_POLISH_MAX_SWEEPS = 60


@dataclass(frozen=True)
class Partition:
    """Assignment of [n] vertices to classes 0..k-1."""

    assign: np.ndarray
    k: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assign, dtype=int)
        if a.ndim != 1 or a.size == 0:
            raise ParameterError("assignment must be a nonempty vector")
        if a.min() < 0 or a.max() >= self.k:
            raise ParameterError("class labels out of range")
        object.__setattr__(self, "assign", a)

    @property
    def n(self) -> int:
        return self.assign.size

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assign, minlength=self.k)

    def canonical(self) -> "Partition":
        """Relabel classes in order of first appearance (restricted growth form)."""
        out = canonical_labels(self.assign)
        return Partition(out, int(out.max()) + 1)


@dataclass(frozen=True)
class EstimationResult:
    what: BlockModel          # relative class sizes and block averages
    partition: Partition
    objective: float          # residual in the algorithm's own norm
    normalized: BlockModel | None  # block averages divided by the graph density
    mode: str                 # "exact" | "search"
    diagnostics: dict = field(default_factory=dict)


def kappa_class_bounds(n: int, kappa: float) -> tuple[int, int]:
    """(min class size, max class count) for the kappa rule."""
    if kappa * n < 1.0:
        raise ParameterError("need kappa * n >= 1")
    if kappa > 1.0:
        raise ParameterError("kappa must lie in (0,1]")
    m = math.floor(kappa * n)
    k = math.ceil(n / m)
    return m, k


def block_average(A, pi: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Block-average matrix A/pi and its lift back to n x n.

    Diagonal cells average over the full block including the zero diagonal;
    blocks with an empty side average to 0.
    """
    B = _block_means(as_matrix(A), pi.assign, pi.k)
    return B, B[np.ix_(pi.assign, pi.assign)]


def _block_means(a, assign: np.ndarray, k: int) -> np.ndarray:
    """Block averages of a dense array (dense indicator Z) or of a scipy sparse
    matrix (sparse Z, so Z^T A Z costs O(nnz + n))."""
    n = a.shape[0]
    if sparse.issparse(a):
        Z = sparse.csr_array((np.ones(n), (np.arange(n), assign)), shape=(n, k))
        sums = (Z.T @ a @ Z).toarray()
    else:
        Z = np.zeros((n, k))
        Z[np.arange(n), assign] = 1.0
        sums = Z.T @ a @ Z
    sizes = np.bincount(assign, minlength=k).astype(float)
    denom = np.outer(sizes, sizes)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, sums / denom, 0.0)


def _result_from_partition(A, pi: Partition, objective: float, mode: str,
                           diagnostics: dict | None = None) -> EstimationResult:
    """Package a partition: drop empty classes, build (p, B), attach density
    scaling. A may be dense or scipy sparse."""
    a = A if sparse.issparse(A) else as_matrix(A)
    pi = pi.canonical()
    sizes = pi.sizes()
    nonempty = sizes > 0
    dropped = int((~nonempty).sum())
    B = _block_means(a, pi.assign, pi.k)
    p_hat = sizes[nonempty] / pi.n
    B_hat = B[np.ix_(nonempty, nonempty)]
    model = BlockModel(p_hat, B_hat)
    rho = density(a)
    normalized = BlockModel(p_hat, B_hat / rho) if rho > 0 else None
    diag = dict(diagnostics or {})
    diag["empty_classes_dropped"] = dropped
    return EstimationResult(model, pi, objective, normalized, mode, diag)


# ---------------------------------------------------------------------------
# exact modes
# ---------------------------------------------------------------------------


def _exact_fit(A, kappa: float, objective, max_n: int, name: str) -> EstimationResult:
    """Minimize objective(A - A_pi) over all kappa-feasible partitions, gated
    at n <= max_n; the first minimizer in restricted-growth order wins."""
    a = as_matrix(A)
    n = a.shape[0]
    if n > max_n:
        raise SizeError(f"exact {name} is gated at n <= {max_n} (got {n}); "
                        f"use {name.replace(' ', '_')}_search")
    best_obj = math.inf
    best_assign = None
    for assign in feasible_partitions(n, *kappa_class_bounds(n, kappa)):
        _, lifted = block_average(a, Partition(assign, int(assign.max()) + 1))
        obj = objective(a - lifted)
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_assign = assign
    pi = Partition(best_assign, int(best_assign.max()) + 1)
    return _result_from_partition(a, pi, best_obj, "exact")


def least_squares_exact(A, kappa: float) -> EstimationResult:
    """Global minimizer of ||A - B^pi||_2 over kappa-feasible partitions.

    The optimal B for a fixed partition is the block average, so only
    partitions are enumerated. Ties break to the lexicographically smallest
    restricted-growth assignment.
    """
    return _exact_fit(A, kappa, lambda r: matrix_lp(r, 2), LS_EXACT_MAX_N, "least squares")


def least_cut_exact(A, kappa: float) -> EstimationResult:
    """Global minimizer of ||A - A_pi||_cut over kappa-feasible partitions."""
    return _exact_fit(A, kappa, lambda r: cut_norm_exact(r)[0], CUT_EXACT_MAX_N, "least cut")


# ---------------------------------------------------------------------------
# search modes
# ---------------------------------------------------------------------------


def _repair_min_sizes(a: np.ndarray, assign: np.ndarray, min_size: int, k: int) -> np.ndarray:
    """Restore the class-size floor: move lowest-cost vertices into short
    classes while donors exist, otherwise dissolve the smallest short class.
    Gives up (accepting the best feasible point) after 2n moves.

    Each move takes one vectorized pass over the donor rows: the cost of
    moving v is the squared-residual increase of row v against the current
    block averages, and the first vertex that beats every earlier one by
    more than 1e-15 moves."""
    n = a.shape[0]
    assign = assign.copy()
    for _ in range(2 * n):
        sizes = np.bincount(assign, minlength=k)
        short = [c for c in range(k) if 0 < sizes[c] < min_size]
        if not short:
            break
        target = min(short, key=lambda c: sizes[c])
        B = _block_means(a, assign, k)
        rows = np.flatnonzero(sizes[assign] > min_size)
        if rows.size == 0:
            # no class can give a vertex away: dissolve the smallest short
            # class, sending each member to its best-fitting other class
            ok = np.flatnonzero((sizes >= min_size) & (np.arange(k) != target))
            if ok.size == 0:
                ok = np.flatnonzero((sizes > 0) & (np.arange(k) != target))
            if ok.size == 0:
                break
            for v in np.flatnonzero(assign == target):
                costs = ((a[v] - B[ok][:, assign]) ** 2).sum(axis=1)
                assign[v] = int(ok[int(np.argmin(costs))])
            continue
        cur = ((a[rows] - B[assign[rows]][:, assign]) ** 2).sum(axis=1)
        new = ((a[rows] - B[target, assign]) ** 2).sum(axis=1)
        best_v, best_cost = -1, math.inf
        for v, cost in zip(rows.tolist(), (new - cur).tolist()):
            if cost < best_cost - 1e-15:
                best_cost, best_v = cost, v
        if best_v < 0:
            break
        assign[best_v] = target
    return assign


def _ls_objective(a: np.ndarray, assign: np.ndarray, k: int) -> float:
    _, lifted = block_average(a, Partition(assign, k))
    return matrix_lp(a - lifted, 2)


class _BlockSums:
    """Incremental bookkeeping for the least-squares objective.

    Minimizing ||A - A_pi||_2 over partitions is the same as maximizing
    score = sum_ij S_ij^2 w_i w_j, where S = Z^T A Z holds the block sums
    and w_i = 1/n_i (0 for an empty class; sum A^2 is fixed).

    Moving v from class p to q, or swapping v in p with u in q, adds
    x y^T + y x^T to S, with x = e_q - e_p and y = g + (s/2) x, where
    g = C[v], s = A_vv for a move and g = C[v] - C[u],
    s = A_vv + A_uu - 2 A_uv for a swap. With w' the weights afterwards
    (a move changes w_p and w_q by e_p and e_q; a swap changes none) the
    score gains
        sum_{i in p,q} e_i (S_i^2 . (w + w'))
        + 4 ((w'_q S_q - w'_p S_p) * w') . y
        + 2 (w'_p + w'_q) (w' . y^2) + 2 (w'_q y_q - w'_p y_p)^2,
    which costs O(k) per candidate; all candidates for one vertex are
    scored in one numpy expression. The running score is recomputed in
    full after each accepted change, so it cannot drift.
    """

    def __init__(self, a: np.ndarray, assign: np.ndarray, k: int):
        n = a.shape[0]
        self.a, self.k = a, k
        self.assign = assign.copy()
        Z = np.zeros((n, k))
        Z[np.arange(n), assign] = 1.0
        self.C = a @ Z                       # C[v, c] = sum of A[v, u] over u in class c
        self.S = Z.T @ a @ Z
        self.sizes = np.bincount(assign, minlength=k).astype(float)
        self._rescore()

    def _rescore(self) -> None:
        denom = np.outer(self.sizes, self.sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.score = float(np.where(denom > 0, self.S * self.S / denom, 0.0).sum())
            self.w = np.where(self.sizes > 0, 1.0 / self.sizes, 0.0)

    def _gains(self, p: int, q: np.ndarray, y: np.ndarray,
               w2: np.ndarray | None = None) -> np.ndarray:
        """Score change per candidate t when S gains x y[t]^T + y[t] x^T,
        x = e_q[t] - e_p; w2[t] holds the weights afterwards (None: unchanged)."""
        S, w, t = self.S, self.w, np.arange(q.size)
        if w2 is None:
            w2, w2_p, w2_q, resized = w, w[p], w[q], 0.0
        else:
            w2_p, w2_q = w2[:, p], w2[t, q]
            ws = w + w2
            resized = ((w2_p - w[p]) * (S[p] ** 2 * ws).sum(axis=1)
                       + (w2_q - w[q]) * (S[q] ** 2 * ws).sum(axis=1))
        return (resized
                + 4.0 * ((S[q] * w2_q[:, None] - np.outer(w2_p, S[p])) * w2 * y).sum(axis=1)
                + 2.0 * (w2_p + w2_q) * (y * y * w2).sum(axis=1)
                + 2.0 * (w2_q * y[t, q] - w2_p * y[:, p]) ** 2)

    def move_gains(self, v: int, ds: np.ndarray) -> np.ndarray:
        """Score change of moving v to each class in ds."""
        c, t = self.assign[v], np.arange(ds.size)
        y = np.repeat(self.C[v][None, :], ds.size, axis=0)
        y[:, c] -= 0.5 * self.a[v, v]
        y[t, ds] += 0.5 * self.a[v, v]
        w2 = np.repeat(self.w[None, :], ds.size, axis=0)
        w2[:, c] = 1.0 / (self.sizes[c] - 1) if self.sizes[c] > 1 else 0.0
        w2[t, ds] = 1.0 / (self.sizes[ds] + 1)
        return self._gains(c, ds, y, w2)

    def swap_gains(self, v: int, us: np.ndarray) -> np.ndarray:
        """Score change of exchanging the classes of v and each u in us
        (all in other classes than v; sizes unchanged)."""
        a, p, q = self.a, self.assign[v], self.assign[us]
        y = self.C[v] - self.C[us]
        h = 0.5 * (a[v, v] + a[us, us]) - a[us, v]
        y[:, p] -= h
        y[np.arange(us.size), q] += h
        return self._gains(p, q, y)

    def apply_move(self, v: int, d: int) -> None:
        c = self.assign[v]
        row, S = self.C[v], self.S
        S[c, :] -= row
        S[:, c] -= row
        S[d, :] += row
        S[:, d] += row
        x = np.zeros(self.k)                 # S also gains A_vv x x^T, x = e_d - e_c
        x[d] += 1.0
        x[c] -= 1.0
        S += self.a[v, v] * np.outer(x, x)
        self.sizes[c] -= 1
        self.sizes[d] += 1
        self.assign[v] = d
        self.C[:, c] -= self.a[:, v]
        self.C[:, d] += self.a[:, v]
        self._rescore()

    def apply_swap(self, v: int, u: int) -> None:
        a_cls, b_cls = self.assign[v], self.assign[u]
        self.apply_move(v, b_cls)
        self.apply_move(u, a_cls)


def _polish(a: np.ndarray, assign: np.ndarray, k: int, min_size: int,
            rng: np.random.Generator) -> np.ndarray:
    """Greedy exact-objective descent: single moves (size-floor preserving)
    plus cross-class swaps, until a local optimum under both move sets.

    A move takes v's best target class, scanning classes in order and
    keeping a class only if it beats the best so far by 1e-10. A swap sweep
    takes, for each v, the first candidate u that improves the score by
    1e-10, then goes on with the candidates after u against the new state.
    Swap sweeps scan the full neighborhood at small n and a seeded random
    subset of _SWAP_SAMPLE vertices per v above _FULL_SWAP_MAX_N. All of a
    vertex's candidates are scored at once from _BlockSums gains, and each
    is compared as score + gain against score + 1e-10."""
    st = _BlockSums(a, assign, k)
    n = a.shape[0]
    classes = np.arange(k)
    for _ in range(_POLISH_MAX_SWEEPS):
        improved = False
        for v in rng.permutation(n):
            c = st.assign[v]
            if not (st.sizes[c] - 1 >= min_size or st.sizes[c] == 1):
                continue
            ds = np.flatnonzero((classes != c) & (st.sizes + 1 >= min_size))
            best_d, best_score = -1, st.score
            for d, sc in zip(ds.tolist(), (st.score + st.move_gains(v, ds)).tolist()):
                if sc > best_score + 1e-10:
                    best_d, best_score = d, sc
            if best_d >= 0:
                st.apply_move(v, best_d)
                improved = True
        for v in rng.permutation(n):
            if n <= _FULL_SWAP_MAX_N:
                cands = np.arange(n)
            else:
                cands = rng.permutation(n)[:_SWAP_SAMPLE]
            while True:
                # class membership is read against the current state, so a
                # vertex skipped before a swap can qualify after it
                us = cands[st.assign[cands] != st.assign[v]]
                hit = np.flatnonzero(st.score + st.swap_gains(v, us) > st.score + 1e-10)
                if hit.size == 0:
                    break
                u = us[hit[0]]
                st.apply_swap(v, u)
                improved = True
                cands = cands[np.flatnonzero(cands == u)[0] + 1:]
        if not improved:
            break
    return st.assign


def _hierarchical_init(a: np.ndarray, k_eff: int, rng: np.random.Generator) -> np.ndarray:
    """Coarse-to-fine start: optimize a 2-class split first, then divide each
    coarse class evenly. Lands refinement-shaped optima that flat random
    starts tend to miss."""
    n = a.shape[0]
    coarse = rng.permutation(np.arange(n) * 2 // n)
    coarse = _polish(a, coarse, 2, max(1, n // 4), rng)
    assign = np.empty(n, dtype=int)
    for c in range(2):
        idx = np.flatnonzero(coarse == c)
        parts = max(1, k_eff // 2 + (k_eff % 2 if c == 0 else 0))
        sub = rng.permutation(np.arange(idx.size) * parts // max(idx.size, 1))
        assign[idx] = (0 if c == 0 else (k_eff - k_eff // 2)) + sub
    return assign % max(k_eff, 1)


def least_squares_search(A, kappa: float, restarts: int = 50, seed: int = 0) -> EstimationResult:
    """Alternating-minimization upper bound for the least squares objective.

    Each restart alternates (1) block averaging and (2) sequential vertex
    reassignment against the fixed averages - both monotone in the objective -
    then repairs class-size violations and re-iterates to a fixed point, after
    which an exact-objective move/swap descent polishes the result. Restarts
    mix a degree-sorted start, coarse-to-fine starts, and uniform random ones.
    """
    a = as_matrix(A)
    n = a.shape[0]
    min_size, k = kappa_class_bounds(n, kappa)
    # at most this many classes can meet the floor simultaneously
    k_eff = min(k, max(1, n // min_size))
    best_obj = math.inf
    best_assign = None
    trace_len = 0
    for r in range(restarts):
        rng = substream(seed, "ls_restart", r)
        if r == 0:
            # degree-sorted contiguous start
            order = np.lexsort((np.arange(n), -a.sum(axis=1)))
            assign = np.empty(n, dtype=int)
            assign[order] = np.minimum(np.arange(n) * k_eff // n, k_eff - 1)
        elif r % 2 == 1 and k_eff >= 2:
            assign = _repair_min_sizes(a, _hierarchical_init(a, k_eff, rng),
                                       min_size, k)
        else:
            assign = _repair_min_sizes(a, rng.integers(k_eff, size=n),
                                       min_size, k)
        prev = math.inf
        for _ in range(100):
            pi = Partition(assign, k)
            B, lifted = block_average(a, pi)
            obj_before = matrix_lp(a - lifted, 2)
            assert obj_before <= prev + 1e-12, "averaging step increased the objective"
            # sequential reassignment, monotone for fixed B: moving v changes
            # row v and (by symmetry) column v, plus the diagonal cell once
            for v in range(n):
                base = ((a[v][None, :] - B[:, assign]) ** 2).sum(axis=1)
                row_off = base - (a[v, v] - B[:, assign[v]]) ** 2
                resid = 2.0 * row_off + (a[v, v] - B.diagonal()) ** 2
                assign[v] = int(np.argmin(resid))
            obj_after = _ls_objective(a, assign, k)
            assert obj_after <= obj_before + 1e-12, "reassignment increased the objective"
            assign = _repair_min_sizes(a, assign, min_size, k)
            obj = _ls_objective(a, assign, k)
            trace_len += 1
            if obj >= prev - 1e-12:
                break
            prev = obj
        sizes = np.bincount(assign, minlength=k)
        if np.any((sizes > 0) & (sizes < min_size)):
            continue
        # exact-objective descent (moves + swaps) from the alternating fixed
        # point; can only improve the upper bound
        assign = _polish(a, assign, k, min_size, rng)
        obj = _ls_objective(a, assign, k)
        sizes = np.bincount(assign, minlength=k)
        if np.all((sizes == 0) | (sizes >= min_size)) and obj < best_obj - 1e-15:
            best_obj = obj
            best_assign = assign.copy()
    if best_assign is None:
        raise DegenerateError("search found no feasible partition")
    pi = Partition(best_assign, k)
    return _result_from_partition(a, pi, best_obj, "search",
                                  {"restarts": restarts, "trace_length": trace_len})


def least_cut_search(A, kappa: float, restarts: int = 20, seed: int = 0,
                     budget: SearchBudget = SearchBudget(restarts=4, iterations=50)
                     ) -> EstimationResult:
    """Vertex-move local search for the least cut objective.

    Candidate objectives use the heuristic cut-norm lower bound, so the
    reported objective is an estimate of an upper bound (caveat recorded in
    the diagnostics).
    """
    a = as_matrix(A)
    n = a.shape[0]
    min_size, k = kappa_class_bounds(n, kappa)

    def objective(assign) -> float:
        _, lifted = block_average(a, Partition(assign, k))
        return cut_norm(a - lifted, budget, seed)

    best_obj = math.inf
    best_assign = None
    for r in range(restarts):
        rng = substream(seed, "cut_restart", r)
        if r == 0:
            order = np.lexsort((np.arange(n), -a.sum(axis=1)))
            assign = np.empty(n, dtype=int)
            assign[order] = np.minimum(np.arange(n) * k // n, k - 1)
        else:
            assign = rng.integers(k, size=n)
        assign = _repair_min_sizes(a, assign, min_size, k)
        obj = objective(assign)
        for _ in range(budget.iterations):
            improved = False
            for v in rng.permutation(n):
                cur = assign[v]
                sizes = np.bincount(assign, minlength=k)
                if sizes[cur] <= min_size:
                    continue
                for c in range(k):
                    if c == cur:
                        continue
                    if sizes[c] == 0 and min_size > 1:
                        continue  # a move into an empty class lands below the size floor
                    assign[v] = c
                    cand = objective(assign)
                    if cand < obj - 1e-12:
                        obj = cand
                        cur = c
                        improved = True
                    else:
                        assign[v] = cur
            if not improved:
                break
        sizes = np.bincount(assign, minlength=k)
        if np.all((sizes == 0) | (sizes >= min_size)) and obj < best_obj - 1e-15:
            best_obj = obj
            best_assign = assign.copy()
    if best_assign is None:
        raise DegenerateError("search found no feasible partition")
    pi = Partition(best_assign, k)
    return _result_from_partition(a, pi, best_obj, "search",
                                  {"restarts": restarts,
                                   "objective_is_heuristic": True})


def degree_sorting(A, k: int) -> EstimationResult:
    """Sort vertices by degree (descending, ties by index) and cut into k
    nearly equal classes with boundaries round(i*n/k).

    A may be a dense array or a scipy sparse matrix; either way it is read as
    a CSR matrix, so time and memory are O(nnz + n + k^2) beyond the input.
    The objective ||A - A_pi||_1 comes from the stored entries and the class
    sizes: sum over stored entries v in block ab of |v - B_ab|, plus
    (n_a n_b - stored entries in ab) |B_ab| per block, over n^2. It holds for
    weighted A, has no cancelling terms and never lifts B to n x n.
    """
    a = sparse.csr_array(A if sparse.issparse(A) else as_matrix(A), dtype=float, copy=True)
    a.sum_duplicates()
    n = a.shape[0]
    if k < 1:
        raise ParameterError("need k >= 1")
    if a.sum() <= 0:
        raise DegenerateError("degree sorting needs at least one edge")
    deg = a.sum(axis=1)
    order = np.lexsort((np.arange(n), -deg))  # degree desc, index asc
    bounds = [int(math.floor(i * n / k + 0.5)) for i in range(k + 1)]  # half away from zero
    bounds[0], bounds[-1] = 0, n
    assign = np.empty(n, dtype=int)
    for c in range(k):
        assign[order[bounds[c]:bounds[c + 1]]] = c
    pi = Partition(assign, k)
    B = _block_means(a, assign, k)
    coo = a.tocoo()
    cell = assign[coo.row] * k + assign[coo.col]
    stored = np.bincount(cell, minlength=k * k).reshape(k, k)
    sizes = pi.sizes()
    total = (np.abs(coo.data - B.ravel()[cell]).sum()
             + ((np.outer(sizes, sizes) - stored) * np.abs(B)).sum())
    return _result_from_partition(a, pi, float(total) / n**2, "exact", {"boundaries": bounds})
