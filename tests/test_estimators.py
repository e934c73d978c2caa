import numpy as np
import pytest
from scipy import sparse

from conftest import (
    block_average_brute,
    feasible_assignments,
    ls_objective_brute,
    sym_matrix,
)
from graphon_kit import estimators
from graphon_kit import (
    DegenerateError,
    ParameterError,
    Partition,
    SizeError,
    block_average,
    cut_norm_exact,
    degree_sorting,
    density,
    kappa_class_bounds,
    least_cut_exact,
    least_cut_search,
    least_squares_exact,
    least_squares_search,
    matrix_lp,
)

FOUR_TWO_BLOCK = np.array([
    [0.0, 0.0, 1.0, 1.0],
    [0.0, 0.0, 1.0, 1.0],
    [1.0, 1.0, 0.0, 0.0],
    [1.0, 1.0, 0.0, 0.0],
])


def random_adjacency(rng, n, p=0.5):
    return sym_matrix(rng, n, "adjacency") if p == 0.5 else (
        np.triu(rng.random((n, n)) < p, 1).astype(float)
        + np.triu(rng.random((n, n)) < p, 1).astype(float).T)


class TestKappaRule:
    def test_bounds(self):
        assert kappa_class_bounds(10, 0.2) == (2, 5)
        assert kappa_class_bounds(128, 0.25) == (32, 4)

    def test_kappa_n_floor(self):
        with pytest.raises(ParameterError):
            kappa_class_bounds(5, 0.1)


class TestBlockAverage:
    def test_trivial_partition_includes_diagonal_zeros(self):
        n, c = 5, 0.8
        a = c * (1.0 - np.eye(n))
        b, lifted = block_average(a, Partition(np.zeros(n, dtype=int), 1))
        assert b[0, 0] == pytest.approx(c * (n * n - n) / n**2)
        assert np.all(lifted == b[0, 0])

    def test_zero_matrix(self):
        b, _ = block_average(np.zeros((4, 4)), Partition(np.array([0, 0, 1, 1]), 2))
        assert np.all(b == 0.0)

    def test_two_block_graph(self):
        b, lifted = block_average(FOUR_TWO_BLOCK, Partition(np.array([0, 0, 1, 1]), 2))
        assert np.allclose(b, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(lifted, FOUR_TWO_BLOCK)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n + 1))
            a = sym_matrix(rng, n)
            assign = rng.integers(k, size=n)
            b, lifted = block_average(a, Partition(assign, k))
            assert np.allclose(b, block_average_brute(a, assign, k), atol=1e-12)
            assert np.allclose(lifted, b[np.ix_(assign, assign)], atol=0)


class TestLeastSquaresExact:
    def test_recovers_two_block_graph(self):
        res = least_squares_exact(FOUR_TWO_BLOCK, 0.5)
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(res.partition.assign, [0, 0, 1, 1])
        assert np.allclose(res.what.B, [[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(res.what.p, [0.5, 0.5])

    def test_empty_graph_canonical_tie(self):
        res = least_squares_exact(np.zeros((4, 4)), 0.5)
        assert res.objective == pytest.approx(0.0, abs=1e-15)
        assert np.all(np.asarray(res.what.B) == 0.0)
        assert np.array_equal(res.partition.assign, [0, 0, 0, 0])

    def test_complete_graph_matches_enumeration(self):
        # all cross entries are 1, but the zero diagonal sits inside the
        # within-class cells, so splitting finer genuinely lowers the
        # residual; the optimum is the first-listed two-class split
        a = 1.0 - np.eye(4)
        res = least_squares_exact(a, 0.5)
        best = min((ls_objective_brute(a, assign, assign.max() + 1), tuple(assign))
                   for assign in feasible_assignments(4, 2, 2))
        assert res.objective == pytest.approx(best[0], abs=1e-12)
        assert tuple(res.partition.assign) == best[1]

    def test_globally_optimal(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            a = random_adjacency(rng, n)
            kappa = 0.25
            res = least_squares_exact(a, kappa)
            min_size, max_k = kappa_class_bounds(n, kappa)
            best = min(ls_objective_brute(a, assign, assign.max() + 1)
                       for assign in feasible_assignments(n, min_size, max_k))
            assert res.objective == pytest.approx(best, abs=1e-12)

    def test_size_gate(self):
        with pytest.raises(SizeError):
            least_squares_exact(np.zeros((14, 14)), 0.5)

    def test_kappa_floor(self):
        with pytest.raises(ParameterError):
            least_squares_exact(np.zeros((4, 4)), 0.1)


class TestLeastSquaresSearch:
    def test_never_beats_exact(self):
        rng = np.random.default_rng(42)
        for i in range(20):
            n = int(rng.integers(5, 11))
            a = random_adjacency(rng, n)
            exact = least_squares_exact(a, 0.2)
            search = least_squares_search(a, 0.2, restarts=10, seed=i)
            assert search.objective >= exact.objective - 1e-12

    def test_zero_matrix_single_restart(self):
        res = least_squares_search(np.zeros((6, 6)), 0.3, restarts=1, seed=0)
        assert res.objective == pytest.approx(0.0, abs=1e-15)

    def test_well_formed_output(self):
        rng = np.random.default_rng(43)
        a = random_adjacency(rng, 24)
        res = least_squares_search(a, 0.2, restarts=5, seed=3)
        sizes = res.partition.sizes()
        min_size, _ = kappa_class_bounds(24, 0.2)
        assert np.all(sizes[sizes > 0] >= min_size)
        assert np.sum(np.asarray(res.what.p)) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.what.B, np.asarray(res.what.B).T, atol=0)
        assert np.allclose(res.normalized.B, np.asarray(res.what.B) / density(a), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        a = random_adjacency(rng, 30)
        r1 = least_squares_search(a, 0.2, restarts=8, seed=5)
        r2 = least_squares_search(a, 0.2, restarts=8, seed=5)
        assert r1.objective == r2.objective
        assert np.array_equal(r1.partition.assign, r2.partition.assign)


def ls_score_brute(a, assign, k):
    """The score least squares maximizes: sum A^2 - n^2 ||A - A_pi||_2^2."""
    n = a.shape[0]
    return float((a * a).sum() - n * n * ls_objective_brute(a, assign, k) ** 2)


def polish_brute(a, assign, k, min_size, rng):
    """The move/swap descent of estimators._polish as a plain sequential loop
    that scores every candidate from scratch (same rng draws, same order)."""
    n = a.shape[0]
    assign = assign.copy()
    score = ls_score_brute(a, assign, k)
    for _ in range(estimators._POLISH_MAX_SWEEPS):
        improved = False
        for v in rng.permutation(n):
            sizes = np.bincount(assign, minlength=k)
            c = assign[v]
            if not (sizes[c] - 1 >= min_size or sizes[c] == 1):
                continue
            best_d, best = -1, score
            for d in range(k):
                if d == c or sizes[d] + 1 < min_size:
                    continue
                moved = assign.copy()
                moved[v] = d
                sc = ls_score_brute(a, moved, k)
                if sc > best + 1e-10:
                    best_d, best = d, sc
            if best_d >= 0:
                assign[v], score = best_d, best
                improved = True
        for v in rng.permutation(n):
            if n <= estimators._FULL_SWAP_MAX_N:
                cands = np.arange(n)
            else:
                cands = rng.permutation(n)[:estimators._SWAP_SAMPLE]
            for u in cands:
                if assign[u] == assign[v]:
                    continue
                swapped = assign.copy()
                swapped[[v, u]] = assign[[u, v]]
                sc = ls_score_brute(a, swapped, k)
                if sc > score + 1e-10:
                    assign, score = swapped, sc
                    improved = True
        if not improved:
            break
    return assign


class TestBlockSums:
    """The incremental least-squares engine behind the local search."""

    @pytest.mark.parametrize("n, kind", [(12, "adjacency"), (12, "uniform"),
                                         (40, "adjacency"), (40, "uniform"),
                                         (12, "diagonal")])
    def test_gains_match_brute_score_change(self, n, kind):
        rng = np.random.default_rng(n)
        a = sym_matrix(rng, n, "uniform" if kind == "diagonal" else kind)
        if kind == "diagonal":
            a += np.diag(rng.random(n))
        k = 5
        assign = rng.integers(3, size=n)
        assign[0] = 3                        # a singleton class; class 4 is empty
        st = estimators._BlockSums(a, assign, k)
        base = ls_score_brute(a, assign, k)
        assert st.score == pytest.approx(base, rel=1e-12)
        tol = 1e-9 * max(1.0, abs(base))
        for v in [0, *rng.choice(np.arange(1, n), 5, replace=False)]:
            ds = np.flatnonzero(np.arange(k) != assign[v])
            for d, gain in zip(ds, st.move_gains(v, ds)):
                moved = assign.copy()
                moved[v] = d
                assert gain == pytest.approx(ls_score_brute(a, moved, k) - base, abs=tol)
            us = np.flatnonzero(assign != assign[v])
            for u, gain in zip(us, st.swap_gains(v, us)):
                swapped = assign.copy()
                swapped[[v, u]] = assign[[u, v]]
                assert gain == pytest.approx(ls_score_brute(a, swapped, k) - base, abs=tol)

    def test_running_sums_exact_with_diagonal(self):
        rng = np.random.default_rng(12)
        n, k = 12, 4
        a = sym_matrix(rng, n, "uniform") + np.eye(n)
        assign = rng.integers(k, size=n)
        st = estimators._BlockSums(a, assign, k)
        for step in range(40):
            v, u = rng.choice(n, 2, replace=False)
            if step % 2 or st.assign[v] == st.assign[u]:
                st.apply_move(v, int(rng.integers(k)))
            else:
                st.apply_swap(v, u)
            z = np.eye(k)[st.assign]
            assert np.abs(st.S - z.T @ a @ z).max() < 1e-12
            assert np.abs(st.C - a @ z).max() < 1e-12
            assert st.score == pytest.approx(ls_score_brute(a, st.assign, k), rel=1e-12)

    @pytest.mark.parametrize("n, k, min_size, kind", [
        (12, 4, 1, "adjacency"),             # full swap scan; moves into empty classes
        (12, 3, 3, "uniform"),
        (40, 3, 6, "adjacency"),             # sampled swap candidates
        (40, 3, 6, "uniform"),
    ])
    def test_polish_matches_sequential_reference(self, n, k, min_size, kind):
        rng = np.random.default_rng(n + k)
        a = sym_matrix(rng, n, kind)
        for seed in range(2):
            start = rng.permutation(np.arange(n) % (k if min_size > 1 else k - 1))
            got = estimators._polish(a, start, k, min_size, np.random.default_rng(seed))
            want = polish_brute(a, start, k, min_size, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)


class TestLeastCutExact:
    def test_recovers_two_block_graph(self):
        res = least_cut_exact(FOUR_TWO_BLOCK, 0.5)
        assert res.objective == pytest.approx(0.0, abs=1e-12)
        assert np.array_equal(res.partition.assign, [0, 0, 1, 1])

    def test_empty_graph(self):
        assert least_cut_exact(np.zeros((4, 4)), 0.5).objective == 0.0

    def test_constant_off_diagonal_near_zero(self):
        a = 1.0 - np.eye(5)
        res = least_cut_exact(a, 0.2)
        # every partition only leaves the diagonal-inclusion discrepancy
        assert res.objective <= cut_norm_exact(a - block_average(
            a, Partition(np.zeros(5, dtype=int), 1))[1])[0] + 1e-12

    def test_globally_optimal(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            n = 6
            a = random_adjacency(rng, n)
            res = least_cut_exact(a, 0.3)
            min_size, max_k = kappa_class_bounds(n, 0.3)
            best = np.inf
            for assign in feasible_assignments(n, min_size, max_k):
                _, lifted = block_average(a, Partition(assign, assign.max() + 1))
                best = min(best, cut_norm_exact(a - lifted)[0])
            assert res.objective == pytest.approx(best, abs=1e-12)

    def test_size_gate(self):
        with pytest.raises(SizeError):
            least_cut_exact(np.zeros((11, 11)), 0.5)


class TestLeastCutSearch:
    def test_never_beats_exact_up_to_heuristic_gap(self):
        rng = np.random.default_rng(46)
        for i in range(10):
            a = random_adjacency(rng, 8)
            exact = least_cut_exact(a, 0.25)
            search = least_cut_search(a, 0.25, restarts=5, seed=i)
            # the search objective is a lower-bound evaluation, so compare
            # its partition re-scored exactly against the exact optimum
            _, lifted = block_average(a, search.partition)
            rescored = cut_norm_exact(a - lifted)[0]
            assert rescored >= exact.objective - 1e-12

    def test_zero_matrix(self):
        res = least_cut_search(np.zeros((6, 6)), 0.3, restarts=2, seed=0)
        assert res.objective == pytest.approx(0.0, abs=1e-15)

    def test_heuristic_caveat_recorded(self):
        rng = np.random.default_rng(47)
        res = least_cut_search(random_adjacency(rng, 12), 0.25, restarts=2, seed=1)
        assert res.diagnostics["objective_is_heuristic"] is True


class TestDegreeSorting:
    def test_single_block(self):
        rng = np.random.default_rng(48)
        a = random_adjacency(rng, 9)
        res = degree_sorting(a, 1)
        assert np.allclose(res.what.B, [[density(a)]])
        assert res.what.p == pytest.approx([1.0])

    def test_star_on_four(self):
        a = np.zeros((4, 4))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        res = degree_sorting(a, 2)
        assert np.allclose(res.what.B, [[0.5, 0.5], [0.5, 0.0]])
        assert np.array_equal(res.partition.assign, [0, 0, 1, 1])

    def test_regular_graph_ties_by_index(self):
        a = np.zeros((6, 6))  # 6-cycle: 2-regular
        for i in range(6):
            a[i, (i + 1) % 6] = a[(i + 1) % 6, i] = 1.0
        res = degree_sorting(a, 3)
        assert np.array_equal(res.partition.assign, [0, 0, 1, 1, 2, 2])

    def test_boundaries_near_even_split(self):
        rng = np.random.default_rng(49)
        a = random_adjacency(rng, 10)
        res = degree_sorting(a, 3)
        bounds = res.diagnostics["boundaries"]  # [0, n_1, ..., n_k]
        for i, b in enumerate(bounds[1:], start=1):
            assert abs(b - i * 10 / 3) < 1.0

    def test_empty_graph(self):
        with pytest.raises(DegenerateError):
            degree_sorting(np.zeros((4, 4)), 2)

    def test_deterministic(self):
        rng = np.random.default_rng(50)
        a = random_adjacency(rng, 40)
        r1 = degree_sorting(a, 4)
        r2 = degree_sorting(a, 4)
        assert np.array_equal(r1.partition.assign, r2.partition.assign)
        assert r1.objective == r2.objective


class TestDegreeSortingSparse:
    """degree_sorting reads every input as CSR and scores it without a lift."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(51)
        for n in (7, 30, 64):
            yield random_adjacency(rng, n)
            yield sym_matrix(rng, n, "uniform") * 3.0                    # weighted
            yield sym_matrix(rng, n, "uniform") * random_adjacency(rng, n)  # probabilities

    @pytest.mark.parametrize("k", [1, 3, 5, 40, 70])
    def test_dense_and_csr_agree(self, k):
        for a in self.cases():
            dense, csr = degree_sorting(a, k), degree_sorting(sparse.csr_array(a), k)
            assert np.array_equal(dense.partition.assign, csr.partition.assign)
            assert np.array_equal(dense.what.p, csr.what.p)
            assert np.array_equal(dense.what.B, csr.what.B)
            assert dense.diagnostics == csr.diagnostics
            assert dense.objective == csr.objective

    @pytest.mark.parametrize("k", [1, 3, 5, 40, 70])
    def test_objective_matches_lifted_residual(self, k):
        # k = 40, 70 exceed n at n = 7 and n = 30, so some classes are empty;
        # 0/1 graphs have fewer distinct degrees than k
        for a in self.cases():
            res = degree_sorting(sparse.csr_array(a), k)
            lifted = block_average(a, Partition(res.partition.assign, res.partition.k))[1]
            brute = matrix_lp(a - lifted, 1)
            assert res.objective == pytest.approx(brute, rel=1e-12, abs=1e-300)

    def test_duplicate_csr_entries_are_summed(self):
        a = sparse.csr_array((np.array([0.5, 0.25, 0.5, 0.25]),
                              (np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0]))), shape=(3, 3))
        res = degree_sorting(a, 2)
        ref = degree_sorting(np.array([[0, 0.75, 0], [0.75, 0, 0], [0, 0, 0]]), 2)
        assert res.objective == ref.objective
        assert np.array_equal(res.what.B, ref.what.B)

    def test_input_not_modified(self):
        a = sparse.csr_array((np.array([1.0, 1.0]), (np.array([0, 0]), np.array([1, 1]))),
                             shape=(2, 2))
        before = (a.data.copy(), a.indices.copy(), a.indptr.copy())
        degree_sorting(a + a.T, 1)
        degree_sorting(a, 1)
        assert all(np.array_equal(x, y) for x, y in zip(before, (a.data, a.indices, a.indptr)))
