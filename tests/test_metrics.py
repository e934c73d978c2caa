import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    cut_norm_brute,
    hat_delta_cut_brute,
    hat_delta_p_brute,
    sym_matrix,
)
from graphon_kit import (
    BlockModel,
    Cdf,
    Coupling,
    DegenerateError,
    ParameterError,
    SizeError,
    StepGraphon,
    constant_graphon,
    cut_norm,
    cut_norm_exact,
    cut_norm_lower,
    degree_cdf_of_matrix,
    delta_p_step,
    hat_delta_cut,
    hat_delta_p,
    hat_delta_p_vs_graphon,
    levy_prokhorov,
    matrix_lp,
    named_graphon,
)
from graphon_kit import metrics
from graphon_kit.common import SearchBudget, substream
from graphon_kit.estimators import Partition, block_average


def cut_norm_by_indicators(a: np.ndarray) -> float:
    """Cut norm by multiplying the 0/1 indicator matrix of all 2^n row subsets
    into a, O(2^n n^2): the enumeration cut_norm_exact replaced."""
    n = a.shape[0]
    bits = np.arange(n, dtype=np.uint64)
    best = 0.0
    for start in range(0, 1 << n, 1 << 16):
        masks = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.uint64)
        colsums = ((masks[:, None] >> bits[None, :]) & 1).astype(float) @ a
        pos = np.where(colsums > 0, colsums, 0.0).sum(axis=1)
        neg = -np.where(colsums < 0, colsums, 0.0).sum(axis=1)
        best = max(best, float(np.maximum(pos, neg).max()))
    return best / n**2


def full_scan_perm_search(objective, n, mode, budget, seed, init, cell=None):
    """Heuristic swap local search that sends every transposition through
    objective: the reference the screened search must follow step for step."""
    assert mode == "heuristic"
    rng = substream(seed, "perm_search")
    best_v, best_s = math.inf, None

    def local_search(s):
        nonlocal best_v, best_s
        s = s.copy()
        v = objective(s)
        for _ in range(budget.iterations):
            improved = False
            for i in range(n - 1):
                for j in range(i + 1, n):
                    s[i], s[j] = s[j], s[i]
                    v2 = objective(s)
                    if v2 < v - 1e-15:
                        v = v2
                        improved = True
                    else:
                        s[i], s[j] = s[j], s[i]
            if not improved:
                break
        if v < best_v - 1e-15:
            best_v, best_s = v, s.copy()

    local_search(init)
    for _ in range(budget.restarts - 1):
        local_search(rng.permutation(n))
    return best_v, best_s


def block_constant(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Symmetric matrix constant on the blocks of a random k-class partition,
    so every class is a set of twins."""
    b = sym_matrix(rng, k) + np.diag(rng.random(k))
    z = rng.integers(k, size=n)
    return b[np.ix_(z, z)]


SEARCH_PAIRS = {
    "adjacency": lambda rng, n: (sym_matrix(rng, n, "adjacency"),
                                 sym_matrix(rng, n, "adjacency")),
    "weighted": lambda rng, n: (sym_matrix(rng, n), sym_matrix(rng, n)),
    "asymmetric": lambda rng, n: (rng.random((n, n)), rng.random((n, n))),
    "diagonal": lambda rng, n: (sym_matrix(rng, n) + np.diag(rng.random(n)),
                                sym_matrix(rng, n, "adjacency") + np.eye(n)),
    "twins": lambda rng, n: (block_constant(rng, n, 3), sym_matrix(rng, n)),
}


class TestMatrixLp:
    def test_zero(self):
        assert matrix_lp(np.zeros((3, 3)), 1) == 0.0

    def test_single_edge_l1(self):
        assert matrix_lp(np.array([[0.0, 1.0], [1.0, 0.0]]), 1) == pytest.approx(0.5)

    def test_single_edge_l2(self):
        assert matrix_lp(np.array([[0.0, 1.0], [1.0, 0.0]]), 2) == pytest.approx(0.5**0.5)

    def test_p_below_one(self):
        with pytest.raises(ParameterError):
            matrix_lp(np.zeros((2, 2)), 0.5)


class TestCutNormExact:
    def test_zero(self):
        val, s, t = cut_norm_exact(np.zeros((4, 4)))
        assert val == 0.0
        assert len(s) == 0 and len(t) == 0

    def test_all_ones(self):
        val, s, t = cut_norm_exact(np.ones((5, 5)))
        assert val == pytest.approx(1.0)
        assert len(s) == 5 and len(t) == 5

    def test_single_edge(self):
        val, _, _ = cut_norm_exact(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert val == pytest.approx(0.5)

    def test_matches_full_enumeration(self):
        rng = np.random.default_rng(21)
        for i in range(30):
            n = int(rng.integers(2, 8))
            a = sym_matrix(rng, n, "signed" if i % 2 else "uniform") - (0.0 if i % 2 else 0.4)
            val, s, t = cut_norm_exact(a)
            assert val == pytest.approx(cut_norm_brute(a), abs=1e-12)
            # the returned pair achieves the value
            assert abs(a[np.ix_(s, t)].sum()) / n**2 == pytest.approx(val, abs=1e-12)

    def test_matches_full_enumeration_every_n(self):
        rng = np.random.default_rng(38)
        for n in range(1, 12):
            for a in (np.zeros((n, n)), np.ones((n, n)), sym_matrix(rng, n, "signed"),
                      sym_matrix(rng, n, "uniform") - 0.4, rng.random((n, n)) - 0.5):
                val, s, t = cut_norm_exact(a)
                assert val == pytest.approx(cut_norm_brute(a), abs=1e-12)
                assert abs(a[np.ix_(s, t)].sum()) / n**2 == pytest.approx(val, abs=1e-12)

    def test_matches_indicator_enumeration(self):
        rng = np.random.default_rng(39)
        for n in range(16, 21):
            a = rng.random((n, n)) - 0.45 if n % 2 else sym_matrix(rng, n, "signed")
            val, s, t = cut_norm_exact(a)
            assert val == pytest.approx(cut_norm_by_indicators(a), rel=1e-12)
            assert abs(a[np.ix_(s, t)].sum()) / n**2 == pytest.approx(val, rel=1e-12)

    def test_size_gate(self):
        with pytest.raises(SizeError, match="gated at n <= 24"):
            cut_norm_exact(np.zeros((25, 25)))


class TestCutNormLower:
    def test_never_exceeds_exact(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            a = sym_matrix(rng, n, "uniform") - 0.4
            lower, s, t = cut_norm_lower(a, seed=int(rng.integers(1 << 30)))
            exact, _, _ = cut_norm_exact(a)
            assert lower <= exact + 1e-12
            assert abs(a[np.ix_(s, t)].sum()) / n**2 == pytest.approx(lower, abs=1e-12)

    def test_all_ones_reaches_exact(self):
        val, _, _ = cut_norm_lower(np.ones((12, 12)), seed=0)
        assert val == pytest.approx(1.0)

    def test_usually_tight_on_pm1(self):
        rng = np.random.default_rng(23)
        hits = 0
        for s in range(100):
            a = sym_matrix(rng, 8, "pm1")
            exact, _, _ = cut_norm_exact(a)
            lower, _, _ = cut_norm_lower(a, seed=s)
            hits += lower >= exact - 1e-12
        assert hits >= 95

    def test_dispatcher(self):
        a = np.ones((30, 30))
        assert cut_norm(a) == pytest.approx(1.0)  # above the exact gate, heuristic path


class TestHatDeltaP:
    def test_self_distance(self):
        rng = np.random.default_rng(24)
        a = sym_matrix(rng, 6)
        val, sigma = hat_delta_p(a, a, 2, mode="exact")
        assert val == 0.0
        assert np.array_equal(sigma, np.arange(6))

    def test_relabel_invariance(self):
        rng = np.random.default_rng(25)
        a = sym_matrix(rng, 7)
        perm = rng.permutation(7)
        ap = a[np.ix_(perm, perm)]
        assert hat_delta_p(a, ap, 1, mode="exact")[0] == 0.0
        assert hat_delta_p(ap, a, 1, mode="heuristic", seed=1)[0] <= 1e-12

    def test_edge_vs_zero(self):
        val, _ = hat_delta_p(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros((2, 2)), 1)
        assert val == pytest.approx(0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a, b = sym_matrix(rng, n), sym_matrix(rng, n)
            val, _ = hat_delta_p(a, b, 1, mode="exact")
            assert val == pytest.approx(hat_delta_p_brute(a, b, 1), abs=1e-12)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            n = int(rng.integers(3, 7))
            a, b, c = (sym_matrix(rng, n) for _ in range(3))
            dab = hat_delta_p(a, b, 1, mode="exact")[0]
            dba = hat_delta_p(b, a, 1, mode="exact")[0]
            dbc = hat_delta_p(b, c, 1, mode="exact")[0]
            dac = hat_delta_p(a, c, 1, mode="exact")[0]
            assert dab == pytest.approx(dba, abs=1e-12)
            assert dac <= dab + dbc + 1e-12

    def test_heuristic_upper_bounds_exact(self):
        rng = np.random.default_rng(28)
        for s in range(10):
            a, b = sym_matrix(rng, 7), sym_matrix(rng, 7)
            exact = hat_delta_p(a, b, 2, mode="exact")[0]
            heur = hat_delta_p(a, b, 2, mode="heuristic", seed=s)[0]
            assert heur >= exact - 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ParameterError):
            hat_delta_p(np.zeros((3, 3)), np.zeros((4, 4)), 1)

    def test_exact_size_gate(self):
        with pytest.raises(SizeError):
            hat_delta_p(np.zeros((10, 10)), np.zeros((10, 10)), 1, mode="exact")


class TestScreenedSwapSearch:
    """The heuristic p-distances skip transpositions that provably fail, and
    must return exactly what the full scan returns."""

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3])
    @pytest.mark.parametrize("kind", sorted(SEARCH_PAIRS))
    def test_hat_delta_p_same_as_full_scan(self, monkeypatch, kind, p):
        rng = np.random.default_rng(40)
        budget = SearchBudget(restarts=3)
        for n in (5, 12, 33):
            a, b = SEARCH_PAIRS[kind](rng, n)
            val, sigma = hat_delta_p(a, b, p, mode="heuristic", budget=budget, seed=n)
            with monkeypatch.context() as mp:
                mp.setattr(metrics, "_perm_search", full_scan_perm_search)
                ref_val, ref_sigma = hat_delta_p(a, b, p, mode="heuristic",
                                                 budget=budget, seed=n)
            assert val == ref_val
            assert np.array_equal(sigma, ref_sigma)

    @pytest.mark.parametrize("graphon", ["step", "quadratic_xy"])
    def test_vs_graphon_same_as_full_scan(self, monkeypatch, graphon):
        w = (StepGraphon(BlockModel([0.3, 0.7], [[0.2, 0.9], [0.9, 0.4]]))
             if graphon == "step" else named_graphon("quadratic_xy"))
        rng = np.random.default_rng(41)
        budget = SearchBudget(restarts=3)
        for a in (sym_matrix(rng, 16, "adjacency"), np.round(sym_matrix(rng, 16) * 4) / 4):
            for p in (1, 2):
                val, sigma = hat_delta_p_vs_graphon(a, w, p, mode="heuristic",
                                                    budget=budget, seed=2)
                with monkeypatch.context() as mp:
                    mp.setattr(metrics, "_perm_search", full_scan_perm_search)
                    ref_val, ref_sigma = hat_delta_p_vs_graphon(a, w, p, mode="heuristic",
                                                                budget=budget, seed=2)
                assert val == ref_val
                assert np.array_equal(sigma, ref_sigma)

    @pytest.mark.parametrize("kind", sorted(SEARCH_PAIRS))
    def test_swap_deltas_match_recomputed_totals(self, kind):
        rng = np.random.default_rng(44)
        n, p = 9, 1.5
        a, b = SEARCH_PAIRS[kind](rng, n)

        def cost(x, y, v):
            return np.abs(v - b[x, y]) ** p

        def total(s):
            return float((np.abs(a[np.ix_(s, s)] - b) ** p).sum())

        s = rng.permutation(n)
        screen = metrics._SwapScreen(a, cost, metrics._twin_classes(a), s)
        for step in range(4):
            for i in range(n):
                want = []
                for j in range(n):
                    t = s.copy()
                    t[[i, j]] = t[[j, i]]
                    want.append(total(t) - total(s))
                assert np.allclose(screen.row_delta(i), want, rtol=0, atol=1e-12)
            # the tables must stay right after accepted swaps, too
            i, j = sorted(rng.choice(n, 2, replace=False))
            s[[i, j]] = s[[j, i]]
            screen.swap(i, j)

    def test_screen_skips_most_objective_calls(self, monkeypatch):
        rng = np.random.default_rng(42)
        a, b = SEARCH_PAIRS["adjacency"](rng, 33)
        budget = SearchBudget(restarts=2)
        calls = {"screened": 0, "full": 0}
        lp = metrics.matrix_lp

        def search(key):
            def counted(*args):
                calls[key] += 1
                return lp(*args)

            with monkeypatch.context() as mp:
                mp.setattr(metrics, "matrix_lp", counted)
                if key == "full":
                    mp.setattr(metrics, "_perm_search", full_scan_perm_search)
                hat_delta_p(a, b, 2, mode="heuristic", budget=budget, seed=1)

        search("screened")
        search("full")
        assert calls["screened"] * 4 < calls["full"]

    def test_no_cubic_allocation(self):
        n = 200
        rng = np.random.default_rng(43)
        a, b = sym_matrix(rng, n, "adjacency"), sym_matrix(rng, n, "adjacency")
        tracemalloc.start()
        try:
            hat_delta_p(a, b, 2, mode="heuristic",
                        budget=SearchBudget(restarts=1, iterations=1), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the smallest n x n x n array (one byte per entry) is 8 MB
        assert peak < n**3


class TestHatDeltaCut:
    def test_self_and_relabel(self):
        rng = np.random.default_rng(29)
        a = sym_matrix(rng, 6, "adjacency")
        perm = rng.permutation(6)
        assert hat_delta_cut(a, a, mode="exact")[0] == 0.0
        assert hat_delta_cut(a, a[np.ix_(perm, perm)], mode="exact")[0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            a = sym_matrix(rng, 6, "adjacency")
            b = sym_matrix(rng, 6, "adjacency")
            val, _ = hat_delta_cut(a, b, mode="exact")
            assert val == pytest.approx(hat_delta_cut_brute(a, b), abs=1e-12)


class TestHatDeltaVsGraphon:
    def test_table_memory_gate(self, monkeypatch):
        # 200 x 200 with ~20000 distinct values would need ~6 GB of cell
        # tables: the gate fires before any table is built
        from graphon_kit import metrics

        def no_tables(*args):
            raise AssertionError("cell tables built past the size gate")

        monkeypatch.setattr(metrics, "_cell_integral_tables", no_tables)
        a = sym_matrix(np.random.default_rng(37), 200, "uniform")
        with pytest.raises(SizeError, match="MiB"):
            hat_delta_p_vs_graphon(a, constant_graphon(0.5), 1, mode="heuristic")

    def test_own_step_graphon(self):
        rng = np.random.default_rng(31)
        a = sym_matrix(rng, 4, "adjacency")
        w = StepGraphon(BlockModel(np.full(4, 0.25), a))
        val, _ = hat_delta_p_vs_graphon(a, w, 1, mode="exact")
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_zero_vs_constant(self):
        val, _ = hat_delta_p_vs_graphon(np.zeros((5, 5)), constant_graphon(0.7), 1, mode="exact")
        assert val == pytest.approx(0.7, abs=1e-9)

    def test_mismatched_boundary_positive(self):
        # two-block matrix on quarters vs a generating step graphon split at 0.3
        a = np.zeros((4, 4))
        a[:2, 2:] = 1.0
        a[2:, :2] = 1.0
        w = StepGraphon(BlockModel([0.3, 0.7], [[0.0, 1.0], [1.0, 0.0]]))
        val, _ = hat_delta_p_vs_graphon(a, w, 1, mode="exact")
        # brute force: for each relabeling, integrate |a_cell - W| cell by cell
        # against the common refinement of the 1/4-grid and the 0.3 split
        import itertools

        cuts = sorted({0.0, 0.25, 0.5, 0.75, 1.0, 0.3})
        best = np.inf
        for perm in itertools.permutations(range(4)):
            s = np.asarray(perm)
            ap = a[np.ix_(s, s)]
            tot = 0.0
            for xi in range(len(cuts) - 1):
                for yi in range(len(cuts) - 1):
                    x0, x1 = cuts[xi], cuts[xi + 1]
                    y0, y1 = cuts[yi], cuts[yi + 1]
                    xm, ym = (x0 + x1) / 2, (y0 + y1) / 2
                    cell = ap[min(int(xm * 4), 3), min(int(ym * 4), 3)]
                    tot += abs(cell - float(w.eval(xm, ym))) * (x1 - x0) * (y1 - y0)
            best = min(best, tot)
        assert best > 0.0
        assert val == pytest.approx(best, abs=1e-9)


class TestDeltaPStep:
    def test_self_distance(self):
        m = BlockModel([0.4, 0.6], [[1.0, 0.2], [0.2, 2.0]])
        val, nu = delta_p_step(m, m, 1)
        assert val == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(nu.nu, np.diag([0.4, 0.6]), atol=1e-8)

    def test_constants(self):
        a = BlockModel([1.0], [[2.0]])
        b = BlockModel([1.0], [[3.5]])
        assert delta_p_step(a, b, 1)[0] == pytest.approx(1.5, abs=1e-9)

    def test_two_block_vs_constant(self):
        w1 = BlockModel([0.5, 0.5], [[2.0, 0.0], [0.0, 2.0]])
        w2 = BlockModel([1.0], [[1.0]])
        assert delta_p_step(w1, w2, 1)[0] == pytest.approx(1.0, abs=1e-9)

    def test_block_relabeling(self):
        w1 = BlockModel([0.25, 0.25, 0.5], [[1.0, 2.0, 0.0], [2.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        reorder = [2, 0, 1]
        p2 = np.asarray(w1.p)[reorder]
        b2 = np.asarray(w1.B)[np.ix_(reorder, reorder)]
        val, _ = delta_p_step(w1, BlockModel(p2, b2), 1)
        assert val == pytest.approx(0.0, abs=1e-9)

    def test_coupling_marginals(self):
        w1 = BlockModel([0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]])
        w2 = BlockModel([0.5, 0.5], [[0.5, 0.2], [0.2, 0.8]])
        _, nu = delta_p_step(w1, w2, 2)
        assert np.allclose(nu.nu.sum(axis=1), [0.3, 0.7], atol=1e-10)
        assert np.allclose(nu.nu.sum(axis=0), [0.5, 0.5], atol=1e-10)
        assert np.all(nu.nu >= -1e-15)

    def test_coupling_invariant_checked(self):
        with pytest.raises(ParameterError):
            Coupling(np.array([[0.5, 0.0], [0.0, 0.2]]), [0.5, 0.5], [0.5, 0.5])


class TestDegreeCdfOfMatrix:
    def test_complete_graph_point_mass(self):
        d = degree_cdf_of_matrix(1.0 - np.eye(6))
        assert d(0.999) == 0.0
        assert d(1.0) == 1.0

    def test_star_on_four(self):
        a = np.zeros((4, 4))
        a[0, 1:] = 1.0
        a[1:, 0] = 1.0
        d = degree_cdf_of_matrix(a)
        assert np.allclose(d.points, [2.0 / 3.0, 2.0])
        assert np.allclose(d.values, [0.75, 1.0])

    def test_empty_graph(self):
        with pytest.raises(DegenerateError):
            degree_cdf_of_matrix(np.zeros((3, 3)))


class TestLevyProkhorov:
    def point_mass(self, a):
        return Cdf([a], [1.0])

    def test_self(self):
        d = Cdf([0.5, 1.5], [0.25, 1.0])
        assert levy_prokhorov(d, d) == pytest.approx(0.0, abs=1e-9)

    def test_point_masses_far(self):
        assert levy_prokhorov(self.point_mass(0.0), self.point_mass(1.0)) == pytest.approx(
            1.0, abs=1e-9)

    def test_point_masses_near(self):
        assert levy_prokhorov(self.point_mass(0.0), self.point_mass(0.3)) == pytest.approx(
            0.3, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            d1 = Cdf.from_samples(rng.random(10))
            d2 = Cdf.from_samples(rng.random(15) * 2.0)
            assert levy_prokhorov(d1, d2) == pytest.approx(levy_prokhorov(d2, d1), abs=1e-9)

    def test_matches_grid_scan(self):
        rng = np.random.default_rng(33)
        lam = np.linspace(-1.0, 4.0, 4001)
        for _ in range(10):
            d1 = Cdf.from_samples(rng.random(8))
            d2 = Cdf.from_samples(rng.random(12) * 1.5)

            def feasible(eps):
                lo = d2(lam - eps) - eps
                hi = d2(lam + eps) + eps
                mid = d1(lam)
                return np.all(lo <= mid + 1e-12) and np.all(mid <= hi + 1e-12)

            val = levy_prokhorov(d1, d2)
            assert feasible(val + 2e-3)
            assert not feasible(max(val - 2e-3, -1e-9)) or val < 2e-3

    def test_bound_by_kolmogorov(self):
        rng = np.random.default_rng(34)
        lam = np.linspace(-1.0, 3.0, 2001)
        for _ in range(10):
            d1 = Cdf.from_samples(rng.random(9))
            d2 = Cdf.from_samples(rng.random(9))
            ks = float(np.max(np.abs(d1(lam) - d2(lam))))
            assert levy_prokhorov(d1, d2) <= ks + 1e-9


class TestCdf:
    def test_invariants_enforced(self):
        with pytest.raises(ParameterError):
            Cdf([1.0, 0.5], [0.5, 1.0])
        with pytest.raises(ParameterError):
            Cdf([0.0, 1.0], [0.8, 0.5])

    def test_from_samples(self):
        d = Cdf.from_samples([3.0, 1.0, 1.0, 2.0])
        assert np.allclose(d.points, [1.0, 2.0, 3.0])
        assert np.allclose(d.values, [0.5, 0.75, 1.0])

    def test_from_function_tracks_steep_cdf(self):
        # quartic-root CDF is near-vertical at zero; the uniform grid alone
        # cannot resolve it, so this exercises the adaptive refinement
        def d(t):
            return min(1.0, max(0.0, t)) ** 0.25

        cdf = Cdf.from_function(d, 0.0, 2.0, m=1000)
        ts = np.linspace(0.0, 2.0, 20011)
        assert float(np.max(np.abs(cdf(ts) - np.vectorize(d)(ts)))) <= 5e-3


class TestAveragingContraction:
    def test_block_averaging_contracts_norms(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n + 1))
            a = sym_matrix(rng, n) - 0.3
            pi = Partition(rng.integers(k, size=n), k)
            _, lifted = block_average(a, pi)
            assert cut_norm_exact(lifted)[0] <= cut_norm_exact(a)[0] + 1e-12
            for p in (1, 2):
                assert matrix_lp(lifted, p) <= matrix_lp(a, p) + 1e-12
