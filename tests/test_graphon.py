import itertools

import numpy as np
import pytest

from conftest import feasible_assignments
from graphon_kit import (
    BlockModel,
    DegenerateError,
    DomainError,
    IntegrabilityError,
    IntervalPartition,
    MixedMembership,
    ParameterError,
    PowerLawProduct,
    PowerLawSum,
    StepGraphon,
    constant_graphon,
    degree,
    degree_cdf,
    graphon_from_json,
    graphon_to_json,
    holder_rates,
    lp_norm,
    named_graphon,
    normalize,
    oracle_error_step,
    power_law_rates,
    round_to_grid,
    step_average,
    tail_rho,
)
from graphon_kit.common import SearchBudget

TWO_BLOCK = StepGraphon(BlockModel([0.5, 0.5], [[0.0, 2.0], [2.0, 0.0]]))


def all_families():
    return [
        constant_graphon(1.0),
        TWO_BLOCK,
        PowerLawSum(0.5),
        PowerLawProduct(0.3),
        named_graphon("quadratic_xy"),
    ]


class TestEval:
    def test_constant(self):
        assert constant_graphon(1.0).eval(0.3, 0.7) == 1.0

    def test_power_law_sum_origin(self):
        assert PowerLawSum(0.5).eval(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_step_cross_block(self):
        assert TWO_BLOCK.eval(0.25, 0.75) == 2.0

    def test_symmetry_exact(self):
        rng = np.random.default_rng(0)
        for w in all_families():
            xs = rng.random(1000)
            ys = rng.random(1000)
            assert np.all(w.eval(xs, ys) == w.eval(ys, xs))

    def test_mixed_membership_symmetry(self):
        w = MixedMembership([1.0, 2.0], [[1.0, 0.5], [0.5, 2.0]])
        rng = np.random.default_rng(1)
        u = w.sample_latent(100, rng)
        v = w.sample_latent(100, rng)
        assert np.all(w.eval(u, v) == w.eval(v, u))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            PowerLawSum(0.5).eval(1.5, 0.0)

    def test_power_law_alpha_range(self):
        with pytest.raises(ParameterError):
            PowerLawSum(1.0)


class TestLpNorm:
    def test_step_l1(self):
        assert lp_norm(TWO_BLOCK, 1).value == pytest.approx(1.0, abs=1e-12)

    def test_constant_any_p(self):
        for p in (1, 2, 3.5):
            assert lp_norm(constant_graphon(2.5), p).value == pytest.approx(2.5, abs=1e-9)

    def test_power_law_product_l1(self):
        # integral of g over [0,1] is 1 exactly, so the product kernel has L^1 norm 1
        est = lp_norm(PowerLawProduct(0.5), 1)
        assert est.value == pytest.approx(1.0, abs=1e-5)

    def test_divergent(self):
        with pytest.raises(IntegrabilityError):
            lp_norm(PowerLawSum(0.5), 2)


class TestNormalize:
    def test_constant(self):
        assert normalize(constant_graphon(4.0)).eval(0.1, 0.9) == pytest.approx(1.0)

    def test_power_law_sum_already_normalized(self):
        w = normalize(PowerLawSum(0.5))
        assert lp_norm(w, 1).value == pytest.approx(1.0, abs=1e-6)
        assert w.eval(0.0, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_step_scaling(self):
        w = normalize(StepGraphon(BlockModel([0.5, 0.5], [[2.0, 2.0], [2.0, 2.0]])))
        assert w.eval(0.25, 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_zero_graphon(self):
        with pytest.raises(DegenerateError):
            normalize(constant_graphon(0.0))

    def test_all_families_unit_norm(self):
        for w in all_families():
            assert lp_norm(normalize(w), 1).value == pytest.approx(1.0, abs=1e-6)


class TestDegree:
    def test_step(self):
        w = normalize(TWO_BLOCK)
        assert degree(w, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_power_law_product_origin(self):
        assert degree(PowerLawProduct(0.5), 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_power_law_sum(self):
        # W_x = 1/2 + g(x)/2; at x = 0.75, g = 0.5 * 0.25^(-1/2) = 1
        assert degree(PowerLawSum(0.5), 0.75) == pytest.approx(1.0, abs=1e-9)

    def test_degree_integrates_to_l1_norm(self):
        for w in (normalize(TWO_BLOCK), PowerLawProduct(0.5), named_graphon("quadratic_xy")):
            xs = (np.arange(2000) + 0.5) / 2000
            mean_deg = np.mean([degree(w, float(x)) for x in xs])
            # midpoint rule under-resolves the power-law singularity at x=1,
            # so the tolerance is looser than the library's own quadrature
            assert mean_deg == pytest.approx(lp_norm(w, 1).value, abs=2e-2)


class TestDegreeCdf:
    def test_constant(self):
        w = constant_graphon(1.0)
        assert degree_cdf(w, 0.999).value == 0.0
        assert degree_cdf(w, 1.0).value == 1.0

    def test_power_law_product(self):
        assert degree_cdf(PowerLawProduct(0.5), 1.0).value == pytest.approx(0.75, abs=1e-9)

    def test_power_law_sum(self):
        assert degree_cdf(PowerLawSum(0.5), 1.0).value == pytest.approx(0.75, abs=1e-9)

    def test_monotone_with_limits(self):
        w = PowerLawSum(0.5)
        lams = np.linspace(0.0, 50.0, 40)
        vals = [degree_cdf(w, float(l)).value for l in lams]
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] == 0.0
        assert degree_cdf(w, 1e9).value == 1.0

    def test_closed_form_matches_monte_carlo(self):
        w = named_graphon("quadratic_xy")  # 4xy; W_x = 2x, so D(lam) = lam/2
        for lam in (0.5, 1.0, 1.5):
            est = degree_cdf(w, lam, mc_samples=100_000, seed=3)
            assert est.error > 0
            assert abs(est.value - lam / 2.0) <= 3.0 * est.error


class TestTailRho:
    def test_bounded_inactive(self):
        assert tail_rho(TWO_BLOCK, 0.5, 1).value == 0.0

    def test_step_clip(self):
        w = StepGraphon(BlockModel([0.5, 0.5], [[0.0, 4.0], [4.0, 0.0]]))
        assert tail_rho(w, 0.5, 1).value == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_rho(self):
        w = PowerLawSum(0.5)
        vals = [tail_rho(w, r, 1).value for r in (1e-1, 1e-2, 1e-3)]
        assert vals[0] >= vals[1] >= vals[2] >= 0.0


class TestStepAverage:
    def test_idempotent(self):
        p = IntervalPartition([0.0, 0.5, 1.0])
        out = step_average(TWO_BLOCK, p)
        assert np.allclose(out.B, TWO_BLOCK.model.B, atol=1e-12)
        assert np.allclose(out.p, [0.5, 0.5])

    def test_constant(self):
        out = step_average(constant_graphon(3.0), IntervalPartition([0.0, 0.2, 1.0]))
        assert np.allclose(out.B, 3.0, atol=1e-9)

    def test_quadratic_halves(self):
        out = step_average(named_graphon("quadratic_xy"), IntervalPartition([0.0, 0.5, 1.0]))
        assert np.allclose(out.B, [[0.25, 0.75], [0.75, 2.25]], atol=1e-9)

    def test_averaging_contracts_lp(self):
        p = IntervalPartition([0.0, 0.3, 0.8, 1.0])
        for w in (TWO_BLOCK, named_graphon("quadratic_xy")):
            avg = StepGraphon(step_average(w, p))
            for q in (1, 2):
                assert lp_norm(avg, q).value <= lp_norm(w, q).value + 1e-10


class TestOracleError:
    def test_zero_when_kappa_feasible(self):
        m = BlockModel([0.3, 0.7], [[1.0, 2.0], [2.0, 1.0]])
        val, cert = oracle_error_step(m, 0.3, 1, SearchBudget())
        assert val == 0.0
        assert cert.k == 2

    def test_constant(self):
        val, _ = oracle_error_step(BlockModel([1.0], [[2.0]]), 1.0, 1, SearchBudget())
        assert val == 0.0

    def test_infeasible_masses_give_positive_error(self):
        m = BlockModel([0.3, 0.7], [[1.0, 2.0], [2.0, 1.0]])
        val, cert = oracle_error_step(m, 0.5, 1, SearchBudget())
        assert val > 0.0
        assert np.min(cert.p) >= 0.5 - 1e-12

    def test_monotone_in_kappa(self):
        m = BlockModel([0.2, 0.3, 0.5], [[3.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])
        vals = [oracle_error_step(m, kap, 1, SearchBudget())[0] for kap in (0.6, 0.4, 0.2)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_greedy_path_above_k8(self):
        rng = np.random.default_rng(21)
        p = rng.random(9) + 0.05
        p /= p.sum()
        B = rng.random((9, 9)) * 3.0
        m = BlockModel(p, (B + B.T) / 2.0)
        kappa, q = 0.2, 1.0
        val, cert = oracle_error_step(m, kappa, q)
        assert cert.p.min() >= kappa - 1e-12
        # exhaustive minimum over every merge pattern that meets the floor
        w = np.outer(m.p, m.p)
        best = np.inf
        for g in feasible_assignments(9, 1, 9):
            Z = np.eye(g.max() + 1)[g]
            if (m.p @ Z).min() < kappa - 1e-12:
                continue
            merged = (Z.T @ (w * m.B) @ Z) / (Z.T @ w @ Z)
            best = min(best, float((w * np.abs(m.B - merged[np.ix_(g, g)]) ** q).sum()) ** (1 / q))
        assert val >= best - 1e-12
        assert oracle_error_step(m, kappa, q)[0] == val


class TestRoundToGrid:
    def test_already_on_grid(self):
        m = BlockModel([0.3, 0.7], [[1.0, 2.0], [2.0, 1.0]])
        out = round_to_grid(m, 10, 0.3)
        assert np.allclose(out.p, [0.3, 0.7], atol=1e-12)

    def test_cumulative_rounding(self):
        m = BlockModel([0.33, 0.67], [[1.0, 2.0], [2.0, 1.0]])
        out = round_to_grid(m, 10, 0.3)
        assert np.allclose(out.p, [0.3, 0.7], atol=1e-12)

    def test_halves_on_n4(self):
        m = BlockModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        out = round_to_grid(m, 4, 0.25)
        assert np.allclose(out.p, [0.5, 0.5], atol=1e-12)

    def test_kappa_n_floor(self):
        m = BlockModel([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            round_to_grid(m, 4, 0.1)


class TestRates:
    def test_compact_uniform(self):
        ap, bp = holder_rates(1, 1.0, 2.0, 2, compact=True, uniform=True)
        assert ap == pytest.approx(1.0)
        assert bp == np.inf

    def test_non_compact(self):
        ap, bp = holder_rates(2, 0.5, 2.0, 1, compact=False, uniform=False)
        assert bp == pytest.approx(3.0)
        assert ap == pytest.approx(0.15)

    def test_beta_limit(self):
        ap, _ = holder_rates(2, 0.5, 1e9, 1, compact=False, uniform=False)
        assert ap == pytest.approx(0.5 / 2.5, rel=1e-6)

    def test_non_compact_integrability(self):
        with pytest.raises(IntegrabilityError):
            holder_rates(1, 0.5, 1.0, 3, compact=False, uniform=False)

    def test_power_law_sum(self):
        assert power_law_rates(0.5, 1, "sum") == (pytest.approx(0.5), pytest.approx(1.0), False)

    def test_power_law_product_log_factor(self):
        ap, bp, log = power_law_rates(0.5, 1, "product")
        assert (ap, bp) == (pytest.approx(0.5), pytest.approx(1.0))
        assert log is True

    def test_power_law_quarter(self):
        ap, bp, _ = power_law_rates(0.25, 2, "sum")
        assert (ap, bp) == (pytest.approx(0.25), pytest.approx(1.0))

    def test_power_law_integrability(self):
        with pytest.raises(IntegrabilityError):
            power_law_rates(0.5, 2, "sum")


class TestSerialization:
    def test_round_trip(self):
        for w in all_families() + [MixedMembership([1.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])]:
            w2 = graphon_from_json(graphon_to_json(w))
            if w.latent_space == "unit_interval":
                rng = np.random.default_rng(7)
                xs, ys = rng.random(50), rng.random(50)
                assert np.allclose(w.eval(xs, ys), w2.eval(xs, ys), atol=0)

    def test_step_upper_triangle(self):
        doc = graphon_to_json(TWO_BLOCK)
        assert doc["kind"] == "step"
        assert doc["b_upper"] == [0.0, 2.0, 0.0]
