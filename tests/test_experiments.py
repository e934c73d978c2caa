import json
import math
import os

import numpy as np
import pytest

from graphon_kit import (
    DensityRule,
    ExperimentConfig,
    ParameterError,
    PowerLawSum,
    constant_graphon,
    named_graphon,
    run_concentration,
    run_consistency,
    run_degree_distribution,
    run_experiment,
    run_norm_convergence,
    step_matrix_vs_graphon_lp,
)
from graphon_kit.experiments import (
    analytic_degree_cdf,
    emit_csv,
    emit_summary,
    summarize,
    tail_slope,
)


def small_config(**overrides):
    base = dict(
        graphon=named_graphon("quadratic_xy"),
        ns=(16, 32),
        density=DensityRule("constant", 0.2),
        seeds=(1, 2),
        algorithm="degree_sorting",
        k_rule=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_density_rules(self):
        assert DensityRule("constant", 0.3)(100) == 0.3
        assert DensityRule("power", 1.0, 0.5)(400) == pytest.approx(0.05)
        assert DensityRule("log", 2.0)(100) == pytest.approx(2.0 * math.log(100) / 100)

    def test_density_rule_rejects_bad_rho(self):
        with pytest.raises(ParameterError):
            DensityRule("constant", 1.5)(10)
        with pytest.raises(ParameterError):
            DensityRule("typo", 0.1)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            small_config(ns=())
        with pytest.raises(ParameterError):
            small_config(seeds=())
        with pytest.raises(ParameterError):
            small_config(density=DensityRule("constant", 2.0))
        # every field is checked when the config is built, not inside trials
        for bad, match in ((dict(algorithm="least_sqares"), "least_sqares"),
                           (dict(algorithm="least_squares"), "needs kappa"),
                           (dict(algorithm="least_cut", kappa=1.5), "kappa"),
                           (dict(restarts=0), "restarts"),
                           (dict(p=0.5), "p must be"),
                           (dict(k_rule="ceil_n_third"), "ceil_n_third")):
            with pytest.raises(ParameterError, match=match):
                small_config(**bad)

    def test_kappa_n_below_one_is_a_skipped_trial(self):
        records = run_consistency(small_config(ns=(2, 16), algorithm="least_squares",
                                               kappa=0.25, k_rule=None, restarts=1))
        notes = {r.n: r.note for r in records}
        assert notes[2].startswith("skipped: need kappa * n >= 1")
        assert notes[16] == ""

    def test_classes_for(self):
        assert small_config(k_rule="ceil_n_quarter").classes_for(256) == 4
        assert small_config(k_rule=5).classes_for(1000) == 5
        assert small_config(k_rule=None, k=7).classes_for(10) == 7

    def test_json_round_trip(self):
        cfg = small_config(algorithm="least_squares", kappa=0.25, k_rule=None)
        doc = json.loads(json.dumps(cfg.to_json()))
        cfg2 = ExperimentConfig.from_json(doc)
        assert cfg2.to_json() == cfg.to_json()

    def test_from_json_rejects_missing_and_unknown_keys(self):
        doc = small_config().to_json()
        for key in ("graphon", "ns", "seeds"):
            with pytest.raises(ParameterError, match=key):
                ExperimentConfig.from_json({k: v for k, v in doc.items() if k != key})
        with pytest.raises(ParameterError, match="kapa"):
            ExperimentConfig.from_json(dict(doc, kapa=0.25))
        with pytest.raises(ParameterError, match="gama"):
            ExperimentConfig.from_json(
                dict(doc, density={"kind": "constant", "c": 0.2, "gama": 0.9}))
        # the CLI's experiment kind may ride along
        assert ExperimentConfig.from_json(dict(doc, kind="consistency")).to_json() == doc


class TestStepMatrixVsGraphon:
    def test_cell_means_are_l2_optimal(self):
        w = named_graphon("quadratic_xy")
        n = 8
        # cellwise means of 4xy on the uniform grid: 4 * xbar_i * xbar_j
        xbar = (np.arange(n) + 0.5) / n
        c = 4.0 * np.outer(xbar, xbar)
        base = step_matrix_vs_graphon_lp(c, w, 2)
        rng = np.random.default_rng(59)
        for _ in range(5):
            delta = rng.normal(scale=0.05, size=(n, n))
            assert step_matrix_vs_graphon_lp(c + (delta + delta.T) / 2, w, 2) >= base - 1e-4

    def test_constant_offset(self):
        c = np.zeros((6, 6))
        assert step_matrix_vs_graphon_lp(c, constant_graphon(0.7), 1) == pytest.approx(
            0.7, abs=1e-12)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(60)
        w = named_graphon("quadratic_xy")
        c = rng.random((5, 5))
        c = (c + c.T) / 2
        # brute force on a dense evaluation grid
        m = 400
        xs = (np.arange(m) + 0.5) / m
        wv = w.pair_eval(xs, xs)
        cv = c[np.minimum((xs * 5).astype(int), 4)][:, np.minimum((xs * 5).astype(int), 4)]
        brute = float(np.abs(wv - cv).mean())
        assert step_matrix_vs_graphon_lp(c, w, 1) == pytest.approx(brute, abs=2e-3)


class TestRunners:
    def test_consistency_records_well_formed(self):
        records = run_consistency(small_config())
        assert len(records) == 4
        assert [(r.n, r.seed) for r in records] == [(16, 1), (16, 2), (32, 1), (32, 2)]
        for r in records:
            assert 0.0 <= r.rho_observed <= 1.0
            assert r.values["error_truth_lp"] >= 0.0
            assert r.values["objective"] >= 0.0

    def test_consistency_small_ls_reports_alignment_error(self):
        cfg = small_config(graphon=constant_graphon(1.0), ns=(8,),
                           algorithm="least_squares", kappa=0.5, k_rule=None,
                           restarts=2)
        records = run_consistency(cfg)
        for r in records:
            assert r.values["error_hat2_q"] >= 0.0

    def test_consistency_survives_empty_graphs(self):
        cfg = small_config(graphon=constant_graphon(1.0), ns=(4,),
                           density=DensityRule("constant", 1e-6), seeds=(1,))
        records = run_consistency(cfg)
        assert len(records) == 1
        assert records[0].note != ""

    def test_concentration_columns(self):
        cfg = small_config(graphon=constant_graphon(1.0), ns=(20,), k=3,
                           n_random_partitions=50)
        records = run_concentration(cfg)
        for r in records:
            v = r.values
            assert v["eps_tilde"] >= 0.0 and v["cut_residual"] >= 0.0
            assert v["holds_a"] in (0.0, 1.0) and v["holds_b"] in (0.0, 1.0)
            assert v["cut_exact"] == 1.0  # n=20 is inside the exact gate

    def test_concentration_zero_probability_matrix(self):
        cfg = small_config(graphon=constant_graphon(0.0), ns=(12,), k=2,
                           seeds=(1,), n_random_partitions=20)
        records = run_concentration(cfg)
        v = records[0].values
        assert v["eps_tilde"] == 0.0 and v["cut_residual"] == 0.0
        assert v["holds_a"] == 1.0 and v["holds_b"] == 1.0

    def test_degree_distribution(self):
        cfg = small_config(graphon=constant_graphon(1.0), ns=(4000,),
                           density=DensityRule("constant", 0.1), seeds=(1, 2))
        records = run_degree_distribution(cfg)
        for r in records:
            # binomial degrees concentrate, so the normalized distribution is
            # close to the point-mass limit of the constant graphon
            assert 0.0 <= r.values["d_lp"] <= 0.08
            assert math.isnan(r.values["tail_slope"])  # slope fit gated to power laws

    def test_norm_convergence(self):
        cfg = small_config(graphon=constant_graphon(1.0), ns=(64,), p=1.0, seeds=(1,))
        records = run_norm_convergence(cfg)
        v = records[0].values
        assert v["h_norm"] == pytest.approx((64**2 - 64) / 64**2)
        assert v["w_norm"] == pytest.approx(1.0, abs=1e-9)
        assert v["q_step_error"] >= 0.0


class TestTailSlope:
    def test_exact_power_law_samples(self):
        # survival 1 - D(lam) proportional to lam^-2 gives slope -2
        u = (np.arange(1, 20001) - 0.5) / 20001
        degs = u ** -0.5
        assert tail_slope(degs / degs.mean()) == pytest.approx(-2.0, abs=0.15)

    def test_analytic_degree_cdf_constant(self):
        cdf = analytic_degree_cdf(constant_graphon(1.0))
        assert cdf(0.99) <= 0.01
        assert cdf(1.01) == 1.0

    def test_analytic_degree_cdf_power_law(self):
        cdf = analytic_degree_cdf(PowerLawSum(0.5))
        assert cdf(1.0) == pytest.approx(0.75, abs=1e-3)


class TestEmit:
    def test_csv_schema_and_stability(self, tmp_path):
        records = run_consistency(small_config())
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(records, str(p1))
        emit_csv(run_consistency(small_config()), str(p2))
        header = p1.read_text().splitlines()[0]
        assert header.startswith(
            "experiment,n,rho_target,rho_observed,kappa_or_k,algorithm,seed")
        assert "error_truth_lp" in header
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit_csv([], str(p))
        lines = p.read_text().splitlines()
        assert len(lines) == 1

    def test_summary(self, tmp_path):
        records = run_consistency(small_config())
        rows = summarize(records)
        assert {r["n"] for r in rows} == {16, 32}
        emit_summary(records, str(tmp_path / "s.csv"), str(tmp_path / "s.txt"))
        assert (tmp_path / "s.csv").exists() and (tmp_path / "s.txt").exists()

    def test_run_experiment_writes_artifacts(self, tmp_path):
        out = tmp_path / "res"
        run_experiment("consistency", small_config(), str(out))
        for name in ("trials.csv", "summary.csv", "summary.txt", "config.json"):
            assert (out / name).exists()


class TestDeterminism:
    def test_thread_count_invariance(self, tmp_path):
        cfg = small_config(ns=(16, 24), seeds=(1, 2, 3))
        outputs = {}
        for threads in ("1", "4"):
            os.environ["GRAPHON_KIT_THREADS"] = threads
            try:
                path = tmp_path / f"t{threads}.csv"
                emit_csv(run_consistency(cfg), str(path))
                outputs[threads] = path.read_bytes()
            finally:
                del os.environ["GRAPHON_KIT_THREADS"]
        assert outputs["1"] == outputs["4"]
