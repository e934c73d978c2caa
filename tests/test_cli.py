import functools
import json
import tracemalloc

import numpy as np
import pytest

from graphon_kit import (SearchBudget, block_average, cli, degree_cdf_of_matrix,
                         degree_sorting, graphon_to_json, hat_delta_cut, levy_prokhorov,
                         matrix_lp, named_graphon, read_matrix)
from graphon_kit.cli import build_parser, main
from graphon_kit.sampling import as_matrix, write_ssm

DATA = __file__.rsplit("/", 1)[0] + "/data"


@pytest.fixture
def graphon_spec(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(graphon_to_json(named_graphon("quadratic_xy"))))
    return str(path)


@pytest.fixture
def step_spec(tmp_path):
    doc = {"kind": "step", "p": [0.5, 0.5], "b_upper": [2.0, 0.0, 2.0]}
    path = tmp_path / "step.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestHelp:
    def test_main_help_golden(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert out == open(f"{DATA}/help_main.txt").read()

    @pytest.mark.parametrize("sub", ["sample", "estimate", "distance",
                                     "experiment", "oracle"])
    def test_subcommand_help_golden(self, capsys, sub):
        code, out, _ = run_cli(capsys, sub, "--help")
        assert code == 0
        assert out == open(f"{DATA}/help_{sub}.txt").read()

    def test_every_flag_documented(self):
        parser = build_parser()
        for name, sub in parser._subparsers._group_actions[0].choices.items():
            text = sub.format_help()
            for action in sub._actions:
                for opt in action.option_strings:
                    assert opt in text


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(capsys, "distance", "--kind", "nope")[0] == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "estimate", "--algo", "degsort", "--k", "2",
                               "--in", str(tmp_path / "missing.ssm"))
        assert code == 2

    def test_size_gate_is_exit_3(self, capsys, tmp_path, graphon_spec):
        g = tmp_path / "g.ssm"
        run_cli(capsys, "sample", "--graphon", graphon_spec, "--n", "50",
                "--rho", "0.5", "--seed", "1", "--out", str(g))
        code, _, err = run_cli(capsys, "distance", "--kind", "hat-lp",
                               "--mode", "exact", "--a", str(g), "--b", str(g))
        assert code == 3
        assert "9" in err  # message names the exact-mode threshold

    @pytest.mark.parametrize("pair", ["0 2", "1 7", "1 x", "3", "1 2 0.5 9"])
    def test_vertex_index_out_of_range_is_exit_2(self, capsys, tmp_path, pair):
        bad = tmp_path / "bad.ssm"
        bad.write_text(f"n 4\n1 2\n{pair}\n")
        code, _, err = run_cli(capsys, "estimate", "--algo", "degsort", "--k", "2",
                               "--in", str(bad))
        assert code == 2
        assert "bad.ssm:3" in err

    @pytest.mark.parametrize("body", ["2 2", "1 2 nan"])
    def test_bad_ssm_entry_is_exit_2(self, capsys, tmp_path, body):
        bad = tmp_path / "bad.ssm"
        bad.write_text(f"n 4\n1 2\n{body}\n")
        for argv in (["estimate", "--algo", "degsort", "--k", "2", "--in", str(bad)],
                     ["estimate", "--algo", "ls", "--kappa", "0.5", "--in", str(bad)],
                     ["distance", "--kind", "lp-levy", "--a", str(bad), "--b", str(bad)]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert "bad.ssm:3" in err

    @pytest.mark.parametrize("text, line", [("1 x\nx 1\n", 1), ("0 1\n1\n", 2)])
    def test_malformed_dense_file_is_exit_2(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        for argv in (["estimate", "--algo", "degsort", "--k", "2", "--in", str(bad)],
                     ["distance", "--kind", "lp", "--a", str(bad), "--b", str(bad)]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 2
            assert f"bad.txt:{line}" in err

    @pytest.mark.parametrize("kind", ["lp", "lp-levy"])
    def test_missing_second_input_is_exit_2(self, capsys, tmp_path, kind):
        g = tmp_path / "g.ssm"
        g.write_text("n 3\n1 2\n")
        code, _, err = run_cli(capsys, "distance", "--kind", kind, "--a", str(g))
        assert code == 2
        assert "--b" in err

    def test_numeric_error_is_exit_4(self, capsys, tmp_path):
        spec = tmp_path / "pl.json"
        spec.write_text(json.dumps({"kind": "power_law_sum", "alpha": 0.5}))
        code, _, _ = run_cli(capsys, "oracle", "--op", "power-law-rates",
                             "--alpha", "0.5", "--p", "3")
        assert code == 4


class TestPipeline:
    def test_sample_estimate_distance(self, capsys, tmp_path, graphon_spec):
        g = tmp_path / "g.ssm"
        q = tmp_path / "q.ssm"
        lat = tmp_path / "latent.txt"
        code, _, err = run_cli(capsys, "sample", "--graphon", graphon_spec,
                               "--n", "40", "--rho", "0.3", "--seed", "7",
                               "--out", str(g), "--emit-q", str(q),
                               "--emit-latent", str(lat))
        assert code == 0
        assert "seed" in err  # resolved seed echoed to stderr
        a = as_matrix(read_matrix(str(g)))
        assert a.shape == (40, 40)
        assert np.array_equal(a, a.T)

        model = tmp_path / "model.json"
        code, _, _ = run_cli(capsys, "estimate", "--algo", "ls", "--kappa", "0.25",
                             "--in", str(g), "--restarts", "5", "--seed", "3",
                             "--out", str(model))
        assert code == 0
        doc = json.loads(model.read_text())
        assert sum(doc["p"]) == pytest.approx(1.0)
        assert len(doc["assignment"]) == 40
        assert doc["mode"] == "search"

        code, out, _ = run_cli(capsys, "distance", "--kind", "lp", "--p", "1",
                               "--a", str(g), "--b", str(g))
        assert code == 0
        rec = json.loads(out)
        assert rec["value"] == 0.0

    def test_pipeline_deterministic(self, capsys, tmp_path, graphon_spec):
        outs = []
        for run in (1, 2):
            g = tmp_path / f"g{run}.ssm"
            run_cli(capsys, "sample", "--graphon", graphon_spec, "--n", "30",
                    "--rho", "0.2", "--seed", "11", "--out", str(g))
            outs.append(g.read_bytes())
        assert outs[0] == outs[1]

    def test_estimate_degsort(self, capsys, tmp_path, graphon_spec):
        g = tmp_path / "g.ssm"
        run_cli(capsys, "sample", "--graphon", graphon_spec, "--n", "24",
                "--rho", "0.5", "--seed", "2", "--out", str(g))
        code, out, _ = run_cli(capsys, "estimate", "--algo", "degsort",
                               "--k", "3", "--in", str(g))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["p"]) == 3


class TestDistanceKinds:
    @pytest.fixture
    def two_graphs(self, capsys, tmp_path, graphon_spec):
        paths = []
        for seed in (1, 2):
            g = tmp_path / f"d{seed}.ssm"
            run_cli(capsys, "sample", "--graphon", graphon_spec, "--n", "8",
                    "--rho", "0.8", "--seed", str(seed), "--out", str(g))
            paths.append(str(g))
        return paths

    def test_cut(self, capsys, two_graphs):
        code, out, _ = run_cli(capsys, "distance", "--kind", "cut",
                               "--a", two_graphs[0], "--b", two_graphs[1])
        rec = json.loads(out)
        assert code == 0
        assert rec["value"] >= 0.0
        assert rec["certificate"] is not None

    def test_hat_cut_heuristic_caveat(self, capsys, two_graphs):
        code, out, _ = run_cli(capsys, "distance", "--kind", "hat-cut",
                               "--mode", "heuristic",
                               "--a", two_graphs[0], "--b", two_graphs[1])
        rec = json.loads(out)
        assert code == 0
        assert rec["bounds_caveat"]

    @pytest.mark.parametrize("n, caveat", [
        (8, "upper bound (heuristic vertex alignment, exact cut norms)"),
        (30, "upper bound on the alignment minimum of a heuristic cut-norm lower bound"),
    ])
    def test_hat_cut_heuristic_caveat_by_size(self, capsys, monkeypatch, tmp_path,
                                              graphon_spec, n, caveat):
        # exact inner cut norms up to metrics.CUT_EXACT_MAX_N = 24, heuristic
        # above; one sweep of the alignment search keeps n = 30 quick
        monkeypatch.setattr(cli, "hat_delta_cut", functools.partial(
            hat_delta_cut, budget=SearchBudget(restarts=1, iterations=1)))
        paths = []
        for seed in (1, 2):
            g = tmp_path / f"c{seed}.ssm"
            run_cli(capsys, "sample", "--graphon", graphon_spec, "--n", str(n),
                    "--rho", "0.8", "--seed", str(seed), "--out", str(g))
            paths.append(str(g))
        code, out, _ = run_cli(capsys, "distance", "--kind", "hat-cut", "--mode", "heuristic",
                               "--a", paths[0], "--b", paths[1])
        assert code == 0
        assert json.loads(out)["bounds_caveat"] == caveat

    def test_lp_vs_graphon(self, capsys, two_graphs, graphon_spec):
        code, out, _ = run_cli(capsys, "distance", "--kind", "lp-vs-graphon",
                               "--p", "1", "--mode", "exact",
                               "--a", two_graphs[0], "--graphon", graphon_spec)
        assert code == 0
        assert json.loads(out)["value"] >= 0.0

    def test_delta_step(self, capsys, step_spec):
        code, out, _ = run_cli(capsys, "distance", "--kind", "delta-step",
                               "--p", "1", "--a", step_spec, "--b", step_spec)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.0, abs=1e-8)

    def test_lp_levy(self, capsys, two_graphs, graphon_spec):
        code, out, _ = run_cli(capsys, "distance", "--kind", "lp-levy",
                               "--a", two_graphs[0], "--graphon", graphon_spec)
        assert code == 0
        assert 0.0 <= json.loads(out)["value"] <= 1.0


class TestSparsePath:
    """estimate --algo degsort and distance --kind lp-levy read .ssm files as
    edge arrays and give what the dense matrix gives."""

    @staticmethod
    def random_ssm(path, n, edges, seed):
        rng = np.random.default_rng(seed)
        i, j = rng.integers(1, n + 1, size=(2, edges))
        keep = i != j
        path.write_text(f"n {n}\n" + "".join(f"{a} {b}\n" for a, b in zip(i[keep], j[keep])))

    def test_match_dense_path(self, capsys, tmp_path, graphon_spec):
        g, h = tmp_path / "g.ssm", tmp_path / "h.ssm"
        for path, seed in ((g, 3), (h, 4)):
            run_cli(capsys, "sample", "--graphon", graphon_spec, "--n", "200",
                    "--rho", "0.1", "--seed", str(seed), "--out", str(path))
        a, b = as_matrix(read_matrix(str(g))), as_matrix(read_matrix(str(h)))
        code, out, _ = run_cli(capsys, "estimate", "--algo", "degsort", "--k", "5",
                               "--in", str(g))
        assert code == 0
        doc, ref = json.loads(out), degree_sorting(a, 5)
        assert doc["assignment"] == ref.partition.assign.tolist()
        assert doc["p"] == ref.what.p.tolist()
        B = ref.what.B
        assert doc["b_upper"] == [B[i, j] for i in range(5) for j in range(i, 5)]
        assert doc["objective"] == pytest.approx(
            matrix_lp(a - block_average(a, ref.partition)[1], 1), rel=1e-12)
        code, out, _ = run_cli(capsys, "distance", "--kind", "lp-levy",
                               "--a", str(g), "--b", str(h))
        assert code == 0
        assert json.loads(out)["value"] == levy_prokhorov(degree_cdf_of_matrix(a),
                                                          degree_cdf_of_matrix(b))

    def test_no_dense_matrix(self, capsys, tmp_path):
        # an n x n float64 array alone would take n^2 * 8 bytes
        n = 2048
        g = tmp_path / "g.ssm"
        self.random_ssm(g, n, 20 * n, seed=9)
        for argv in (["estimate", "--algo", "degsort", "--k", "7", "--in", str(g)],
                     ["distance", "--kind", "lp-levy", "--a", str(g), "--b", str(g)]):
            tracemalloc.start()
            try:
                code, _, _ = run_cli(capsys, *argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < n * n * 8 / 4, argv[0]


class TestOracle:
    def test_power_law_rates(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--op", "power-law-rates",
                               "--alpha", "0.5", "--p", "1", "--variant", "product")
        assert code == 0
        rec = json.loads(out)
        assert rec["alpha_prime"] == pytest.approx(0.5)
        assert rec["beta_prime"] == pytest.approx(1.0)
        assert rec["log_factor"] is True

    def test_holder_rates(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--op", "holder-rates",
                               "--d", "2", "--alpha", "0.5", "--beta", "2",
                               "--p", "1")
        rec = json.loads(out)
        assert code == 0
        assert rec["alpha_prime"] == pytest.approx(0.15)
        assert rec["beta_prime"] == pytest.approx(3.0)

    def test_tail_rho(self, capsys, tmp_path):
        spec = tmp_path / "pl.json"
        spec.write_text(json.dumps({"kind": "power_law_sum", "alpha": 0.5}))
        code, out, _ = run_cli(capsys, "oracle", "--op", "tail-rho",
                               "--graphon", str(spec), "--rho", "0.001", "--p", "1")
        assert code == 0
        assert json.loads(out)["value"] > 0.0

    def test_oracle_error(self, capsys, step_spec):
        code, out, _ = run_cli(capsys, "oracle", "--op", "oracle-error",
                               "--graphon", step_spec, "--kappa", "0.5", "--p", "1")
        assert code == 0
        assert json.loads(out)["value"] == 0.0

    def test_round_to_grid(self, capsys, tmp_path):
        doc = {"kind": "step", "p": [0.33, 0.67], "b_upper": [1.0, 2.0, 1.0]}
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "oracle", "--op", "round-to-grid",
                               "--graphon", str(spec), "--n", "10", "--kappa", "0.3")
        assert code == 0
        assert json.loads(out)["p"] == pytest.approx([0.3, 0.7])


class TestExperimentCommand:
    def test_writes_artifacts(self, capsys, tmp_path, graphon_spec):
        cfg = {
            "kind": "consistency",
            "graphon": json.loads(open(graphon_spec).read()),
            "ns": [16], "seeds": [1, 2],
            "density": {"kind": "constant", "c": 0.2},
            "algorithm": "degree_sorting", "k_rule": 2,
        }
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "results"
        code, _, _ = run_cli(capsys, "experiment", "--config", str(cfg_path),
                             "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "trials.csv").exists()
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "summary.txt").exists()

    def test_bad_config_keys_are_exit_2(self, capsys, tmp_path, graphon_spec):
        base = {"kind": "consistency", "graphon": json.loads(open(graphon_spec).read()),
                "ns": [16], "seeds": [1], "density": {"kind": "constant", "c": 0.2}}
        cfg_path = tmp_path / "exp.json"
        for doc, key in (({k: v for k, v in base.items() if k != "ns"}, "ns"),
                         (dict(base, algoritm="least_squares", kapa=0.25), "algoritm")):
            cfg_path.write_text(json.dumps(doc))
            code, _, err = run_cli(capsys, "experiment", "--config", str(cfg_path),
                                   "--out", str(tmp_path / "results"))
            assert code == 2
            assert key in err
        assert not (tmp_path / "results").exists()
